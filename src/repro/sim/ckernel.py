"""Optional compiled water-filling kernel for the batched data plane.

The batched fair-share engine's round loop runs over *tiny* arrays — at
e26 full scale a round touches ~100 loaded links and ~200 incidences —
so its cost is pure interpreter/dispatch overhead, not arithmetic.
This module compiles a ~40-line C translation of the loop at first use
(``gcc``/``cc`` + ``ctypes``; no build step, no new dependency) and
caches the shared object under the user cache directory keyed by a
source hash.

**The parity contract.**  The kernel performs exactly the numpy path's
IEEE-754 double operations in exactly its order:

* per-round ratios are one ``remaining / load`` divide per loaded link
  (links with zero load are ``+inf``, never divided);
* the bottleneck is the *first* index attaining the minimum ratio
  (a strict ``<`` scan — ``np.argmin``'s first-occurrence rule);
* every member class's flows subtract the share once per crossing
  link, sequentially per position (all subtrahends in a round are the
  same share, so cross-position interleaving is immaterial — the same
  argument that makes the numpy engine bit-identical to the dict one);
* one deferred clamp per round, with ``!(x > 0.0) -> +0.0``
  normalizing ``-0.0`` exactly like ``np.maximum(x, 0.0)``.

The suite asserts bitwise kernel/numpy equality on randomized
instances whenever a compiler is present; environments without one
(or with ``ALVC_NO_CKERNEL=1``) silently use the numpy loop.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile

__all__ = ["kernel_available", "waterfill_kernel", "KERNEL_SOURCE"]

#: Environment variable that disables compilation and the kernel path
#: entirely (the parity suite uses it to pin the numpy loop).
DISABLE_ENV = "ALVC_NO_CKERNEL"

KERNEL_SOURCE = r"""
/* Class-aggregated max-min fair water-filling round loop.
 *
 * Bit-for-bit contract with the numpy engine:
 *  - ratio = remaining/load for load > 0, +inf otherwise;
 *  - bottleneck = first index of the minimum ratio (strict < scan);
 *  - member classes subtract the share once per crossing link,
 *    sequentially per position;
 *  - one deferred clamp per round; !(x > 0) -> +0.0 normalizes -0.0
 *    like np.maximum(x, 0.0).
 *
 * Returns rounds executed, or -1 when a loaded bottleneck has no
 * unfrozen member class (water-filling invariant violation).
 */
#include <stdint.h>
#include <math.h>

int64_t alvc_waterfill(
    int64_t n_loaded,
    double *remaining,          /* [n_loaded] in/out */
    double *load,               /* [n_loaded] in/out */
    const int64_t *loaded,      /* [n_loaded] original link indices */
    int64_t unfrozen,           /* total carrier flows */
    int64_t *m,                 /* [C] class multiplicities, in/out */
    double *class_rate,         /* [C] out */
    const int64_t *cstarts,     /* [C] pool starts into cpools */
    const int64_t *clens,       /* [C] pool lengths */
    const int64_t *cpools,      /* flat compressed link positions */
    const int64_t *t_classes,   /* transpose: class ids grouped by link */
    const int64_t *t_bounds)    /* [n_links + 1] segment bounds */
{
    int64_t rounds = 0;
    while (unfrozen > 0) {
        rounds++;
        double best = INFINITY;
        int64_t b = 0;
        for (int64_t i = 0; i < n_loaded; i++) {
            if (load[i] > 0.0) {
                double r = remaining[i] / load[i];
                if (r < best) { best = r; b = i; }
            }
        }
        double share = best;
        int64_t ob = loaded[b];
        int64_t members = 0;
        for (int64_t k = t_bounds[ob]; k < t_bounds[ob + 1]; k++) {
            int64_t c = t_classes[k];
            int64_t mc = m[c];
            if (mc <= 0) continue;
            members++;
            class_rate[c] = share;
            m[c] = 0;
            unfrozen -= mc;
            int64_t e = cstarts[c] + clens[c];
            for (int64_t j = cstarts[c]; j < e; j++) {
                int64_t p = cpools[j];
                for (int64_t q = 0; q < mc; q++) remaining[p] -= share;
                load[p] -= (double)mc;
            }
        }
        if (members == 0) return -1;
        for (int64_t i = 0; i < n_loaded; i++)
            if (!(remaining[i] > 0.0)) remaining[i] = 0.0;
    }
    return rounds;
}
"""

#: Tri-state compile cache: unset / a ctypes function / None (failed).
_UNSET = object()
_kernel = _UNSET


def _cache_dir() -> str:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    try:
        path = os.path.join(base, "alvc")
        os.makedirs(path, exist_ok=True)
        return path
    except OSError:
        return tempfile.gettempdir()


def _entry_point(library: str):
    """The kernel symbol of the shared object *library*, or ``None``."""
    try:
        return ctypes.CDLL(library).alvc_waterfill
    except (OSError, AttributeError):
        return None


def _compile():
    """The ``alvc_waterfill`` entry point, compiling it if need be.

    Each process compiles from its own ``mkstemp`` source into its own
    scratch object, so concurrent cold starts never read a source that
    another process is still writing.  Only an object that exports the
    symbol is renamed into place; a cached object without it (left by
    an older, racy build) counts as a failed compile and is rebuilt.
    """
    digest = hashlib.sha256(KERNEL_SOURCE.encode()).hexdigest()[:16]
    directory = _cache_dir()
    library = os.path.join(directory, f"waterfill-{digest}.so")
    if os.path.exists(library):
        function = _entry_point(library)
        if function is not None:
            return function
    source = scratch = None
    try:
        fd, source = tempfile.mkstemp(suffix=".c", dir=directory)
        scratch = source[:-2] + ".so"
        with os.fdopen(fd, "w") as handle:
            handle.write(KERNEL_SOURCE)
        for compiler in ("cc", "gcc", "clang"):
            # -O2 without any fast-math flag: the contract is exact
            # IEEE doubles in source order.
            result = subprocess.run(
                [compiler, "-O2", "-fPIC", "-shared", source, "-o", scratch],
                capture_output=True,
                timeout=60,
            )
            if result.returncode != 0:
                continue
            # Loaded under the scratch name: dlopen would hand back a
            # stale symbol-less object already loaded as *library*.
            function = _entry_point(scratch)
            if function is not None:
                os.replace(scratch, library)
                return function
        return None
    except (OSError, subprocess.SubprocessError):
        return None
    finally:
        for path in (source, scratch):
            if path is not None and os.path.exists(path):
                try:
                    os.remove(path)
                except OSError:
                    pass


def waterfill_kernel():
    """The compiled round-loop entry point, or ``None``.

    Compiles on first call (cached across processes via the on-disk
    shared object, across calls via a module global).  Returns ``None``
    when no C compiler is available, compilation fails, or
    ``ALVC_NO_CKERNEL`` is set.
    """
    global _kernel
    if _kernel is not _UNSET:
        return _kernel
    if os.environ.get(DISABLE_ENV):
        _kernel = None
        return None
    function = _compile()
    if function is None:
        _kernel = None
        return None
    function.restype = ctypes.c_int64
    function.argtypes = [
        ctypes.c_int64,          # n_loaded
        ctypes.c_void_p,         # remaining
        ctypes.c_void_p,         # load
        ctypes.c_void_p,         # loaded
        ctypes.c_int64,          # unfrozen
        ctypes.c_void_p,         # m
        ctypes.c_void_p,         # class_rate
        ctypes.c_void_p,         # cstarts
        ctypes.c_void_p,         # clens
        ctypes.c_void_p,         # cpools
        ctypes.c_void_p,         # t_classes
        ctypes.c_void_p,         # t_bounds
    ]
    _kernel = function
    return function


def kernel_available() -> bool:
    """Whether the compiled kernel is usable in this environment."""
    return waterfill_kernel() is not None
