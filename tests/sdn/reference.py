"""Route a whole run through the networkx reference instead of CSR.

The end-to-end parity tests (chaos replay, workload soak, VN
embedding) compare a run on the production CSR router with the same
run on :mod:`repro.sdn.nx_reference`.  There is no selector to flip
any more, so :func:`reference_routing` swaps every binding of the six
routing entry points — in :mod:`repro.sdn.routing` itself and in every
loaded ``repro`` module that imported one by name — for its reference
twin, and makes the CSR engine's query methods fail, so a call site
the swap missed cannot quietly keep routing on CSR.
"""

from __future__ import annotations

import contextlib
import sys
from typing import Iterator

import pytest

from repro.sdn import nx_reference, routing
from repro.sdn.path_engine import PathEngine

#: The public entry points both routers implement.
ENTRY_POINTS = (
    "simple_path",
    "shortest_path_in_al",
    "chain_path",
    "k_shortest_paths",
    "routes_from",
    "shortest_surviving_path",
)

#: PathEngine methods that answer routing queries.
_CSR_QUERIES = ("route", "k_shortest", "routes_from", "route_avoiding")


def _csr_forbidden(*_args, **_kwargs):
    raise AssertionError("CSR routing ran inside reference_routing()")


@contextlib.contextmanager
def reference_routing() -> Iterator[None]:
    """Scope in which every route comes from the networkx reference."""
    swaps = {
        getattr(routing, name): getattr(nx_reference, name)
        for name in ENTRY_POINTS
    }
    with pytest.MonkeyPatch.context() as patch:
        for module_name, module in list(sys.modules.items()):
            if module is nx_reference or not (
                module_name == "repro" or module_name.startswith("repro.")
            ):
                continue
            for name in ENTRY_POINTS:
                bound = getattr(module, name, None)
                if bound in swaps:
                    patch.setattr(module, name, swaps[bound])
        for method in _CSR_QUERIES:
            patch.setattr(PathEngine, method, _csr_forbidden)
        yield
