"""Set-vs-bitset marginal-cover kernel parity and the kernel switch.

The bitset kernel behind :func:`greedy_marginal_cover` must be an
*implementation detail*: it returns a bit-for-bit identical
:class:`CoverResult` (selection, full decision trace, universe) to the
eager set kernel, and infeasible instances raise the same
:class:`CoverInfeasibleError` with the same ``uncovered`` set.  The
parity suite below forces each kernel with the process-scoped
:func:`use_kernel` switch over several hundred randomized instances
across universe sizes straddling
:data:`~repro.core.algorithms.BITSET_KERNEL_THRESHOLD`.  The
single-pass covers have one kernel; the switch must leave them alone.
"""

import random

import pytest

from repro.core import algorithms
from repro.core.algorithms import (
    BITSET_KERNEL_THRESHOLD,
    greedy_marginal_cover,
    greedy_max_weight_cover,
    natural_sort_key,
    random_cover,
    set_default_kernel,
    use_kernel,
)
from repro.exceptions import CoverInfeasibleError, ValidationError

KERNELS = ("set", "bitset")


def _per_kernel(run):
    """``run()``'s result under each forced kernel, keyed by kernel."""
    results = {}
    for kernel in KERNELS:
        with use_kernel(kernel):
            results[kernel] = run()
    return results


def _raised_per_kernel(run, error):
    """The exception ``run()`` raises under each forced kernel."""
    raised = {}
    for kernel in KERNELS:
        with use_kernel(kernel), pytest.raises(error) as info:
            run()
        raised[kernel] = info.value
    return raised


def _random_instance(rng: random.Random, universe_size: int):
    """One feasible random cover instance (universe, candidates, weights)."""
    universe = frozenset(f"m-{i}" for i in range(universe_size))
    n_candidates = rng.randint(2, max(3, universe_size // 2))
    members = list(universe)
    candidates = {}
    for index in range(n_candidates):
        size = rng.randint(1, max(1, universe_size // 2))
        candidates[f"tor-{index}"] = frozenset(rng.sample(members, size))
    # Guarantee feasibility: one candidate sweeps up the leftovers.
    covered = frozenset().union(*candidates.values())
    leftovers = universe - covered
    if leftovers:
        victim = f"tor-{rng.randrange(n_candidates)}"
        candidates[victim] = candidates[victim] | leftovers
    weights = {name: rng.randint(1, 12) for name in candidates}
    return universe, candidates, weights


#: (universe size, instances at that size) — sizes straddle the auto
#: threshold so both sides of the heuristic are exercised.
_GRID = ((6, 30), (20, 30), (63, 10), (64, 10), (96, 20), (160, 10))


class TestKernelParity:
    """~330 generated instances x 3 algorithms, set vs bitset forced."""

    @pytest.mark.parametrize("universe_size,count", _GRID)
    def test_greedy_max_weight_parity(self, universe_size, count):
        rng = random.Random(universe_size)
        for _ in range(count):
            universe, candidates, weights = _random_instance(
                rng, universe_size
            )
            results = _per_kernel(
                lambda: greedy_max_weight_cover(universe, candidates, weights)
            )
            assert results["set"] == results["bitset"]

    @pytest.mark.parametrize("universe_size,count", _GRID)
    def test_greedy_marginal_parity(self, universe_size, count):
        rng = random.Random(1000 + universe_size)
        for _ in range(count):
            universe, candidates, _ = _random_instance(rng, universe_size)
            results = _per_kernel(
                lambda: greedy_marginal_cover(universe, candidates)
            )
            assert results["set"] == results["bitset"]

    @pytest.mark.parametrize("universe_size,count", _GRID)
    def test_random_cover_parity(self, universe_size, count):
        rng = random.Random(2000 + universe_size)
        for trial in range(count):
            universe, candidates, _ = _random_instance(rng, universe_size)
            results = _per_kernel(
                lambda: random_cover(
                    universe, candidates, random.Random(trial)
                )
            )
            assert results["set"] == results["bitset"]

    def test_infeasible_parity(self):
        rng = random.Random(7)
        for _ in range(30):
            universe, candidates, _ = _random_instance(rng, 24)
            universe = universe | frozenset({"ghost-1", "ghost-2"})
            errors = _raised_per_kernel(
                lambda: greedy_marginal_cover(universe, candidates),
                CoverInfeasibleError,
            )
            assert errors["set"].uncovered == errors["bitset"].uncovered
            assert {"ghost-1", "ghost-2"} <= errors["bitset"].uncovered

    def test_marginal_exhaustion_parity(self):
        # Feasibility can also fail mid-run semantics-wise: candidates
        # exist but none add new elements.  Both kernels must report the
        # same uncovered remainder up front.
        universe = frozenset(f"m-{i}" for i in range(70))
        candidates = {
            "tor-0": frozenset({"m-0", "m-1"}),
            "tor-1": frozenset({"m-1", "m-2"}),
        }
        errors = _raised_per_kernel(
            lambda: greedy_marginal_cover(universe, candidates),
            CoverInfeasibleError,
        )
        assert errors["set"].uncovered == errors["bitset"].uncovered
        assert errors["set"].uncovered == universe - frozenset(
            {"m-0", "m-1", "m-2"}
        )

    @pytest.mark.parametrize(
        "cover",
        [
            lambda u, c: greedy_max_weight_cover(u, c, {}),
            greedy_marginal_cover,
            lambda u, c: random_cover(u, c, random.Random(0)),
        ],
        ids=["max_weight", "marginal", "random"],
    )
    def test_empty_candidates_empty_universe_parity(self, cover):
        # Degenerate regression: with no candidates at all, the set
        # kernel used to return an empty cover while the bitset kernel
        # diverged.  Both must now return the identical empty,
        # feasibility-checked result.
        results = _per_kernel(lambda: cover(frozenset(), {}))
        assert results["set"] == results["bitset"]
        assert results["set"].selected == ()
        assert results["set"].steps == ()
        assert results["set"].universe == frozenset()

    @pytest.mark.parametrize(
        "cover",
        [
            lambda u, c: greedy_max_weight_cover(u, c, {}),
            greedy_marginal_cover,
            lambda u, c: random_cover(u, c, random.Random(0)),
        ],
        ids=["max_weight", "marginal", "random"],
    )
    def test_empty_candidates_nonempty_universe_parity(self, cover):
        universe = frozenset({"m-0", "m-1"})
        errors = _raised_per_kernel(
            lambda: cover(universe, {}), CoverInfeasibleError
        )
        assert (
            errors["set"].uncovered
            == errors["bitset"].uncovered
            == universe
        )

    def test_empty_candidates_rng_stream_untouched(self):
        # The degenerate guard must short-circuit *before* the random
        # shuffle so it never consumes randomness (rng-stream parity
        # with callers that share one Random across covers).
        rng = random.Random(42)
        random_cover(frozenset(), {}, rng)
        assert rng.random() == random.Random(42).random()


class TestInfeasibilityReporting:
    """The interning pass doubles as the feasibility check: the error
    must still name the *exact* uncovered set, not just "infeasible"."""

    def test_bitset_reports_exact_uncovered_set(self):
        universe = frozenset(f"m-{i}" for i in range(10))
        candidates = {
            "tor-0": frozenset({"m-0", "m-1", "m-2"}),
            "tor-1": frozenset({"m-2", "m-3"}),
        }
        with use_kernel("bitset"), pytest.raises(CoverInfeasibleError) as info:
            greedy_marginal_cover(universe, candidates)
        assert info.value.uncovered == frozenset(
            f"m-{i}" for i in range(4, 10)
        )

    def test_feasibility_checked_before_weights(self):
        # Error precedence: an infeasible instance raises
        # CoverInfeasibleError even when weights are also missing.
        universe = frozenset({"m-0", "ghost"})
        candidates = {"tor-0": frozenset({"m-0"})}
        with pytest.raises(CoverInfeasibleError):
            greedy_max_weight_cover(universe, candidates, {})

    def test_missing_weights_parity(self):
        universe = frozenset({"m-0", "m-1"})
        candidates = {
            "tor-1": frozenset({"m-0"}),
            "tor-0": frozenset({"m-1"}),
        }
        errors = _raised_per_kernel(
            lambda: greedy_max_weight_cover(universe, candidates, {}),
            ValidationError,
        )
        message = str(errors["set"])
        assert message == str(errors["bitset"])
        assert message.index("tor-0") < message.index("tor-1")


class TestKernelSelection:
    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValidationError):
            with use_kernel("simd"):
                pass

    def test_set_default_kernel_validates(self):
        with pytest.raises(ValidationError):
            set_default_kernel("gpu")

    def test_set_default_kernel_returns_previous(self):
        previous = set_default_kernel("bitset")
        try:
            assert previous == "auto"
            assert set_default_kernel("auto") == "bitset"
        finally:
            set_default_kernel("auto")

    def test_use_kernel_restores(self):
        with use_kernel("bitset") as active:
            assert active == "bitset"
            assert algorithms._default_kernel == "bitset"
        assert algorithms._default_kernel == "auto"

    def test_auto_keeps_single_pass_covers_on_set(self, monkeypatch):
        # The single-pass covers have no bitset kernel: even a forced
        # switch on a large universe never interns a bit universe.
        def no_interning(*_args):
            raise AssertionError("single-pass cover interned a bitset")

        monkeypatch.setattr(algorithms, "_BitUniverse", no_interning)
        universe = frozenset(range(BITSET_KERNEL_THRESHOLD * 2))
        candidates = {"tor-0": universe}
        for kernel in ("auto", "bitset"):
            with use_kernel(kernel):
                greedy_max_weight_cover(universe, candidates, {"tor-0": 1})
                random_cover(universe, candidates, random.Random(0))

    def test_auto_promotes_amortized_covers_above_threshold(self):
        big = frozenset(range(BITSET_KERNEL_THRESHOLD))
        small = frozenset(range(BITSET_KERNEL_THRESHOLD - 1))
        assert algorithms._marginal_kernel(big) == "bitset"
        assert algorithms._marginal_kernel(small) == "set"

    def test_explicit_kernel_wins_over_default(self):
        # A forced kernel overrides the size-chosen default both ways.
        big = frozenset(range(BITSET_KERNEL_THRESHOLD))
        small = frozenset(range(BITSET_KERNEL_THRESHOLD - 1))
        with use_kernel("set"):
            assert algorithms._marginal_kernel(big) == "set"
        with use_kernel("bitset"):
            assert algorithms._marginal_kernel(small) == "bitset"

    def test_default_kernel_applies_to_auto_call_sites(self, monkeypatch):
        # Below the threshold "auto" runs the set kernel; the forced
        # switch must route the call to the bitset kernel instead.
        universe = frozenset(f"m-{i}" for i in range(8))
        candidates = {
            "tor-0": frozenset(f"m-{i}" for i in range(5)),
            "tor-1": frozenset(f"m-{i}" for i in range(3, 8)),
        }
        ran = []
        bitset = algorithms._greedy_marginal_bitset

        def spy(*args):
            ran.append("bitset")
            return bitset(*args)

        monkeypatch.setattr(algorithms, "_greedy_marginal_bitset", spy)
        reference = greedy_marginal_cover(universe, candidates)
        assert ran == []
        with use_kernel("bitset"):
            forced = greedy_marginal_cover(universe, candidates)
        assert ran == ["bitset"]
        assert forced == reference


class TestNaturalSortKeyEdges:
    """Edge cases beyond the happy paths in test_algorithms."""

    def test_empty_string(self):
        assert sorted(["tor-1", ""], key=natural_sort_key) == ["", "tor-1"]

    def test_bare_prefix_vs_indexed(self):
        # "tor" has no numeric suffix: it sorts after every indexed id
        # sharing the prefix.
        assert sorted(["tor", "tor-2", "tor-10"], key=natural_sort_key) == [
            "tor-2",
            "tor-10",
            "tor",
        ]

    def test_multi_dash_ids(self):
        items = ["dc-1-tor-10", "dc-1-tor-2"]
        assert sorted(items, key=natural_sort_key) == [
            "dc-1-tor-2",
            "dc-1-tor-10",
        ]

    def test_non_string_ids(self):
        # Plain integer ids order numerically, not by their string form
        # (which would put 10 before 2).
        assert sorted([10, 2], key=natural_sort_key) == [2, 10]

    def test_mixed_int_and_string_ids(self):
        # The regression this pins: mixed id populations used to raise
        # TypeError (comparing ("10", ...) against ("tor", 10, ...)
        # shapes).  Every key now has the same (str, int, int, str)
        # shape, ints sort before prefixed ids, and numeric order wins
        # within each group.
        mixed = ["tor-10", 2, "tor-2", 10, "ops-1", 3]
        assert sorted(mixed, key=natural_sort_key) == [
            2,
            3,
            10,
            "ops-1",
            "tor-2",
            "tor-10",
        ]

    def test_bool_ids_keep_string_keying(self):
        # bools are ints in python; keep them on the generic string
        # path so True/False don't interleave with numeric ids.
        assert natural_sort_key(True) == natural_sort_key("True")

    def test_numeric_suffix_with_leading_zeros(self):
        assert sorted(["tor-010", "tor-2"], key=natural_sort_key) == [
            "tor-2",
            "tor-010",
        ]

    def test_stable_for_equal_keys(self):
        assert natural_sort_key("ops-3") == natural_sort_key("ops-3")
