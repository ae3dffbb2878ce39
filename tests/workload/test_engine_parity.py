"""Cross-implementation churn parity: every path makes identical decisions.

Implementation choices are never behaviour choices — so a whole churn
run (admissions, rejections, scaling, storms, defrag) must produce the
bit-identical decision log *and* land the control plane in the
digest-identical state on each of:

* routing on the CSR router vs the frozen networkx reference
  (:mod:`repro.sdn.nx_reference`),
* solver ``greedy`` vs ``auto`` (placement; ``auto`` may route small
  instances to the exact MILPs, which certify the same optimum the
  greedy reaches on these fabrics).
"""

from __future__ import annotations

import pytest

from tests.sdn.reference import reference_routing
from tests.workload.conftest import small_soak

SEEDS = (0, 7, 23)


def _soak_on(engines: dict, seed: int):
    return small_soak(
        seed,
        chaos_rate=0.15,
        storm_period=3,
        build_overrides={"engines": engines},
    )


def _assert_parity(baseline, candidate, label: str) -> None:
    assert candidate.decision_log == baseline.decision_log, (
        f"{label}: admission decisions diverged"
    )
    assert candidate.decisions_checksum == baseline.decisions_checksum
    assert candidate.state_digest == baseline.state_digest, (
        f"{label}: control-plane state diverged"
    )
    assert candidate == baseline, f"{label}: report fields diverged"


@pytest.mark.parametrize("seed", SEEDS)
def test_routing_parity_csr_vs_nx(seed):
    _, on_csr = _soak_on({}, seed)
    with reference_routing():
        _, on_nx = _soak_on({}, seed)
    _assert_parity(on_csr, on_nx, "routing csr vs nx")


@pytest.mark.parametrize("seed", SEEDS)
def test_solver_parity_greedy_vs_auto(seed):
    _, on_greedy = _soak_on({"solver": "greedy"}, seed)
    _, on_auto = _soak_on({"solver": "auto"}, seed)
    _assert_parity(on_greedy, on_auto, "solver greedy vs auto")
