"""Seeded 220-seed suite: the production data plane against oracles.

The vector engines claim **bit-identical** max-min rates:
``np.subtract.at`` replays the reference's sequential IEEE
subtractions, the deferred per-round clamp is provably equivalent to
the per-subtraction clamp, and the rank-ordered ``argmin`` replicates
the ``sorted(link)`` tie-break.  With no second production engine left
to diff against, every seed is checked by oracles that need none:

* kernel instances (add/remove/capacity-cut sequences) compare both
  vector engines with :func:`~repro.sim.fairshare.max_min_fair_rates`
  and certify the result with
  :func:`~repro.sim.fairshare.certify_max_min`;
* full simulator runs with ``FaultEvent`` schedules certify and
  reference-check *every* recompute, and match the frozen legacy loop's
  events, completions and mean FCT to float tolerance.
"""

import random

import numpy as np
import pytest

from repro.sim.event_simulator import EventDrivenFlowSimulator
from repro.sim.fairshare import certify_max_min, max_min_fair_rates
from repro.sim.faults import FaultEvent, FaultKind
from repro.sim.traffic import TrafficConfig, TrafficGenerator
from repro.sim.vector import BatchedFairShareEngine, VectorFairShareEngine
from tests.sim.oracle import assert_matches_legacy, certified_recomputes

#: 160 kernel instances + 60 simulator instances = 220 seeds.
KERNEL_CHUNKS = [range(start, start + 20) for start in range(0, 160, 20)]
SIM_CHUNKS = [range(start, start + 10) for start in range(1000, 1060, 10)]


@pytest.fixture
def clustered(populated_inventory):
    from repro.core.cluster import ClusterManager

    clusters = ClusterManager(populated_inventory)
    for service in populated_inventory.services_present():
        clusters.create_cluster(service)
    return populated_inventory, clusters


def _random_instance(rng: random.Random):
    """A random capacity map plus unique-link flow paths.

    Capacities come from a tiny value set so exact ratio ties (the
    tie-break path) occur often; each path samples links without
    replacement.
    """
    nodes = [f"n{index}" for index in range(rng.randint(4, 12))]
    caps = {}
    while len(caps) < rng.randint(3, 14):
        a, b = rng.sample(nodes, 2)
        caps[frozenset({a, b})] = rng.choice([1.0, 2.5, 4.0, 10.0, 10.0])
    links = list(caps)
    paths = {
        f"f{index}": rng.sample(links, rng.randint(0, min(5, len(links))))
        for index in range(rng.randint(1, 40))
    }
    return caps, paths


def _assert_rates_equal(got: dict, want: dict):
    assert set(got) == set(want)
    for flow, rate in want.items():
        if np.isinf(rate):
            assert np.isinf(got[flow])
        else:
            assert got[flow] == rate, flow


def _check(engines, paths: dict, caps: dict) -> None:
    """Every engine equals the reference, which certifies max-min."""
    reference = max_min_fair_rates(paths, caps)
    certify_max_min(reference, paths, caps)
    for engine in engines:
        _assert_rates_equal(engine.rates_by_flow(), reference)


class TestKernelParity:
    """Both vector engines vs max_min_fair_rates, certified."""

    @pytest.mark.parametrize("seeds", KERNEL_CHUNKS)
    def test_randomized_instances(self, seeds):
        for seed in seeds:
            rng = random.Random(seed)
            caps, paths = _random_instance(rng)
            engines = (
                VectorFairShareEngine(caps),
                BatchedFairShareEngine(caps),
            )
            for flow, path in paths.items():
                for engine in engines:
                    engine.add_flow(flow, path)
            _check(engines, paths, caps)

            # Incremental churn: drop a random subset and recompare —
            # the vector table must stay exact across slot reuse.
            doomed = [
                flow for flow in paths if rng.random() < 0.4
            ]
            for flow in doomed:
                for engine in engines:
                    engine.remove_flow(flow)
            survivors = {
                flow: path
                for flow, path in paths.items()
                if flow not in doomed
            }
            _check(engines, survivors, caps)

    @pytest.mark.parametrize("seeds", KERNEL_CHUNKS[:2])
    def test_capacity_cuts_mid_sequence(self, seeds):
        """The FaultEvent revocation hook (``set_capacity``) at the
        kernel level: degrade a loaded link, recompute, restore."""
        for seed in seeds:
            rng = random.Random(seed ^ 0xC0FFEE)
            caps, paths = _random_instance(rng)
            engines = (
                VectorFairShareEngine(caps),
                BatchedFairShareEngine(caps),
            )
            for flow, path in paths.items():
                for engine in engines:
                    engine.add_flow(flow, path)
            victim = rng.choice(list(caps))
            for capacity in (caps[victim] * 0.25, caps[victim]):
                for engine in engines:
                    engine.set_capacity(victim, capacity)
                _check(engines, paths, {**caps, victim: capacity})


def _fault_schedule(rng: random.Random, network) -> list:
    """A randomized FaultEvent schedule with capacity cuts mid-run."""
    edges = sorted(
        (a, b) for a, b, _ in network.edges()
    )
    ops = network.optical_switches()
    schedule = []
    for _ in range(rng.randint(1, 3)):
        a, b = rng.choice(edges)
        schedule.append(
            FaultEvent(
                time=round(rng.uniform(0.1, 1.5), 3),
                kind=FaultKind.LINK_DEGRADE,
                target=(a, b),
                severity=rng.choice([0.25, 0.5, 0.75]),
            )
        )
    if rng.random() < 0.7:
        a, b = rng.choice(edges)
        cut_at = round(rng.uniform(0.1, 1.0), 3)
        schedule.append(
            FaultEvent(time=cut_at, kind=FaultKind.LINK_CUT, target=(a, b))
        )
        schedule.append(
            FaultEvent(
                time=cut_at + 0.5,
                kind=FaultKind.LINK_REPAIR,
                target=(a, b),
            )
        )
    if rng.random() < 0.5 and ops:
        victim = rng.choice(ops)
        crash_at = round(rng.uniform(0.1, 0.8), 3)
        schedule.append(
            FaultEvent(
                time=crash_at, kind=FaultKind.OPS_CRASH, target=victim
            )
        )
        schedule.append(
            FaultEvent(
                time=crash_at + 0.6,
                kind=FaultKind.NODE_REPAIR,
                target=victim,
            )
        )
    return schedule


class TestSimulatorParity:
    """Full production runs under FaultEvent schedules: every recompute
    certified and reference-equal, the report matching legacy."""

    @pytest.mark.parametrize("seeds", SIM_CHUNKS)
    def test_randomized_fault_schedules(self, clustered, seeds):
        inventory, clusters = clustered
        for seed in seeds:
            rng = random.Random(seed)
            generator = TrafficGenerator(
                inventory,
                TrafficConfig(arrival_rate=40.0, sigma=0.8),
                seed=seed,
            )
            flows = generator.flows(30)
            failures = _fault_schedule(rng, inventory.network)
            with certified_recomputes() as checked:
                report = EventDrivenFlowSimulator(inventory, clusters).run(
                    flows, failures=failures
                )
            assert checked, seed
            legacy = EventDrivenFlowSimulator(
                inventory, clusters, engines={"sim_engine": "legacy"}
            ).run(flows, failures=failures)
            assert_matches_legacy(report, legacy, seed)
