"""Batched admission pipeline: plan interning, invalidation, parity.

The contract is structural parity with per-event admission: the plan
and per-arrival routing resolve through the same tree-canonical
primitive (:func:`repro.sim.admission.resolve_tree_path`), so an
interned route must equal a cold per-pair resolution — including after
fault/repair cycles force lazy re-resolution, and on both the CSR
router and the frozen networkx reference.
"""

import random

import pytest

from repro.exceptions import RoutingError, ValidationError
from repro.observability.runtime import Telemetry
from repro.sdn import nx_reference
from repro.sdn.path_engine import engine_for
from repro.sim.admission import (
    NO_PLAN_ROUTE,
    AdmissionPlan,
    plan_admission,
    resolve_tree_path,
)
from repro.sim.event_simulator import EventDrivenFlowSimulator
from repro.sim.faults import FaultEvent, FaultKind
from repro.sim.traffic import TrafficConfig, TrafficGenerator
from repro.sim.vector import VectorFairShareEngine
from tests.sim.oracle import assert_matches_legacy, certified_recomputes

ENGINES = ("csr", "nx")


def _cold(engine, network, source, destination, al):
    """A cold tree-canonical resolution on the named router."""
    if engine == "csr":
        return resolve_tree_path(network, source, destination, al)
    return nx_reference.routes_from(network, source, [destination], al)[
        destination
    ]


@pytest.fixture
def clustered(populated_inventory):
    from repro.core.cluster import ClusterManager

    clusters = ClusterManager(populated_inventory)
    for service in populated_inventory.services_present():
        clusters.create_cluster(service)
    return populated_inventory, clusters


def _host_pairs(inventory, rng, n_pairs):
    """Random distinct host pairs (flat fabric, no AL restriction)."""
    hosts = sorted(
        {inventory.host_of(vm.vm_id) for vm in inventory.all_vms()}
    )
    pairs = []
    for _ in range(n_pairs):
        a, b = rng.sample(hosts, 2)
        pairs.append((a, b, None))
    return pairs


def _link_index(inventory):
    capacities = {
        frozenset((a, b)): link.bandwidth_gbps
        for a, b, link in inventory.network.edges()
    }
    return VectorFairShareEngine(capacities).link_index


class TestPlanResolution:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_interned_path_matches_cold_resolution(
        self, populated_inventory, engine
    ):
        rng = random.Random(7)
        pairs = _host_pairs(populated_inventory, rng, 12)
        plan = plan_admission(
            populated_inventory.network,
            pairs,
            _link_index(populated_inventory),
        )
        for source, destination, al in pairs:
            route = plan.lookup(source, destination, al)
            assert route is not NO_PLAN_ROUTE
            cold = _cold(
                engine, populated_inventory.network, source, destination, al
            )
            assert route.path == cold
            assert len(route.links) == len(cold) - 1
            assert route.indices.shape[0] == len(route.links)

    def test_engines_agree_on_interned_paths(self, populated_inventory):
        rng = random.Random(13)
        pairs = _host_pairs(populated_inventory, rng, 12)
        plan = plan_admission(
            populated_inventory.network,
            pairs,
            _link_index(populated_inventory),
        )
        for key in pairs:
            assert plan.lookup(*key).path == _cold(
                "nx", populated_inventory.network, *key
            )

    def test_unreachable_pair_interns_negative(self, populated_inventory):
        network = populated_inventory.network
        hosts = sorted(
            {
                populated_inventory.host_of(vm.vm_id)
                for vm in populated_inventory.all_vms()
            }
        )
        plan = AdmissionPlan(network, _link_index(populated_inventory))
        # An AL signature that connects nothing: the per-pair flat
        # retry still resolves, so use a bogus destination instead.
        with pytest.raises(RoutingError):
            resolve_tree_path(network, hosts[0], "no-such-host", None)

    def test_lookup_is_lazy(self, populated_inventory):
        rng = random.Random(5)
        pairs = _host_pairs(populated_inventory, rng, 4)
        plan = AdmissionPlan(
            populated_inventory.network,
            _link_index(populated_inventory),
        )
        assert len(plan) == 0
        source, destination, al = pairs[0]
        route = plan.lookup(source, destination, al)
        assert (source, destination, al) in plan
        assert route.path[0] == source and route.path[-1] == destination

    def test_telemetry_counters(self, populated_inventory):
        rng = random.Random(3)
        pairs = _host_pairs(populated_inventory, rng, 6)
        telemetry = Telemetry.enabled_instance()
        plan = plan_admission(
            populated_inventory.network,
            pairs,
            _link_index(populated_inventory),
            telemetry=telemetry,
        )
        resolved = telemetry.counter(
            "alvc_admission_pairs_resolved_total", ""
        ).value
        assert resolved == len(set(pairs))
        victim = plan.lookup(*pairs[0]).links[0]
        dropped = plan.invalidate_crossing((victim,))
        assert dropped >= 1
        assert (
            telemetry.counter(
                "alvc_admission_invalidated_pairs_total", ""
            ).value
            == dropped
        )


class TestFaultRepairReresolution:
    """S3: lazily re-resolved interned paths equal cold resolution
    after ``note_fault``/repair cycles (seeded, against both routers)."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_reresolution_matches_cold_engine(
        self, populated_inventory, engine
    ):
        network = populated_inventory.network
        rng = random.Random(29)
        pairs = _host_pairs(populated_inventory, rng, 10)
        plan = plan_admission(network, pairs, _link_index(populated_inventory))
        for cycle in range(3):
            # A fault lands on a link some interned route crosses.
            victim_route = plan.lookup(*pairs[cycle])
            victim = victim_route.links[
                rng.randrange(len(victim_route.links))
            ]
            engine_for(network).note_fault()
            dropped = plan.invalidate_crossing((victim,))
            assert dropped >= 1
            assert pairs[cycle] not in plan
            # Repair: availability flips back, no topology mutation.
            engine_for(network).note_fault()
            for key in pairs:
                route = plan.lookup(*key)
                assert route is not NO_PLAN_ROUTE
                cold = _cold(engine, network, *key)
                assert route.path == cold, (cycle, key)

    def test_negative_entries_survive_invalidation(
        self, populated_inventory
    ):
        network = populated_inventory.network
        plan = AdmissionPlan(network, _link_index(populated_inventory))
        hosts = sorted(
            {
                populated_inventory.host_of(vm.vm_id)
                for vm in populated_inventory.all_vms()
            }
        )
        key = (hosts[0], hosts[1], None)
        plan._routes[key] = NO_PLAN_ROUTE
        all_links = [
            frozenset((a, b)) for a, b, _ in network.edges()
        ]
        assert plan.invalidate_crossing(all_links) == 0
        assert plan.lookup(*key) is NO_PLAN_ROUTE


class TestBatchedSimulatorParity:
    """End-to-end: batched admission vs per-event admission.

    The frozen legacy loop is the surviving per-event admission path —
    it routes every arrival at its event through the same
    tree-canonical primitive — so batched reports must match it on
    every discrete outcome (completions, hops, drops, reroutes), with
    times to float tolerance, while every batched recompute is
    certified max-min fair.
    """

    def _flows(self, inventory, seed, n=25):
        generator = TrafficGenerator(
            inventory,
            TrafficConfig(arrival_rate=50.0, sigma=0.8),
            seed=seed,
        )
        return generator.flows(n)

    def _assert_matches_per_event(
        self, inventory, clusters, flows, failures=(), **options
    ):
        with certified_recomputes() as checked:
            batched = EventDrivenFlowSimulator(
                inventory, clusters, **options
            ).run(flows, failures=failures)
        assert checked
        per_event = EventDrivenFlowSimulator(
            inventory, clusters, engines={"sim_engine": "legacy"}, **options
        ).run(flows, failures=failures)
        assert_matches_legacy(batched, per_event)

    def test_auto_resolution(self, clustered):
        inventory, clusters = clustered
        for engines in (None, {"admission": "auto"}, {"admission": "batched"}):
            simulator = EventDrivenFlowSimulator(
                inventory, clusters, engines=engines
            )
            assert simulator.admission == "batched"

    def test_admission_kwarg_validates(self, clustered):
        inventory, clusters = clustered
        with pytest.raises(ValidationError, match="requires sim_engine"):
            EventDrivenFlowSimulator(
                inventory,
                clusters,
                engines={"sim_engine": "legacy", "admission": "batched"},
            )
        for mode in ("per_event", "psychic"):
            with pytest.raises(ValidationError, match="unknown admission"):
                EventDrivenFlowSimulator(
                    inventory, clusters, engines={"admission": mode}
                )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_batched_matches_per_event(self, clustered, seed):
        inventory, clusters = clustered
        self._assert_matches_per_event(
            inventory, clusters, self._flows(inventory, seed)
        )

    @pytest.mark.parametrize("seed", [3, 4])
    def test_batched_matches_per_event_under_faults(
        self, clustered, seed
    ):
        inventory, clusters = clustered
        rng = random.Random(seed)
        flows = self._flows(inventory, seed, n=30)
        edges = sorted((a, b) for a, b, _ in inventory.network.edges())
        a, b = rng.choice(edges)
        cut_at = round(rng.uniform(0.05, 0.3), 3)
        failures = [
            FaultEvent(
                time=cut_at, kind=FaultKind.LINK_CUT, target=(a, b)
            ),
            FaultEvent(
                time=cut_at + 0.2,
                kind=FaultKind.LINK_REPAIR,
                target=(a, b),
            ),
            FaultEvent(
                time=round(rng.uniform(0.4, 0.6), 3),
                kind=FaultKind.LINK_DEGRADE,
                target=rng.choice(edges),
                severity=0.5,
            ),
        ]
        ops = inventory.network.optical_switches()
        if ops:
            crash_at = round(rng.uniform(0.1, 0.4), 3)
            victim = rng.choice(ops)
            failures += [
                FaultEvent(
                    time=crash_at,
                    kind=FaultKind.OPS_CRASH,
                    target=victim,
                ),
                FaultEvent(
                    time=crash_at + 0.25,
                    kind=FaultKind.NODE_REPAIR,
                    target=victim,
                ),
            ]
        self._assert_matches_per_event(
            inventory, clusters, flows, failures=failures
        )

    @pytest.mark.parametrize("seed", [5, 6])
    def test_load_aware_batched_matches_per_event(self, clustered, seed):
        inventory, clusters = clustered
        self._assert_matches_per_event(
            inventory, clusters, self._flows(inventory, seed), load_aware=True
        )

    def test_batched_emits_bulk_counters(self, clustered):
        inventory, clusters = clustered
        telemetry = Telemetry.enabled_instance()
        simulator = EventDrivenFlowSimulator(
            inventory, clusters, telemetry=telemetry
        )
        report = simulator.run(self._flows(inventory, 11))
        assert report.flows > 0
        bulk = telemetry.counter(
            "alvc_admission_bulk_flows_total", ""
        ).value
        resolved = telemetry.counter(
            "alvc_admission_pairs_resolved_total", ""
        ).value
        assert bulk > 0
        assert 0 < resolved <= bulk + len(report.dropped)

    def test_windowed_run_parity(self, clustered):
        """A windowed run is the prefix of the full run: the same
        completions up to the window edge, the rest in flight."""
        inventory, clusters = clustered
        flows = self._flows(inventory, 21, n=40)
        simulator = EventDrivenFlowSimulator(inventory, clusters)
        full = simulator.run(flows)
        until = 0.25
        windowed = simulator.run(flows, until=until)
        assert windowed.completed == tuple(
            record
            for record in full.completed
            if record.completion_time <= until
        )
        admitted = sum(1 for flow in flows if flow.arrival_time <= until)
        assert windowed.in_flight == admitted - windowed.flows > 0
        assert windowed.makespan == until


class TestALFallbackResolution:
    """The group fan-out mirrors the per-event AL-then-flat retry."""

    def _hosts(self, inventory):
        return sorted(
            {inventory.host_of(vm.vm_id) for vm in inventory.all_vms()}
        )

    def test_al_violating_target_falls_back_per_pair(
        self, populated_inventory
    ):
        network = populated_inventory.network
        hosts = self._hosts(populated_inventory)
        ops = sorted(network.optical_switches())
        al = frozenset(ops[:2])
        outside = ops[-1]
        assert outside not in al
        plan = AdmissionPlan(network, _link_index(populated_inventory))
        source = hosts[0]
        # The group fan-out aborts (an endpoint outside the layer), the
        # per-target retry resolves what it can, and the flat retry
        # picks up the rest — every pair still gets an entry.
        plan.resolve_source(source, [hosts[1], outside], al)
        for destination in (hosts[1], outside):
            route = plan.lookup(source, destination, al)
            assert route is not NO_PLAN_ROUTE
            assert route.path[0] == source
            assert route.path[-1] == destination

    def test_resolve_source_skips_already_interned(
        self, populated_inventory
    ):
        plan = AdmissionPlan(
            populated_inventory.network,
            _link_index(populated_inventory),
        )
        hosts = self._hosts(populated_inventory)
        plan.resolve_source(hosts[0], [hosts[1]], None)
        size = len(plan)
        plan.resolve_source(hosts[0], [hosts[1]], None)  # early return
        assert len(plan) == size

    def test_resolve_tree_path_error_branches(self):
        from repro.topology.generators import build_alvc_fabric

        # No dual homing: cross-rack pairs route through OPS only, so
        # an empty layer severs them.
        fabric = build_alvc_fabric(
            n_racks=2,
            servers_per_rack=2,
            n_ops=2,
            dual_homing_fraction=0.0,
            seed=1,
        )
        assert resolve_tree_path(fabric, "server-0", "server-2", None)
        with pytest.raises(RoutingError, match="does not connect"):
            resolve_tree_path(fabric, "server-0", "server-2", frozenset())
        with pytest.raises(RoutingError, match="no path|unknown"):
            resolve_tree_path(fabric, "server-0", "no-such-host", None)
