"""PathEngine units: CSR snapshot, bitmasks, generations, telemetry.

The bit-parity of the kernels against ``networkx`` is exercised at
scale in ``tests/sdn/test_routing_parity.py``; this module covers the
engine's *machinery* — snapshot (re)builds keyed to
``topology_generation``, AL bitmask caching, fault-driven mask
invalidation and telemetry counters.  The ``[csr]``/``[nx]`` cases
hold the production router and the frozen networkx reference to the
same validation and no-path behaviour.
"""

import pytest

from repro.exceptions import RoutingError
from repro.observability.runtime import Telemetry
from repro.sdn import nx_reference, routing
from repro.sdn.path_engine import PathEngine, PathEngineNoPath, engine_for
from repro.sdn.routing import (
    RouteCandidates,
    k_shortest_paths,
    least_loaded_path,
    pick_least_loaded,
    shortest_path_in_al,
    shortest_surviving_path,
    simple_path,
)
from repro.topology.elements import ServerSpec, TorSpec

#: Router modules by parametrize id.
ROUTERS = {"csr": routing, "nx": nx_reference}


@pytest.fixture
def router(request):
    """The router module named by an indirect ``[csr]``/``[nx]`` param."""
    return ROUTERS[request.param]


class TestCsrSnapshot:
    def test_engine_for_attaches_one_engine(self, paper_dcn):
        first = engine_for(paper_dcn)
        second = engine_for(paper_dcn)
        assert first is second

    def test_node_count_matches_fabric(self, paper_dcn):
        engine = engine_for(paper_dcn)
        assert engine.node_count == paper_dcn.graph.number_of_nodes()

    def test_route_matches_networkx(self, paper_dcn):
        engine = engine_for(paper_dcn)
        assert engine.route("server-0", "server-5") == (
            nx_reference.simple_path(paper_dcn, "server-0", "server-5")
        )

    def test_route_same_node_is_trivial(self, paper_dcn):
        assert engine_for(paper_dcn).route("server-0", "server-0") == [
            "server-0"
        ]

    def test_no_path_raises_internal_error(self, paper_dcn):
        engine = engine_for(paper_dcn)
        with pytest.raises(PathEngineNoPath):
            engine.route("server-0", "server-4", allowed_ops=frozenset())


class TestGenerationInvalidation:
    def test_topology_mutation_bumps_generation(self, paper_dcn):
        before = paper_dcn.topology_generation
        paper_dcn.add_server(ServerSpec(server_id="server-new"))
        mid = paper_dcn.topology_generation
        paper_dcn.add_tor(TorSpec(tor_id="tor-new"))
        paper_dcn.connect("server-new", "tor-new")
        assert before < mid < paper_dcn.topology_generation

    def test_engine_rebuilds_after_mutation(self, paper_dcn):
        engine = engine_for(paper_dcn)
        n_before = engine.node_count
        mask_before = engine.mask_generation
        paper_dcn.add_server(ServerSpec(server_id="server-new"))
        paper_dcn.add_tor(TorSpec(tor_id="tor-new"))
        paper_dcn.connect("server-new", "tor-new")
        paper_dcn.connect("tor-new", "ops-0")
        # Lazy: nothing rebuilt yet; first query refreshes the snapshot.
        assert engine.node_count == n_before + 2
        assert engine.mask_generation > mask_before
        path = engine.route("server-new", "server-0")
        assert path[0] == "server-new" and path[-1] == "server-0"

    def test_new_link_changes_routes(self, paper_dcn):
        long_before = simple_path(paper_dcn, "server-0", "server-4")
        assert len(long_before) > 3
        paper_dcn.connect("tor-0", "tor-2")
        after = simple_path(paper_dcn, "server-0", "server-4")
        assert after == ["server-0", "tor-0", "tor-2", "server-4"]

    def test_note_fault_bumps_mask_generation_only(self, paper_dcn):
        engine = engine_for(paper_dcn)
        engine.route("server-0", "server-1")  # force a build
        topo = paper_dcn.topology_generation
        mask = engine.mask_generation
        engine.note_fault()
        assert engine.mask_generation == mask + 1
        assert paper_dcn.topology_generation == topo

    def test_note_fault_invalidates_avoid_masks(self, paper_dcn):
        # A cut link must stay respected across a fault event even
        # though the (failed_nodes, cut_links) cache key is identical.
        baseline = simple_path(paper_dcn, "server-0", "server-4")
        cut = (baseline[1], baseline[2])  # first ToR -> OPS hop
        detour = shortest_surviving_path(
            paper_dcn, "server-0", "server-4", cut_links=[cut]
        )
        hops = set(zip(detour, detour[1:]))
        assert cut not in hops and tuple(reversed(cut)) not in hops
        engine_for(paper_dcn).note_fault()
        again = shortest_surviving_path(
            paper_dcn, "server-0", "server-4", cut_links=[cut]
        )
        assert again == detour


class TestTelemetryCounters:
    def test_counters_track_queries_and_masks(self, paper_dcn):
        telemetry = Telemetry.enabled_instance()
        engine = PathEngine(paper_dcn, telemetry=telemetry)
        al = frozenset({"ops-0", "ops-2"})
        engine.route("server-0", "server-4", al)
        engine.route("server-0", "server-5", al)
        metrics = telemetry.registry
        assert metrics.value_of("alvc_path_engine_queries_total") == 2.0
        assert metrics.value_of("alvc_path_engine_rebuilds_total") == 1.0
        assert metrics.value_of("alvc_path_engine_bitmask_builds_total") == 1.0
        assert metrics.value_of("alvc_path_engine_bitmask_hits_total") == 1.0

    def test_rebuild_counts_mutations(self, paper_dcn):
        telemetry = Telemetry.enabled_instance()
        engine = PathEngine(paper_dcn, telemetry=telemetry)
        engine.route("server-0", "server-1")
        paper_dcn.add_server(ServerSpec(server_id="server-new"))
        paper_dcn.add_tor(TorSpec(tor_id="tor-new"))
        paper_dcn.connect("server-new", "tor-new")
        engine.route("server-0", "server-1")
        engine.route("server-0", "server-1")
        metrics = telemetry.registry
        assert metrics.value_of("alvc_path_engine_rebuilds_total") == 2.0


class TestKShortestValidation:
    """Satellite: AL violations must not masquerade as unknown endpoints."""

    @pytest.mark.parametrize("router", ["csr", "nx"], indirect=True)
    def test_ops_outside_al_is_an_al_error(self, paper_dcn, router):
        with pytest.raises(RoutingError, match="outside the abstraction"):
            router.k_shortest_paths(
                paper_dcn,
                "ops-1",
                "server-0",
                k=2,
                al_switches={"ops-0"},
            )

    @pytest.mark.parametrize("router", ["csr", "nx"], indirect=True)
    def test_unknown_endpoint_still_unknown(self, paper_dcn, router):
        with pytest.raises(RoutingError, match="unknown endpoint"):
            router.k_shortest_paths(
                paper_dcn,
                "mars",
                "server-0",
                k=2,
                al_switches={"ops-0"},
            )

    @pytest.mark.parametrize("router", ["csr", "nx"], indirect=True)
    def test_ops_inside_al_is_fine(self, paper_dcn, router):
        paths = router.k_shortest_paths(
            paper_dcn,
            "ops-0",
            "server-0",
            k=2,
            al_switches={"ops-0"},
        )
        assert paths and paths[0][0] == "ops-0"


class TestRoutesFrom:
    @pytest.mark.parametrize("router", ["csr", "nx"], indirect=True)
    def test_batched_fanout_reaches_all(self, paper_dcn, router):
        targets = ["server-1", "server-4", "server-5"]
        routed = router.routes_from(paper_dcn, "server-0", targets)
        assert set(routed) == set(targets)
        for target, path in routed.items():
            assert path[0] == "server-0" and path[-1] == target

    @pytest.mark.parametrize("router", ["csr", "nx"], indirect=True)
    def test_unreachable_targets_omitted(self, paper_dcn, router):
        routed = router.routes_from(
            paper_dcn,
            "server-0",
            ["server-1", "server-4"],
            al_switches=set(),
        )
        assert "server-1" in routed  # same rack, no OPS needed
        assert "server-4" not in routed  # needs the core

    @pytest.mark.parametrize("router", ["csr", "nx"], indirect=True)
    def test_empty_targets(self, paper_dcn, router):
        assert router.routes_from(paper_dcn, "server-0", []) == {}
        with pytest.raises(RoutingError, match="unknown endpoint"):
            router.routes_from(paper_dcn, "mars", [])

    @pytest.mark.parametrize("router", ["csr", "nx"], indirect=True)
    def test_unknown_target_raises(self, paper_dcn, router):
        with pytest.raises(RoutingError, match="unknown endpoint"):
            router.routes_from(paper_dcn, "server-0", ["mars"])


class TestShortestSurvivingPath:
    @pytest.mark.parametrize("router", ["csr", "nx"], indirect=True)
    def test_detours_around_failed_node(self, paper_dcn, router):
        baseline = simple_path(paper_dcn, "server-0", "server-4")
        ops_on_path = [n for n in baseline if n.startswith("ops")]
        assert ops_on_path
        detour = router.shortest_surviving_path(
            paper_dcn,
            "server-0",
            "server-4",
            failed_nodes=[ops_on_path[0]],
        )
        assert ops_on_path[0] not in detour

    @pytest.mark.parametrize("router", ["csr", "nx"], indirect=True)
    def test_failed_endpoint_raises(self, paper_dcn, router):
        with pytest.raises(RoutingError, match="endpoint failed"):
            router.shortest_surviving_path(
                paper_dcn,
                "server-0",
                "server-4",
                failed_nodes=["server-4"],
            )

    @pytest.mark.parametrize("router", ["csr", "nx"], indirect=True)
    def test_isolated_source_raises(self, paper_dcn, router):
        with pytest.raises(RoutingError, match="no surviving path"):
            router.shortest_surviving_path(
                paper_dcn,
                "server-0",
                "server-4",
                cut_links=[("server-0", "tor-0")],
            )


class TestRouteCandidates:
    def test_sequence_protocol(self, paper_dcn):
        paths = k_shortest_paths(paper_dcn, "server-0", "server-4", k=3)
        candidates = RouteCandidates(paths)
        assert len(candidates) == len(paths)
        assert [list(p) for p in candidates] == [list(p) for p in paths]
        assert list(candidates[0]) == list(paths[0])

    def test_from_paths_passthrough(self):
        pool = RouteCandidates([("a", "b")])
        assert RouteCandidates.from_paths(pool) is pool
        wrapped = RouteCandidates.from_paths([("a", "b")])
        assert isinstance(wrapped, RouteCandidates)

    def test_link_keys_precomputed(self):
        pool = RouteCandidates([("a", "b", "c")])
        assert pool.link_keys == (
            (frozenset(("a", "b")), frozenset(("b", "c"))),
        )

    def test_scoring_identical_to_plain_path(self, paper_dcn):
        paths = k_shortest_paths(paper_dcn, "server-0", "server-5", k=4)
        loads = {}
        for path in paths:
            for a, b in zip(path, path[1:]):
                loads[frozenset((a, b))] = float(len(a))
        plain = pick_least_loaded([list(p) for p in paths], loads)
        pooled = pick_least_loaded(RouteCandidates(paths), loads)
        assert list(pooled) == list(plain)
        assert list(
            least_loaded_path(paper_dcn, "server-0", "server-5", loads, k=4)
        ) == list(plain)

    def test_empty_pool_raises(self):
        with pytest.raises(RoutingError):
            pick_least_loaded(RouteCandidates([]), {})
