"""End-to-end integration: the full AL-VC pipeline on one fabric."""

import pytest

from repro import (
    ChainRequest,
    FunctionCatalog,
    MachineInventory,
    NetworkFunctionChain,
    NetworkOrchestrator,
    PlacementAlgorithm,
    ServiceCatalog,
    TrafficConfig,
    TrafficGenerator,
    UpdateCostModel,
    UpdateEvent,
    UpdateKind,
    VmPlacementEngine,
    build_alvc_fabric,
    validate_topology,
)
from repro.sim.simulator import FlowSimulator


@pytest.fixture(scope="module")
def pipeline():
    """A fully provisioned data center with three tenanted chains."""
    dcn = build_alvc_fabric(
        n_racks=9, servers_per_rack=6, n_ops=9, seed=21
    )
    validate_topology(dcn).raise_if_invalid()
    inventory = MachineInventory(dcn)
    services = ServiceCatalog.standard()
    engine = VmPlacementEngine(inventory, seed=21)
    names = ("web", "map-reduce", "sns")
    for name in names:
        for _ in range(8):
            engine.place(inventory.create_vm(services.get(name)))

    orchestrator = NetworkOrchestrator(inventory)
    functions = FunctionCatalog.standard()
    chains = {}
    for index, name in enumerate(names):
        orchestrator.cluster_manager.create_cluster(name)
        chain = NetworkFunctionChain.from_names(
            f"chain-{index}",
            ("firewall", "dpi", "nat") if index == 0 else ("firewall", "nat"),
            functions,
        )
        chains[name] = orchestrator.provision_chain(
            ChainRequest(tenant=f"tenant-{index}", chain=chain, service=name)
        )
    return inventory, orchestrator, chains


class TestProvisionedState:
    def test_three_live_chains(self, pipeline):
        _, orchestrator, _ = pipeline
        assert len(orchestrator.chains()) == 3

    def test_slices_isolated(self, pipeline):
        _, orchestrator, _ = pipeline
        orchestrator.slice_allocator.verify_isolation()

    def test_als_disjoint(self, pipeline):
        _, orchestrator, chains = pipeline
        sets = [live.cluster.al_switches for live in chains.values()]
        for i in range(len(sets)):
            for j in range(i + 1, len(sets)):
                assert not (sets[i] & sets[j])

    def test_paths_within_own_slice(self, pipeline):
        _, orchestrator, chains = pipeline
        for live in chains.values():
            for node in live.path:
                if node.startswith("ops"):
                    assert node in live.optical_slice.switches

    def test_vnfs_running(self, pipeline):
        _, orchestrator, chains = pipeline
        from repro.nfv.lifecycle import VnfState

        for live in chains.values():
            for vnf in live.vnf_ids:
                assert (
                    orchestrator.nfv_manager.state_of(vnf)
                    is VnfState.RUNNING
                )

    def test_light_chain_fully_optical(self, pipeline):
        _, _, chains = pipeline
        light = chains["map-reduce"]
        assert light.conversions == 0
        assert light.placement.optical_count == 2

    def test_heavy_chain_keeps_dpi_electronic(self, pipeline):
        _, orchestrator, chains = pipeline
        heavy = chains["web"]
        assert heavy.conversions == 1
        dpi_vnf = heavy.vnf_ids[1]
        instance = orchestrator.nfv_manager.instance_of(dpi_vnf)
        assert instance.function.name == "dpi"
        assert instance.host.startswith("server")


class TestTrafficOverProvisionedFabric:
    def test_clustered_simulation(self, pipeline):
        inventory, orchestrator, _ = pipeline
        generator = TrafficGenerator(
            inventory,
            TrafficConfig(intra_service_probability=0.85),
            seed=7,
        )
        simulator = FlowSimulator(
            inventory, orchestrator.cluster_manager
        )
        report = simulator.run(generator.flows(300))
        assert report.flows == 300
        assert report.al_confined_flows > report.flows / 2

    def test_update_cost_advantage(self, pipeline):
        inventory, orchestrator, _ = pipeline
        model = UpdateCostModel(inventory.network)
        cluster = orchestrator.cluster_manager.cluster_of_service("web")
        vm = sorted(cluster.vm_ids)[0]
        event = UpdateEvent(
            kind=UpdateKind.VM_ARRIVAL,
            vm=vm,
            server=inventory.host_of(vm),
        )
        comparison = model.compare(event, cluster.al_switches)
        assert comparison["alvc"] < comparison["flat"]


class TestTeardown:
    def test_full_teardown_restores_resources(self):
        dcn = build_alvc_fabric(
            n_racks=4, servers_per_rack=4, n_ops=4, seed=33
        )
        inventory = MachineInventory(dcn)
        services = ServiceCatalog.standard()
        engine = VmPlacementEngine(inventory, seed=33)
        for _ in range(4):
            engine.place(inventory.create_vm(services.get("web")))
        orchestrator = NetworkOrchestrator(inventory)
        orchestrator.cluster_manager.create_cluster("web")
        functions = FunctionCatalog.standard()
        pool_before = orchestrator.nfv_manager.pool.total_free()
        vm_count_before = len(inventory)

        live = orchestrator.provision_chain(
            ChainRequest(
                tenant="t",
                chain=NetworkFunctionChain.from_names(
                    "chain-x", ("firewall", "dpi"), functions
                ),
                service="web",
            ),
            algorithm=PlacementAlgorithm.GREEDY,
        )
        orchestrator.teardown_chain(live.chain_id)
        orchestrator.cluster_manager.dissolve_cluster("web")

        assert orchestrator.nfv_manager.pool.total_free() == pool_before
        assert len(inventory) == vm_count_before
        assert orchestrator.sdn.total_rules() == 0
        assert orchestrator.cluster_manager.free_ops() == set(
            dcn.optical_switches()
        )

    def test_reprovision_cycle(self):
        dcn = build_alvc_fabric(
            n_racks=4, servers_per_rack=4, n_ops=4, seed=34
        )
        inventory = MachineInventory(dcn)
        services = ServiceCatalog.standard()
        engine = VmPlacementEngine(inventory, seed=34)
        for _ in range(4):
            engine.place(inventory.create_vm(services.get("web")))
        orchestrator = NetworkOrchestrator(inventory)
        orchestrator.cluster_manager.create_cluster("web")
        functions = FunctionCatalog.standard()
        for round_index in range(5):
            live = orchestrator.provision_chain(
                ChainRequest(
                    tenant="t",
                    chain=NetworkFunctionChain.from_names(
                        f"chain-{round_index}", ("firewall",), functions
                    ),
                    service="web",
                )
            )
            orchestrator.teardown_chain(live.chain_id)
        assert orchestrator.chains() == []
