"""Tests for virtual networks and link embedding."""

import pytest

from repro.exceptions import UnknownEntityError
from repro.virtualization.machines import MachineInventory
from repro.virtualization.virtual_network import VirtualLink, VirtualNetwork
from repro.virtualization.vm_placement import PlacementStrategy, VmPlacementEngine


@pytest.fixture
def placed(inventory, service_catalog):
    """Three placed web VMs spread round-robin across servers."""
    engine = VmPlacementEngine(
        inventory, PlacementStrategy.ROUND_ROBIN
    )
    vms = [
        inventory.create_vm(service_catalog.get("web")) for _ in range(3)
    ]
    engine.place_all(vms)
    return inventory, vms


class TestVirtualLink:
    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            VirtualLink("vm-0", "vm-0")

    def test_zero_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            VirtualLink("vm-0", "vm-1", bandwidth_gbps=0)

    def test_endpoints_unordered(self):
        link = VirtualLink("vm-0", "vm-1")
        assert link.endpoints == frozenset({"vm-0", "vm-1"})


class TestTopology:
    def test_add_link_adds_nodes(self):
        vn = VirtualNetwork("vn")
        vn.add_link(VirtualLink("vm-0", "vm-1"))
        assert vn.vms() == ["vm-0", "vm-1"]

    def test_links_sorted(self):
        vn = VirtualNetwork("vn")
        vn.add_link(VirtualLink("vm-2", "vm-3"))
        vn.add_link(VirtualLink("vm-0", "vm-1"))
        links = vn.links()
        assert (links[0].a, links[0].b) == ("vm-0", "vm-1")

    def test_degree(self):
        vn = VirtualNetwork("vn")
        vn.add_link(VirtualLink("vm-0", "vm-1"))
        vn.add_link(VirtualLink("vm-0", "vm-2"))
        assert vn.degree_of("vm-0") == 2
        assert vn.degree_of("vm-1") == 1

    def test_degree_unknown_raises(self):
        with pytest.raises(UnknownEntityError):
            VirtualNetwork("vn").degree_of("vm-0")

    def test_total_bandwidth(self):
        vn = VirtualNetwork("vn")
        vn.add_link(VirtualLink("vm-0", "vm-1", bandwidth_gbps=2.0))
        vn.add_link(VirtualLink("vm-1", "vm-2", bandwidth_gbps=3.0))
        assert vn.total_bandwidth_demand() == 5.0


class TestEmbedding:
    def test_embed_produces_paths(self, placed):
        inventory, vms = placed
        vn = VirtualNetwork("vn")
        vn.add_link(VirtualLink(vms[0].vm_id, vms[1].vm_id))
        embedding = vn.embed(inventory)
        path = embedding[frozenset({vms[0].vm_id, vms[1].vm_id})]
        assert path[0] == inventory.host_of(vms[0].vm_id)
        assert path[-1] == inventory.host_of(vms[1].vm_id)
        # Consecutive hops are physical links.
        graph = inventory.network.graph
        for a, b in zip(path, path[1:]):
            assert graph.has_edge(a, b)

    def test_colocated_link_embeds_to_single_node(
        self, inventory, service_catalog
    ):
        web = service_catalog.get("web")
        a = inventory.create_vm(web)
        b = inventory.create_vm(web)
        server = inventory.network.servers()[0]
        inventory.place(a, server)
        inventory.place(b, server)
        vn = VirtualNetwork("vn")
        vn.add_link(VirtualLink(a.vm_id, b.vm_id))
        embedding = vn.embed(inventory)
        assert embedding[frozenset({a.vm_id, b.vm_id})] == [server]

    def test_path_of_after_embed(self, placed):
        inventory, vms = placed
        vn = VirtualNetwork("vn")
        vn.add_link(VirtualLink(vms[0].vm_id, vms[2].vm_id))
        vn.embed(inventory)
        assert vn.path_of(vms[0].vm_id, vms[2].vm_id)
        # Symmetric lookup works too.
        assert vn.path_of(vms[2].vm_id, vms[0].vm_id)

    def test_path_of_without_embed_raises(self, placed):
        _, vms = placed
        vn = VirtualNetwork("vn")
        vn.add_link(VirtualLink(vms[0].vm_id, vms[1].vm_id))
        with pytest.raises(UnknownEntityError):
            vn.path_of(vms[0].vm_id, vms[1].vm_id)

    def test_physical_footprint(self, placed):
        inventory, vms = placed
        vn = VirtualNetwork("vn")
        vn.add_link(VirtualLink(vms[0].vm_id, vms[1].vm_id))
        vn.embed(inventory)
        footprint = vn.physical_footprint()
        assert inventory.host_of(vms[0].vm_id) in footprint
        assert inventory.host_of(vms[1].vm_id) in footprint


class TestEmbeddingEngines:
    """Embedding routes through the routing layer, not raw networkx."""

    def test_engine_choice_does_not_change_embedding(self, placed):
        from tests.sdn.reference import reference_routing

        inventory, vms = placed
        vn = VirtualNetwork("vn")
        vn.add_link(VirtualLink(vms[0].vm_id, vms[1].vm_id))
        vn.add_link(VirtualLink(vms[1].vm_id, vms[2].vm_id))
        vn.add_link(VirtualLink(vms[0].vm_id, vms[2].vm_id))
        with reference_routing():
            via_nx = vn.embed(inventory)
        via_csr = vn.embed(inventory)
        assert via_csr == via_nx

    def test_disconnected_fabric_raises_routing_error(self, service_catalog):
        from repro.exceptions import RoutingError
        from repro.topology.datacenter import DataCenterNetwork
        from repro.topology.elements import ServerSpec, TorSpec

        # Two islands: (server-a, tor-a) and (server-b, tor-b).
        dcn = DataCenterNetwork("split")
        for suffix in ("a", "b"):
            dcn.add_server(ServerSpec(server_id=f"server-{suffix}"))
            dcn.add_tor(TorSpec(tor_id=f"tor-{suffix}"))
            dcn.connect(f"server-{suffix}", f"tor-{suffix}")
        inventory = MachineInventory(dcn)
        web = service_catalog.get("web")
        vm_a = inventory.create_vm(web)
        vm_b = inventory.create_vm(web)
        inventory.place(vm_a, "server-a")
        inventory.place(vm_b, "server-b")
        vn = VirtualNetwork("vn")
        vn.add_link(VirtualLink(vm_a.vm_id, vm_b.vm_id))
        with pytest.raises(RoutingError, match="cannot embed|no physical path"):
            vn.embed(inventory)
