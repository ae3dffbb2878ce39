"""Stateful property test: random orchestration never breaks invariants.

A hypothesis rule-based state machine drives the orchestrator through
random provision / upgrade / modify / delete sequences and asserts, after
every step:

* slice isolation (no OPS in two slices);
* optical-capacity conservation (pool free + live reservations = total);
* SDN hygiene (rules exist only for live chains);
* cluster exclusivity in the default mode (≤ 1 chain per cluster).
"""

import dataclasses

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.core.chaining import ChainRequest, NetworkFunctionChain
from repro.core.orchestrator import NetworkOrchestrator
from repro.exceptions import ALVCError
from repro.nfv.functions import FunctionCatalog
from repro.topology.elements import ResourceVector
from repro.topology.generators import build_alvc_fabric
from repro.virtualization.machines import MachineInventory
from repro.virtualization.services import ServiceCatalog
from repro.virtualization.vm_placement import VmPlacementEngine

_SERVICES = ("web", "map-reduce", "sns")
_CHAIN_MENU = (
    ("firewall",),
    ("firewall", "nat"),
    ("nat", "dpi"),
    ("security-gateway", "firewall", "load-balancer"),
)


class OrchestratorMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        dcn = build_alvc_fabric(
            n_racks=9, servers_per_rack=4, n_ops=9, seed=13
        )
        self.inventory = MachineInventory(dcn)
        services = ServiceCatalog.standard()
        engine = VmPlacementEngine(self.inventory, seed=13)
        for name in _SERVICES:
            for _ in range(4):
                engine.place(self.inventory.create_vm(services.get(name)))
        self.orchestrator = NetworkOrchestrator(self.inventory)
        for name in _SERVICES:
            self.orchestrator.cluster_manager.create_cluster(name)
        self.functions = FunctionCatalog.standard()
        self.pool_total = self._pool_total()
        self.next_id = 0

    def _pool_total(self) -> ResourceVector:
        pool = self.orchestrator.nfv_manager.pool
        free = pool.total_free()
        reserved = ResourceVector.zero()
        for instance in self.orchestrator.nfv_manager.live_instances():
            if instance.host in pool:
                reserved = reserved + instance.function.demand
        return free + reserved

    # ------------------------------------------------------------------
    @rule(
        service=st.sampled_from(_SERVICES),
        menu_index=st.integers(min_value=0, max_value=len(_CHAIN_MENU) - 1),
    )
    def provision(self, service, menu_index):
        chain = NetworkFunctionChain.from_names(
            f"chain-{self.next_id}", _CHAIN_MENU[menu_index], self.functions
        )
        self.next_id += 1
        request = ChainRequest(tenant="t", chain=chain, service=service)
        try:
            self.orchestrator.provision_chain(request)
        except ALVCError:
            pass  # occupied cluster / exhausted resources: legal refusals

    @precondition(lambda self: self.orchestrator.chains())
    @rule(pick=st.integers(min_value=0, max_value=10**6))
    def delete(self, pick):
        live = self.orchestrator.chains()
        target = live[pick % len(live)]
        self.orchestrator.teardown_chain(target.chain_id)

    @precondition(lambda self: self.orchestrator.chains())
    @rule(pick=st.integers(min_value=0, max_value=10**6))
    def upgrade(self, pick):
        live = self.orchestrator.chains()
        target = live[pick % len(live)]
        self.orchestrator.upgrade_chain(target.chain_id)

    @precondition(lambda self: self.orchestrator.chains())
    @rule(
        pick=st.integers(min_value=0, max_value=10**6),
        menu_index=st.integers(min_value=0, max_value=len(_CHAIN_MENU) - 1),
    )
    def modify(self, pick, menu_index):
        live = self.orchestrator.chains()
        target = live[pick % len(live)]
        replacement = NetworkFunctionChain.from_names(
            f"chain-{self.next_id}", _CHAIN_MENU[menu_index], self.functions
        )
        self.next_id += 1
        try:
            self.orchestrator.modify_chain(target.chain_id, replacement)
        except ALVCError:
            pass

    # ------------------------------------------------------------------
    @invariant()
    def slices_isolated(self):
        self.orchestrator.slice_allocator.verify_isolation()

    @invariant()
    def one_chain_per_cluster(self):
        owners = [
            live.cluster.cluster_id for live in self.orchestrator.chains()
        ]
        assert len(owners) == len(set(owners))

    @invariant()
    def optical_capacity_conserved(self):
        assert self._pool_total() == self.pool_total

    @invariant()
    def sdn_rules_only_for_live_chains(self):
        live_ids = {c.chain_id for c in self.orchestrator.chains()}
        for flow in self.orchestrator.sdn.installed_flows():
            assert flow in live_ids
        if not live_ids:
            assert self.orchestrator.sdn.total_rules() == 0

    @invariant()
    def slice_per_live_cluster_only(self):
        clusters_with_chains = {
            live.cluster.cluster_id for live in self.orchestrator.chains()
        }
        slice_clusters = {
            s.cluster for s in self.orchestrator.slice_allocator.slices()
        }
        assert slice_clusters == clusters_with_chains


OrchestratorMachine.TestCase.settings = settings(
    max_examples=15, stateful_step_count=25, deadline=None
)
TestOrchestratorStateMachine = OrchestratorMachine.TestCase
