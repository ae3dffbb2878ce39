"""Tests for tenant quotas and the quota-enforcing facade."""

import math

import pytest

from repro.core.chaining import ChainRequest, NetworkFunctionChain
from repro.core.orchestrator import NetworkOrchestrator
from repro.core.tenancy import (
    QuotaExceededError,
    QuotaGuard,
    Tenant,
    TenantRegistry,
)
from repro.exceptions import DuplicateEntityError, UnknownEntityError
from repro.nfv.functions import FunctionCatalog


CATALOG = FunctionCatalog.standard()


def make_request(tenant, names=("firewall", "nat"), service="web",
                 chain_id="chain-0"):
    chain = NetworkFunctionChain.from_names(chain_id, names, CATALOG)
    return ChainRequest(tenant=tenant, chain=chain, service=service)


@pytest.fixture
def guard(populated_inventory):
    orchestrator = NetworkOrchestrator(
        populated_inventory, exclusive_chains=False
    )
    for service in ("web", "map-reduce", "sns"):
        orchestrator.cluster_manager.create_cluster(service)
    registry = TenantRegistry()
    registry.register(Tenant("gold", max_chains=3, max_vnfs=6))
    registry.register(Tenant("bronze", max_chains=1, max_vnfs=2))
    registry.register(Tenant("capped", max_optical_cpu=1.0))
    return QuotaGuard(registry, orchestrator), registry


class TestTenant:
    def test_defaults_unlimited(self):
        tenant = Tenant("any")
        assert tenant.max_chains == math.inf

    def test_empty_id_rejected(self):
        with pytest.raises(ValueError):
            Tenant("")

    def test_negative_quota_rejected(self):
        with pytest.raises(ValueError):
            Tenant("x", max_chains=-1)


class TestRegistry:
    def test_duplicate_rejected(self):
        registry = TenantRegistry()
        registry.register(Tenant("a"))
        with pytest.raises(DuplicateEntityError):
            registry.register(Tenant("a"))

    def test_unknown_tenant_raises(self):
        with pytest.raises(UnknownEntityError):
            TenantRegistry().get("ghost")

    def test_charge_and_credit(self):
        registry = TenantRegistry()
        registry.register(Tenant("a"))
        registry.charge("a", chains=1, vnfs=3, optical_cpu=2.0)
        usage = registry.usage_of("a")
        assert (usage.chains, usage.vnfs, usage.optical_cpu) == (1, 3, 2.0)
        registry.credit("a", chains=1, vnfs=3, optical_cpu=2.0)
        usage = registry.usage_of("a")
        assert (usage.chains, usage.vnfs, usage.optical_cpu) == (0, 0, 0.0)

    def test_credit_never_negative(self):
        registry = TenantRegistry()
        registry.register(Tenant("a"))
        registry.credit("a", chains=5, vnfs=5, optical_cpu=5.0)
        usage = registry.usage_of("a")
        assert usage.chains == 0
        assert usage.optical_cpu == 0.0


class TestQuotaGuard:
    def test_provision_charges_usage(self, guard):
        facade, registry = guard
        facade.provision_chain(make_request("gold"))
        usage = registry.usage_of("gold")
        assert usage.chains == 1
        assert usage.vnfs == 2
        assert usage.optical_cpu > 0

    def test_chain_quota_enforced(self, guard):
        facade, _ = guard
        facade.provision_chain(make_request("bronze"))
        with pytest.raises(QuotaExceededError):
            facade.provision_chain(
                make_request("bronze", service="sns", chain_id="chain-1")
            )
        # Nothing was allocated for the refused chain.
        assert len(facade.orchestrator.chains()) == 1

    def test_vnf_quota_enforced(self, guard):
        facade, _ = guard
        with pytest.raises(QuotaExceededError):
            facade.provision_chain(
                make_request(
                    "bronze",
                    names=("firewall", "nat", "proxy"),
                )
            )

    def test_optical_cpu_quota_enforced(self, guard):
        facade, _ = guard
        # firewall (1 cpu) + nat (0.5 cpu) optical = 1.5 > 1.0 cap.
        with pytest.raises(QuotaExceededError):
            facade.provision_chain(make_request("capped"))

    def test_delete_credits_usage(self, guard):
        facade, registry = guard
        live = facade.provision_chain(make_request("bronze"))
        facade.teardown_chain(live.chain_id)
        usage = registry.usage_of("bronze")
        assert usage.chains == 0
        # Quota freed: the tenant can provision again.
        facade.provision_chain(
            make_request("bronze", chain_id="chain-2")
        )

    def test_unknown_tenant_rejected_before_allocation(self, guard):
        facade, _ = guard
        with pytest.raises(UnknownEntityError):
            facade.provision_chain(make_request("ghost"))
        assert facade.orchestrator.chains() == []

    def test_usage_report(self, guard):
        facade, _ = guard
        facade.provision_chain(make_request("gold"))
        rows = facade.usage_report()
        by_tenant = {row["tenant"]: row for row in rows}
        assert by_tenant["gold"]["chains"] == 1
        assert by_tenant["bronze"]["chains"] == 0
        assert by_tenant["gold"]["max_chains"] == 3
