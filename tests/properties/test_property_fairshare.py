"""Property-based tests for max-min fair allocation."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.fairshare import certify_max_min, link_of, max_min_fair_rates
from repro.sim.vector import BatchedFairShareEngine

_LINKS = [link_of(f"n{i}", f"n{i+1}") for i in range(6)]


@st.composite
def allocations(draw):
    """Random flows over a 6-link line with random capacities."""
    capacities = {
        link: draw(
            st.floats(min_value=0.5, max_value=100, allow_nan=False)
        )
        for link in _LINKS
    }
    n_flows = draw(st.integers(min_value=1, max_value=10))
    flows = {}
    for index in range(n_flows):
        start = draw(st.integers(min_value=0, max_value=len(_LINKS) - 1))
        end = draw(st.integers(min_value=start, max_value=len(_LINKS) - 1))
        flows[f"f{index}"] = _LINKS[start : end + 1]
    return flows, capacities


@given(allocations())
@settings(max_examples=100, deadline=None)
def test_no_link_oversubscribed(allocation):
    flows, capacities = allocation
    rates = max_min_fair_rates(flows, capacities)
    for link, capacity in capacities.items():
        used = sum(
            rates[flow]
            for flow, links in flows.items()
            if link in links and rates[flow] != float("inf")
        )
        assert used <= capacity + 1e-6


@given(allocations())
@settings(max_examples=100, deadline=None)
def test_all_rates_positive(allocation):
    flows, capacities = allocation
    rates = max_min_fair_rates(flows, capacities)
    assert all(rate > 0 for rate in rates.values())


@given(allocations())
@settings(max_examples=100, deadline=None)
def test_every_flow_has_a_saturated_bottleneck(allocation):
    """Max-min optimality: each flow crosses a saturated link on which
    its rate is maximal among that link's flows."""
    flows, capacities = allocation
    rates = max_min_fair_rates(flows, capacities)
    for flow, links in flows.items():
        if not links:
            continue
        found = False
        for link in links:
            used = sum(
                rates[other]
                for other, other_links in flows.items()
                if link in other_links
            )
            saturated = used >= capacities[link] - 1e-6
            maximal = all(
                rates[flow] >= rates[other] - 1e-6
                for other, other_links in flows.items()
                if link in other_links
            )
            if saturated and maximal:
                found = True
                break
        assert found, f"{flow} lacks a bottleneck"


@given(allocations())
@settings(max_examples=60, deadline=None)
def test_deterministic(allocation):
    flows, capacities = allocation
    first = max_min_fair_rates(flows, capacities)
    second = max_min_fair_rates(flows, capacities)
    assert first == second


@given(allocations(), st.floats(min_value=1.1, max_value=5, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_scaling_capacities_scales_rates(allocation, factor):
    flows, capacities = allocation
    base = max_min_fair_rates(flows, capacities)
    scaled = max_min_fair_rates(
        flows, {link: cap * factor for link, cap in capacities.items()}
    )
    for flow in flows:
        if base[flow] == float("inf"):
            continue
        assert scaled[flow] > 0
        assert abs(scaled[flow] - base[flow] * factor) < 1e-5 * max(
            1.0, base[flow] * factor
        )


@given(allocations())
@settings(max_examples=100, deadline=None)
def test_reference_allocation_certifies(allocation):
    flows, capacities = allocation
    certify_max_min(max_min_fair_rates(flows, capacities), flows, capacities)


@given(allocations())
@settings(max_examples=100, deadline=None)
def test_production_engine_matches_reference_bit_for_bit(allocation):
    flows, capacities = allocation
    engine = BatchedFairShareEngine(capacities)
    for flow, links in flows.items():
        engine.add_flow(flow, links)
    assert engine.rates_by_flow() == max_min_fair_rates(flows, capacities)
