"""Max-min fair bandwidth allocation over shared links.

The event-driven simulator needs, at every arrival/completion event, the
rate of each active flow when link capacities are shared max-min fairly —
the standard flow-level model of TCP-like sharing.  The classic
water-filling algorithm: repeatedly find the most contended link, freeze
its flows at the link's equal share, remove the frozen capacity, repeat.

The production engines live in :mod:`repro.sim.vector`.  This module
keeps the two oracles they are checked against:

* :func:`max_min_fair_rates` — the from-scratch reference water-fill.
  The vector engines reproduce its rates **bit for bit** (same
  subtraction order, same ``sorted(link)`` tie-break), which the seeded
  parity suite asserts after every recompute.
* :func:`certify_max_min` — an O(flows × hops) certificate that a rate
  vector is max-min fair, needing no second implementation: no link is
  over capacity, and every flow crosses a saturated link on which no
  flow has a higher rate.
"""

from __future__ import annotations

from typing import Hashable, Mapping, Sequence

from repro.exceptions import SimulationError

LinkId = frozenset  # unordered node pair

#: Histogram buckets for water-filling rounds per recompute.
ROUNDS_BUCKETS: tuple[float, ...] = (
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0,
)


def link_of(a: str, b: str) -> LinkId:
    """Canonical link key for an undirected hop."""
    return frozenset((a, b))


def links_on_path(path: Sequence[str]) -> list[LinkId]:
    """The links a node path traverses (empty for single-node paths)."""
    return [link_of(a, b) for a, b in zip(path, path[1:])]


def max_min_fair_rates(
    flow_links: Mapping[Hashable, Sequence[LinkId]],
    capacities: Mapping[LinkId, float],
) -> dict[Hashable, float]:
    """Max-min fair rate for every flow.

    Args:
        flow_links: flow id → links its path uses.  Flows with no links
            (co-located endpoints) get infinite rate, reported as
            ``float("inf")``.
        capacities: link → capacity (any consistent unit; rates come out
            in the same unit).

    Returns:
        flow id → allocated rate.

    Raises:
        SimulationError: when a flow uses a link without a capacity
            entry, or a capacity is non-positive.
    """
    for link, capacity in capacities.items():
        if capacity <= 0:
            raise SimulationError(
                f"link {sorted(link)} has non-positive capacity {capacity}"
            )

    rates: dict[Hashable, float] = {}
    unfrozen: dict[Hashable, list[LinkId]] = {}
    for flow, links in flow_links.items():
        if not links:
            rates[flow] = float("inf")
            continue
        for link in links:
            if link not in capacities:
                raise SimulationError(
                    f"flow {flow!r} uses unknown link {sorted(link)}"
                )
        unfrozen[flow] = list(links)

    remaining = dict(capacities)
    while unfrozen:
        # Count unfrozen flows per link.
        load: dict[LinkId, int] = {}
        for links in unfrozen.values():
            for link in links:
                load[link] = load.get(link, 0) + 1
        # The bottleneck link offers the smallest equal share.
        bottleneck = min(
            (link for link in load),
            key=lambda link: (remaining[link] / load[link], sorted(link)),
        )
        share = remaining[bottleneck] / load[bottleneck]
        # Freeze every flow crossing the bottleneck at that share.
        frozen = [
            flow
            for flow, links in unfrozen.items()
            if bottleneck in links
        ]
        for flow in frozen:
            rates[flow] = share
            for link in unfrozen[flow]:
                remaining[link] = max(remaining[link] - share, 0.0)
            del unfrozen[flow]
    return rates


def certify_max_min(
    rates: Mapping[Hashable, float],
    flow_links: Mapping[Hashable, Sequence[LinkId]],
    capacities: Mapping[LinkId, float],
    *,
    rel_tol: float = 1e-9,
) -> None:
    """Certify that ``rates`` is the max-min fair allocation.

    A feasible allocation is max-min fair exactly when every flow has a
    *bottleneck*: a saturated link on which no other flow gets a higher
    rate.  Both conditions are local, so one pass over the flow-link
    incidences decides them — O(flows × hops), with no water-filling.

    Args:
        rates: flow id → allocated rate (``inf`` for linkless flows).
        flow_links: flow id → links its path uses (same keys as
            ``rates``).
        capacities: link → capacity.
        rel_tol: relative slack, scaled by the link's capacity for the
            load checks and by the flow's rate for the rate comparison.

    Raises:
        SimulationError: naming the first violation — mismatched flow
            sets, a negative or NaN rate, a link without a capacity
            entry, a link carrying more
            than its capacity, a linked flow at infinite rate, or a
            finite-rate flow with no bottleneck link.
    """
    if set(rates) != set(flow_links):
        raise SimulationError("rates and flow_links cover different flows")
    infinity = float("inf")
    load: dict[LinkId, float] = {}
    highest: dict[LinkId, float] = {}
    for flow, links in flow_links.items():
        rate = rates[flow]
        if not rate >= 0.0:  # also rejects NaN
            raise SimulationError(f"flow {flow!r} has invalid rate {rate!r}")
        for link in links:
            if link not in capacities:
                raise SimulationError(
                    f"flow {flow!r} uses unknown link {sorted(link)}"
                )
            load[link] = load.get(link, 0.0) + rate
            if rate > highest.get(link, -infinity):
                highest[link] = rate
    for link, used in load.items():
        capacity = capacities[link]
        if used > capacity * (1.0 + rel_tol):
            raise SimulationError(
                f"link {sorted(link)} over capacity: carries {used!r} "
                f"of {capacity!r}"
            )
    for flow, links in flow_links.items():
        rate = rates[flow]
        if rate == infinity:
            continue  # linkless (a linked inf was caught as overload)
        ceiling = rate * (1.0 + rel_tol)
        if not any(
            load[link] >= capacities[link] * (1.0 - rel_tol)
            and highest[link] <= ceiling
            for link in links
        ):
            raise SimulationError(
                f"flow {flow!r} at rate {rate!r} has no bottleneck: "
                f"every link it crosses is unsaturated or carries a "
                f"faster flow"
            )
