"""The ``networkx`` routing reference: test oracle and E22 baseline.

The formulation :mod:`repro.sdn.routing` ran before the CSR
:class:`~repro.sdn.path_engine.PathEngine` replaced it — a per-query
``subgraph()`` view for AL restriction, a ``restricted_view`` for
post-fault rerouting, and the generic ``networkx`` BFS routines —
frozen with the same signatures and endpoint validation.  Only the
parity tests (identical paths *and* error text) and experiment E22's
``nx`` baseline arm import it; E22's ``csr_speedup`` and
``cached_speedup`` are measured against exactly this per-query work.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import networkx as nx

from repro.exceptions import RoutingError
from repro.ids import NodeKind
from repro.sdn.routing import (
    _check_al_endpoints,
    _check_fanout_endpoints,
    _check_surviving_endpoints,
    _join_segments,
)
from repro.topology.datacenter import DataCenterNetwork


def _al_subgraph(dcn: DataCenterNetwork, allowed_ops: frozenset):
    """The per-query view that hides OPSs outside the layer."""
    graph = dcn.graph
    return graph.subgraph(
        node
        for node in graph
        if dcn.kind_of(node) is not NodeKind.OPS or node in allowed_ops
    )


def simple_path(
    dcn: DataCenterNetwork, source: str, target: str
) -> list[str]:
    """Reference for :func:`repro.sdn.routing.simple_path`."""
    if not dcn.has_node(source):
        raise RoutingError(f"Source {source} is not in G")
    if not dcn.has_node(target):
        raise RoutingError(f"Target {target} is not in G")
    try:
        return nx.shortest_path(dcn.graph, source, target)
    except nx.NetworkXNoPath:
        raise RoutingError(f"no path from {source} to {target}") from None


def shortest_path_in_al(
    dcn: DataCenterNetwork,
    source: str,
    target: str,
    al_switches: Iterable[str],
) -> list[str]:
    """Reference for :func:`repro.sdn.routing.shortest_path_in_al`."""
    allowed_ops = frozenset(al_switches)
    _check_al_endpoints(dcn, source, target, allowed_ops)
    restricted = _al_subgraph(dcn, allowed_ops)
    try:
        return nx.shortest_path(restricted, source, target)
    except nx.NetworkXNoPath:
        raise RoutingError(
            f"abstraction layer {sorted(allowed_ops)} does not connect "
            f"{source} to {target}"
        ) from None


def chain_path(
    dcn: DataCenterNetwork,
    waypoints: Sequence[str],
    al_switches: Iterable[str] | None = None,
) -> list[str]:
    """Reference for :func:`repro.sdn.routing.chain_path`."""
    if al_switches is None:
        return _join_segments(waypoints, lambda a, b: simple_path(dcn, a, b))
    return _join_segments(
        waypoints, lambda a, b: shortest_path_in_al(dcn, a, b, al_switches)
    )


def k_shortest_paths(
    dcn: DataCenterNetwork,
    source: str,
    target: str,
    k: int = 3,
    al_switches: Iterable[str] | None = None,
) -> list[list[str]]:
    """Reference for :func:`repro.sdn.routing.k_shortest_paths`."""
    if k <= 0:
        raise RoutingError(f"k must be positive, got {k}")
    allowed_ops = frozenset(al_switches) if al_switches is not None else None
    if allowed_ops is not None:
        _check_al_endpoints(dcn, source, target, allowed_ops)
        graph = _al_subgraph(dcn, allowed_ops)
    elif not dcn.has_node(source) or not dcn.has_node(target):
        raise RoutingError(f"unknown endpoint in ({source}, {target})")
    else:
        graph = dcn.graph
    paths: list[list[str]] = []
    try:
        for path in nx.shortest_simple_paths(graph, source, target):
            paths.append(list(path))
            if len(paths) >= k:
                break
    except nx.NetworkXNoPath:
        raise RoutingError(f"no path from {source} to {target}") from None
    return paths


def routes_from(
    dcn: DataCenterNetwork,
    source: str,
    targets: Iterable[str],
    al_switches: Iterable[str] | None = None,
) -> dict[str, list[str]]:
    """Reference for :func:`repro.sdn.routing.routes_from`."""
    allowed_ops = frozenset(al_switches) if al_switches is not None else None
    target_list = list(targets)
    _check_fanout_endpoints(dcn, source, target_list, allowed_ops)
    if not target_list:
        return {}
    if allowed_ops is not None:
        graph = _al_subgraph(dcn, allowed_ops)
    else:
        graph = dcn.graph
    tree = nx.single_source_shortest_path(graph, source)
    return {
        node: list(tree[node]) for node in target_list if node in tree
    }


def shortest_surviving_path(
    dcn: DataCenterNetwork,
    source: str,
    target: str,
    failed_nodes: Iterable[str] = (),
    cut_links: Iterable[Iterable[str]] = (),
) -> list[str]:
    """Reference for :func:`repro.sdn.routing.shortest_surviving_path`."""
    failed = frozenset(failed_nodes)
    cuts = frozenset(frozenset(link) for link in cut_links)
    _check_surviving_endpoints(dcn, source, target, failed)
    view = nx.restricted_view(
        dcn.graph,
        tuple(failed),
        tuple(tuple(sorted(link)) for link in cuts),
    )
    try:
        return nx.shortest_path(view, source, target)
    except nx.NetworkXNoPath:
        raise RoutingError(
            f"no surviving path from {source} to {target}"
        ) from None
