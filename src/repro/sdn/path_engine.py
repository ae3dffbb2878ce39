"""CSR-based AL-restricted routing kernel (the PathEngine).

Every AL-restricted route in the data plane — chain provisioning
(Section IV.A "packet processing order"), :class:`~repro.sdn.route_cache.
RouteCache` cold misses, and post-fault rerouting — used to rebuild a
``networkx`` subgraph view and run generic dict-based BFS per query.
:class:`PathEngine` replaces that with a flat compressed-sparse-row
snapshot of the fabric:

* node names are interned into dense int ids (``_ids``/``_names``) in
  graph insertion order, so CSR adjacency iterates neighbors in exactly
  the order ``networkx`` would — a precondition for bit-identical paths;
* adjacency is flattened into ``indptr``/``indices`` arrays
  (:class:`array.array` of C ints; no per-query allocation);
* abstraction layers become **bitmasks** — per-AL ``bytearray`` masks
  over the dense ids, cached by the AL's switch frozenset.  Restricting
  a query to an AL is one byte probe per visited neighbor instead of a
  ``subgraph()`` construction;
* a **generation counter** keys the snapshot to
  :attr:`~repro.topology.datacenter.DataCenterNetwork.topology_generation`:
  any structural mutation invalidates lazily (next query rebuilds), and
  :meth:`note_fault` bumps the engine's own mask generation when chaos
  fault events change link/node availability without touching topology.

The kernels deliberately replicate the traversal order of the
``networkx`` routines they replace — ``_bidirectional_pred_succ``
(alternating smaller-fringe BFS), ``shortest_simple_paths`` (Yen with a
``PathBuffer`` heap and its ``len``-based cost bookkeeping), and
``single_source_shortest_path`` (level BFS) — so the same fabric yields
the same paths as the frozen :mod:`repro.sdn.nx_reference`, tie-breaks
included.  Tie-breaking is therefore deterministic fabric-construction
(insertion) order.

Use :func:`engine_for` to get the engine attached to a fabric; the
public entry points live in :mod:`repro.sdn.routing`.
"""

from __future__ import annotations

from array import array
from heapq import heappop, heappush
from itertools import count
from typing import Iterable, Mapping

from repro.ids import NodeKind
from repro.observability.runtime import current_telemetry
from repro.topology.datacenter import DataCenterNetwork

#: Drop the whole AL-mask table when it grows past this many distinct
#: ALs — reconfiguration churn can mint unbounded frozensets; real
#: deployments hold a handful of live ALs at a time.
_MASK_CACHE_LIMIT = 512

#: Same guard for post-fault avoidance masks (failure-set keyed).
_AVOID_CACHE_LIMIT = 256


class PathEngineNoPath(Exception):
    """Internal: the masked fabric does not connect the endpoints.

    Callers in :mod:`repro.sdn.routing` translate this into the public
    :class:`~repro.exceptions.RoutingError` vocabulary; it never crosses
    the package boundary.
    """


class PathEngine:
    """CSR routing kernel bound to one :class:`DataCenterNetwork`.

    The engine holds no authoritative state: everything is a lazily
    (re)built projection of the fabric, validated per query against
    ``dcn.topology_generation``.  All methods take and return node
    *names*; int ids never leak.
    """

    def __init__(self, dcn: DataCenterNetwork, telemetry=None) -> None:
        self._dcn = dcn
        self._built_generation = -1
        self._mask_generation = 0
        self._ids: dict[str, int] = {}
        self._names: list[str] = []
        self._indptr = array("i", [0])
        self._indices = array("i")
        self._is_ops = bytearray()
        self._all_mask = bytearray()
        self._mask_cache: dict[frozenset, bytearray] = {}
        self._avoid_cache: dict[tuple, tuple[bytearray, frozenset]] = {}
        telemetry = telemetry if telemetry is not None else current_telemetry()
        self._queries_total = telemetry.counter(
            "alvc_path_engine_queries_total",
            "Routing queries answered by the CSR path engine",
        )
        self._rebuilds_total = telemetry.counter(
            "alvc_path_engine_rebuilds_total",
            "CSR snapshot rebuilds triggered by topology generation bumps",
        )
        self._bitmask_hits_total = telemetry.counter(
            "alvc_path_engine_bitmask_hits_total",
            "AL bitmask cache hits (queries that skipped mask construction)",
        )
        self._bitmask_builds_total = telemetry.counter(
            "alvc_path_engine_bitmask_builds_total",
            "AL bitmasks materialized from scratch",
        )

    # ------------------------------------------------------------------
    # Snapshot maintenance
    # ------------------------------------------------------------------
    @property
    def mask_generation(self) -> int:
        """Bumped whenever cached masks stop being trustworthy.

        Advances on every CSR rebuild (topology mutated) and on every
        :meth:`note_fault` (availability changed without a topology
        mutation).  Tests use it to prove invalidation wiring.
        """
        return self._mask_generation

    @property
    def node_count(self) -> int:
        """Number of interned fabric nodes in the current snapshot."""
        self._ensure_current()
        return len(self._names)

    def note_fault(self) -> None:
        """Record a fault/repair event affecting node or link availability.

        The CSR arrays and AL masks only encode *topology*, which fault
        events do not change — but post-fault avoidance masks cached by
        failure set must not survive a changing failure picture, and the
        mask generation is the observable consumers key off.
        """
        self._mask_generation += 1
        self._avoid_cache.clear()

    def _ensure_current(self) -> None:
        if self._built_generation != self._dcn.topology_generation:
            self._rebuild()

    def _rebuild(self) -> None:
        graph = self._dcn._graph  # snapshot read; engine is fabric-owned
        ids: dict[str, int] = {}
        names: list[str] = []
        for node in graph.nodes:
            ids[node] = len(names)
            names.append(node)
        n = len(names)
        is_ops = bytearray(n)
        kind_attr = graph.nodes
        for node, idx in ids.items():
            if kind_attr[node]["kind"] is NodeKind.OPS:
                is_ops[idx] = 1
        indptr = array("i", [0] * (n + 1))
        indices = array("i")
        adj = graph._adj
        total = 0
        for idx, node in enumerate(names):
            neighbors = adj[node]
            total += len(neighbors)
            indptr[idx + 1] = total
            indices.extend(ids[neighbor] for neighbor in neighbors)
        self._ids = ids
        self._names = names
        self._indptr = indptr
        self._indices = indices
        self._is_ops = is_ops
        self._all_mask = bytearray(b"\x01" * n)
        self._mask_cache.clear()
        self._avoid_cache.clear()
        self._built_generation = self._dcn.topology_generation
        self._mask_generation += 1
        self._rebuilds_total.inc()

    # ------------------------------------------------------------------
    # Bitmasks
    # ------------------------------------------------------------------
    def _al_mask(self, allowed_ops: frozenset | None) -> bytearray:
        """The allowed-node byte mask for one abstraction layer.

        ``None`` means unrestricted (the shared all-ones mask).  An OPS
        outside ``allowed_ops`` is masked out; servers and ToRs are
        always allowed — exactly the membership rule of
        :func:`repro.sdn.routing.shortest_path_in_al`.
        """
        if allowed_ops is None:
            return self._all_mask
        mask = self._mask_cache.get(allowed_ops)
        if mask is not None:
            self._bitmask_hits_total.inc()
            return mask
        if len(self._mask_cache) >= _MASK_CACHE_LIMIT:
            self._mask_cache.clear()
        mask = bytearray(b"\x01" * len(self._names))
        ids = self._ids
        is_ops = self._is_ops
        for idx, flagged in enumerate(is_ops):
            if flagged:
                mask[idx] = 0
        for ops in allowed_ops:
            idx = ids.get(ops)
            if idx is not None and is_ops[idx]:
                mask[idx] = 1
        self._mask_cache[allowed_ops] = mask
        self._bitmask_builds_total.inc()
        return mask

    def _avoid_mask(
        self,
        failed_nodes: frozenset,
        cut_links: frozenset,
    ) -> tuple[bytearray, frozenset]:
        """Mask minus failed nodes, plus the cut-link id-pair set."""
        key = (failed_nodes, cut_links)
        cached = self._avoid_cache.get(key)
        if cached is not None:
            return cached
        if len(self._avoid_cache) >= _AVOID_CACHE_LIMIT:
            self._avoid_cache.clear()
        mask = bytearray(self._all_mask)
        ids = self._ids
        for node in failed_nodes:
            idx = ids.get(node)
            if idx is not None:
                mask[idx] = 0
        cut = set()
        for link in cut_links:
            a, b = tuple(link)
            ia = ids.get(a)
            ib = ids.get(b)
            if ia is None or ib is None:
                continue
            cut.add((ia, ib) if ia <= ib else (ib, ia))
        entry = (mask, frozenset(cut))
        self._avoid_cache[key] = entry
        return entry

    # ------------------------------------------------------------------
    # Kernels (int-id space)
    # ------------------------------------------------------------------
    def _bidirectional(
        self,
        s: int,
        t: int,
        mask: bytearray,
        ignore: set | None = None,
        cut: frozenset | None = None,
    ) -> list[int]:
        """Bidirectional BFS replicating ``_bidirectional_pred_succ``.

        Alternates the smaller fringe, appends a neighbor to the fringe
        *before* checking for the meet, and returns on the first meet —
        the exact discovery order of the ``networkx`` helper, so the
        reconstructed path is identical, tie-breaks included.
        """
        if ignore and (s in ignore or t in ignore):
            raise PathEngineNoPath
        if s == t:
            return [s]
        indptr = self._indptr
        indices = self._indices
        pred: dict[int, int] = {s: -1}
        succ: dict[int, int] = {t: -1}
        forward = [s]
        reverse = [t]
        check_cut = bool(cut)
        check_ignore = bool(ignore)
        w = -1
        while forward and reverse:
            if len(forward) <= len(reverse):
                this_level = forward
                forward = []
                for v in this_level:
                    for w in indices[indptr[v] : indptr[v + 1]]:
                        if not mask[w]:
                            continue
                        if check_ignore and w in ignore:
                            continue
                        if check_cut and (
                            ((v, w) if v <= w else (w, v)) in cut
                        ):
                            continue
                        if w not in pred:
                            forward.append(w)
                            pred[w] = v
                        if w in succ:  # path found
                            return _assemble(pred, succ, w)
            else:
                this_level = reverse
                reverse = []
                for v in this_level:
                    for w in indices[indptr[v] : indptr[v + 1]]:
                        if not mask[w]:
                            continue
                        if check_ignore and w in ignore:
                            continue
                        if check_cut and (
                            ((v, w) if v <= w else (w, v)) in cut
                        ):
                            continue
                        if w not in succ:
                            succ[w] = v
                            reverse.append(w)
                        if w in pred:  # found path
                            return _assemble(pred, succ, w)
        raise PathEngineNoPath

    def _yen(self, s: int, t: int, k: int, mask: bytearray) -> list[list[int]]:
        """K shortest simple paths replicating ``shortest_simple_paths``.

        Keeps the upstream quirks verbatim for ordering parity: the
        first candidate is pushed with cost ``len(path)`` while spur
        candidates cost ``len(root) + len(spur)`` (one more, since the
        spur repeats the deviation node), and the deviation node joins
        ``ignore_nodes`` only *after* its spur query.
        """
        listA: list[list[int]] = []
        heap: list[tuple[int, int, list[int]]] = []
        in_heap: set[tuple[int, ...]] = set()
        counter = count()
        found: list[list[int]] = []
        prev_path: list[int] | None = None
        while True:
            if not prev_path:
                path = self._bidirectional(s, t, mask)
                key = tuple(path)
                if key not in in_heap:
                    heappush(heap, (len(path), next(counter), path))
                    in_heap.add(key)
            else:
                ignore_nodes: set[int] = set()
                ignore_edges: set[tuple[int, int]] = set()
                for i in range(1, len(prev_path)):
                    root = prev_path[:i]
                    root_length = len(root)
                    for path in listA:
                        if path[:i] == root:
                            a, b = path[i - 1], path[i]
                            ignore_edges.add((a, b) if a <= b else (b, a))
                    try:
                        spur = self._bidirectional(
                            root[-1],
                            t,
                            mask,
                            ignore=ignore_nodes,
                            cut=frozenset(ignore_edges),
                        )
                        path = root[:-1] + spur
                        key = tuple(path)
                        if key not in in_heap:
                            heappush(
                                heap,
                                (root_length + len(spur), next(counter), path),
                            )
                            in_heap.add(key)
                    except PathEngineNoPath:
                        pass
                    ignore_nodes.add(root[-1])
            if heap:
                _, _, path = heappop(heap)
                in_heap.discard(tuple(path))
                found.append(path)
                if len(found) >= k:
                    return found
                listA.append(path)
                prev_path = path
            else:
                return found

    def _level_bfs(
        self, s: int, mask: bytearray, wanted: set[int]
    ) -> dict[int, list[int]]:
        """Single-source shortest-path tree in level order.

        Replicates ``networkx.single_source_shortest_path``'s discovery
        order (first-discovery wins per node), with a safe early exit
        once every ``wanted`` target has a path — discovered paths never
        change afterwards, so the exit cannot alter results.
        """
        indptr = self._indptr
        indices = self._indices
        paths: dict[int, list[int]] = {s: [s]}
        nextlevel = [s]
        remaining = len(wanted - {s}) if wanted else -1
        if remaining == 0:
            return paths
        while nextlevel:
            thislevel = nextlevel
            nextlevel = []
            for v in thislevel:
                base = paths[v]
                for w in indices[indptr[v] : indptr[v + 1]]:
                    if not mask[w]:
                        continue
                    if w not in paths:
                        paths[w] = base + [w]
                        nextlevel.append(w)
                        if remaining > 0 and w in wanted:
                            remaining -= 1
                            if remaining == 0:
                                return paths
            if remaining == 0:
                return paths
        return paths

    # ------------------------------------------------------------------
    # Public name-level API
    # ------------------------------------------------------------------
    def route(
        self,
        source: str,
        target: str,
        allowed_ops: frozenset | None = None,
    ) -> list[str]:
        """Shortest path, optionally AL-restricted.

        Endpoints must already be validated by the caller (they exist
        and are permitted by the AL); raises :class:`PathEngineNoPath`
        when the masked fabric does not connect them.
        """
        self._ensure_current()
        self._queries_total.inc()
        mask = self._al_mask(allowed_ops)
        ids = self._ids
        path = self._bidirectional(ids[source], ids[target], mask)
        names = self._names
        return [names[idx] for idx in path]

    def k_shortest(
        self,
        source: str,
        target: str,
        k: int,
        allowed_ops: frozenset | None = None,
    ) -> list[list[str]]:
        """Up to ``k`` shortest simple paths (CSR-native Yen)."""
        self._ensure_current()
        self._queries_total.inc()
        mask = self._al_mask(allowed_ops)
        ids = self._ids
        names = self._names
        return [
            [names[idx] for idx in path]
            for path in self._yen(ids[source], ids[target], k, mask)
        ]

    def routes_from(
        self,
        source: str,
        targets: Iterable[str],
        allowed_ops: frozenset | None = None,
    ) -> dict[str, list[str]]:
        """Batched fan-out: one BFS serves every target.

        Returns a mapping ``target -> path`` with unreachable targets
        omitted, mirroring ``nx.single_source_shortest_path`` filtered
        to ``targets``.  Endpoint validation is the caller's job.
        """
        self._ensure_current()
        self._queries_total.inc()
        mask = self._al_mask(allowed_ops)
        ids = self._ids
        names = self._names
        wanted = {ids[t] for t in targets}
        paths = self._level_bfs(ids[source], mask, wanted)
        out: dict[str, list[str]] = {}
        for idx in wanted:
            path = paths.get(idx)
            if path is not None:
                out[names[idx]] = [names[i] for i in path]
        return out

    def route_avoiding(
        self,
        source: str,
        target: str,
        failed_nodes: frozenset,
        cut_links: frozenset,
    ) -> list[str]:
        """Shortest path avoiding failed nodes and cut links.

        The CSR replacement for ``nx.restricted_view`` + shortest path
        in post-fault rerouting.  ``cut_links`` is a frozenset of
        2-element frozensets (undirected link keys).
        """
        self._ensure_current()
        self._queries_total.inc()
        mask, cut = self._avoid_mask(failed_nodes, cut_links)
        ids = self._ids
        s = ids[source]
        t = ids[target]
        if not mask[s] or not mask[t]:
            raise PathEngineNoPath
        path = self._bidirectional(s, t, mask, cut=cut or None)
        names = self._names
        return [names[idx] for idx in path]


def _assemble(
    pred: Mapping[int, int], succ: Mapping[int, int], w: int
) -> list[int]:
    """Rebuild the meet-in-the-middle path (−1 is the root sentinel)."""
    path = []
    node = w
    while node != -1:
        path.append(node)
        node = pred[node]
    path.reverse()
    node = succ[w]
    while node != -1:
        path.append(node)
        node = succ[node]
    return path


def engine_for(dcn: DataCenterNetwork) -> PathEngine:
    """The :class:`PathEngine` attached to a fabric (created on demand).

    One engine per fabric: the CSR snapshot and mask caches amortize
    across every consumer (route cache fills, simulators, orchestrator
    rerouting).  The engine binds the ambient telemetry at creation.
    """
    engine = getattr(dcn, "_alvc_path_engine", None)
    if engine is None:
        engine = PathEngine(dcn)
        dcn._alvc_path_engine = engine
    return engine
