"""E22 — routing throughput (CSR path engine vs networkx traversal).

Regenerates: the engineering claim behind this repo's routing rework —
the CSR-based :class:`repro.sdn.path_engine.PathEngine` answers cold
AL-restricted shortest-path queries at least 5x faster than the
per-query ``networkx`` path on a 1024-server fabric, the RouteCache on
top of it multiplies that further, and every arm folds the exact same
CRC32 checksum over its answers (paths *and* error messages), proving
the engines are bit-identical.

The run writes a machine-readable record (``BENCH_e22.json`` in the
working directory, or ``$ALVC_BENCH_E22_OUT``) and holds it to the
baseline-free rows of ``benchmarks/gates.py`` (parity and the csr,
cached and RouteCandidates floors); ``python benchmarks/gates.py check
<record>`` adds the regression gates against the committed
``benchmarks/BENCH_e22.json`` in CI.
"""

import json
import os
import time

import gates
from repro.analysis.experiments import experiment_e22_routing_throughput
from repro.analysis.reporting import render_table
from repro.sdn.routing import RouteCandidates, pick_least_loaded
from repro.topology.generators import build_alvc_fabric


def _pick_least_loaded_microbench() -> dict:
    """Time pick_least_loaded on RouteCandidates vs plain path tuples.

    Scoring RouteCandidates (precomputed link keys) must beat
    re-deriving frozenset link keys per call on plain tuples.
    """
    fabric = build_alvc_fabric(n_racks=8, servers_per_rack=4, n_ops=8)
    from repro.sdn.routing import k_shortest_paths

    servers = fabric.servers()
    paths = k_shortest_paths(fabric, servers[0], servers[-1], k=8)
    candidates = RouteCandidates(paths)
    plain = tuple(tuple(path) for path in paths)
    loads = {}
    for path in plain:
        for a, b in zip(path, path[1:]):
            loads[frozenset((a, b))] = float(len(a) + len(b))

    repeats = 2000

    def timed(cand) -> float:
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            for _ in range(repeats):
                pick_least_loaded(cand, loads)
            best = min(best, time.perf_counter() - start)
        return best

    plain_wall = timed(plain)
    candidates_wall = timed(candidates)
    assert pick_least_loaded(candidates, loads) == pick_least_loaded(
        plain, loads
    )
    return {
        "plain_wall_seconds": plain_wall,
        "candidates_wall_seconds": candidates_wall,
        "speedup": plain_wall / candidates_wall,
    }


def test_bench_e22_routing(benchmark):
    rows = benchmark.pedantic(
        experiment_e22_routing_throughput,
        rounds=1,
        iterations=1,
    )
    print()
    print(render_table(rows, title="E22 — routing throughput by arm"))

    by_arm = {row["arm"]: row for row in rows}
    nx_row = by_arm["nx"]
    csr = by_arm["csr"]
    cached = by_arm["csr+cache"]
    batch = by_arm["csr-batch"]

    # Bit-parity: every arm folded the same answers (paths and error
    # messages alike) into its checksum as its own reference pass.
    assert all(row["parity"] for row in rows), (
        "engine parity broken: "
        + ", ".join(
            f"{row['arm']}={row['parity']}" for row in rows
        )
    )
    assert nx_row["checksum"] == csr["checksum"] == cached["checksum"]
    # The RouteCache arm runs on the repeat-heavy pool it claims.
    assert cached["cache_hit_rate"] > 0.3

    # The csr (cold AL-restricted queries), cached (RouteCache over
    # CSR) and RouteCandidates speedups are gated by their rows in
    # benchmarks/gates.py.
    micro = _pick_least_loaded_microbench()
    record = {
        "experiment": "e22_routing_throughput",
        "rows": rows,
        "paths_per_sec": {row["arm"]: row["paths_per_sec"] for row in rows},
        "csr_speedup": csr["speedup"],
        "cached_speedup": cached["speedup"],
        "batch_speedup": batch["speedup"],
        "candidates_speedup": micro["speedup"],
        "parity": all(row["parity"] for row in rows),
    }
    out_path = os.environ.get("ALVC_BENCH_E22_OUT", "BENCH_e22.json")
    with open(out_path, "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    assert not gates.check_record(record)
