"""E26 — vectorized data-plane throughput (struct-of-arrays fair share).

Regenerates: the engineering claim behind this repo's vectorized data
plane — the struct-of-arrays ``FlowTable`` behind batched admission and
the class-aggregated ``BatchedFairShareEngine`` computes **exact**
max-min rates (bit-identical to the reference water-fill, certified in
``tests/sim/test_vector_parity.py``) at an order of magnitude more
events/second than the frozen legacy loop, and the AL-sharded fan-out
(:func:`repro.sim.sharding.simulate_sharded`) merges worker reports
bit-identically at any worker count.

The run here is CI-sized (no ``legacy`` arm — its full-scale wall time
is measured once into the committed record — and a 100k-flow soak
instead of the 1M-flow one).  The committed ``benchmarks/BENCH_e26.json``
is the **full-scale** record: 8000 flows on the 1024-server fabric with
the legacy and production arms plus the sharded arm and the 1M-flow
soak; ``python benchmarks/gates.py check <record>`` gates both records
— checksum parity and worker determinism must hold everywhere, and the
committed record must keep the headline floor (production ≥10x
legacy).

The run writes a machine-readable record (``BENCH_e26.json`` in the
working directory, or ``$ALVC_BENCH_E26_OUT``) for that gate, and holds
it to the baseline-free rows of ``benchmarks/gates.py`` (parity and the
soak memory envelope).
"""

import json
import os

import gates
from repro.analysis.experiments import experiment_e26_dataplane_throughput
from repro.analysis.reporting import render_table

#: CI sizing: mid concurrency, no legacy arm, 100k-flow soak.
CI_CONFIG = dict(
    n_flows=4000,
    arrival_rate=4000.0,
    soak_flows=100_000,
    soak_epochs=12,
    seed=0,
    workers=4,
    arms=("vector",),
)


def build_record(rows: list[dict], config: dict) -> dict:
    """The BENCH_e26 JSON schema, shared by CI and full-scale runs."""
    by_arm = {row["arm"]: row for row in rows}
    rates = {
        arm: row["events_per_sec"]
        for arm, row in by_arm.items()
        if arm != "soak"
    }
    checksums = {
        arm: row["checksum"]
        for arm, row in by_arm.items()
        if arm != "soak" and row.get("checksum") is not None
    }

    def _ratio(numerator: str, denominator: str) -> float | None:
        if numerator in rates and rates.get(denominator):
            return rates[numerator] / rates[denominator]
        return None

    return {
        "experiment": "e26_dataplane_throughput",
        "config": dict(config),
        "rows": rows,
        "events_per_sec": rates,
        "speedups": {
            "vector_over_legacy": _ratio("vector", "legacy"),
            "sharded_over_legacy": _ratio("vector-sharded", "legacy"),
        },
        "checksum_parity": len(set(checksums.values())) == 1,
        "worker_parity": bool(
            by_arm["vector-sharded"].get("deterministic", False)
        ),
        "soak": by_arm.get("soak"),
    }


def test_bench_e26_dataplane(benchmark):
    rows = benchmark.pedantic(
        lambda: experiment_e26_dataplane_throughput(**CI_CONFIG),
        rounds=1,
        iterations=1,
    )
    print()
    print(render_table(rows, title="E26 — vectorized data-plane throughput"))

    record = build_record(rows, CI_CONFIG)
    by_arm = {row["arm"]: row for row in rows}

    # The concurrency soak kept (almost) every flow in flight —
    # co-located VM pairs complete instantly, everything else stays
    # concurrent.
    soak = by_arm["soak"]
    assert soak["in_flight"] >= 0.95 * soak["flows"]

    out_path = os.environ.get("ALVC_BENCH_E26_OUT", "BENCH_e26.json")
    with open(out_path, "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    # Checksum parity (the production engine and its sharded fan-out
    # produced the same rate trace bit-for-bit), worker parity (the
    # shard merge is worker-count invariant) and the soak memory
    # envelope are rows in benchmarks/gates.py.
    assert not gates.check_record(record)
