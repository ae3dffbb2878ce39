"""E19 — event-driven simulator throughput (hot-path optimization).

Regenerates: the engineering claim behind this repo's event-driven
simulator rework — the production data plane (struct-of-arrays flow
table, batched admission over pre-resolved routes, class-aggregated
water filling) delivers at least a 3x events/second speedup over the
frozen pre-optimization loop on a 64-rack fabric, with the same
flow-completion results.  Each engine is timed over 11 alternating
turns and the speedup is the median per-turn ratio, which keeps the
10% regression gate clear of host-speed drift.

The run writes a machine-readable record (``BENCH_e19.json`` in the
working directory, or ``$ALVC_BENCH_E19_OUT``) and holds it to the
baseline-free rows of ``benchmarks/gates.py`` (the 3x floor);
``python benchmarks/gates.py check <record>`` adds the 10% regression
gate against the committed ``benchmarks/BENCH_e19.json`` in CI.
"""

import json
import os

import pytest

import gates
from repro.analysis.experiments import experiment_e19_event_throughput
from repro.analysis.reporting import render_table


def test_bench_e19_event_throughput(benchmark):
    rows = benchmark.pedantic(
        experiment_e19_event_throughput,
        kwargs={"seed": 0},
        rounds=1,
        iterations=1,
    )
    print()
    print(
        render_table(
            rows, title="E19 — event-simulator throughput by engine"
        )
    )

    by_engine = {row["engine"]: row for row in rows}
    legacy = by_engine["legacy"]
    production = by_engine["vector"]

    # Identical workload, identical outcome (to float tolerance; the
    # certified per-recompute check lives in tests/sim/).
    assert production["flows"] == legacy["flows"]
    assert production["events"] == legacy["events"]
    assert production["mean_fct"] == pytest.approx(
        legacy["mean_fct"], rel=1e-6
    )

    record = {
        "experiment": "e19_event_throughput",
        "rows": rows,
        "events_per_sec": {
            row["engine"]: row["events_per_sec"] for row in rows
        },
        "speedup": production["speedup"],
    }
    out_path = os.environ.get("ALVC_BENCH_E19_OUT", "BENCH_e19.json")
    with open(out_path, "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    assert not gates.check_record(record)
