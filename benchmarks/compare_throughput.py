#!/usr/bin/env python3
"""Compare two E19 throughput records for events/sec regressions.

Usage::

    python benchmarks/compare_throughput.py \
        benchmarks/BENCH_e19.json BENCH_e19.json [--max-regression 0.10]

Both files are the JSON written by
``benchmarks/test_bench_e19_event_throughput.py``.  The gate compares
the **speedup** (production ``vector`` events/sec normalized by the
legacy loop measured in the same run), which is stable across machines, and exits
non-zero when the candidate's speedup regresses by more than
``--max-regression`` (default 10%) against the committed baseline.
Absolute events/sec for both engines are printed for context.
"""

from __future__ import annotations

import argparse
import json
import sys


def _load(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="committed BENCH_e19.json")
    parser.add_argument("candidate", help="freshly measured BENCH_e19.json")
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.10,
        metavar="FRACTION",
        help="allowed relative events/sec (speedup) drop (default 0.10)",
    )
    args = parser.parse_args(argv)

    baseline = _load(args.baseline)
    candidate = _load(args.candidate)

    for label, record in (("baseline", baseline), ("candidate", candidate)):
        rates = record.get("events_per_sec", {})
        formatted = ", ".join(
            f"{engine}={rate:,.0f} ev/s" for engine, rate in sorted(rates.items())
        )
        print(f"{label}: speedup {record['speedup']:.2f}x ({formatted})")

    before = float(baseline["speedup"])
    after = float(candidate["speedup"])
    if before <= 0:
        print("baseline speedup is not positive", file=sys.stderr)
        return 2
    regression = (before - after) / before
    limit = args.max_regression
    status = "FAIL" if regression > limit else "ok"
    print(
        f"{status}: speedup {before:.2f}x -> {after:.2f}x "
        f"({-regression:+.1%} vs limit -{limit:.1%})"
    )
    return 1 if regression > limit else 0


if __name__ == "__main__":
    sys.exit(main())
