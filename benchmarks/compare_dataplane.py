#!/usr/bin/env python3
"""Gate two E26 data-plane records: parity flags + speedup floors.

Usage::

    python benchmarks/compare_dataplane.py \
        benchmarks/BENCH_e26.json BENCH_e26.json \
        [--max-regression 0.10]

Both files are the JSON written by
``benchmarks/test_bench_e26_dataplane.py`` (the CI-sized run) or the
full-scale generator behind the committed record.  Three gates:

1. **Parity is non-negotiable in either record**: every arm's CRC32
   rate-trace checksum must match (``checksum_parity``) and the
   AL-sharded fan-out must be worker-count invariant
   (``worker_parity``).  A perf win that changes results is a bug.
2. **The committed baseline keeps the headline floor** whenever it
   carries a ``legacy`` arm: the production ``vector`` engine ≥ 10x
   the legacy loop at full scale.
3. **The candidate clears a speedup bar** whenever it carries a
   ``legacy`` arm: when its config matches the baseline's, its
   production-over-legacy speedup may regress at most
   ``--max-regression`` (relative); otherwise it must clear the same
   10x headline floor.  CI-sized runs carry no legacy arm
   (its full-scale wall time is measured once into the committed
   record), so they are gated on parity alone.
"""

from __future__ import annotations

import argparse
import json
import sys

#: Full-scale headline floor: the production engine over the legacy
#: loop.
MIN_VECTOR_OVER_LEGACY = 10.0


def _load(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def _check_parity(label: str, record: dict, failures: list[str]) -> None:
    if not record.get("checksum_parity"):
        failures.append(f"{label}: rate-trace checksums diverge across arms")
    if not record.get("worker_parity"):
        failures.append(f"{label}: sharded run is not worker-count invariant")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="committed BENCH_e26.json")
    parser.add_argument("candidate", help="freshly measured BENCH_e26.json")
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.10,
        metavar="FRACTION",
        help="allowed relative vector-over-legacy drop when configs match "
        "(default 0.10)",
    )
    args = parser.parse_args(argv)

    baseline = _load(args.baseline)
    candidate = _load(args.candidate)
    failures: list[str] = []

    for label, record in (("baseline", baseline), ("candidate", candidate)):
        rates = record.get("events_per_sec", {})
        formatted = ", ".join(
            f"{arm}={rate:,.0f} ev/s" for arm, rate in sorted(rates.items())
        )
        over_legacy = record.get("speedups", {}).get("vector_over_legacy")
        print(
            f"{label}: vector/legacy "
            f"{'n/a' if over_legacy is None else f'{over_legacy:.2f}x'} "
            f"({formatted})"
        )
        _check_parity(label, record, failures)

    # Gate 2: headline floor on the committed full-scale record.
    before = baseline.get("speedups", {}).get("vector_over_legacy")
    if before is not None and before < MIN_VECTOR_OVER_LEGACY:
        failures.append(
            f"baseline: vector is only {before:.2f}x the legacy loop "
            f"(floor {MIN_VECTOR_OVER_LEGACY}x)"
        )

    # Gate 3: candidate speedup bar (only measurable with a legacy arm).
    after = candidate.get("speedups", {}).get("vector_over_legacy")
    if after is None:
        print("ok: candidate has no legacy arm; gated on parity alone")
    elif candidate.get("config") == baseline.get("config"):
        if not before:
            failures.append("baseline: missing vector_over_legacy speedup")
        else:
            regression = (before - after) / before
            status = "FAIL" if regression > args.max_regression else "ok"
            print(
                f"{status}: speedup {before:.2f}x -> {after:.2f}x "
                f"({-regression:+.1%} vs limit -{args.max_regression:.1%})"
            )
            if regression > args.max_regression:
                failures.append(
                    f"candidate: speedup regressed {regression:.1%} "
                    f"(limit {args.max_regression:.1%})"
                )
    elif after < MIN_VECTOR_OVER_LEGACY:
        failures.append(
            f"candidate: vector is only {after:.2f}x the legacy loop "
            f"(floor {MIN_VECTOR_OVER_LEGACY}x)"
        )
    else:
        print(
            f"ok: candidate speedup {after:.2f}x clears the "
            f"{MIN_VECTOR_OVER_LEGACY}x floor (configs differ; no "
            f"regression gate)"
        )

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
