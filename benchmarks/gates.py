#!/usr/bin/env python3
"""One declarative gate table for the benchmark records, and its checker.

Every gate on a committed claim is one row of ``GATES``:
``Gate(experiment, metric, kind, threshold)``.  No command-line option
sets a threshold; changing a gate means changing its row.

Usage::

    python benchmarks/gates.py check                  # committed records + ratchet
    python benchmarks/gates.py check bench-e26.json   # fresh record vs committed
    python benchmarks/gates.py check bench-off.json bench-on.json
    python benchmarks/gates.py collect                # rewrite TRAJECTORY.json

A record is matched to its rows by its ``experiment`` field and to the
committed ``benchmarks/BENCH_*.json`` of the same experiment.  A
pytest-benchmark JSON file has no such field: those files come in
(telemetry off, telemetry on) pairs and form the ``fig4_overhead``
experiment, the "on" file standing in for the candidate and the "off"
file for the committed record.

A metric is a dotted path into the record.  A dict fans out over its
keys and a list of rows over its rows (labelled by ``arm`` when rows
have one), and each leaf is gated on its own.  The kinds:

``flag``
    the leaf is true.
``min`` / ``max``
    absolute floor / ceiling.
``drop``
    relative drop below the committed value is at most *threshold*.
``growth``
    relative growth above the committed value is at most *threshold*.
``slack``
    at most the committed value plus *threshold*.
``equal``
    equal to the committed record, leaf for leaf, with no leaf added
    or lost.
``ratchet``
    every floor in ``TRAJECTORY.json`` holds.  ``collect`` sets the
    floor of each metric whose path contains *metric* to *threshold*
    times its best committed value, and never lowers a floor.

``flag``/``min``/``max`` hold for the committed record and for every
candidate.  The relative kinds compare a candidate with the committed
record, and only when both ran the same ``config`` (a ratio measured at
another sizing says nothing about regression).  A committed leaf the
candidate lacks fails as lost; a ``null`` leaf is an arm the run did
not measure, and numeric rows skip it.  The ratchet runs with the bare
``check`` only, over the committed records.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys
from typing import NamedTuple

BENCH_DIR = pathlib.Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
TRAJECTORY_PATH = BENCH_DIR / "TRAJECTORY.json"

#: The experiment a pair of pytest-benchmark files forms.
OVERHEAD = "fig4_overhead"

#: Kinds that compare a candidate with the committed record.
RELATIVE = ("drop", "growth", "slack", "equal")


class Gate(NamedTuple):
    experiment: str
    metric: str
    kind: str
    threshold: float | None = None


E19 = "e19_event_throughput"
E21 = "e21_control_plane_throughput"
E22 = "e22_routing_throughput"
E23 = "e23_service_throughput"
E24 = "e24_exact_gap"
E25 = "e25_week_in_the_life"
E26 = "e26_dataplane_throughput"

# Speedups are ratios of arms timed back to back in one run, so they
# compare across machines where raw rates do not.  The drop bounds on
# multi-arm ratios are looser than E19's because their run-to-run
# spread on shared runners is wider; the floors are the primary gate.
GATES = (
    # E19: the production engine over the frozen legacy loop.
    Gate(E19, "speedup", "min", 3.0),
    Gate(E19, "speedup", "drop", 0.10),
    # E21: bitset cover kernels and sweep batching; the three arms
    # built identical layers.
    Gate(E21, "checksums_match", "flag"),
    Gate(E21, "kernel_speedup", "min", 2.0),
    Gate(E21, "kernel_speedup", "drop", 0.25),
    Gate(E21, "sweep_speedup", "min", 2.0),
    Gate(E21, "sweep_speedup", "drop", 0.25),
    # E22: the CSR path engine and RouteCache, bit-identical to
    # networkx on paths and error messages.
    Gate(E22, "parity", "flag"),
    Gate(E22, "csr_speedup", "min", 5.0),
    Gate(E22, "csr_speedup", "drop", 0.25),
    Gate(E22, "cached_speedup", "min", 8.0),
    Gate(E22, "cached_speedup", "drop", 0.25),
    Gate(E22, "candidates_speedup", "min", 1.3),
    # E23: group commit and snapshot restore; every arm and recovery
    # lands in the bit-identical state.
    Gate(E23, "parity", "flag"),
    Gate(E23, "batched_speedup", "min", 2.0),
    Gate(E23, "batched_speedup", "drop", 0.25),
    Gate(E23, "restore_speedup", "min", 2.0),
    Gate(E23, "restore_speedup", "drop", 0.25),
    Gate(E23, "restore_ops_per_sec", "min", 200.0),
    Gate(E23, "restore_ops_per_sec", "drop", 0.25),
    # E24: certified greedy-vs-exact gaps.  The sweep is seeded, so a
    # gap may not widen at all; a widening gap is a greedy regression.
    Gate(E24, "proven_optimal", "flag"),
    Gate(E24, "max_gap.al_cover", "max", 0.5),
    Gate(E24, "max_gap.placement", "max", 0.0),
    Gate(E24, "max_gap", "slack", 0.0),
    Gate(E24, "rows.bnb_nodes", "max", 2000),
    Gate(E24, "total_bnb_nodes", "growth", 0.5),
    # E25: the soak runs in virtual time from one seed, so every field
    # of every arm is deterministic and any drift is a behaviour change.
    Gate(E25, "parity", "flag"),
    Gate(E25, "worker_parity", "flag"),
    Gate(E25, "rows", "equal"),
    # E26: parity in every record; the headline floor wherever a
    # legacy arm ran (CI-sized runs have none).
    Gate(E26, "checksum_parity", "flag"),
    Gate(E26, "worker_parity", "flag"),
    Gate(E26, "speedups.vector_over_legacy", "min", 10.0),
    Gate(E26, "speedups.vector_over_legacy", "drop", 0.10),
    Gate(E26, "soak.rss_worker_mb", "max", 4096.0),
    # Telemetry must cost at most 5% of each Fig. 4 benchmark's median.
    Gate(OVERHEAD, "median", "growth", 0.05),
    # No committed speedup erodes to under half its best-ever value.
    # Deliberately loose: it catches a 23x quietly becoming 8x, not
    # run-to-run noise, which the rows above bound.
    Gate("*", "speedup", "ratchet", 0.5),
)

#: Ratcheted metrics whose arm no longer exists, with the reason.
#: They keep their series as history and carry no floor.
RETIRED = {
    (E26, "speedups.vector_over_incremental"): (
        "the incremental engine arm was deleted with its engine"
    ),
    (E26, "speedups.batched_over_vector"): (
        "the per-event vector arm was deleted with per-event admission"
    ),
}

RATCHET = next(gate for gate in GATES if gate.kind == "ratchet")


class _Absent:
    def __repr__(self) -> str:
        return "absent"


ABSENT = _Absent()


def _load(path) -> dict:
    with open(path) as handle:
        return json.load(handle)


def leaves(node, path: str = "", label: str = "") -> dict:
    """``{label: value}`` for every leaf of *node* under dotted *path*."""
    if isinstance(node, list):
        out: dict = {}
        for index, row in enumerate(node):
            key = row.get("arm", index) if isinstance(row, dict) else index
            out.update(leaves(row, path, f"{label}[{key}]"))
        return out
    if path:
        head, _, rest = path.partition(".")
        label = f"{label}.{head}" if label else head
        if node is None:
            return {f"{label}.{rest}" if rest else label: None}
        if not isinstance(node, dict) or head not in node:
            return {}
        return leaves(node[head], rest, label)
    if isinstance(node, dict):
        out = {}
        for key, value in node.items():
            out.update(leaves(value, "", f"{label}.{key}" if label else key))
        return out
    return {label: node}


def _holds(gate: Gate, value, base) -> bool:
    kind, limit = gate.kind, gate.threshold
    if kind == "flag":
        return bool(value)
    if kind == "equal":
        return value == base
    if value is ABSENT:
        return False  # lost against the committed record
    if value is None or base is None and kind in RELATIVE:
        return True  # an arm this run did not measure
    if kind == "min":
        return value >= limit
    if kind == "max":
        return value <= limit
    if kind == "slack":
        return value <= base + limit
    if kind == "drop":
        return base > 0 and (base - value) / base <= limit
    return base <= 0 or (value - base) / base <= limit  # growth


def check_record(
    record: dict, committed: dict | None = None, who: str = "candidate"
) -> list[str]:
    """Failures of *record* against its experiment's rows.

    Without *committed* only the baseline-free rows (flag/min/max) run.
    Prints one line per row.
    """
    experiment = record.get("experiment")
    rows = [gate for gate in GATES if gate.experiment == experiment]
    if not rows:
        return [f"{who}: no gate rows for experiment {experiment!r}"]
    comparable = committed is not None and committed.get(
        "config"
    ) == record.get("config")
    failures = []
    for gate in rows:
        if gate.kind in RELATIVE and not comparable:
            continue
        values = leaves(record, gate.metric)
        bases = leaves(committed, gate.metric) if gate.kind in RELATIVE else {}
        labels = sorted(set(values) | set(bases)) if gate.kind == "equal" else (
            sorted(bases) if bases else sorted(values)
        )
        name = f"{experiment} {gate.metric} {gate.kind}"
        if gate.threshold is not None:
            name += f" {gate.threshold:g}"
        if not labels:
            failures.append(f"{who}: {name}: metric missing")
            continue
        bad = [
            f"{label}={values.get(label, ABSENT)!r}"
            + (f" (baseline {bases.get(label, ABSENT)!r})" if bases else "")
            for label in labels
            if not _holds(gate, values.get(label, ABSENT), bases.get(label))
        ]
        failures += [f"{who}: {name}: {item}" for item in bad]
        if not bad:
            shown = ", ".join(
                f"{values[label]:.4g}"
                if isinstance(values.get(label), float)
                else repr(values.get(label, ABSENT))
                for label in labels[:4]
            )
            more = f" (+{len(labels) - 4} more)" if len(labels) > 4 else ""
            print(f"ok   {who}: {name}: {shown}{more}")
    return failures


def committed_records() -> dict[str, dict]:
    """The committed ``BENCH_*.json`` records by experiment."""
    records = map(_load, sorted(BENCH_DIR.glob("BENCH_*.json")))
    return {record["experiment"]: record for record in records}


def metrics(record: dict) -> dict[str, float]:
    """Numeric scalar leaves of *record* outside its rows and config."""
    top = {k: v for k, v in record.items() if k not in ("rows", "config")}
    return {
        label: float(value)
        for label, value in leaves(top).items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    }


def ratchet(records: dict[str, dict]) -> list[str]:
    """Committed records against every ``TRAJECTORY.json`` floor."""
    if not TRAJECTORY_PATH.exists():
        return [f"{TRAJECTORY_PATH.name} missing: run `gates.py collect`"]
    failures = []
    for experiment, series in sorted(_load(TRAJECTORY_PATH).items()):
        current = metrics(records.get(experiment, {}))
        for metric, entry in sorted(series.items()):
            floor = entry.get("floor")
            value = current.get(metric)
            if floor is None:
                continue
            if value is None:
                failures.append(
                    f"ratchet: {experiment} {metric} vanished "
                    "from the committed records"
                )
            elif value < floor:
                failures.append(
                    f"ratchet: {experiment} {metric} = {value:.3f} fell "
                    f"below the recorded floor {floor:.3f} "
                    f"({RATCHET.threshold:.0%} of best-ever)"
                )
            else:
                print(f"ok   ratchet: {experiment} {metric} {value:.3f} >= "
                      f"{floor:.3f}")
    return failures


def check(paths: list[str]) -> list[str]:
    """Failures of the given records, or of the committed set if none."""
    committed = committed_records()
    if not paths:
        failures = []
        for record in committed.values():
            failures += check_record(record, who="committed")
        return failures + ratchet(committed)

    records = [_load(path) for path in paths]
    benchmark_files = [r for r in records if "experiment" not in r]
    failures = []
    if len(benchmark_files) % 2:
        failures.append("pytest-benchmark files come in (off, on) pairs")
    medians = [
        {
            "experiment": OVERHEAD,
            "median": {
                bench["fullname"]: bench["stats"]["median"]
                for bench in data["benchmarks"]
            },
        }
        for data in benchmark_files
    ]
    for off, on in zip(medians[::2], medians[1::2]):
        failures += check_record(on, off)
    for record in records:
        if "experiment" not in record:
            continue
        base = committed.get(record["experiment"])
        if base is None:
            failures.append(f"no committed record for {record['experiment']}")
            continue
        failures += check_record(base, who="committed")
        failures += check_record(record, base)
    return failures


def _git(*argv: str) -> str:
    return subprocess.run(
        ["git", "-C", str(REPO_ROOT), *argv],
        check=True,
        capture_output=True,
        text=True,
    ).stdout


def _history(path: pathlib.Path) -> list[dict]:
    """Oldest-first ``{commit, subject, record}`` for a committed file."""
    rel = path.relative_to(REPO_ROOT).as_posix()
    log = _git("log", "--follow", "--reverse", "--format=%H\x1f%s", "--", rel)
    points = []
    for line in filter(None, log.splitlines()):
        commit, _, subject = line.partition("\x1f")
        try:
            record = json.loads(_git("show", f"{commit}:{rel}"))
        except (subprocess.CalledProcessError, json.JSONDecodeError):
            continue  # renamed, absent or unreadable at that commit
        points.append(
            {"commit": commit[:12], "subject": subject, "record": record}
        )
    return points


def collect() -> dict:
    """The trajectory mapping from git history plus the working tree.

    One series per metric (oldest commit first, the working-tree value
    last under ``WORKTREE`` when it differs from the last commit), and
    a ratchet floor per ratcheted metric that never moves down.
    """
    previous = _load(TRAJECTORY_PATH) if TRAJECTORY_PATH.exists() else {}
    trajectory: dict = {}
    for path in sorted(BENCH_DIR.glob("BENCH_*.json")):
        points = _history(path)
        current = _load(path)
        if not points or points[-1]["record"] != current:
            points.append(
                {"commit": "WORKTREE", "subject": "(uncommitted)",
                 "record": current}
            )
        experiment = current["experiment"]
        series: dict[str, list] = {}
        for point in points:
            for metric, value in metrics(point["record"]).items():
                series.setdefault(metric, []).append(
                    {"commit": point["commit"], "subject": point["subject"],
                     "value": value}
                )
        entry: dict = {}
        for metric, values in sorted(series.items()):
            entry[metric] = {"series": values}
            retired = RETIRED.get((experiment, metric))
            if retired is not None:
                entry[metric]["retired"] = retired
            elif RATCHET.metric in metric:
                floor = RATCHET.threshold * max(v["value"] for v in values)
                old = previous.get(experiment, {}).get(metric, {}).get("floor")
                entry[metric]["floor"] = round(max(floor, old or 0.0), 6)
        trajectory[experiment] = entry
    return trajectory


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("mode", choices=("check", "collect"))
    parser.add_argument(
        "records", nargs="*", help="records to check (default: committed)"
    )
    args = parser.parse_args(argv)

    if args.mode == "collect":
        if args.records:
            parser.error("collect takes no records")
        trajectory = collect()
        with open(TRAJECTORY_PATH, "w") as handle:
            json.dump(trajectory, handle, indent=2, sort_keys=True)
            handle.write("\n")
        floors = sum(
            "floor" in entry
            for series in trajectory.values()
            for entry in series.values()
        )
        print(f"wrote {TRAJECTORY_PATH.name}: {len(trajectory)} "
              f"experiments, {floors} ratchet floors")
        return 0

    failures = check(args.records)
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    print(f"{'FAILED' if failures else 'all gates hold'}: "
          f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
