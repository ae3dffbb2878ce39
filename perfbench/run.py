"""AL-VC benchmark: one command, four workloads, end-to-end or traced.

Run from the repository root::

    python3 perfbench/run.py --workload flows-poisson --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation
and telemetry off.  Gated times are in reference seconds: host time
scaled by a fixed computation timed beside the calls (``reference.py``).
``--trace 1`` runs the same repetition untraced and then traced (layer
entry points wrapped, telemetry on where a ratio needs it) and prints
the per-layer split; it never reports an end-to-end number.  Every
repetition's outputs are checked; a failed check exits non-zero
without a result.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from reference import Samples, scale

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Scratch space inside the checkout: journals, the C-kernel cache and
#: the compiler's temporaries.
WORKDIR = ROOT / ".bench_build"

#: ``(name, unit, better)`` of every gated end-to-end metric, in output
#: order.  Each workload reports all of them; what one call is, is
#: defined per workload in README.md.  Both times are reference times.
#: Throughput is printed, not gated: a flows or tenant-week call does a
#: fixed amount of work, so its latency already is the throughput, and
#: control-stream's throughput spread more between runs than its median
#: latency did.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("call_p50_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: Set-up times a run takes its ``setup_s`` median over: set-up takes
#: tens of milliseconds, so one sample per repetition is too few.
SETUP_SAMPLES = 15

#: Ratios read from the program's own telemetry in the traced run.
RATIOS = (
    ("sim.admission.fallback_frac", "ratio", "lower"),
    ("sdn.route_cache.hit_ratio", "ratio", "higher"),
    ("service.journal.records_per_sync", "count", "higher"),
    ("service.frontend.batch_mean", "count", "higher"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)

#: What one unit of work is, per workload, for the readable lines.
UNIT_NAMES = {
    "flows-poisson": "events_per_s",
    "flows-waves": "events_per_s",
    "control-stream": "ops_per_s",
    "tenant-week": "epochs_per_s",
}


def prepare_environment() -> None:
    """Import the program from this checkout and keep its caches here.

    Exits non-zero when the checkout holds no program to measure.
    """
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program under {source}; nothing to measure")
    sys.path.insert(0, str(source))
    (WORKDIR / "tmp").mkdir(parents=True, exist_ok=True)
    # The compiled water-filling kernel caches its shared object under
    # XDG_CACHE_HOME, and the C compiler writes its temporaries under
    # TMPDIR; keep both inside the checkout.
    os.environ["XDG_CACHE_HOME"] = str(WORKDIR / "cache")
    os.environ["TMPDIR"] = str(WORKDIR / "tmp")


def per_layer_names() -> list[tuple[str, str, str]]:
    from tracing import LAYERS

    names = []
    for layer in LAYERS:
        names.append((f"{layer}.self_s", "s", "lower"))
        names.append((f"{layer}.calls", "count", "lower"))
    return names + list(RATIOS)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def fingerprint(engines) -> dict:
    """Host and program facts every record carries."""
    import numpy

    from repro.sim.ckernel import kernel_available

    return {
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "ckernel": kernel_available(),
        "engine": engines[0] if engines else None,
        "admission": engines[1] if engines else None,
    }


def refuse_unpinned(name: str, host: dict) -> None:
    """The data plane must run the pinned engine on the C kernel."""
    if not name.startswith("flows-"):
        return
    if (host["engine"], host["admission"]) != ("vector", "batched"):
        raise SystemExit(
            f"perfbench: simulator ran {host['engine']}/{host['admission']}, "
            "not the pinned vector/batched path; refusing to record"
        )
    if not host["ckernel"]:
        raise SystemExit(
            "perfbench: the compiled water-filling kernel is not active "
            "(no C compiler, or ALVC_NO_CKERNEL set); refusing to record"
        )


def prime(name: str, seed: int) -> None:
    """One tiny untimed repetition: imports, the C-kernel compile and
    load, and allocator growth all happen before the first timing."""
    import workloads

    tiny = workloads.make_workload(name, "tiny", WORKDIR)
    tiny.prepare()
    tiny.repetition(workloads.rep_seed(seed, -1))


def measure(workload, seed: int, seconds: float):
    """Untraced repetitions, each on its own inputs, until ``seconds``
    have passed (at least one); then extra set-ups until there are
    :data:`SETUP_SAMPLES` set-up times.  Returns the repetitions, the
    set-up host times and every reference sample taken."""
    import workloads

    reps = []
    started = time.perf_counter()
    while not reps or time.perf_counter() - started < seconds:
        gc.collect()
        reps.append(workload.repetition(workloads.rep_seed(seed, len(reps))))
    setups = [rep.setup_s for rep in reps]
    samples = Samples()
    for rep in reps:
        samples.extend(rep.samples)
    while len(setups) < SETUP_SAMPLES:
        gc.collect()
        setups.append(workload.setup_once(samples))
    return reps, setups, samples


def end_to_end(reps, setups, samples, io_weight: float) -> dict:
    """Gated metrics in reference time, and their host-time readings.

    Set-up is scaled by the processors' reference alone, calls with the
    workload's ``io_weight`` (see :func:`reference.scale`).
    """
    calls = [value for rep in reps for value in rep.calls_ms]
    throughput = statistics.median(rep.units / rep.wall_s for rep in reps)
    factor = scale(samples)
    call_factor = scale(samples, io_weight)
    return {
        "setup_s": statistics.median(setups) * factor,
        "call_p50_ms": statistics.median(calls) * call_factor,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "throughput_per_s": throughput / call_factor,
        "host_setup_s": statistics.median(setups),
        "host_call_p50_ms": statistics.median(calls),
        "host_throughput_per_s": throughput,
        "reference_samples": len(samples.cpu),
        "io_reference_samples": len(samples.io),
        "reference_scale": factor,
        "call_scale": call_factor,
    }


def percentile(values: list[float], fraction: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def readable(name: str, reps, setups, metrics: dict) -> list[str]:
    """The workload's metrics under the names a reader knows them by.

    Times are reference times, with the host reading in brackets.
    """
    factor = metrics["call_scale"]
    lines = [
        f"{UNIT_NAMES[name]} {metrics['throughput_per_s']:.6g} 1/s "
        f"[host {metrics['host_throughput_per_s']:.6g}] "
        f"(median of {len(reps)} repetitions)",
        f"setup_s {metrics['setup_s']:.6g} s [host {metrics['host_setup_s']:.6g}] "
        f"(median of {len(setups)})",
        f"peak_rss_mb {metrics['peak_rss_mb']:.6g} MB",
    ]
    calls = [value * factor for rep in reps for value in rep.calls_ms]
    host = f"[host {metrics['host_call_p50_ms']:.6g}]"
    if name == "control-stream":
        lines.append(f"op_p50_ms {metrics['call_p50_ms']:.6g} ms {host} (n={len(calls)})")
        lines.append(f"op_p99_ms {percentile(calls, 0.99):.6g} ms (n={len(calls)})")
    else:
        lines.append(f"call_p50_ms {metrics['call_p50_ms']:.6g} ms {host} (n={len(calls)})")
    if reps[0].restore_s is not None:
        restore = statistics.median(rep.restore_s for rep in reps)
        lines.append(f"restore_s {restore:.6g} s, host time (median of {len(reps)})")
    lines.append(
        f"reference_scale {metrics['reference_scale']:.6g} (host to reference "
        f"time, over {metrics['reference_samples']} samples; calls {factor:.6g}, "
        f"with {metrics['io_reference_samples']} I/O samples)"
    )
    attempted = sum(rep.attempted for rep in reps)
    failed = sum(rep.failed for rep in reps)
    lines.append(f"failed_frac {failed / attempted:.6g} ({failed} of {attempted})")
    if name == "tenant-week":
        rejected = sum(rep.rejected for rep in reps)
        lost = sum(rep.defrag_lost for rep in reps)
        lines.append(
            f"rejected_frac {rejected / attempted:.6g} "
            f"({rejected} of {attempted} tenants refused by admission)"
        )
        lines.append(f"defrag_lost {lost} chains not re-provisioned by defrag")
    return lines


def trace(workload, seed: int, seconds: float):
    """Pairs of one untraced and one traced repetition on the same
    inputs, until ``seconds`` have passed; per-layer medians, with
    seconds in reference time."""
    import workloads
    from repro.observability.runtime import Telemetry, current_telemetry, use_telemetry
    from tracing import Tracer

    rows = []
    traced_reps = []
    samples = Samples()
    started = time.perf_counter()
    while not rows or time.perf_counter() - started < seconds:
        inputs = workloads.rep_seed(seed, 0)
        gc.collect()
        plain = workload.repetition(inputs)
        tracer = Tracer()
        telemetry = (
            Telemetry.enabled_instance()
            if workload.reads_telemetry
            else current_telemetry()
        )
        gc.collect()
        with use_telemetry(telemetry):
            traced = workload.repetition(inputs, tracer=tracer)
        traced_reps.append(traced)
        samples.extend(plain.samples)
        samples.extend(traced.samples)
        rows.append(layer_row(tracer, telemetry, plain, traced))
    factor = scale(samples, workload.io_weight)
    metrics = {
        key: statistics.median(row[key] for row in rows) * (
            factor if key.endswith("_s") else 1.0
        )
        for key in rows[0]
    }
    return traced_reps, metrics


def layer_row(tracer, telemetry, plain, traced) -> dict:
    from tracing import WAIT_LAYER

    row = {}
    for layer, (seconds, calls) in tracer.layer_totals().items():
        row[f"{layer}.self_s"] = seconds
        row[f"{layer}.calls"] = calls
    row[f"{WAIT_LAYER}.self_s"] = tracer.uncovered(traced.request_spans)
    row[f"{WAIT_LAYER}.calls"] = len(traced.request_spans)

    def count(name: str) -> float:
        return telemetry.registry.value_of(name) or 0.0

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    bulk = count("alvc_admission_bulk_flows_total")
    fallback = count("alvc_admission_fallback_flows_total")
    hits = count("alvc_route_cache_hits_total")
    misses = count("alvc_route_cache_misses_total")
    row["sim.admission.fallback_frac"] = ratio(fallback, bulk + fallback)
    row["sdn.route_cache.hit_ratio"] = ratio(hits, hits + misses)
    row["service.journal.records_per_sync"] = ratio(
        count("alvc_journal_records_total"), count("alvc_journal_syncs_total")
    )
    row["service.frontend.batch_mean"] = telemetry.histogram(
        "alvc_frontend_batch_size"
    ).mean
    traced_s = traced.wall_s + (traced.restore_s or 0.0)
    plain_s = plain.wall_s + (plain.restore_s or 0.0)
    row["trace.unattributed_s"] = traced_s - tracer.top_level_seconds()
    row["trace.overhead_frac"] = traced_s / plain_s - 1.0
    return row


def run(name: str, seed: int, seconds: float, traced: bool, size: str = "full"):
    """Measure one workload; returns ``(readable lines, record, result)``.

    Raises :class:`checks.CheckFailed` when an output check fails.
    """
    import workloads

    if size == "full":
        prime(name, seed)
    workload = workloads.make_workload(name, size, WORKDIR)
    workload.prepare()
    if traced:
        reps, values = trace(workload, seed, seconds)
        table = per_layer_names()
    else:
        reps, setups, samples = measure(workload, seed, seconds)
        values = end_to_end(reps, setups, samples, workload.io_weight)
        table = END_TO_END
    host = fingerprint(reps[0].engines)
    refuse_unpinned(name, host)
    metrics = {
        metric: {"value": values[metric], "unit": unit} for metric, unit, _ in table
    }
    result = {
        "correct": True,
        "attempted": sum(rep.attempted for rep in reps),
        "failed": sum(rep.failed for rep in reps),
        "metrics": metrics,
    }
    lines = [f"perfbench workload={name} seed={seed} trace={int(traced)} repetitions={len(reps)}"]
    if traced:
        lines += [f"{metric} {values[metric]:.6g} {unit}" for metric, unit, _ in table]
    else:
        lines += readable(name, reps, setups, values)
    record = {"workload": name, "seed": seed, "trace": traced, "host": host, "metrics": values}
    return lines, record, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    prepare_environment()
    import workloads
    from checks import CheckFailed

    if args.workload not in workloads.WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r} "
            f"(expected one of {', '.join(workloads.WORKLOADS)})"
        )
    try:
        lines, record, result = run(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )
    except CheckFailed as failure:
        print(f"perfbench: output check failed: {failure}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
