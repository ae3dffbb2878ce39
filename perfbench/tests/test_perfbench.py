"""Tests of the benchmark itself: metrics, output checks, tracing."""

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import reference
import run
import workloads
from checks import CheckFailed, check_answered, check_digest, check_flows
from tracing import TARGETS, Tracer, _resolve
from repro.sim.event_simulator import EventDrivenFlowSimulator

#: Seed no number was tuned on (see README.md).
HELD_OUT_SEED = 7919


def test_metric_tables_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == (
        run.per_layer_names()
    )


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_run_reports_every_metric_with_its_unit(name, traced):
    lines, record, result = run.run(name, HELD_OUT_SEED, 0, traced, size="tiny")
    table = run.per_layer_names() if traced else run.END_TO_END
    assert list(result["metrics"]) == [metric for metric, _, _ in table]
    for metric, unit, _ in table:
        assert result["metrics"][metric]["unit"] == unit
        assert isinstance(result["metrics"][metric]["value"], float | int)
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    assert record["seed"] == HELD_OUT_SEED
    assert set(record["host"]) == {
        "cpu", "nproc", "python", "numpy", "ckernel", "engine", "admission"
    }
    if name.startswith("flows-"):
        assert (record["host"]["engine"], record["host"]["admission"]) == (
            "vector", "batched"
        )


def test_traced_run_attributes_the_data_plane():
    _, _, result = run.run("flows-waves", HELD_OUT_SEED, 0, True, size="tiny")
    metrics = {key: value["value"] for key, value in result["metrics"].items()}
    for layer in ("sim.run", "sim.vector.recompute", "sim.vector.admit",
                  "sim.vector.fault", "sim.admission.resolve", "sdn.routes"):
        assert metrics[f"{layer}.calls"] >= 1, layer
    assert metrics["core.provision.calls"] == 0
    assert 0.0 < metrics["sim.admission.fallback_frac"] < 1.0


# ----------------------------------------------------------------------
# Output checks trip on corrupted results
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def simulated():
    inventory, clusters, services = workloads.build_testbed()
    simulator = EventDrivenFlowSimulator(
        inventory, clusters, engines=workloads.PINNED_ENGINES
    )
    flows = workloads.poisson_flows(
        workloads.vms_by_service(inventory, services), 60, HELD_OUT_SEED
    )
    report = simulator.run(flows)
    check_flows(flows, report, simulator.capacities)
    return flows, report, simulator.capacities


def test_flow_check_trips_on_a_missing_flow(simulated):
    flows, report, capacities = simulated
    corrupted = dataclasses.replace(report, completed=report.completed[1:])
    with pytest.raises(CheckFailed, match="offered"):
        check_flows(flows, corrupted, capacities)


def test_flow_check_trips_on_a_flow_reported_twice(simulated):
    flows, report, capacities = simulated
    corrupted = dataclasses.replace(
        report, completed=report.completed + report.completed[:1]
    )
    with pytest.raises(CheckFailed, match="twice"):
        check_flows(flows, corrupted, capacities)


def test_flow_check_trips_on_completion_before_arrival(simulated):
    flows, report, capacities = simulated
    first = report.completed[0]
    early = dataclasses.replace(first, completion_time=first.arrival_time - 1e-3)
    corrupted = dataclasses.replace(
        report, completed=(early,) + report.completed[1:]
    )
    with pytest.raises(CheckFailed, match="before its arrival"):
        check_flows(flows, corrupted, capacities)


def test_flow_check_trips_on_an_over_busy_link(simulated):
    flows, report, capacities = simulated
    busy = dict(report.link_busy_byte_seconds)
    link = next(iter(busy))
    busy[link] = capacities[link] * report.makespan * 1.001
    corrupted = dataclasses.replace(report, link_busy_byte_seconds=busy)
    with pytest.raises(CheckFailed, match="exceeds capacity"):
        check_flows(flows, corrupted, capacities)


def test_answer_check_trips_on_an_unanswered_request():
    response = type("Response", (), {})
    answered = []
    for request_id in range(3):
        item = response()
        item.request_id = request_id
        answered.append(item)
    check_answered(3, answered)
    with pytest.raises(CheckFailed, match="answered"):
        check_answered(3, answered[:2])
    with pytest.raises(CheckFailed, match="more than once"):
        check_answered(3, answered[:2] + answered[:1])


def test_digest_check_trips_on_a_mismatch():
    check_digest("a" * 64, "a" * 64, "stack")
    with pytest.raises(CheckFailed, match="restored digest"):
        check_digest("a" * 64, "b" * 64, "stack")


def test_failed_check_exits_nonzero_without_a_result(monkeypatch, capsys):
    real = workloads.check_flows

    def drop_one(offered, report, capacities):
        report = dataclasses.replace(report, completed=report.completed[1:])
        real(offered, report, capacities)

    monkeypatch.setattr(workloads, "check_flows", drop_one)
    argv = ["--workload", "flows-poisson", "--seed", "1", "--seconds", "0"]
    assert run.main(argv) == 1
    assert capsys.readouterr().out == ""


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        run.HERE, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "flows-poisson",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""


# ----------------------------------------------------------------------
# Reference time
# ----------------------------------------------------------------------
def test_reference_samples_bracket_each_call_and_set_the_scale(monkeypatch):
    readings = iter([1.0, 3.0, 2.0, 2.0])
    monkeypatch.setattr(reference, "reference_seconds", lambda: next(readings))
    samples = reference.Samples()
    assert reference.timed(lambda: 7, samples)[0] == 7
    assert reference.timed(lambda: 8, samples)[0] == 8
    assert samples.cpu == [1.0, 3.0, 2.0, 2.0]
    assert samples.io == []
    assert reference.scale(samples) == pytest.approx(reference.REFERENCE_S / 2.0)


def test_io_weight_blends_the_disk_reference(monkeypatch, tmp_path):
    monkeypatch.setattr(
        reference, "reference_seconds", lambda: 2 * reference.REFERENCE_S
    )
    monkeypatch.setattr(
        reference, "io_reference_seconds", lambda path: 4 * reference.IO_REFERENCE_S
    )
    samples = reference.Samples()
    reference.timed(lambda: None, samples, tmp_path / "io.bin")
    assert len(samples.io) == 2
    assert reference.scale(samples) == pytest.approx(1 / 2)
    assert reference.scale(samples, io_weight=0.5) == pytest.approx(1 / 3)


def test_reference_samples_are_positive(tmp_path):
    assert reference.reference_seconds() > 0.0
    assert reference.io_reference_seconds(tmp_path / "io.bin") > 0.0


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    tracer.spans = [
        ["sim.run", 0.0, 10.0, -1],
        ["sim.vector.recompute", 2.0, 5.0, 0],
        ["sim.run", 11.0, 12.0, -1],
    ]
    totals = tracer.layer_totals()
    assert totals["sim.run"] == (8.0, 2)
    assert totals["sim.vector.recompute"] == (3.0, 1)
    assert tracer.top_level_seconds() == 11.0
    assert tracer.uncovered([(0.0, 12.0)]) == pytest.approx(1.0)
    assert tracer.uncovered([(4.0, 11.5)]) == pytest.approx(1.0)


def test_nested_call_into_the_same_layer_is_one_span():
    tracer = Tracer()
    assert tracer.call("sdn.routes", lambda: tracer.call("sdn.routes", lambda: 7)) == 7
    assert len(tracer.spans) == 1


def test_installed_patches_are_undone():
    before = [vars(_resolve(module, path)[0])[path.rsplit(".", 1)[-1]]
              for _, module, path in TARGETS]
    with Tracer().installed():
        pass
    after = [vars(_resolve(module, path)[0])[path.rsplit(".", 1)[-1]]
             for _, module, path in TARGETS]
    assert before == after
