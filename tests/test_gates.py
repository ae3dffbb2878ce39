"""The benchmark gate table (``benchmarks/gates.py``) and its checker.

Every committed record passes; every row fails a committed record
perturbed just past its threshold and passes one just inside it; the
rows themselves are pinned so none can be dropped or loosened silently.
"""

import copy
import importlib.util
import json
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "gates.py"
_SPEC = importlib.util.spec_from_file_location("gates", _PATH)
gates = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(gates)

COMMITTED = gates.committed_records()
EPS = 1e-3

E19, E21, E22, E23 = gates.E19, gates.E21, gates.E22, gates.E23
E24, E25, E26 = gates.E24, gates.E25, gates.E26

#: Every gate the table must carry, at its threshold.
INVENTORY = {
    (E19, "speedup", "min"): 3.0,
    (E19, "speedup", "drop"): 0.10,
    (E21, "checksums_match", "flag"): None,
    (E21, "kernel_speedup", "min"): 2.0,
    (E21, "kernel_speedup", "drop"): 0.25,
    (E21, "sweep_speedup", "min"): 2.0,
    (E21, "sweep_speedup", "drop"): 0.25,
    (E22, "parity", "flag"): None,
    (E22, "csr_speedup", "min"): 5.0,
    (E22, "csr_speedup", "drop"): 0.25,
    (E22, "cached_speedup", "min"): 8.0,
    (E22, "cached_speedup", "drop"): 0.25,
    (E22, "candidates_speedup", "min"): 1.3,
    (E23, "parity", "flag"): None,
    (E23, "batched_speedup", "min"): 2.0,
    (E23, "batched_speedup", "drop"): 0.25,
    (E23, "restore_speedup", "min"): 2.0,
    (E23, "restore_speedup", "drop"): 0.25,
    (E23, "restore_ops_per_sec", "min"): 200.0,
    (E23, "restore_ops_per_sec", "drop"): 0.25,
    (E24, "proven_optimal", "flag"): None,
    (E24, "max_gap.al_cover", "max"): 0.5,
    (E24, "max_gap.placement", "max"): 0.0,
    (E24, "max_gap", "slack"): 0.0,
    (E24, "rows.bnb_nodes", "max"): 2000,
    (E24, "total_bnb_nodes", "growth"): 0.5,
    (E25, "parity", "flag"): None,
    (E25, "worker_parity", "flag"): None,
    (E25, "rows", "equal"): None,
    (E26, "checksum_parity", "flag"): None,
    (E26, "worker_parity", "flag"): None,
    (E26, "speedups.vector_over_legacy", "min"): 10.0,
    (E26, "speedups.vector_over_legacy", "drop"): 0.10,
    (E26, "soak.rss_worker_mb", "max"): 4096.0,
    (gates.OVERHEAD, "median", "growth"): 0.05,
    ("*", "speedup", "ratchet"): 0.5,
}

#: The ratcheted metrics of the committed trajectory.
RATCHETED = {
    (E19, "speedup"),
    (E21, "kernel_speedup"),
    (E21, "sweep_speedup"),
    (E22, "batch_speedup"),
    (E22, "cached_speedup"),
    (E22, "candidates_speedup"),
    (E22, "csr_speedup"),
    (E23, "batched_speedup"),
    (E23, "restore_speedup"),
    (E26, "speedups.sharded_over_legacy"),
    (E26, "speedups.vector_over_legacy"),
}

RECORD_ROWS = [
    gate
    for gate in gates.GATES
    if gate.kind != "ratchet" and gate.experiment != gates.OVERHEAD
]


def _set_first(record, metric, change):
    """Copy of *record* with the first leaf under *metric* changed."""
    record = copy.deepcopy(record)
    node = record
    for part in metric.split("."):
        if isinstance(node, list):
            node = node[0]
        parent, key = node, part
        node = node[part]
    while isinstance(node, (dict, list)):
        parent = node
        key = sorted(node)[0] if isinstance(node, dict) else 0
        node = parent[key]
    parent[key] = change(node)
    return record


def _pair(gate, record, past):
    """``(candidate, committed)`` just past or just inside *gate*."""
    metric, limit = gate.metric, gate.threshold
    if gate.kind == "flag":
        return _set_first(record, metric, lambda value: not past), record
    if gate.kind == "min":
        edge = limit * (1 - EPS if past else 1 + EPS)
    elif gate.kind == "max":
        edge = limit + EPS * max(limit, 1) if past else limit
    if gate.kind in ("min", "max"):
        candidate = _set_first(record, metric, lambda value: edge)
        return candidate, candidate
    if gate.kind == "drop":
        # Raise the committed value so no floor binds the candidate.
        committed = _set_first(record, metric, lambda value: 10 * value)
        factor = 1 - limit + (-EPS if past else EPS)
        return _set_first(record, metric, lambda v: 10 * v * factor), committed
    if gate.kind == "growth":
        factor = (1 + limit) * (1 + EPS if past else 1 - EPS)
        return _set_first(record, metric, lambda v: v * factor), record
    if gate.kind == "slack":
        return _set_first(
            record, metric, lambda value: value + limit + EPS * past
        ), record
    assert gate.kind == "equal"
    return _set_first(
        record, metric, lambda value: "drift" if past else value
    ), record


def _fails_on(failures, gate):
    return any(f" {gate.metric} {gate.kind}" in item for item in failures)


def test_every_committed_record_passes():
    assert set(COMMITTED) == {E19, E21, E22, E23, E24, E25, E26}
    assert gates.check([]) == []


def test_inventory_pins_every_row_and_threshold():
    table = {
        (gate.experiment, gate.metric, gate.kind): gate.threshold
        for gate in gates.GATES
    }
    assert len(table) == len(gates.GATES)  # no duplicate rows
    assert table == INVENTORY


def test_trajectory_carries_the_ratchet_floors():
    with open(gates.TRAJECTORY_PATH) as handle:
        trajectory = json.load(handle)
    floors = {
        (experiment, metric)
        for experiment, series in trajectory.items()
        for metric, entry in series.items()
        if "floor" in entry
    }
    assert floors == RATCHETED
    for experiment, metric in gates.RETIRED:
        entry = trajectory[experiment][metric]
        assert "floor" not in entry and entry["series"]


@pytest.mark.parametrize(
    "gate", RECORD_ROWS, ids=lambda g: f"{g.experiment}-{g.metric}-{g.kind}"
)
@pytest.mark.parametrize("past", [True, False], ids=["past", "inside"])
def test_row_trips_just_past_its_threshold(gate, past):
    candidate, committed = _pair(gate, COMMITTED[gate.experiment], past)
    failures = gates.check_record(candidate, committed)
    if past:
        assert _fails_on(failures, gate), failures
    else:
        assert failures == []


def test_lost_leaf_fails_relative_rows():
    committed = COMMITTED[E24]
    candidate = copy.deepcopy(committed)
    del candidate["max_gap"]["placement"]
    failures = gates.check_record(candidate, committed)
    assert any("max_gap slack" in item for item in failures)

    committed = COMMITTED[E25]
    for change in (lambda rows: rows.pop(), lambda rows: rows.append(
        dict(rows[0], arm="extra")
    )):
        candidate = copy.deepcopy(committed)
        change(candidate["rows"])
        failures = gates.check_record(candidate, committed)
        assert any("rows equal" in item for item in failures)


def test_missing_metric_fails():
    candidate = copy.deepcopy(COMMITTED[E21])
    del candidate["kernel_speedup"]
    failures = gates.check_record(candidate)
    assert any("kernel_speedup min 2: metric missing" in f for f in failures)


def test_e26_candidate_without_legacy_arm_is_gated_on_parity_alone():
    committed = COMMITTED[E26]
    candidate = copy.deepcopy(committed)
    candidate["config"] = dict(committed["config"], arms=["vector"])
    candidate["speedups"] = {
        "vector_over_legacy": None,
        "sharded_over_legacy": None,
    }
    assert gates.check_record(candidate, committed) == []
    candidate["worker_parity"] = False
    assert gates.check_record(candidate, committed)


def test_e26_other_config_skips_the_drop_but_keeps_the_floor():
    committed = COMMITTED[E26]
    other = dict(committed["config"], n_flows=4000)
    key = "speedups.vector_over_legacy"
    candidate = _set_first(committed, key, lambda value: 10.5)
    candidate["config"] = other
    assert gates.check_record(candidate, committed) == []
    candidate = _set_first(candidate, key, lambda value: 9.9)
    assert gates.check_record(candidate, committed)


def test_check_also_holds_the_committed_record(tmp_path, monkeypatch):
    bench = tmp_path / "bench"
    bench.mkdir()
    broken = dict(COMMITTED[E26], checksum_parity=False)
    (bench / "BENCH_e26.json").write_text(json.dumps(broken))
    fresh = tmp_path / "fresh.json"
    fresh.write_text(json.dumps(COMMITTED[E26]))
    monkeypatch.setattr(gates, "BENCH_DIR", bench)
    failures = gates.check([str(fresh)])
    assert any(item.startswith("committed:") for item in failures)


def test_vanished_or_eroded_ratchet_metric_fails():
    assert gates.ratchet(COMMITTED) == []
    vanished = copy.deepcopy(COMMITTED)
    del vanished[E22]["batch_speedup"]
    assert any("batch_speedup vanished" in f for f in gates.ratchet(vanished))
    gone = {k: v for k, v in COMMITTED.items() if k != E21}
    assert len(gates.ratchet(gone)) == 2
    eroded = copy.deepcopy(COMMITTED)
    eroded[E22]["batch_speedup"] = 1.0
    assert any("below the recorded floor" in f for f in gates.ratchet(eroded))


def test_collect_only_raises_floors(tmp_path, monkeypatch):
    with open(gates.TRAJECTORY_PATH) as handle:
        previous = json.load(handle)
    previous[E19]["speedup"]["floor"] = 99.0
    trajectory_path = tmp_path / "TRAJECTORY.json"
    trajectory_path.write_text(json.dumps(previous))
    monkeypatch.setattr(gates, "TRAJECTORY_PATH", trajectory_path)
    monkeypatch.setattr(gates, "_history", lambda path: [])
    trajectory = gates.collect()
    assert trajectory[E19]["speedup"]["floor"] == 99.0
    record = COMMITTED[E22]
    assert trajectory[E22]["csr_speedup"]["floor"] == pytest.approx(
        max(0.5 * record["csr_speedup"], previous[E22]["csr_speedup"]["floor"])
    )
    assert "floor" not in trajectory[E22]["paths_per_sec.nx"]


def _bench_file(path, medians):
    path.write_text(json.dumps({
        "benchmarks": [
            {"fullname": name, "stats": {"median": median}}
            for name, median in medians.items()
        ]
    }))
    return str(path)


@pytest.mark.parametrize(
    "on, ok",
    [
        ({"a": 1.0, "b": 2.0 * (1.05 - EPS)}, True),
        ({"a": 1.0, "b": 2.0 * (1.05 + EPS)}, False),
        ({"a": 0.5, "b": 1.0, "extra": 9.0}, True),
        ({"a": 1.0}, False),  # a benchmark lost from the telemetry run
    ],
)
def test_overhead_pair(tmp_path, on, ok):
    off = _bench_file(tmp_path / "off.json", {"a": 1.0, "b": 2.0})
    on = _bench_file(tmp_path / "on.json", on)
    assert (gates.check([off, on]) == []) == ok


def test_unpaired_benchmark_file_fails(tmp_path):
    off = _bench_file(tmp_path / "off.json", {"a": 1.0})
    assert gates.check([off])

