"""Snapshot + journal-tail replay: rebuild a stack after a crash.

Restore has two sources, tried in order:

1. **snapshot** — unpickle the last good snapshot and replay only the
   journal records appended after it (``seq >= snapshot.journal_seq``);
2. **genesis** — when there is no snapshot, or the snapshot fails its
   CRC/length checks (a torn mid-op write), rebuild the stack from the
   journal's genesis record and replay *every* command.

Because every journaled command is the *input* of a deterministic
public entry point (seeded placement, seeded AL construction, monotonic
id allocators), replay reconstructs a bit-identical control plane —
:func:`repro.service.snapshot.state_digest` of the restored stack
equals the digest the live stack had when the journal was last synced.
The replay-parity test suite proves this over hundreds of randomized
op schedules.

Replay is side-effect-silent: it runs under suspended recorders, so a
restored stack never re-journals the history it was rebuilt from.
"""

from __future__ import annotations

import contextlib
from pathlib import Path
from typing import Iterable

from repro.config import EngineConfig
from repro.exceptions import JournalCorruptError, JournalError, SnapshotError
from repro.service.journal import NULL_RECORDER, read_journal
from repro.service.records import (
    OpRecord,
    chain_from_spec,
    policy_from_spec,
)
from repro.service.snapshot import load_snapshot

#: Engine selector values that journals written before the v1.0 cut may
#: carry in their genesis ``engines`` dict, folded to the survivor.  Every
#: retired engine and admission mode produced bit-identical reports, so
#: the fold changes no restored state.
RETIRED_ENGINE_VALUES = {
    "sim_engine": {"incremental": "vector", "from_scratch": "vector"},
    "admission": {"per_event": "auto"},
}

#: Selectors removed from ``EngineConfig`` outright (the cover kernel and
#: the routing engine).  Every value they took was bit-identical on
#: outputs, so dropping them from an old genesis changes no state.
RETIRED_ENGINE_KEYS = ("cover_kernel", "routing")


def fold_retired_engines(engines: dict) -> dict:
    """An ``EngineConfig`` mapping with retired selector values folded
    to the ones that replaced them and retired selectors dropped."""
    return {
        key: RETIRED_ENGINE_VALUES.get(key, {}).get(value, value)
        for key, value in engines.items()
        if key not in RETIRED_ENGINE_KEYS
    }


def genesis_build_args(record: OpRecord) -> dict:
    """The ``AlvcStack.build`` kwargs of a genesis record, with retired
    engine selector values folded (see :func:`fold_retired_engines`)."""
    build = dict(record.data["build"])
    engines = build.get("engines")
    if isinstance(engines, dict):
        build["engines"] = fold_retired_engines(engines)
    return build


def _fold_snapshot_engines(stack) -> None:
    """Fold retired selector values out of an unpickled stack's config.

    Unpickling skips ``EngineConfig`` validation, so a snapshot written
    before the v1.0 cut brings its retired values back verbatim; the
    stack and its orchestrator then share the folded config instead.
    """
    saved = stack.engines.to_dict()
    folded = fold_retired_engines(saved)
    if folded != saved:
        config = EngineConfig(**folded)
        stack._engines = config
        stack.orchestrator._engines = config


def _apply_provision(stack, data: dict) -> None:
    from repro.core.chaining import ChainRequest
    from repro.core.placement import PlacementAlgorithm

    algorithm = PlacementAlgorithm(data["algorithm"])
    chain = data["chain"]
    if data["entry"] == "orchestrator":
        request = ChainRequest(
            tenant=data["tenant"],
            chain=chain_from_spec(chain["spec"]),
            service=data["service"],
            flow_size_gb=data["flow_size_gb"],
        )
        stack.orchestrator.provision_chain(request, algorithm)
        return
    if "spec" in chain:
        stack.provision(
            chain_from_spec(chain["spec"]),
            service=data["service"],
            tenant=data["tenant"],
            flow_size_gb=data["flow_size_gb"],
            algorithm=algorithm,
        )
    else:
        # Names + the *raw* chain_id (possibly None): auto-numbering via
        # the stack's chain serial must re-run exactly as it did live.
        stack.provision(
            tuple(chain["names"]),
            service=data["service"],
            tenant=data["tenant"],
            chain_id=chain["chain_id"],
            flow_size_gb=data["flow_size_gb"],
            bandwidth_gbps=chain["bandwidth_gbps"],
            algorithm=algorithm,
        )


def apply_record(stack, record: OpRecord) -> bool:
    """Re-execute one journaled command against ``stack``.

    Annotation records (``nested=True``) and non-replayed ops are
    skipped.  Returns True when the record was applied.

    Raises:
        JournalError: for a record whose op has no replay mapping
            (schema drift the validator should have caught).
    """
    if record.nested:
        return False
    data = record.data
    orchestrator = stack.orchestrator
    if record.op in ("genesis", "al_reconfig"):
        return False
    if record.op == "register_service":
        stack.register_service(
            data["name"],
            cpu_cores=data["cpu_cores"],
            memory_gb=data["memory_gb"],
            storage_gb=data["storage_gb"],
            traffic_intensity=data["traffic_intensity"],
        )
    elif record.op == "populate":
        stack.populate(data["service"], data["vms"])
    elif record.op == "cluster":
        stack.cluster(data["service"])
    elif record.op == "provision":
        _apply_provision(stack, data)
    elif record.op == "teardown":
        orchestrator.teardown_chain(data["chain_id"])
    elif record.op == "modify":
        from repro.core.placement import PlacementAlgorithm

        orchestrator.modify_chain(
            data["chain_id"],
            chain_from_spec(data["new_chain"]),
            PlacementAlgorithm(data["algorithm"]),
        )
    elif record.op == "upgrade":
        orchestrator.upgrade_chain(data["chain_id"])
    elif record.op == "vm_migrate":
        orchestrator.handle_vm_migration(data["vm"], data["server"])
    elif record.op == "ops_failure":
        orchestrator.handle_ops_failure(
            data["ops"], policy=policy_from_spec(data["policy"])
        )
    elif record.op == "ops_repair":
        orchestrator.mark_ops_repaired(data["ops"])
    elif record.op == "vnf_migrate":
        orchestrator.nfv_manager.migrate(data["vnf"], data["host"])
    elif record.op == "vnf_scale":
        orchestrator.nfv_manager.scale(data["vnf"], data["factor"])
    else:
        raise JournalError(
            f"record seq={record.seq} op={record.op!r} has no replay "
            f"mapping"
        )
    return True


@contextlib.contextmanager
def _silent(stack):
    """Suspend every recorder hanging off the stack during replay."""
    holders = (stack, stack.orchestrator, stack.orchestrator.nfv_manager)
    with contextlib.ExitStack() as scopes:
        for holder in holders:
            recorder = getattr(holder, "_recorder", NULL_RECORDER)
            scopes.enter_context(recorder.suspended())
        yield


def replay(stack, records: Iterable[OpRecord]) -> int:
    """Apply ``records`` to ``stack`` without journaling; returns count."""
    applied = 0
    with _silent(stack):
        for record in records:
            if apply_record(stack, record):
                applied += 1
    return applied


class RestoreResult:
    """What :func:`restore_stack` rebuilt and how.

    Attributes:
        stack: the restored :class:`~repro.stack.AlvcStack`.
        source: ``"snapshot"`` or ``"genesis"``.
        replayed: command records re-executed.
        journal_seq: sequence the next appended record should get.
        truncated: True when a torn journal tail was dropped.
        snapshot_error: why the snapshot was rejected (None when it was
            used or absent).
    """

    __slots__ = (
        "stack",
        "source",
        "replayed",
        "journal_seq",
        "truncated",
        "snapshot_error",
    )

    def __init__(
        self,
        stack,
        *,
        source: str,
        replayed: int,
        journal_seq: int,
        truncated: bool,
        snapshot_error: str | None,
    ) -> None:
        self.stack = stack
        self.source = source
        self.replayed = replayed
        self.journal_seq = journal_seq
        self.truncated = truncated
        self.snapshot_error = snapshot_error


def restore_stack(
    journal_path: str | Path,
    snapshot_path: str | Path | None = None,
) -> RestoreResult:
    """Rebuild a stack from its journal (and snapshot, when one is good).

    Args:
        journal_path: the state journal to replay.
        snapshot_path: optional snapshot; when missing or torn the
            restore transparently falls back to full genesis replay.

    Raises:
        JournalCorruptError: when the journal's header, framing, or
            record sequence is unreadable (a torn *tail* is tolerated).
        JournalError: when there is neither a usable snapshot nor a
            genesis record to rebuild from.
    """
    result = read_journal(journal_path)
    records = result.records

    stack = None
    source = "genesis"
    snapshot_error: str | None = None
    start_seq = 0
    if snapshot_path is not None and Path(snapshot_path).exists():
        try:
            loaded = load_snapshot(snapshot_path)
        except SnapshotError as exc:
            snapshot_error = str(exc)
        else:
            stack = loaded.stack
            _fold_snapshot_engines(stack)
            start_seq = loaded.journal_seq
            source = "snapshot"

    if stack is None:
        if not records or records[0].op != "genesis":
            raise JournalError(
                f"{journal_path} has no genesis record and no usable "
                f"snapshot; nothing to restore from"
            )
        from repro.stack import AlvcStack

        stack = AlvcStack.build(**genesis_build_args(records[0]))
        start_seq = 1

    tail = [record for record in records if record.seq >= start_seq]
    if tail and tail[0].seq != start_seq:
        raise JournalCorruptError(
            f"{journal_path}: snapshot was taken at seq {start_seq} but "
            f"the journal resumes at seq {tail[0].seq}"
        )
    replayed = replay(stack, tail)

    telemetry = stack.telemetry
    if telemetry.enabled:
        telemetry.counter(
            "alvc_restore_total", "stack restores completed"
        ).inc()
        telemetry.counter(
            "alvc_restore_replayed_records_total",
            "journal records replayed during restore",
        ).inc(replayed)

    next_seq = records[-1].seq + 1 if records else 0
    return RestoreResult(
        stack,
        source=source,
        replayed=replayed,
        journal_seq=next_seq,
        truncated=result.truncated,
        snapshot_error=snapshot_error,
    )
