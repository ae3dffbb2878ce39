"""Certify every fair-share recompute of a production simulator run.

The production engine has no second implementation to diff against, so
runs are checked by oracles that need none: inside
:func:`certified_recomputes`, every
:meth:`~repro.sim.vector.BatchedFairShareEngine.recompute` result is
certified max-min fair (:func:`~repro.sim.fairshare.certify_max_min`)
and compared bit for bit with the reference
:func:`~repro.sim.fairshare.max_min_fair_rates` on the engine's live
flows and capacities.
"""

from __future__ import annotations

import contextlib

import pytest

from repro.sim.fairshare import certify_max_min, max_min_fair_rates
from repro.sim.vector import BatchedFairShareEngine


def engine_state(engine) -> tuple[dict, dict]:
    """``(flow -> links, link -> capacity)`` of an engine's live state."""
    table = engine.table
    link_ids = engine.link_ids()
    flow_links = {}
    for flow, slot in table.slot_of.items():
        start = int(table.link_start[slot])
        end = start + int(table.link_len[slot])
        flow_links[flow] = [
            link_ids[index] for index in table.pool[start:end].tolist()
        ]
    return flow_links, engine.capacities()


@contextlib.contextmanager
def certified_recomputes():
    """Check every recompute inside the block; yields the list of
    checked allocation sizes (one entry per recompute)."""
    original = BatchedFairShareEngine.recompute
    checked: list[int] = []

    def recompute(self):
        rates = original(self)
        flow_links, capacities = engine_state(self)
        by_flow = {
            flow: float(rates[slot])
            for flow, slot in self.table.slot_of.items()
        }
        certify_max_min(by_flow, flow_links, capacities)
        assert by_flow == max_min_fair_rates(flow_links, capacities)
        checked.append(len(by_flow))
        return rates

    BatchedFairShareEngine.recompute = recompute
    try:
        yield checked
    finally:
        BatchedFairShareEngine.recompute = original


def assert_matches_legacy(report, legacy, context=None) -> None:
    """Production vs the frozen legacy loop: identical discrete
    outcomes, float-tolerant times and per-link busy byte-seconds
    (legacy accumulates progress eagerly at every event, so its float
    reductions run in another order)."""
    assert report.events == legacy.events, context
    assert report.flows == legacy.flows, context
    assert report.dropped == legacy.dropped, context
    assert report.reroutes == legacy.reroutes, context
    assert [record.flow_id for record in report.completed] == [
        record.flow_id for record in legacy.completed
    ], context
    for ours, theirs in zip(report.completed, legacy.completed):
        assert ours.hops == theirs.hops, context
        assert ours.completion_time == pytest.approx(
            theirs.completion_time, rel=1e-6, abs=1e-9
        ), context
    assert report.fct_statistics()["mean"] == pytest.approx(
        legacy.fct_statistics()["mean"], rel=1e-6
    ), context
    assert report.makespan == pytest.approx(legacy.makespan, rel=1e-6), context
    busy = dict(report.link_busy_byte_seconds)
    legacy_busy = dict(legacy.link_busy_byte_seconds)
    assert busy.keys() == legacy_busy.keys(), context
    for link, byte_seconds in legacy_busy.items():
        assert busy[link] == pytest.approx(
            byte_seconds, rel=1e-6, abs=1e-9
        ), (context, sorted(link))
