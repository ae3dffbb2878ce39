"""Output checks run on every timed repetition.

Each check raises :class:`CheckFailed` naming the first violation; the
benchmark then exits non-zero without printing a result.  The checks
use only the program's outputs and the benchmark's own inputs, never a
second implementation.
"""

from __future__ import annotations

from typing import Mapping, Sequence

#: Relative slack on the busy-time bound: per-link busy time is summed
#: in floating point, one increment per rate change.
BUSY_TOLERANCE = 1e-9


class CheckFailed(AssertionError):
    """A repetition's output is wrong."""


def check_flows(
    offered: Sequence, report, capacities: Mapping
) -> None:
    """Flow accounting, causality and link capacity of one report.

    * every offered flow is completed, dropped or still in flight, and
      no flow is reported twice or without having been offered;
    * no flow completes before it arrived, and each completion keeps the
      arrival time it was offered with;
    * no link was busy for more byte-seconds than its capacity times
      the makespan.
    """
    arrivals = {flow.flow_id: flow.arrival_time for flow in offered}
    seen: set = set()
    for record in report.completed:
        if record.flow_id not in arrivals:
            raise CheckFailed(f"completed flow {record.flow_id} was never offered")
        if record.flow_id in seen:
            raise CheckFailed(f"flow {record.flow_id} completed twice")
        seen.add(record.flow_id)
        if record.arrival_time != arrivals[record.flow_id]:
            raise CheckFailed(
                f"flow {record.flow_id} reports arrival {record.arrival_time}, "
                f"offered at {arrivals[record.flow_id]}"
            )
        if record.completion_time < record.arrival_time:
            raise CheckFailed(
                f"flow {record.flow_id} completes at {record.completion_time} "
                f"before its arrival at {record.arrival_time}"
            )
    for flow_id in report.dropped:
        if flow_id not in arrivals or flow_id in seen:
            raise CheckFailed(f"dropped flow {flow_id} is unknown or completed")
        seen.add(flow_id)
    accounted = len(seen) + report.in_flight
    if accounted != len(offered):
        raise CheckFailed(
            f"{len(offered)} flows offered but {len(report.completed)} "
            f"completed + {len(report.dropped)} dropped + "
            f"{report.in_flight} in flight = {accounted}"
        )
    for link, busy in report.link_busy_byte_seconds.items():
        bound = capacities[link] * report.makespan
        if busy > bound * (1.0 + BUSY_TOLERANCE):
            raise CheckFailed(
                f"link {sorted(link)} busy {busy} byte-s exceeds capacity "
                f"x makespan {bound}"
            )


def check_answered(requests: int, responses: Sequence) -> None:
    """Every submitted request got exactly one response."""
    if len(responses) != requests:
        raise CheckFailed(f"{requests} requests sent, {len(responses)} answered")
    ids = {response.request_id for response in responses}
    if len(ids) != requests:
        raise CheckFailed("a request was answered more than once")


def check_digest(live: str, restored: str, what: str) -> None:
    """A restore from the journal rebuilt the state it was written from."""
    if live != restored:
        raise CheckFailed(
            f"{what}: restored digest {restored[:12]} != live {live[:12]}"
        )
