"""Host-speed reference: a fixed computation timed beside every measurement.

The benchmark runs on a few cores of a shared host whose speed drifts
with what other tenants run: a fixed pure-Python loop took anywhere from
0.22 s to 0.32 s on one 2-vCPU Xeon guest within a minute, with nothing
else running in the guest and no steal time, so CPU time drifts with it
and no hardware counter is exposed.  Over ten runs of one workload,
its wall times spread by up to half their median.

So every gated time is taken in *reference seconds*.  This module's
reference computation is sampled just before and just after every timed
call, and a run's host times are multiplied by :data:`REFERENCE_S` over
the median of all the run's samples: they read as the times the calls
would take on a host where the reference computation takes
:data:`REFERENCE_S`.  The reference touches none of the program's code,
so a change to the program moves reference times as it moves host
times; a change of host speed between runs moves both the calls and the
reference, and cancels.  One sample is too short to stand for the speed
during the second-long call next to it (the host's speed also jitters
within a second), so the scale is taken over the whole run, in which
the calls' median is taken too.

A workload whose calls also wait on the disk samples a second
reference, fsynced appends to a file of the benchmark's own, and blends
the two slowdowns by the share of its time that moves with each
(:func:`scale`).
"""

from __future__ import annotations

import dataclasses
import gc
import heapq
import os
import random
import statistics
import time
from pathlib import Path
from typing import Callable, TypeVar

import numpy

#: Nominal time of one :func:`reference_seconds` sample: about what the
#: reference computation took on the 2-vCPU Xeon guest the benchmark was
#: written on.  Any fixed value would do; this one keeps reference times
#: close to that host's times.
REFERENCE_S = 0.010

#: Nominal time of one :func:`io_reference_seconds` sample, likewise.
IO_REFERENCE_S = 0.0015

#: Fsynced appends in one I/O sample, and the bytes of each append:
#: about one front-end batch of journal records.
IO_APPENDS = 8
_RECORD = b"x" * 1200

T = TypeVar("T")

#: Fixed input of the array part: 20,000 floats, a flow table's worth.
_VALUES = numpy.arange(20_000, dtype=float)


def _reference_work() -> int:
    """Work of the kinds the program does, none of its code: count tuple
    keys in a dictionary, drain half of a heap, sort strings, and run
    element-wise array arithmetic over a table-sized array."""
    rng = random.Random(12345)
    counts: dict[tuple[int, int], int] = {}
    for index in range(5000):
        key = (rng.randrange(1250), index & 7)
        counts[key] = counts.get(key, 0) + 1
    heap = list(counts.items())
    heapq.heapify(heap)
    drained = [heapq.heappop(heap) for _ in range(len(heap) // 2)]
    labels = sorted(str(item) for item in drained)
    values = _VALUES
    for _ in range(50):
        values = numpy.sqrt(values + 1.0)
    return len(labels) + int(values[0])


def reference_seconds() -> float:
    """Host seconds of one reference computation, with the collector
    drained and off so a collection of the program's garbage is not
    charged to it."""
    gc.collect()
    gc.disable()
    try:
        started = time.perf_counter()
        _reference_work()
        return time.perf_counter() - started
    finally:
        gc.enable()


def io_reference_seconds(path: Path) -> float:
    """Host seconds of :data:`IO_APPENDS` appends to ``path``, each
    flushed and fsynced: the journal's write pattern, in a file of the
    benchmark's own."""
    with open(path, "ab") as handle:
        started = time.perf_counter()
        for _ in range(IO_APPENDS):
            handle.write(_RECORD)
            handle.flush()
            os.fsync(handle.fileno())
        return time.perf_counter() - started


@dataclasses.dataclass
class Samples:
    """Reference samples of one repetition or run, in host seconds."""

    cpu: list[float] = dataclasses.field(default_factory=list)
    io: list[float] = dataclasses.field(default_factory=list)

    def take(self, io_path: Path | None) -> None:
        self.cpu.append(reference_seconds())
        if io_path is not None:
            self.io.append(io_reference_seconds(io_path))

    def extend(self, other: "Samples") -> None:
        self.cpu += other.cpu
        self.io += other.io


def timed(
    call: Callable[[], T], samples: Samples, io_path: Path | None = None
) -> tuple[T, float]:
    """Run ``call()`` between two reference samples, added to
    ``samples`` (with I/O samples appended to ``io_path`` when given);
    returns ``(result, host seconds)``."""
    samples.take(io_path)
    started = time.perf_counter()
    result = call()
    seconds = time.perf_counter() - started
    samples.take(io_path)
    return result, seconds


def scale(samples: Samples, io_weight: float = 0.0) -> float:
    """Factor from host to reference time, over a run's ``samples``.

    ``io_weight`` is the share of the timed code's host time that moves
    with the disk rather than with the processors; that share is scaled
    by the I/O samples and the rest by the computation's.
    """
    slowdown = statistics.median(samples.cpu) / REFERENCE_S
    if io_weight:
        io_slowdown = statistics.median(samples.io) / IO_REFERENCE_S
        slowdown = (1.0 - io_weight) * slowdown + io_weight * io_slowdown
    return 1.0 / slowdown
