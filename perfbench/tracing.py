"""Span tracing from outside the program, for the traced benchmark run.

The benchmark never edits ``src/``.  Instead, :class:`Tracer` swaps
each layer's public entry points for timing wrappers while a traced
repetition runs, and puts the originals back afterwards.  Every call
becomes one span ``(layer, start, end, parent)`` kept in memory; a
layer's *self time* is its spans' duration minus the part covered by
their child spans.  Private helpers are not wrapped, so their time
stays inside the public caller that ran them.

Each function is patched where the caller looks it up: a module that
did ``from repro.sdn.routing import routes_from`` holds its own
binding, so the wrapper goes on that module's name as well.
"""

from __future__ import annotations

import bisect
import contextlib
import importlib
import sys
import time
from typing import Callable, Iterator

#: ``(layer, module, attribute path)`` for every wrapped entry point.
#: A dotted attribute path names a method on the class that defines it.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("sim.run", "repro.sim.event_simulator", "EventDrivenFlowSimulator.run"),
    ("sim.vector.recompute", "repro.sim.vector", "BatchedFairShareEngine.recompute"),
    ("sim.vector.admit", "repro.sim.vector", "BatchedFairShareEngine.add_interned"),
    ("sim.vector.admit", "repro.sim.vector", "BatchedFairShareEngine.add_flow"),
    ("sim.vector.admit", "repro.sim.vector", "FlowTable.add_many"),
    ("sim.vector.admit", "repro.sim.vector", "FlowTable.add"),
    ("sim.vector.remove", "repro.sim.vector", "VectorFairShareEngine.remove_flow"),
    ("sim.vector.remove", "repro.sim.vector", "FlowTable.remove"),
    ("sim.vector.gather", "repro.sim.vector", "FlowTable.gather_links"),
    ("sim.vector.fault", "repro.sim.vector", "VectorFairShareEngine.set_capacity"),
    ("sim.vector.fault", "repro.sim.vector", "VectorFairShareEngine.remove_link"),
    ("sim.admission.resolve", "repro.sim.event_simulator", "plan_admission"),
    ("sim.admission.resolve", "repro.sim.admission", "AdmissionPlan.resolve_source"),
    ("sim.admission.resolve", "repro.sim.admission", "AdmissionPlan.lookup"),
    ("sim.admission.invalidate", "repro.sim.admission", "AdmissionPlan.invalidate_crossing"),
    ("sdn.routes", "repro.sdn.routing", "routes_from"),
    ("sdn.routes", "repro.sim.admission", "routes_from"),
    ("sdn.routes", "repro.sim.event_simulator", "shortest_surviving_path"),
    ("sdn.routes", "repro.core.orchestrator", "chain_path"),
    ("core.provision", "repro.stack", "AlvcStack.provision"),
    ("core.provision", "repro.stack", "AlvcStack.provision_batch"),
    ("core.provision", "repro.core.orchestrator", "NetworkOrchestrator.provision_chain"),
    ("core.provision", "repro.core.orchestrator", "NetworkOrchestrator.provision_chains"),
    ("core.teardown", "repro.stack", "AlvcStack.teardown"),
    ("core.teardown", "repro.core.orchestrator", "NetworkOrchestrator.teardown_chain"),
    ("core.al_construct", "repro.core.abstraction_layer", "AlConstructor.construct_for_servers"),
    ("core.placement", "repro.core.placement", "PlacementSolver.solve"),
    ("core.placement", "repro.core.placement", "PlacementSolver.improve"),
    ("core.ops_failure", "repro.core.orchestrator", "NetworkOrchestrator.handle_ops_failure"),
    ("core.vm_migration", "repro.core.orchestrator", "NetworkOrchestrator.handle_vm_migration"),
    ("service.journal.append", "repro.service.journal", "Journal.append"),
    ("service.restore", "repro.service.restore", "restore_stack"),
    ("workload.run", "repro.stack", "AlvcStack.run_workload"),
    ("workload.scale", "repro.workload.scaling", "ElasticScaler.observe_epoch"),
    ("workload.defrag", "repro.workload.admission", "AdmissionController.defrag"),
)

#: Layer timed at the exit of the outermost ``Journal.batch`` (the
#: group commit's flush and fsync).
COMMIT_LAYER = "service.journal.commit"
#: Layer derived from request intervals rather than wrapped calls.
WAIT_LAYER = "service.frontend.wait"

#: Every layer reported, in output order.
LAYERS: tuple[str, ...] = tuple(
    dict.fromkeys(
        [layer for layer, _, _ in TARGETS] + [COMMIT_LAYER, WAIT_LAYER]
    )
)


def _resolve(module_name: str, path: str):
    """The object owning the attribute and the attribute's name."""
    owner = importlib.import_module(module_name)
    *classes, name = path.split(".")
    for class_name in classes:
        owner = getattr(owner, class_name)
    if name not in vars(owner):
        # Patching an inherited name would shadow it instead of
        # replacing it; fail loudly so a moved method is noticed.
        raise LookupError(f"{module_name}.{path} is not defined there")
    return owner, name


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        #: ``[layer, start, end, parent index or -1]`` per span.
        self.spans: list[list] = []
        self._open: list[int] = []
        self._commit_depth: dict[int, int] = {}

    # ------------------------------------------------------------------
    def call(self, layer: str, function: Callable, *args, **kwargs):
        """Run ``function`` inside a span named ``layer``.

        A call into the layer that is already innermost (a public method
        calling another public method of the same layer) is folded into
        the running span, so ``calls`` counts entries into the layer.
        """
        opened = self._open
        if opened and self.spans[opened[-1]][0] == layer:
            return function(*args, **kwargs)
        span = [layer, time.perf_counter(), 0.0, opened[-1] if opened else -1]
        self.spans.append(span)
        opened.append(len(self.spans) - 1)
        try:
            return function(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            opened.pop()

    def _wrap(self, layer: str, original: Callable) -> Callable:
        def traced(*args, **kwargs):
            return self.call(layer, original, *args, **kwargs)

        return traced

    def _wrap_batch(self, original: Callable) -> Callable:
        depth = self._commit_depth

        @contextlib.contextmanager
        def batch(journal):
            key = id(journal)
            scope = original(journal)
            scope.__enter__()
            outermost = not depth.get(key)
            depth[key] = depth.get(key, 0) + 1
            try:
                yield
            except BaseException:
                if not scope.__exit__(*sys.exc_info()):
                    raise
            else:
                if outermost:
                    self.call(COMMIT_LAYER, scope.__exit__, None, None, None)
                else:
                    scope.__exit__(None, None, None)
            finally:
                depth[key] -= 1

        return batch

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Patch every target for the duration of the block."""
        saved = []
        try:
            for layer, module_name, path in TARGETS:
                owner, name = _resolve(module_name, path)
                original = vars(owner)[name]
                saved.append((owner, name, original))
                setattr(owner, name, self._wrap(layer, original))
            owner, name = _resolve("repro.service.journal", "Journal.batch")
            original = vars(owner)[name]
            saved.append((owner, name, original))
            setattr(owner, name, self._wrap_batch(original))
            yield self
        finally:
            for owner, name, original in reversed(saved):
                setattr(owner, name, original)

    # ------------------------------------------------------------------
    def layer_totals(self) -> dict[str, tuple[float, int]]:
        """``layer -> (self seconds, calls)`` over the recorded spans."""
        child = [0.0] * len(self.spans)
        for layer, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {layer: (0.0, 0) for layer in LAYERS}
        for index, (layer, start, end, _) in enumerate(self.spans):
            seconds, calls = totals[layer]
            totals[layer] = (seconds + (end - start) - child[index], calls + 1)
        return totals

    def top_level_seconds(self) -> float:
        """Wall time covered by spans that have no parent."""
        return sum(
            end - start for _, start, end, parent in self.spans if parent < 0
        )

    def uncovered(self, intervals: list[tuple[float, float]]) -> float:
        """Summed length of ``intervals`` not covered by top-level spans.

        Top-level spans never overlap (the program runs in one thread),
        so a prefix sum over them answers each interval in log time.
        """
        tops = sorted(
            (start, end) for _, start, end, parent in self.spans if parent < 0
        )
        starts = [start for start, _ in tops]
        prefix = [0.0]
        for start, end in tops:
            prefix.append(prefix[-1] + (end - start))

        def covered_before(moment: float) -> float:
            index = bisect.bisect_right(starts, moment)
            total = prefix[index]
            if index:
                start, end = tops[index - 1]
                if end > moment:
                    total -= end - moment
            return total

        return sum(
            (end - start) - (covered_before(end) - covered_before(start))
            for start, end in intervals
        )
