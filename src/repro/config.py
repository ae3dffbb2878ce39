"""Typed engine selection — one config object for every backend knob.

:class:`EngineConfig` bundles the implementation choices a stack runs
on behind one frozen, validated object accepted by
:meth:`repro.stack.AlvcStack.build`::

    stack = AlvcStack.build(
        engines=EngineConfig(solver="exact", admission="batched", workers=4)
    )

The stack threads the config through every collaborator; no
process-global state is touched.  The ``cover_kernel`` and ``routing``
selectors are gone — every value they took was bit-identical on
outputs — but journals and snapshots that carry them still restore
(:mod:`repro.service.restore`, :meth:`EngineConfig.__setstate__`).
The per-call spellings that predate the config were removed at the
v1.0 cut; see the removal table in ``docs/api_guide.md``.
"""

from __future__ import annotations

import dataclasses

from repro.exceptions import ValidationError

#: Recognized solver-engine selectors for AL construction and placement
#: (see :mod:`repro.opt`): greedy heuristics, the certified exact MILP,
#: or size-dependent auto fallback.
SOLVER_ENGINES = ("greedy", "exact", "auto")

#: Recognized event-simulator engines (see
#: :mod:`repro.sim.event_simulator`): the struct-of-arrays production
#: data plane and the frozen pre-optimization loop that the E19/E26
#: speedups are measured against.
SIM_ENGINES = ("vector", "legacy")

#: Recognized admission-pipeline selectors for the event simulator
#: (see :mod:`repro.sim.admission`).  Both name the one production
#: pipeline — routes pre-resolved in bulk and admitted by indexed
#: appends; ``"batched"`` spells it out and requires the vector engine.
ADMISSION_MODES = ("auto", "batched")


@dataclasses.dataclass(frozen=True, slots=True)
class EngineConfig:
    """Which backend implementations a stack runs on.

    Apart from ``solver``, every selector is purely an implementation
    choice: the engines are bit-identical on outputs, so they never
    change an experiment's result — only its speed.

    Attributes:
        solver: optimization engine for AL construction and chain
            placement — ``"greedy"`` (the paper's heuristics, default),
            ``"exact"`` (the certified :mod:`repro.opt` MILPs), or
            ``"auto"`` (exact on small instances, greedy beyond).
            Unlike the other selectors this one *can* change results —
            exact solutions may beat the greedy — so the default stays
            on the heuristic path.
        sim_engine: event-simulator engine — ``"vector"`` (default:
            the struct-of-arrays data plane with class-aggregated
            water filling) or ``"legacy"`` (the frozen pre-optimization
            loop, kept as the E19/E26 speedup baseline).
        admission: event-simulator admission pipeline — ``"auto"``
            (default) or ``"batched"``; both select the one production
            pipeline, ``"batched"`` additionally insists on the vector
            engine.  Load-aware simulators still pick each arrival's
            path at its event, because the pick reads instantaneous
            link loads.
        workers: default worker-process count for seeded sweeps
            (``1`` runs fully in-process).
    """

    solver: str = "greedy"
    sim_engine: str = "vector"
    admission: str = "auto"
    workers: int = 1

    def __post_init__(self) -> None:
        if self.solver not in SOLVER_ENGINES:
            raise ValidationError(
                f"unknown solver engine {self.solver!r} "
                f"(expected one of {', '.join(SOLVER_ENGINES)})"
            )
        if self.sim_engine not in SIM_ENGINES:
            raise ValidationError(
                f"unknown simulation engine {self.sim_engine!r} "
                f"(expected one of {', '.join(SIM_ENGINES)})"
            )
        if self.admission not in ADMISSION_MODES:
            raise ValidationError(
                f"unknown admission mode {self.admission!r} "
                f"(expected one of {', '.join(ADMISSION_MODES)})"
            )
        if self.admission == "batched" and self.sim_engine != "vector":
            raise ValidationError(
                "admission='batched' requires sim_engine='vector', "
                f"got sim_engine={self.sim_engine!r}"
            )
        if not isinstance(self.workers, int) or self.workers < 1:
            raise ValidationError(
                f"workers must be a positive integer, got {self.workers!r}"
            )

    @classmethod
    def coerce(cls, value: "EngineConfig | dict | None") -> "EngineConfig":
        """Normalize ``engines=`` input: None, a config, or a kwargs dict."""
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        if isinstance(value, dict):
            try:
                return cls(**value)
            except TypeError as exc:
                raise ValidationError(f"bad EngineConfig mapping: {exc}") from None
        raise ValidationError(
            f"engines must be an EngineConfig, a dict, or None, "
            f"got {type(value).__name__}"
        )

    def __setstate__(self, state: list) -> None:
        """Unpickle by field name, so old snapshots never shift a field.

        A frozen slots dataclass pickles its fields as a positional
        list.  Snapshots written before the ``cover_kernel`` and
        ``routing`` selectors were removed carry six entries led by
        those two, so they are dropped; any other length is refused,
        which makes restore fall back to genesis replay.  Values stay
        unvalidated, as with the stock unpickler — restore folds
        retired values afterwards.
        """
        names = [field.name for field in dataclasses.fields(self)]
        if len(state) == len(names) + 2:
            state = state[2:]
        if len(state) != len(names):
            raise TypeError(
                f"EngineConfig state has {len(state)} entries, expected "
                f"{len(names)} (or {len(names) + 2} before the selector "
                f"removal)"
            )
        for name, value in zip(names, state):
            object.__setattr__(self, name, value)

    def to_dict(self) -> dict:
        """JSON-serializable form (journal genesis records store this)."""
        return dataclasses.asdict(self)
