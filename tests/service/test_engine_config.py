"""EngineConfig: validation, coercion, and threading through the stack.

One typed config holds the four backend selectors (``solver``,
``sim_engine``, ``admission``, ``workers``).  The old per-call
spellings were removed at the v1.0 cut and the ``cover_kernel`` /
``routing`` selectors after it; journals and snapshots written before
either removal still restore to the same state.
"""

import warnings

import pytest

from repro.config import (
    ADMISSION_MODES,
    SIM_ENGINES,
    EngineConfig,
)
from repro.exceptions import ValidationError
from repro.stack import AlvcStack

BUILD = dict(n_racks=3, servers_per_rack=3, n_ops=4, seed=0)


class TestValidation:
    def test_defaults(self):
        config = EngineConfig()
        assert config.solver == "greedy"
        assert config.sim_engine == "vector"
        assert config.admission == "auto"
        assert config.workers == 1

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"cover_kernel": "auto"}, "cover_kernel"),
            ({"routing": "csr"}, "routing"),
            ({"sim_engine": "warp"}, "unknown simulation engine"),
            ({"admission": "psychic"}, "unknown admission mode"),
            (
                {"sim_engine": "legacy", "admission": "batched"},
                "requires sim_engine='vector'",
            ),
            ({"workers": 0}, "workers"),
            ({"workers": 2.5}, "workers"),
            ({"sim_engine": "incremental"}, "expected one of vector"),
            ({"sim_engine": "from_scratch"}, "expected one of vector"),
            ({"admission": "per_event"}, "unknown admission mode"),
        ],
    )
    def test_bad_values_rejected(self, kwargs, match):
        # Through coerce, the path every engines= mapping and --build
        # key takes: removed selectors fail like bad values.
        with pytest.raises(ValidationError, match=match):
            EngineConfig.coerce(kwargs)

    def test_admission_modes(self):
        assert ADMISSION_MODES == ("auto", "batched")
        assert EngineConfig().admission == "auto"
        config = EngineConfig(sim_engine="vector", admission="batched")
        assert config.admission == "batched"
        assert EngineConfig(sim_engine="legacy").admission == "auto"

    def test_known_sim_engines_all_construct(self):
        assert SIM_ENGINES == ("vector", "legacy")
        for engine in SIM_ENGINES:
            assert EngineConfig(sim_engine=engine).sim_engine == engine

    def test_frozen(self):
        with pytest.raises(Exception):
            EngineConfig().workers = 4

    def test_exactly_four_fields(self):
        import dataclasses

        assert [field.name for field in dataclasses.fields(EngineConfig)] == [
            "solver",
            "sim_engine",
            "admission",
            "workers",
        ]


class TestCoerce:
    def test_none_gives_defaults(self):
        assert EngineConfig.coerce(None) == EngineConfig()

    def test_config_passes_through(self):
        config = EngineConfig(solver="exact")
        assert EngineConfig.coerce(config) is config

    def test_dict_coerces(self):
        config = EngineConfig.coerce({"solver": "exact", "workers": 2})
        assert config.solver == "exact"
        assert config.workers == 2

    def test_unknown_dict_key_rejected(self):
        with pytest.raises(ValidationError, match="EngineConfig"):
            EngineConfig.coerce({"kernel": "bitset"})

    def test_other_types_rejected(self):
        with pytest.raises(ValidationError, match="engines must be"):
            EngineConfig.coerce("bitset")

    def test_to_dict_round_trips(self):
        config = EngineConfig(solver="auto", admission="batched", workers=3)
        assert EngineConfig.coerce(config.to_dict()) == config


class TestStackThreading:
    def test_engines_thread_through_build(self):
        config = EngineConfig(solver="auto", admission="batched")
        stack = AlvcStack.build(engines=config, **BUILD)
        assert stack.engines == config
        assert stack.orchestrator.engines == config
        assert stack.orchestrator.cluster_manager.engine == "auto"

    def test_engines_accepts_mapping(self):
        stack = AlvcStack.build(engines={"solver": "auto"}, **BUILD)
        assert stack.engines.solver == "auto"

    def test_engine_choice_is_bit_identical(self):
        digests = []
        from repro.service.snapshot import state_digest

        for config in (
            EngineConfig(),
            EngineConfig(admission="batched", workers=2),
        ):
            stack = AlvcStack.build(engines=config, **BUILD)
            stack.provision(("firewall", "nat"), service="web")
            view = state_digest(stack)
            digests.append(view)
        # Engines select implementations, never outcomes.
        assert digests[0] == digests[1]


class TestDeprecatedSpellings:
    """The pre-v1.0 per-call spellings are gone; the engines-driven
    behaviour they deferred to remains."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda: AlvcStack.build(routing_engine="csr", **BUILD),
            lambda: AlvcStack.build(engine="vector", **BUILD),
            lambda: AlvcStack.build(**BUILD).run_sweep(
                _square, [1], workers=1
            ),
            lambda: AlvcStack.build(**BUILD).run_sweep(
                _square, [1], kernel="set"
            ),
            lambda: AlvcStack.build(**BUILD).run_workload(engine="vector"),
            lambda: AlvcStack.build(**BUILD).orchestrator.delete_chain(
                "chain-0"
            ),
            lambda: _orchestrator(routing_engine="csr"),
        ],
        ids=[
            "build-routing_engine",
            "build-engine",
            "run_sweep-workers",
            "run_sweep-kernel",
            "run_workload-engine",
            "delete_chain",
            "orchestrator-routing_engine",
        ],
    )
    def test_removed_spellings_fail_loudly(self, call):
        with pytest.raises((TypeError, AttributeError)):
            call()

    def test_run_sweep_defaults_from_engines(self):
        stack = AlvcStack.build(
            engines=EngineConfig(workers=1), **BUILD
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            assert stack.run_sweep(_square, [4]) == [16]

    def test_build_admission_kwarg_folds_into_engines(self):
        stack = AlvcStack.build(admission="batched", **BUILD)
        assert stack.engines.admission == "batched"
        assert stack.engines.sim_engine == "vector"
        with pytest.raises(ValidationError, match="requires sim_engine"):
            AlvcStack.build(
                admission="batched",
                engines={"sim_engine": "legacy"},
                **BUILD,
            )


#: Engine selector values that only journals and snapshots written
#: before the v1.0 cut carry.
RETIRED = [
    {"sim_engine": "incremental"},
    {"sim_engine": "from_scratch"},
    {"sim_engine": "incremental", "admission": "per_event"},
    {"sim_engine": "vector", "admission": "per_event"},
    {"sim_engine": "legacy", "admission": "per_event"},
]


#: Every value the removed ``cover_kernel`` and ``routing`` selectors
#: took; only genesis records written before their removal carry them.
REMOVED_SELECTORS = [
    ("cover_kernel", "auto"),
    ("cover_kernel", "set"),
    ("cover_kernel", "bitset"),
    ("routing", "auto"),
    ("routing", "csr"),
    ("routing", "nx"),
]


def _journal_with_genesis_engines(tmp_path, overrides: dict):
    """A live journaled run, and a copy of its journal whose genesis
    ``engines`` mapping carries ``overrides`` (as an older writer's
    would).  Returns ``(live_stack, old_journal_path)``."""
    from repro.service import read_journal
    from repro.service.journal import Journal

    live = AlvcStack.build(journal=tmp_path / "live.alvc", sync="off", **BUILD)
    live.provision(("firewall", "nat"), service="web")
    live.provision(("nat",), service="sns")
    live.journal.close()
    records = read_journal(tmp_path / "live.alvc").records
    genesis = records[0].data["build"]
    engines = {**genesis["engines"], **overrides}
    with Journal(tmp_path / "old.alvc", sync="off") as old:
        old.append("genesis", {"build": {**genesis, "engines": engines}})
        for record in records[1:]:
            old.append(record.op, record.data, nested=record.nested)
    return live, tmp_path / "old.alvc"


class TestJournalIntegration:
    def test_genesis_embeds_engines(self, tmp_path):
        from repro.service import ControlPlaneService

        config = EngineConfig(admission="batched", workers=2)
        with ControlPlaneService.open(
            tmp_path / "state",
            sync="off",
            engines=config,
            telemetry="json",
            **BUILD,
        ) as service:
            assert service.stack.engines == config
        with ControlPlaneService.open(tmp_path / "state", sync="off") as r:
            # Restore rebuilds the stack on the same engines.
            assert r.stack.engines == config

    @pytest.mark.parametrize(
        "retired", RETIRED, ids=lambda retired: "-".join(retired.values())
    )
    def test_retired_engine_names_restore(self, tmp_path, retired):
        """Journals written before the v1.0 cut name engines that no
        longer exist; they restore to the same control plane."""
        from repro.service import restore_stack
        from repro.service.snapshot import state_digest

        live, old_journal = _journal_with_genesis_engines(tmp_path, retired)
        restored = restore_stack(old_journal).stack
        assert restored.engines.sim_engine in ("vector", "legacy")
        assert restored.engines.admission == "auto"
        assert state_digest(restored) == state_digest(live)
        fresh = AlvcStack.build(**BUILD)
        fresh.provision(("firewall", "nat"), service="web")
        fresh.provision(("nat",), service="sns")
        assert state_digest(restored) == state_digest(fresh)

    @pytest.mark.parametrize(
        "key, value",
        REMOVED_SELECTORS,
        ids=lambda item: item if isinstance(item, str) else None,
    )
    def test_removed_selector_genesis_restores(self, tmp_path, key, value):
        """A genesis written before ``cover_kernel``/``routing`` were
        removed carries one of their values; restore drops it and
        lands on the live state."""
        from repro.service import restore_stack
        from repro.service.snapshot import state_digest

        live, old_journal = _journal_with_genesis_engines(
            tmp_path, {key: value}
        )
        restored = restore_stack(old_journal).stack
        assert restored.engines == live.engines
        assert state_digest(restored) == state_digest(live)

    @pytest.mark.parametrize("layout", ["six-entry", "unknown-length"])
    def test_pre_removal_snapshot_never_shifts_fields(
        self, tmp_path, monkeypatch, layout
    ):
        """A frozen slots dataclass pickles its fields as a positional
        list, so a snapshot written with the six-field config must be
        mapped by the old field order — or refused, so restore falls
        back to genesis replay — and never shift a value."""
        from repro.service import restore_stack
        from repro.service.snapshot import state_digest, write_snapshot

        config = EngineConfig(admission="batched", workers=2)
        live = AlvcStack.build(
            engines=config,
            journal=tmp_path / "journal.alvc",
            sync="off",
            **BUILD,
        )
        live.provision(("firewall", "nat"), service="web")
        old_states = {
            # cover_kernel, routing, solver, sim_engine, admission, workers
            "six-entry": lambda c: [
                "bitset", "nx", c.solver, c.sim_engine, c.admission, c.workers
            ],
            "unknown-length": lambda c: [c.solver, c.sim_engine, c.admission],
        }
        with monkeypatch.context() as patch:
            patch.setattr(EngineConfig, "__getstate__", old_states[layout])
            write_snapshot(
                live,
                tmp_path / "snapshot.alvc",
                journal_seq=live.journal.next_seq,
            )
        live.provision(("nat",), service="sns")
        live.journal.close()

        result = restore_stack(
            tmp_path / "journal.alvc", tmp_path / "snapshot.alvc"
        )
        if layout == "six-entry":
            assert result.source == "snapshot"
        else:
            assert result.source == "genesis"
            assert "EngineConfig state has 3 entries" in result.snapshot_error
        assert result.stack.engines == config
        assert result.stack.orchestrator.engines == config
        assert state_digest(result.stack) == state_digest(live)

    @pytest.mark.parametrize(
        "retired", RETIRED, ids=lambda retired: "-".join(retired.values())
    )
    def test_retired_engine_names_in_snapshot_fold(self, tmp_path, retired):
        """A snapshot pickles the stack's config unvalidated, so one
        written before the v1.0 cut restores with its retired values
        folded, on the stack and its orchestrator alike."""
        import dataclasses

        from repro.service import restore_stack
        from repro.service.snapshot import state_digest, write_snapshot

        live = AlvcStack.build(
            journal=tmp_path / "journal.alvc", sync="off", **BUILD
        )
        live.provision(("firewall", "nat"), service="web")
        config = live.engines
        for key, value in retired.items():
            object.__setattr__(config, key, value)
        write_snapshot(
            live, tmp_path / "snapshot.alvc", journal_seq=live.journal.next_seq
        )
        live.provision(("nat",), service="sns")
        live.journal.close()

        result = restore_stack(
            tmp_path / "journal.alvc", tmp_path / "snapshot.alvc"
        )
        assert result.source == "snapshot"
        restored = result.stack
        assert restored.engines.sim_engine in ("vector", "legacy")
        assert restored.engines.admission == "auto"
        assert restored.orchestrator.engines is restored.engines
        assert dataclasses.replace(restored.engines, workers=2).workers == 2
        assert state_digest(restored) == state_digest(live)


def _square(x):
    return x * x


def _orchestrator(**kwargs):
    from repro.core.orchestrator import NetworkOrchestrator

    return NetworkOrchestrator(AlvcStack.build(**BUILD).inventory, **kwargs)
