"""EngineConfig: validation, coercion, and threading through the stack.

The satellite that unifies the organically-grown ``kernel=`` /
``engine=`` / ``routing_engine=`` / ``workers=`` knobs behind one typed
config.  The old per-call spellings were removed at the v1.0 cut;
journals written before it still restore.
"""

import warnings

import pytest

from repro.config import (
    ADMISSION_MODES,
    COVER_KERNELS,
    SIM_ENGINES,
    EngineConfig,
)
from repro.exceptions import ValidationError
from repro.stack import AlvcStack

BUILD = dict(n_racks=3, servers_per_rack=3, n_ops=4, seed=0)


class TestValidation:
    def test_defaults(self):
        config = EngineConfig()
        assert config.cover_kernel == "auto"
        assert config.routing == "auto"
        assert config.sim_engine == "vector"
        assert config.workers == 1

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"cover_kernel": "simd"}, "unknown cover kernel"),
            ({"routing": "dijkstra9000"}, "unknown routing engine"),
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
        with pytest.raises(ValidationError, match=match):
            EngineConfig(**kwargs)

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

    def test_known_kernels_all_construct(self):
        for kernel in COVER_KERNELS:
            assert EngineConfig(cover_kernel=kernel).cover_kernel == kernel


class TestCoerce:
    def test_none_gives_defaults(self):
        assert EngineConfig.coerce(None) == EngineConfig()

    def test_config_passes_through(self):
        config = EngineConfig(routing="csr")
        assert EngineConfig.coerce(config) is config

    def test_dict_coerces(self):
        config = EngineConfig.coerce(
            {"cover_kernel": "bitset", "workers": 2}
        )
        assert config.cover_kernel == "bitset"
        assert config.workers == 2

    def test_unknown_dict_key_rejected(self):
        with pytest.raises(ValidationError, match="EngineConfig"):
            EngineConfig.coerce({"kernel": "bitset"})

    def test_other_types_rejected(self):
        with pytest.raises(ValidationError, match="engines must be"):
            EngineConfig.coerce("bitset")

    def test_to_dict_round_trips(self):
        config = EngineConfig(
            cover_kernel="set", routing="nx", workers=3
        )
        assert EngineConfig.coerce(config.to_dict()) == config


class TestStackThreading:
    def test_engines_thread_through_build(self):
        config = EngineConfig(cover_kernel="bitset", routing="csr")
        stack = AlvcStack.build(engines=config, **BUILD)
        assert stack.engines == config
        assert stack.orchestrator.engines == config
        assert (
            stack.orchestrator.cluster_manager._kernel == "bitset"
        )
        assert stack.orchestrator._routing_engine == "csr"

    def test_engines_accepts_mapping(self):
        stack = AlvcStack.build(
            engines={"cover_kernel": "set"}, **BUILD
        )
        assert stack.engines.cover_kernel == "set"

    def test_engine_choice_is_bit_identical(self):
        digests = []
        from repro.service.snapshot import state_digest

        for config in (
            EngineConfig(cover_kernel="set", routing="nx"),
            EngineConfig(cover_kernel="bitset", routing="csr"),
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
        ],
        ids=[
            "build-routing_engine",
            "build-engine",
            "run_sweep-workers",
            "run_sweep-kernel",
            "run_workload-engine",
            "delete_chain",
        ],
    )
    def test_removed_spellings_fail_loudly(self, call):
        with pytest.raises((TypeError, AttributeError)):
            call()

    def test_conflicting_selectors_rejected(self):
        # The orchestrator keeps its own routing_engine= constructor
        # knob; it must agree with the EngineConfig it is handed.
        from repro.core.orchestrator import NetworkOrchestrator

        stack = AlvcStack.build(**BUILD)
        with pytest.raises(ValidationError, match="conflicting"):
            NetworkOrchestrator(
                stack.inventory,
                routing_engine="csr",
                engines=EngineConfig(routing="nx"),
            )

    def test_run_sweep_defaults_from_engines(self):
        stack = AlvcStack.build(
            engines=EngineConfig(workers=1, cover_kernel="set"), **BUILD
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


class TestJournalIntegration:
    def test_genesis_embeds_engines(self, tmp_path):
        from repro.service import ControlPlaneService

        config = EngineConfig(cover_kernel="bitset", workers=2)
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
        from repro.service import read_journal, restore_stack
        from repro.service.journal import Journal
        from repro.service.snapshot import state_digest

        live = AlvcStack.build(
            journal=tmp_path / "live.alvc", sync="off", **BUILD
        )
        live.provision(("firewall", "nat"), service="web")
        live.provision(("nat",), service="sns")
        live.journal.close()
        records = read_journal(tmp_path / "live.alvc").records
        genesis = records[0].data["build"]
        engines = {**genesis["engines"], **retired}
        with Journal(tmp_path / "old.alvc", sync="off") as old:
            old.append("genesis", {"build": {**genesis, "engines": engines}})
            for record in records[1:]:
                old.append(record.op, record.data, nested=record.nested)

        restored = restore_stack(tmp_path / "old.alvc").stack
        assert restored.engines.sim_engine in ("vector", "legacy")
        assert restored.engines.admission == "auto"
        assert state_digest(restored) == state_digest(live)
        fresh = AlvcStack.build(**BUILD)
        fresh.provision(("firewall", "nat"), service="web")
        fresh.provision(("nat",), service="sns")
        assert state_digest(restored) == state_digest(fresh)

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
