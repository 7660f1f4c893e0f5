"""Config round-trips for the spec layer, and the redesign differential.

Property-style coverage of the redesigned spec API: every registered
predictor kind — at a sampled explicit geometry, at schema defaults and
at Table-3 budget shorthands — must survive
``SystemSpec.from_config(spec.to_config())`` (through real JSON text)
with equality *and* a stable content hash, in both prophet and critic
roles. Malformed configs are rejected with messages naming the valid
vocabulary. Finally, a differential grid proves the shorthand specs
build systems bit-identical to pre-redesign direct construction.
"""

import dataclasses
import json
from typing import ClassVar

import pytest

from repro.predictors import (
    BUDGETS_KB,
    GsharePredictor,
    TaggedGsharePredictor,
    TwoBcGskewPredictor,
    budgeted_kinds,
    critic_capable_kinds,
    registered_kinds,
)
from repro.core.hybrid import ProphetCriticSystem, SinglePredictorSystem
from repro.sim import (
    PredictorSpec,
    ProgramSpec,
    SimulationConfig,
    SweepCell,
    SystemSpec,
    run_sweep,
    simulate,
)
from repro.sim import driver
from repro.sim.cache import stats_to_dict
from repro.sim.sweepconfig import cells_from_job
from repro.workloads.generator import WorkloadProfile

#: One non-default geometry per registered kind (the "geometry sample"
#: of the round-trip property tests).
GEOMETRY_SAMPLES = {
    "2bc-gskew": {"entries_per_table": 1024, "history_length": 9},
    "always-not-taken": {},
    "always-taken": {},
    "bimodal": {"entries": 1024},
    "filtered-perceptron": {"n_perceptrons": 73, "history_length": 13,
                            "filter_sets": 128},
    "gas": {"history_length": 6, "set_bits": 4},
    "gshare": {"entries": 4096, "history_length": 10},
    "local": {"history_entries": 256, "local_history_length": 8},
    "perceptron": {"n_perceptrons": 64, "history_length": 12},
    "tage": {"n_components": 4, "base_entries": 1024, "component_entries": 256},
    "tagged-gshare": {"sets": 256, "ways": 4, "history_length": 12},
    "tournament": {
        "component_a": {"kind": "bimodal", "params": {"entries": 512}},
        "component_b": {"kind": "gshare", "budget_kb": 2},
        "chooser_entries": 512,
    },
    "yags": {"choice_entries": 1024, "cache_entries": 256, "history_length": 8},
}


def json_round_trip(config: dict) -> dict:
    """Through real JSON text, as a config file would travel."""
    return json.loads(json.dumps(config))


def assert_spec_round_trips(spec: SystemSpec) -> None:
    restored = SystemSpec.from_config(json_round_trip(spec.to_config()))
    assert restored == spec
    assert restored.describe() == spec.describe()  # hash-stable


class TestSystemConfigRoundTrips:
    def test_samples_cover_the_whole_registry(self):
        assert sorted(GEOMETRY_SAMPLES) == registered_kinds()

    @pytest.mark.parametrize("kind", sorted(GEOMETRY_SAMPLES))
    def test_prophet_round_trip_at_sampled_geometry(self, kind):
        spec = SystemSpec(
            kind="single",
            prophet=PredictorSpec(kind, params=GEOMETRY_SAMPLES[kind] or None),
        )
        assert_spec_round_trips(spec)

    @pytest.mark.parametrize("kind", sorted(GEOMETRY_SAMPLES))
    def test_prophet_round_trip_at_schema_defaults(self, kind):
        assert_spec_round_trips(
            SystemSpec(kind="single", prophet=PredictorSpec(kind))
        )

    @pytest.mark.parametrize("kind", critic_capable_kinds())
    def test_critic_role_round_trip(self, kind):
        spec = SystemSpec(
            kind="hybrid",
            prophet=PredictorSpec("gshare", budget_kb=2),
            critic=PredictorSpec(kind, params=GEOMETRY_SAMPLES[kind] or None),
            future_bits=4,
        )
        assert_spec_round_trips(spec)
        assert isinstance(spec.build(), ProphetCriticSystem)

    @pytest.mark.parametrize("kind", budgeted_kinds())
    @pytest.mark.parametrize("budget_kb", BUDGETS_KB)
    def test_budget_shorthand_round_trip(self, kind, budget_kb):
        spec = SystemSpec.single(kind, budget_kb)
        assert_spec_round_trips(spec)
        # The shorthand survives as shorthand (minimal config form).
        assert spec.to_config()["prophet"] == {"kind": kind, "budget_kb": budget_kb}

    @pytest.mark.parametrize("kind", budgeted_kinds())
    def test_shorthand_and_explicit_params_share_a_content_hash(self, kind):
        shorthand = PredictorSpec(kind, budget_kb=8)
        explicit = PredictorSpec(
            kind, params=dataclasses.asdict(shorthand.resolved_params())
        )
        assert shorthand != explicit  # structurally distinct spellings...
        assert shorthand.describe() == explicit.describe()  # ...same identity

    def test_every_kind_is_instantiable_from_json(self):
        for kind in registered_kinds():
            config = json_round_trip(
                {"kind": "single",
                 "prophet": {"kind": kind, "params": GEOMETRY_SAMPLES[kind]}}
            )
            system = SystemSpec.from_config(config).build()
            assert isinstance(system, SinglePredictorSystem)


class TestConfigRejections:
    def test_unknown_predictor_kind(self):
        with pytest.raises(KeyError, match="registered kinds"):
            PredictorSpec("oracle")

    def test_unknown_parameter_name(self):
        with pytest.raises(ValueError, match="valid parameters"):
            PredictorSpec("gshare", params={"entires": 64})

    def test_params_and_budget_are_exclusive(self):
        with pytest.raises(ValueError, match="pick one"):
            PredictorSpec("gshare", params={"entries": 64}, budget_kb=8)

    def test_prophet_only_kind_rejected_in_critic_role(self):
        for kind in ("bimodal", "local", "tournament", "always-taken"):
            with pytest.raises(ValueError, match="critic-capable kinds"):
                SystemSpec(
                    kind="hybrid",
                    prophet=PredictorSpec("gshare", budget_kb=2),
                    critic=PredictorSpec(kind),
                    future_bits=4,
                )

    def test_single_system_rejects_hybrid_settings(self):
        # future_bits/insert_on on a single system would be silently
        # ignored; the spec (and its config round trip) must refuse them.
        with pytest.raises(ValueError, match="hybrid settings"):
            SystemSpec(
                kind="single",
                prophet=PredictorSpec("gshare", budget_kb=2),
                future_bits=8,
            )
        with pytest.raises(ValueError, match="hybrid settings"):
            SystemSpec.from_config(
                {"kind": "single", "prophet": "gshare", "future_bits": 8}
            )

    def test_tournament_nested_kinds_validate_eagerly(self):
        with pytest.raises(KeyError, match="registered kinds"):
            PredictorSpec("tournament", params={"component_a": {"kind": "doom"}})
        with pytest.raises(ValueError, match="valid parameters"):
            PredictorSpec(
                "tournament",
                params={"component_b": {"kind": "gshare",
                                        "params": {"entires": 64}}},
            )

    def test_unknown_system_config_key(self):
        with pytest.raises(ValueError, match="valid keys"):
            SystemSpec.from_config(
                {"kind": "single", "prophet": "gshare", "prophet_kb": 8}
            )

    def test_unknown_predictor_config_key(self):
        with pytest.raises(ValueError, match="valid keys"):
            PredictorSpec.from_config({"kind": "gshare", "size": 8})

    def test_future_format_rejected(self):
        with pytest.raises(ValueError, match="format"):
            SystemSpec.from_config(
                {"format": 99, "kind": "single", "prophet": "gshare"}
            )

    def test_unknown_simulation_config_key(self):
        cell_config = SweepCell(
            "label", "swim", SystemSpec.single("gshare", 2),
            ProgramSpec(benchmark="swim"),
        ).to_config()
        cell_config["config"]["branches"] = 1  # the real key is n_branches
        with pytest.raises(ValueError, match="valid keys"):
            SweepCell.from_config(cell_config)

    def test_unknown_backend_in_cell_config(self):
        """``backend`` is left out of the content hash, so a cell with a
        bad one must fail at restore, naming the field, not be served
        from cache or fail inside a pool worker."""
        cell_config = SweepCell(
            "label", "swim", SystemSpec.single("gshare", 2),
            ProgramSpec(benchmark="swim"),
        ).to_config()
        cell_config["config"]["backend"] = "vector"
        with pytest.raises(ValueError, match="backend"):
            SweepCell.from_config(cell_config)

    def test_program_config_needs_one_source(self):
        with pytest.raises(ValueError, match="exactly one"):
            ProgramSpec.from_config({"benchmark": "gcc", "trace": "x.trace"})


class TestProgramAndCellRoundTrips:
    def test_program_spec_is_frozen(self):
        spec = ProgramSpec(benchmark="gcc")
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.benchmark = "perl"

    def test_benchmark_round_trip(self):
        spec = ProgramSpec(benchmark="gcc", seed=7)
        assert ProgramSpec.from_config(json_round_trip(spec.to_config())) == spec

    def test_profile_round_trip_restores_tuple_fields(self):
        profile = WorkloadProfile(name="custom", seed=9, loop_trips=(2, 9))
        spec = ProgramSpec(profile=profile)
        restored = ProgramSpec.from_config(json_round_trip(spec.to_config()))
        assert restored == spec
        assert restored.profile.loop_trips == (2, 9)

    def test_sweep_cell_round_trip_preserves_content_hash(self):
        cell = SweepCell(
            system_label="hybrid",
            bench_name="swim",
            system=SystemSpec.hybrid("2bc-gskew", 2, "tagged-gshare", 2, 4),
            program=ProgramSpec(benchmark="swim"),
            config=SimulationConfig(n_branches=1500, warmup=300),
        )
        restored = SweepCell.from_config(json_round_trip(cell.to_config()))
        assert restored.content_hash() == cell.content_hash()
        assert restored.system_label == cell.system_label


class TestJobBackendDefault:
    """A job payload that names no backend runs with the process default
    (batched unless the daemon was started with ``--backend scalar``)."""

    PAYLOAD: ClassVar[dict] = {
        "systems": {"g": {"kind": "single", "prophet": "gshare"}},
        "benchmarks": "swim",
        "branches": 1000,
    }

    def test_default_is_batched(self):
        cells, meta = cells_from_job(self.PAYLOAD)
        assert meta["backend"] == "batched"
        assert {cell.config.backend for cell in cells} == {"batched"}

    def test_follows_the_process_default(self, monkeypatch):
        monkeypatch.setattr(driver, "_DEFAULT_BACKEND", "scalar")
        _, meta = cells_from_job(self.PAYLOAD)
        assert meta["backend"] == "scalar"
        _, meta = cells_from_job({**self.PAYLOAD, "backend": "batched"})
        assert meta["backend"] == "batched"


class TestRedesignDifferential:
    """Shorthand specs are bit-identical to pre-redesign construction.

    The pre-redesign ``SystemSpec.single``/``.hybrid`` path named
    predictors as ``(kind, budget_kb)`` pairs and built them through the
    old budget table. Here the same experiment grid runs once through
    the redesigned spec layer and once by direct ``simulate()`` calls on
    systems that hard-code the pre-redesign Table-3 constructor calls —
    the results must agree field by field.
    """

    CONFIG = SimulationConfig(n_branches=1500, warmup=300)
    BENCHMARKS: ClassVar[dict[str, str]] = {"swim": "swim", "ammp": "ammp"}

    @staticmethod
    def _legacy_systems():
        # Table-3 geometries exactly as the pre-redesign budget.py
        # hard-coded them (gshare 2KB: 8K entries / h13; gskew 2KB:
        # 2K/table / h11; tagged-gshare 2KB: 256 sets × 6 ways, BOR 18).
        return {
            "gshare-alone": lambda: SinglePredictorSystem(
                GsharePredictor(8 * 1024, 13)
            ),
            "filtered-hybrid": lambda: ProphetCriticSystem(
                TwoBcGskewPredictor(2 * 1024, 11),
                TaggedGsharePredictor(256, 6, 18),
                future_bits=4,
            ),
        }

    @staticmethod
    def _spec_systems():
        return {
            "gshare-alone": SystemSpec.single("gshare", 2),
            "filtered-hybrid": SystemSpec.hybrid(
                "2bc-gskew", 2, "tagged-gshare", 2, 4
            ),
        }

    def test_shorthand_specs_match_pre_redesign_construction(self):
        via_specs = run_sweep(self._spec_systems(), self.BENCHMARKS, self.CONFIG)
        legacy_systems = self._legacy_systems()
        assert set(via_specs.runs) == {
            (label, bench) for label in legacy_systems for bench in self.BENCHMARKS
        }
        for (label, bench), stats in via_specs.runs.items():
            legacy = simulate(
                ProgramSpec(benchmark=bench).build(), legacy_systems[label](), self.CONFIG
            )
            legacy.system = label
            assert stats_to_dict(stats) == stats_to_dict(legacy), (label, bench)

    def test_config_file_grid_matches_shorthand_grid(self):
        configs = {
            label: json_round_trip(spec.to_config())
            for label, spec in self._spec_systems().items()
        }
        via_configs = run_sweep(
            {label: SystemSpec.from_config(c) for label, c in configs.items()},
            self.BENCHMARKS,
            self.CONFIG,
        )
        via_specs = run_sweep(self._spec_systems(), self.BENCHMARKS, self.CONFIG)
        for key, stats in via_specs.runs.items():
            assert stats_to_dict(stats) == stats_to_dict(via_configs.runs[key]), key
