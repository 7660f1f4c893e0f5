"""Differential tests: recorded-then-replayed runs equal live runs exactly,
and trace-backed specs flow through the sweep engine and result cache."""

import shutil

import pytest

from repro.core.hybrid import ProphetCriticSystem, SinglePredictorSystem
from repro.predictors.budget import make_critic, make_prophet
from repro.sim.cache import ResultCache
from repro.sim.driver import SimulationConfig, oracle_replay, simulate
from repro.sim.execution import ProcessPoolExecutor, SerialExecutor, SweepEngine
from repro.sim.specs import ProgramSpec, SweepCell, SystemSpec
from repro.workloads.generator import WorkloadProfile
from repro.workloads.suites import TRACES, benchmark, register_trace, register_trace_suite
from repro.workloads.trace import BranchTrace, capture_trace, record_trace, replay_program
from repro.workloads.trace_io import TraceReader

CONFIG = SimulationConfig(n_branches=3_000, warmup=600)

STAT_FIELDS = (
    "branches",
    "committed_uops",
    "mispredicts",
    "prophet_mispredicts",
    "static_branches",
    "forced_critiques",
    "critic_redirects",
    "fetched_uops",
    "taken_branches",
)


def assert_stats_identical(live, replayed):
    for field in STAT_FIELDS:
        assert getattr(live, field) == getattr(replayed, field), field
    assert live.census.as_dict() == replayed.census.as_dict()


def hybrid_system():
    return ProphetCriticSystem(
        make_prophet("2bc-gskew", 8), make_critic("tagged-gshare", 8), future_bits=8
    )


@pytest.fixture(autouse=True)
def clean_trace_registry():
    yield
    TRACES.clear()


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """One shared recording of two benchmarks (records > n_branches)."""
    root = tmp_path_factory.mktemp("traces")
    paths = {}
    for name in ("swim", "flash"):
        paths[name] = root / f"{name}.trace"
        record_trace(benchmark(name), CONFIG.n_branches, paths[name])
    return paths


class TestExactReplay:
    """The acceptance criterion: replay == live run, bit for bit."""

    @pytest.mark.parametrize("name", ["swim", "flash"])
    def test_hybrid_replay_is_bit_identical(self, recorded, name):
        live = simulate(benchmark(name), hybrid_system(), CONFIG)
        replayed = simulate(replay_program(recorded[name]), hybrid_system(), CONFIG)
        assert_stats_identical(live, replayed)

    def test_baseline_replay_is_bit_identical(self, recorded):
        live = simulate(
            benchmark("swim"), SinglePredictorSystem(make_prophet("2bc-gskew", 16)), CONFIG
        )
        replayed = simulate(
            replay_program(recorded["swim"]),
            SinglePredictorSystem(make_prophet("2bc-gskew", 16)),
            CONFIG,
        )
        assert_stats_identical(live, replayed)

    def test_replayed_program_is_reusable(self, recorded):
        """program.reset() rewinds the stream: two runs, same numbers."""
        program = replay_program(recorded["swim"])
        first = simulate(program, hybrid_system(), CONFIG)
        second = simulate(program, hybrid_system(), CONFIG)
        assert_stats_identical(first, second)

    def test_trace_walk_stops_at_the_recording_end(self, recorded):
        """The memoised walk overshoots a request up to a power of two,
        but a recording ends: the walk keeps every record, and a request
        past the end still fails."""
        from repro.sim import batched
        from repro.workloads.trace_io import TraceFormatError

        program = replay_program(recorded["swim"])
        cols = batched._architectural_trace(program, 2_500)
        assert program._trace_cache[0] == CONFIG.n_branches
        assert len(cols[0]) == CONFIG.n_branches
        program.reset()
        with pytest.raises(TraceFormatError):
            batched._architectural_trace(program, CONFIG.n_branches + 1)

    def test_custom_profile_replay(self, tmp_path):
        """Replay fidelity holds for arbitrary generated workloads too."""
        profile = WorkloadProfile(name="custom", seed=99, static_branch_target=120)
        spec = ProgramSpec(profile=profile)
        path = tmp_path / "custom.trace"
        record_trace(spec.build(), CONFIG.n_branches, path)
        live = simulate(spec.build(), hybrid_system(), CONFIG)
        replayed = simulate(replay_program(path), hybrid_system(), CONFIG)
        assert_stats_identical(live, replayed)


class TestTraceSpecs:
    """Trace-backed ProgramSpec: hashing, engine, cache, pickling."""

    def cell(self, path, label="hybrid"):
        return SweepCell(
            system_label=label,
            bench_name="swim",
            system=SystemSpec.hybrid("2bc-gskew", 8, "tagged-gshare", 8, 8),
            program=ProgramSpec.from_trace(path),
            config=CONFIG,
        )

    def test_exactly_one_source_enforced(self, recorded):
        with pytest.raises(ValueError, match="exactly one"):
            ProgramSpec()
        with pytest.raises(ValueError, match="exactly one"):
            ProgramSpec(benchmark="swim", trace=str(recorded["swim"]))

    def test_seed_override_rejected(self, recorded):
        with pytest.raises(ValueError, match="seed override"):
            ProgramSpec(trace=str(recorded["swim"]), seed=5)

    def test_no_profile_for_traces(self, recorded):
        with pytest.raises(ValueError, match="no.*profile"):
            ProgramSpec.from_trace(recorded["swim"]).resolved_profile()

    def test_name_comes_from_header(self, recorded):
        assert ProgramSpec.from_trace(recorded["swim"]).name == "swim"

    def test_hash_is_content_addressed_not_path_addressed(self, recorded, tmp_path):
        copy = tmp_path / "renamed-elsewhere.trace"
        shutil.copy(recorded["swim"], copy)
        assert (
            self.cell(recorded["swim"]).content_hash() == self.cell(copy).content_hash()
        )

    def test_different_traces_hash_differently(self, recorded):
        assert (
            self.cell(recorded["swim"]).content_hash()
            != self.cell(recorded["flash"]).content_hash()
        )

    def test_serial_pool_and_cache_agree(self, recorded, tmp_path):
        """The PR-1 invariant extended to trace-backed cells."""
        cells = [self.cell(recorded["swim"]), self.cell(recorded["flash"])]
        serial = SweepEngine(executor=SerialExecutor()).run_cells(cells)
        pooled = SweepEngine(executor=ProcessPoolExecutor(2)).run_cells(cells)
        cold_engine = SweepEngine(cache=ResultCache(tmp_path / "cache"))
        cold = cold_engine.run_cells(cells)
        # A second engine with a fresh ResultCache over the same directory
        # models a separate process reusing the cache.
        warm_engine = SweepEngine(cache=ResultCache(tmp_path / "cache"))
        warm = warm_engine.run_cells(cells)
        assert cold_engine.cache.misses == 2 and cold_engine.cache.hits == 0
        assert warm_engine.cache.hits == 2 and warm_engine.cache.misses == 0
        for results in (pooled, cold, warm):
            for reference, candidate in zip(serial, results):
                assert_stats_identical(reference, candidate)

    def test_cached_replay_equals_live_run(self, recorded, tmp_path):
        """record -> replay (via engine + cache) == live generator run."""
        live = simulate(benchmark("swim"), hybrid_system(), CONFIG)
        engine = SweepEngine(cache=ResultCache(tmp_path / "cache"))
        (cold,) = engine.run_cells([self.cell(recorded["swim"])])
        (warm,) = engine.run_cells([self.cell(recorded["swim"])])
        assert_stats_identical(live, cold)
        assert_stats_identical(live, warm)


class TestRegisteredTraces:
    def test_registered_name_flows_through_benchmark_and_specs(self, recorded):
        name = register_trace(recorded["swim"], name="swim-trace")
        assert name == "swim-trace"
        spec = ProgramSpec(benchmark=name)
        assert spec.trace is not None  # resolved eagerly for picklability
        assert spec.benchmark is None  # exactly-one-source invariant holds
        live = simulate(benchmark("swim"), hybrid_system(), CONFIG)
        replayed = simulate(benchmark(name), hybrid_system(), CONFIG)
        assert_stats_identical(live, replayed)
        assert_stats_identical(live, simulate(spec.build(), hybrid_system(), CONFIG))

    def test_collision_with_generated_benchmark_rejected(self, recorded):
        with pytest.raises(ValueError, match="collides"):
            register_trace(recorded["swim"], name="gcc")

    def test_rebinding_a_registered_name_rejected(self, recorded):
        register_trace(recorded["swim"], name="shared")
        register_trace(recorded["swim"], name="shared")  # same path: idempotent
        with pytest.raises(ValueError, match="already registered"):
            register_trace(recorded["flash"], name="shared")

    def test_registered_spec_reconstructs_from_its_own_fields(self, recorded):
        """Registry resolution leaves exactly one source populated."""
        import dataclasses

        register_trace(recorded["swim"], name="swim-trace")
        spec = ProgramSpec(benchmark="swim-trace")
        assert spec.benchmark is None and spec.trace is not None
        clone = dataclasses.replace(spec)
        assert clone.describe() == spec.describe()

    def test_register_suite_directory(self, recorded):
        names = register_trace_suite(recorded["swim"].parent)
        assert sorted(names) == ["trace:flash", "trace:swim"]
        live = simulate(benchmark("flash"), hybrid_system(), CONFIG)
        assert_stats_identical(live, simulate(benchmark("trace:flash"), hybrid_system(), CONFIG))

    def test_register_suite_empty_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            register_trace_suite(tmp_path)


class TestOracleReplay:
    def test_streaming_matches_in_memory(self, recorded):
        def predictors():
            return dict(
                prophet=make_prophet("2bc-gskew", 8),
                critic=make_critic("tagged-gshare", 8),
                future_bits=8,
                warmup=CONFIG.warmup,
            )

        in_memory = oracle_replay(
            BranchTrace.from_file(recorded["swim"]), **predictors()
        )
        with TraceReader(recorded["swim"]) as reader:
            streamed = oracle_replay(reader.records(), **predictors())
        assert_stats_identical(in_memory, streamed)

    def test_oracle_beats_honest_on_its_own_terms(self, recorded):
        """The §6 point: oracle future bits inflate accuracy."""
        honest = simulate(replay_program(recorded["swim"]), hybrid_system(), CONFIG)
        with TraceReader(recorded["swim"]) as reader:
            oracle = oracle_replay(
                reader.records(),
                prophet=make_prophet("2bc-gskew", 8),
                critic=make_critic("tagged-gshare", 8),
                future_bits=8,
                warmup=CONFIG.warmup,
            )
        assert oracle.mispredict_rate <= honest.mispredict_rate * 1.05

    def test_capture_matches_recorded_file(self, recorded):
        captured = capture_trace(benchmark("swim"), CONFIG.n_branches)
        on_disk = BranchTrace.from_file(recorded["swim"])
        assert list(captured) == list(on_disk)
