"""Differential tests for the sweep-scale parallel execution engine.

The engine's contract is that the executor, the build memoization and
the cache are invisible: serial in-process execution, persistent
process-pool execution, and a cold-then-warm cache round trip must all
produce results field-by-field identical to the from-scratch reference
work unit (:func:`run_cell`). These tests enforce that contract on a
small (3 systems × 3 benchmarks) grid and on a mixed
accuracy/timing/trace/duplicate grid, and pin down the supporting
pieces — spec content hashing, cache robustness, program-build
memoization, streaming write-back, error surfacing and duplicate-cell
coalescing.
"""

import dataclasses
import json
import threading
import time

import pytest

from repro.pipeline.machine import PipelineResult
from repro.sim import (
    ProcessPoolExecutor,
    ProgramSpec,
    ResultCache,
    RunStats,
    SerialExecutor,
    SimulationConfig,
    SweepCell,
    SweepEngine,
    SystemSpec,
    make_engine,
    run_cell,
    run_sweep,
)
from repro.sim.cache import stats_from_dict, stats_to_dict
from repro.sim.execution import (
    CellExecutionError,
    ProgramBuildCache,
    WorkerPoolError,
)
from repro.sim.specs import MODE_TIMING

#: 3 systems × 3 benchmarks — the differential grid from the issue.
SYSTEMS = {
    "gshare-alone": SystemSpec.single("gshare", 2),
    "filtered-hybrid": SystemSpec.hybrid("gshare", 2, "tagged-gshare", 2, 4),
    "unfiltered-hybrid": SystemSpec.hybrid("2bc-gskew", 2, "gshare", 2, 1),
}
BENCHMARKS = ("swim", "facerec", "ammp")
CONFIG = SimulationConfig(n_branches=1500, warmup=300)

_STATS_COUNTERS = (
    "benchmark",
    "system",
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


def make_cells():
    return [
        SweepCell(
            system_label=label,
            bench_name=name,
            system=spec,
            program=ProgramSpec(benchmark=name),
            config=CONFIG,
        )
        for name in BENCHMARKS
        for label, spec in SYSTEMS.items()
    ]


def assert_stats_identical(a: RunStats, b: RunStats) -> None:
    """Field-by-field equality, including derived metrics and the census."""
    for field in _STATS_COUNTERS:
        assert getattr(a, field) == getattr(b, field), field
    assert a.census.counts == b.census.counts
    assert a.per_site == b.per_site
    assert a.misp_per_kuops == b.misp_per_kuops


def assert_sweeps_identical(a, b) -> None:
    assert set(a.runs) == set(b.runs)
    for key in a.runs:
        assert_stats_identical(a.runs[key], b.runs[key])


class TestDifferential:
    def test_serial_pool_and_cache_paths_are_identical(self, tmp_path):
        """The headline differential: serial == process pool == cold == warm."""
        serial = SweepEngine(executor=SerialExecutor()).run(make_cells())
        pooled = SweepEngine(executor=ProcessPoolExecutor(jobs=2)).run(make_cells())

        cache = ResultCache(tmp_path / "cache")
        cold_engine = SweepEngine(executor=SerialExecutor(), cache=cache)
        cold = cold_engine.run(make_cells())
        assert cache.hits == 0

        warm_cache = ResultCache(tmp_path / "cache")
        warm_engine = SweepEngine(executor=SerialExecutor(), cache=warm_cache)
        warm = warm_engine.run(make_cells())
        assert warm_cache.misses == 0
        # Every distinct cell came from disk, none were simulated.
        assert warm_cache.hits == len({c.content_hash() for c in make_cells()})

        assert_sweeps_identical(serial, pooled)
        assert_sweeps_identical(serial, cold)
        assert_sweeps_identical(serial, warm)

    def test_grid_covers_expected_shape(self):
        sweep = SweepEngine().run(make_cells())
        assert set(sweep.system_labels()) == set(SYSTEMS)
        assert set(sweep.bench_names()) == set(BENCHMARKS)
        assert len(sweep.runs) == 9
        for (_, bench), stats in sweep.runs.items():
            assert stats.branches == CONFIG.n_branches - CONFIG.warmup
            assert stats.benchmark == bench

    def test_run_sweep_spec_path_matches_engine(self):
        via_run_sweep = run_sweep(
            SYSTEMS, {name: name for name in BENCHMARKS}, CONFIG
        )
        via_engine = SweepEngine().run(make_cells())
        assert_sweeps_identical(via_run_sweep, via_engine)


def make_mixed_cells(trace_path):
    """Accuracy + timing + trace-backed + duplicate cells in one grid."""
    cells = make_cells()
    cells.append(
        SweepCell(
            "timed", "swim", SystemSpec.single("gshare", 2),
            ProgramSpec(benchmark="swim"), CONFIG, mode=MODE_TIMING,
        )
    )
    cells.append(
        SweepCell(
            "replayed", "swim-trace",
            SystemSpec.hybrid("gshare", 2, "tagged-gshare", 2, 4),
            ProgramSpec(trace=trace_path),
            SimulationConfig(n_branches=1200, warmup=240),
        )
    )
    twin = SweepCell(
        "twin-label", "swim", SYSTEMS["gshare-alone"],
        ProgramSpec(benchmark="swim"), CONFIG,
    )
    cells.append(twin)  # duplicate of the first cell, different label
    return cells


def assert_results_identical(got, want) -> None:
    """Field-by-field equality across mixed accuracy/timing results."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert type(a) is type(b)
        if isinstance(a, RunStats):
            assert_stats_identical(a, b)
        else:
            assert dataclasses.asdict(a) == dataclasses.asdict(b)


@pytest.fixture(scope="module")
def swim_trace(tmp_path_factory):
    from repro.workloads import benchmark
    from repro.workloads.trace import record_trace

    path = tmp_path_factory.mktemp("traces") / "swim.trace"
    record_trace(benchmark("swim"), 1500, path, source={})
    return str(path)


class TestMixedDifferential:
    """Every engine path == run_cell on a mixed grid (the PR-5 invariant)."""

    def test_all_paths_identical_on_mixed_grid(self, swim_trace, tmp_path):
        reference = [run_cell(cell) for cell in make_mixed_cells(swim_trace)]

        serial = SweepEngine().run_cells(make_mixed_cells(swim_trace))
        assert_results_identical(serial, reference)

        with make_engine(jobs=2) as pooled_engine:
            pooled = pooled_engine.run_cells(make_mixed_cells(swim_trace))
            assert_results_identical(pooled, reference)
            # The pool (and its worker build caches) persists; a repeat
            # run reuses memoized builds and must stay identical.
            again = pooled_engine.run_cells(make_mixed_cells(swim_trace))
            assert_results_identical(again, reference)

        with make_engine(jobs=2, cache_dir=tmp_path / "cache") as cold_engine:
            cold = cold_engine.run_cells(make_mixed_cells(swim_trace))
            assert_results_identical(cold, reference)

        with make_engine(jobs=2, cache_dir=tmp_path / "cache") as warm_engine:
            warm = warm_engine.run_cells(make_mixed_cells(swim_trace))
            assert_results_identical(warm, reference)
            assert warm_engine.cache.misses == 0

    def test_serial_executor_memoizes_builds_without_changing_results(self):
        executor = SerialExecutor()
        cells = make_cells()
        first = executor.map_cells(cells)
        # Every benchmark was built once and then reused per system.
        assert executor.builds.builds == len(BENCHMARKS)
        assert executor.builds.reuses == len(cells) - len(BENCHMARKS)
        second = executor.map_cells(make_cells())
        assert executor.builds.builds == len(BENCHMARKS)  # still warm
        assert_results_identical(first, [run_cell(c) for c in make_cells()])
        assert_results_identical(second, first)


class TestPersistentPool:
    def test_pool_survives_across_map_cells_calls(self):
        executor = ProcessPoolExecutor(jobs=2)
        try:
            cells = make_cells()[:3]
            executor.map_cells(cells)
            pool = executor._pool
            assert pool is not None
            executor.map_cells(make_cells()[:3])
            assert executor._pool is pool  # same workers, not a respawn
        finally:
            executor.shutdown()
        assert executor._pool is None

    def test_single_job_pool_runs_in_process(self):
        executor = ProcessPoolExecutor(jobs=1)
        results = executor.map_cells(make_cells()[:2])
        assert executor._pool is None  # never spawned
        assert_results_identical(results, [run_cell(c) for c in make_cells()[:2]])

    def test_one_cell_grid_runs_in_a_worker(self):
        executor = ProcessPoolExecutor(jobs=2)
        try:
            cell = make_cells()[4]
            results = executor.map_cells([cell])
            # Sent to the workers even on a fresh executor: this process
            # builds nothing, and the cell stays within reach of
            # terminate().
            assert executor._serial is None
            assert executor._pool is not None
            assert_results_identical(results, [run_cell(cell)])
        finally:
            executor.shutdown()

    def test_streaming_on_result_delivers_every_cell_once(self):
        seen = {}
        executor = ProcessPoolExecutor(jobs=2)
        try:
            cells = make_cells()
            results = executor.map_cells(
                cells, on_result=lambda i, r: seen.setdefault(i, r)
            )
        finally:
            executor.shutdown()
        assert sorted(seen) == list(range(len(cells)))
        for index, result in seen.items():
            assert result is results[index]


class TestProgramBuildCache:
    def test_reuses_equal_build_keys(self):
        cache = ProgramBuildCache(capacity=4)
        a = cache.program_for(ProgramSpec(benchmark="swim"))
        b = cache.program_for(ProgramSpec(benchmark="swim"))
        assert a is b
        assert (cache.builds, cache.reuses) == (1, 1)

    def test_distinct_seeds_build_distinct_programs(self):
        cache = ProgramBuildCache(capacity=4)
        a = cache.program_for(ProgramSpec(benchmark="swim"))
        b = cache.program_for(ProgramSpec(benchmark="swim", seed=7))
        assert a is not b
        assert cache.builds == 2

    def test_capacity_zero_disables_memoization(self):
        cache = ProgramBuildCache(capacity=0)
        a = cache.program_for(ProgramSpec(benchmark="swim"))
        b = cache.program_for(ProgramSpec(benchmark="swim"))
        assert a is not b
        assert cache.builds == 2 and len(cache) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            ProgramBuildCache(capacity=-1)

    def test_capacity_evicts_least_recently_used(self):
        cache = ProgramBuildCache(capacity=2)
        first = cache.program_for(ProgramSpec(benchmark="swim"))
        cache.program_for(ProgramSpec(benchmark="facerec"))
        cache.program_for(ProgramSpec(benchmark="ammp"))  # evicts swim
        assert len(cache) == 2
        again = cache.program_for(ProgramSpec(benchmark="swim"))
        assert again is not first
        assert cache.builds == 4

    def test_reused_program_resets_to_fresh_behaviour(self):
        """Simulating twice off one cached build == two fresh builds."""
        from repro.sim import simulate

        cache = ProgramBuildCache(capacity=2)
        spec = ProgramSpec(benchmark="swim")
        system_spec = SYSTEMS["filtered-hybrid"]
        first = simulate(cache.program_for(spec), system_spec.build(), CONFIG)
        second = simulate(cache.program_for(spec), system_spec.build(), CONFIG)
        fresh = simulate(spec.build(), system_spec.build(), CONFIG)
        for field in ("mispredicts", "committed_uops", "fetched_uops", "taken_branches"):
            assert getattr(first, field) == getattr(second, field) == getattr(fresh, field)

    def test_trace_memos_past_the_budget_are_dropped_oldest_first(self, monkeypatch):
        from repro.sim import execution

        # Each 1 500-branch cell leaves a 2 048-branch memo: two fit.
        monkeypatch.setattr(execution, "TRACE_MEMO_BUDGET", 4096)
        cache = ProgramBuildCache(capacity=4)
        cells = {cell.bench_name: cell for cell in make_cells()[::3]}
        programs = {
            name: cache.program_for(cells[name].program) for name in BENCHMARKS
        }

        def memos():
            return {n for n, p in programs.items() if hasattr(p, "_trace_cache")}

        for name in BENCHMARKS:
            execution._compute_cell(cells[name], cache)
        assert memos() == set(BENCHMARKS)  # the one in use is never trimmed

        # Reusing swim trims facerec, now the least recently used.
        result = execution._compute_cell(cells["swim"], cache)
        assert memos() == {"swim", "ammp"}
        assert_results_identical([result], [run_cell(cells["swim"])])
        # facerec walks again, with the same result.
        result = execution._compute_cell(cells["facerec"], cache)
        assert "facerec" in memos()
        assert_results_identical([result], [run_cell(cells["facerec"])])

        # The program in use keeps its memo (no walk) even alone over
        # the budget.
        monkeypatch.setattr(execution, "TRACE_MEMO_BUDGET", 1024)
        memo = programs["ammp"]._trace_cache
        execution._compute_cell(cells["ammp"], cache)
        assert memos() == {"ammp"}
        assert programs["ammp"]._trace_cache is memo


class TestErrorSurfacing:
    BROKEN = SweepCell(
        "broken-label", "doom", SystemSpec.single("gshare", 2),
        ProgramSpec(benchmark="doom"), CONFIG,
    )

    def test_unknown_benchmark_names_the_cell(self):
        with pytest.raises(CellExecutionError) as excinfo:
            SweepEngine().run_cells([self.BROKEN] + make_cells())
        message = str(excinfo.value)
        assert "broken-label" in message and "doom" in message
        assert "KeyError" in message  # the original cause, not swallowed
        assert excinfo.value.spec_config["program"] == {"benchmark": "doom"}

    def test_worker_failure_names_the_cell_and_cancels(self, swim_trace, tmp_path):
        # A trace with a valid header but truncated body hashes fine in
        # the parent and fails inside the worker mid-build.
        import shutil

        broken_trace = tmp_path / "truncated.trace"
        shutil.copyfile(swim_trace, broken_trace)
        payload = broken_trace.read_bytes()
        broken_trace.write_bytes(payload[: len(payload) - len(payload) // 3])
        cells = make_cells()
        cells.insert(
            0,
            SweepCell(
                "truncated-label", "swim-trace", SystemSpec.single("gshare", 2),
                ProgramSpec(trace=str(broken_trace)),
                SimulationConfig(n_branches=1200, warmup=240),
            ),
        )
        with make_engine(jobs=2) as engine:
            with pytest.raises(CellExecutionError) as excinfo:
                engine.run_cells(cells)
            message = str(excinfo.value)
            assert "truncated-label" in message and "swim-trace" in message
            assert excinfo.value.worker_traceback is not None
            # The pool survives a failed sweep and keeps producing
            # correct results.
            results = engine.run_cells(make_cells())
            assert_results_identical(results, [run_cell(c) for c in make_cells()])

    def test_error_pickles_losslessly(self):
        import pickle

        error = CellExecutionError(
            "label", "bench", {"k": 1}, "ValueError: boom", "tb",
            cause_types=("ValueError", "Exception", "BaseException", "object"),
        )
        clone = pickle.loads(pickle.dumps(error))
        assert str(clone) == str(error)
        assert clone.spec_config == {"k": 1}
        assert clone.cause_types == error.cause_types

    def test_caused_by_matches_base_classes_across_pickle(self):
        """An OSError subclass in a worker still matches 'OSError'."""
        import pickle

        from repro.sim.execution import _wrap_cell_error

        cell = make_cells()[0]
        try:
            raise FileNotFoundError("gone.trace")
        except FileNotFoundError as exc:
            error = _wrap_cell_error(cell, exc)
        clone = pickle.loads(pickle.dumps(error))
        assert clone.caused_by("OSError")
        assert clone.caused_by("TraceFormatError", "OSError")
        assert not clone.caused_by("TraceFormatError")

    def test_cache_write_failure_names_the_cell(self, tmp_path):
        """A full/read-only cache dir fails the sweep with the cell named."""
        cache = ResultCache(tmp_path / "cache")

        class ExplodingCache:
            root = cache.root

            def get(self, key):
                return None

            def put(self, key, result):
                raise OSError(28, "No space left on device")

        engine = SweepEngine(cache=ExplodingCache())
        with pytest.raises(CellExecutionError) as excinfo:
            engine.run_cells(make_cells()[:2])
        assert excinfo.value.caused_by("OSError")
        assert "gshare-alone" in str(excinfo.value)


class _WorkerKillerSpec(ProgramSpec):
    """A spec that hashes normally but kills the worker that builds it."""

    def build(self):
        import os

        os._exit(1)  # simulates an OOM kill / segfault, not an exception


class TestWorkerDeath:
    def test_dead_worker_surfaces_as_pool_error_and_pool_respawns(self):
        killer = SweepCell(
            "killer", "swim", SystemSpec.single("gshare", 2),
            _WorkerKillerSpec(benchmark="swim"), CONFIG,
        )
        executor = ProcessPoolExecutor(jobs=2)
        try:
            with pytest.raises(WorkerPoolError):
                executor.map_cells([killer] + make_cells()[:2])
            assert executor._pool is None  # broken pool was discarded
            # The next grid respawns a healthy pool and runs normally.
            results = executor.map_cells(make_cells()[:3])
            assert_results_identical(results, [run_cell(c) for c in make_cells()[:3]])
        finally:
            executor.shutdown()


    def test_terminate_stops_a_running_grid_without_retrying_it(self):
        long_run = SimulationConfig(n_branches=400_000, warmup=1000)
        cells = [dataclasses.replace(c, config=long_run) for c in make_cells()[:4]]
        executor = ProcessPoolExecutor(jobs=2)
        outcome: dict = {}

        def run_grid():
            try:
                outcome["results"] = executor.map_cells(cells)
            except WorkerPoolError as exc:
                outcome["error"] = exc

        thread = threading.Thread(target=run_grid)
        try:
            thread.start()
            deadline = time.monotonic() + 60
            while not (executor._pool is not None and executor._pool._processes):
                assert time.monotonic() < deadline, "the pool never started"
                time.sleep(0.01)
            executor.terminate()
            thread.join(timeout=60)
            assert not thread.is_alive()
            assert "terminated" in str(outcome["error"])
            assert "results" not in outcome
            # A deliberate kill is not a crash: nothing was re-run.
            assert executor.worker_crashes == 0
            assert executor.cells_retried == 0
            assert executor._pool is None
            results = executor.map_cells(make_cells()[:2])
            assert_results_identical(results, [run_cell(c) for c in make_cells()[:2]])
        finally:
            executor.terminate()
            thread.join(timeout=60)
            executor.shutdown()


class TestBuildCacheEnvKnob:
    def test_malformed_env_value_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_BUILD_CACHE", "off")
        with pytest.raises(ValueError, match="REPRO_BUILD_CACHE"):
            ProgramBuildCache()

    def test_env_zero_disables_memoization(self, monkeypatch):
        monkeypatch.setenv("REPRO_BUILD_CACHE", "0")
        assert ProgramBuildCache().capacity == 0

    def test_default_capacity_holds_every_named_benchmark(self, monkeypatch):
        from repro.workloads.suites import BENCHMARKS as NAMED

        monkeypatch.delenv("REPRO_BUILD_CACHE", raising=False)
        cache = ProgramBuildCache()
        for _ in range(2):
            for name in NAMED:
                cache.program_for(ProgramSpec(benchmark=name))
        # The second pass over the whole suite rebuilds nothing.
        assert (cache.builds, cache.reuses) == (len(NAMED), len(NAMED)) == (19, 19)


class TestTraceHandleRelease:
    def test_finished_trace_cell_holds_no_open_reader(self, swim_trace):
        """A completed sweep leaves no open handle on its trace files."""
        executor = SerialExecutor()
        cell = SweepCell(
            "replayed", "swim-trace", SystemSpec.single("gshare", 2),
            ProgramSpec(trace=swim_trace),
            SimulationConfig(n_branches=1200, warmup=240),
        )
        executor.map_cells([cell])
        [program] = executor.builds._programs.values()
        cursors = {
            block.behavior.cursor
            for block in program.blocks
            if block.behavior is not None
        }
        assert cursors and all(c._reader is None for c in cursors)


class TestStreamingWriteBack:
    class _FailAfter(SerialExecutor):
        """Reference-style executor that dies after N computed cells."""

        def __init__(self, fail_after: int) -> None:
            super().__init__()
            self.fail_after = fail_after
            self.computed = 0

        def map_cells(self, cells, on_result=None, cache=None, keys=None):
            results = []
            for index, cell in enumerate(cells):
                if self.computed >= self.fail_after:
                    raise RuntimeError("killed mid-sweep")
                result = run_cell(cell)
                self.computed += 1
                if cache is not None:
                    cache.put(keys[index] if keys else cell.content_hash(), result)
                if on_result is not None:
                    on_result(index, result)
                results.append(result)
            return results

    def test_killed_sweep_resumes_from_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        engine = SweepEngine(executor=self._FailAfter(fail_after=4), cache=cache)
        with pytest.raises(RuntimeError):
            engine.run_cells(make_cells())
        # The four finished cells hit the disk before the "kill".
        assert len(cache) == 4
        resumed = SweepEngine(executor=SerialExecutor(), cache=cache)
        results = resumed.run_cells(make_cells())
        assert resumed.cache.hits == 4
        assert_results_identical(results, [run_cell(c) for c in make_cells()])

    def test_pool_workers_write_back_incrementally(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        with SweepEngine(executor=ProcessPoolExecutor(jobs=2), cache=cache) as engine:
            engine.run_cells(make_cells())
        # Workers put their own results; the parent never re-wrote them.
        assert len(cache) == len({c.content_hash() for c in make_cells()})
        warm = SweepEngine(cache=ResultCache(tmp_path / "cache"))
        warm.run_cells(make_cells())
        assert warm.cache.misses == 0


class TestProgress:
    def test_progress_counts_cached_fresh_and_duplicate_cells(self, tmp_path):
        events = []

        def progress(done, total, cell):
            events.append((done, total, cell.system_label))

        cells = make_cells()
        twin = SweepCell(
            "twin", "swim", SYSTEMS["gshare-alone"],
            ProgramSpec(benchmark="swim"), CONFIG,
        )
        cells.append(twin)
        cache = ResultCache(tmp_path / "cache")
        SweepEngine(cache=cache).run_cells(cells[:3])  # pre-fill 3 cells
        engine = SweepEngine(cache=ResultCache(tmp_path / "cache"), progress=progress)
        engine.run_cells(cells)
        assert [done for done, _, _ in events] == list(range(1, len(cells) + 1))
        assert all(total == len(cells) for _, total, _ in events)
        assert events[-1][2] == "twin"  # duplicates complete last


class TestContentHash:
    def test_hash_is_stable_across_instances(self):
        [a], [b] = make_cells()[:1], make_cells()[:1]
        assert a is not b
        assert a.content_hash() == b.content_hash()

    def test_hash_ignores_labels(self):
        a = make_cells()[0]
        b = make_cells()[0]
        b.system_label = "renamed"
        b.bench_name = "swim"  # display key, same underlying program spec
        assert a.content_hash() == b.content_hash()

    def test_hash_varies_with_content(self):
        base = make_cells()[0]
        variants = [
            SweepCell(
                "x", "swim", SystemSpec.single("gshare", 4),
                ProgramSpec(benchmark="swim"), CONFIG,
            ),
            SweepCell(
                "x", "swim", base.system,
                ProgramSpec(benchmark="ammp"), CONFIG,
            ),
            SweepCell(
                "x", "swim", base.system,
                ProgramSpec(benchmark="swim"),
                SimulationConfig(n_branches=1501, warmup=300),
            ),
            SweepCell(
                "x", "swim", base.system,
                ProgramSpec(benchmark="swim", seed=7), CONFIG,
            ),
        ]
        hashes = {base.content_hash()} | {v.content_hash() for v in variants}
        assert len(hashes) == 5

    def test_cell_seed_is_deterministic(self):
        a, b = make_cells()[0], make_cells()[0]
        assert a.cell_seed() == b.cell_seed()
        assert 0 <= a.cell_seed() < 2**63


class TestSpecs:
    def test_system_spec_builds_fresh_systems(self):
        spec = SYSTEMS["filtered-hybrid"]
        a, b = spec.build(), spec.build()
        assert a is not b
        assert a.future_bits == 4

    def test_single_spec_rejects_critic(self):
        with pytest.raises(ValueError):
            SystemSpec(kind="single", prophet=("gshare", 2), critic=("gshare", 2))

    def test_hybrid_spec_requires_critic(self):
        with pytest.raises(ValueError):
            SystemSpec(kind="hybrid", prophet=("gshare", 2))

    def test_program_spec_needs_exactly_one_source(self):
        with pytest.raises(ValueError):
            ProgramSpec()
        with pytest.raises(ValueError):
            from repro.workloads.generator import WorkloadProfile

            ProgramSpec(benchmark="swim", profile=WorkloadProfile())

    def test_program_spec_seed_override_changes_program(self):
        base = ProgramSpec(benchmark="swim").build()
        reseeded = ProgramSpec(benchmark="swim", seed=99).build()
        assert base.name == reseeded.name
        assert len(base.blocks) != len(reseeded.blocks) or any(
            a.pc != b.pc for a, b in zip(base.blocks, reseeded.blocks)
        )

    def test_unknown_benchmark_raises(self):
        with pytest.raises(KeyError):
            ProgramSpec(benchmark="doom").build()


class TestCache:
    def test_stats_round_trip_is_lossless(self):
        stats = run_cell(make_cells()[0])
        stats.record_site(0x400100, prophet_misp=True, final_misp=False)
        rebuilt = stats_from_dict(json.loads(json.dumps(stats_to_dict(stats))))
        assert_stats_identical(stats, rebuilt)

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cell = make_cells()[0]
        key = cell.content_hash()
        cache.put(key, run_cell(cell))
        cache.path_for(key).write_text("{not json", encoding="utf-8")
        assert cache.get(key) is None

    def test_wrong_typed_fields_are_a_miss(self, tmp_path):
        """Valid JSON with a null counter must degrade to a miss, not crash."""
        cache = ResultCache(tmp_path)
        cell = make_cells()[0]
        key = cell.content_hash()
        cache.put(key, run_cell(cell))
        path = cache.path_for(key)
        document = json.loads(path.read_text(encoding="utf-8"))
        document["payload"]["branches"] = None
        path.write_text(json.dumps(document), encoding="utf-8")
        assert cache.get(key) is None

    def test_key_mismatch_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cell = make_cells()[0]
        key = cell.content_hash()
        cache.put(key, run_cell(cell))
        other = "0" * 64
        cache.path_for(other).parent.mkdir(parents=True, exist_ok=True)
        cache.path_for(other).write_text(
            cache.path_for(key).read_text(encoding="utf-8"), encoding="utf-8"
        )
        assert cache.get(other) is None

    def test_timing_cells_cache_round_trip(self, tmp_path):
        cell = make_cells()[0]
        cell.mode = MODE_TIMING
        cache = ResultCache(tmp_path)
        engine = SweepEngine(cache=cache)
        [cold] = engine.run_cells([cell])
        [warm] = engine.run_cells([cell])
        assert isinstance(cold, PipelineResult)
        assert dataclasses.asdict(cold) == dataclasses.asdict(warm)
        assert cache.hits == 1

    def test_engine_coalesces_duplicate_cells(self):
        cell_a = make_cells()[0]
        cell_b = make_cells()[0]
        cell_b.system_label = "twin"

        calls = []

        class CountingExecutor(SerialExecutor):
            def map_cells(self, cells, **kwargs):
                calls.extend(cells)
                return super().map_cells(cells, **kwargs)

        engine = SweepEngine(executor=CountingExecutor())
        first, twin = engine.run_cells([cell_a, cell_b])
        assert len(calls) == 1
        assert twin.system == "twin"
        assert first is not twin
        assert_stats_identical(
            first, RunStats(**{**vars(twin), "system": first.system})
        )


class TestMakeEngine:
    def test_jobs_selects_executor(self):
        assert isinstance(make_engine(jobs=1).executor, SerialExecutor)
        assert isinstance(make_engine(jobs=3).executor, ProcessPoolExecutor)
        assert make_engine(jobs=3).executor.jobs == 3

    def test_cache_dir_enables_cache(self, tmp_path):
        assert make_engine().cache is None
        engine = make_engine(cache_dir=tmp_path / "c")
        assert engine.cache is not None
        assert (tmp_path / "c").is_dir()

    def test_pool_rejects_bad_jobs(self):
        with pytest.raises(ValueError):
            ProcessPoolExecutor(jobs=0)
