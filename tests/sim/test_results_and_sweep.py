"""Tests for result rendering, metrics containers and sweeps."""

import math

import pytest

from repro.core import SinglePredictorSystem
from repro.core.critiques import CritiqueKind
from repro.predictors import BimodalPredictor
from repro.sim import (
    PredictorSpec,
    ProgramSpec,
    RunStats,
    SimulationConfig,
    SystemSpec,
    run_sweep,
)
from repro.sim.results import format_table, render_mapping, render_series
from repro.workloads.generator import WorkloadProfile


class TestFormatTable:
    def test_renders_rows_and_headers(self):
        text = format_table(["a", "bb"], [[1, 2.5], [30, 4.0]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert "2.500" in text and "30" in text

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])

    def test_empty_rows_ok(self):
        text = format_table(["a"], [])
        assert "a" in text


class TestRenderSeries:
    def test_basic(self):
        assert render_series("s", [1, 2], [0.5, 1.0]) == "s: 1=0.500, 2=1.000"

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            render_series("s", [1], [1.0, 2.0])


class TestRenderMapping:
    def test_basic(self):
        text = render_mapping("T", {"key": 1.5, "other": "x"})
        assert "T" in text and "1.500" in text and "x" in text


class TestRunStats:
    def test_empty_stats_are_safe(self):
        stats = RunStats()
        assert stats.misp_per_kuops == 0.0
        assert stats.mispredict_rate == 0.0
        assert stats.accuracy == 1.0
        assert math.isinf(stats.uops_per_flush)
        assert stats.filtered_fraction == 0.0
        assert stats.taken_rate == 0.0

    def test_metric_formulas(self):
        stats = RunStats(branches=1000, committed_uops=13_000, mispredicts=26,
                         prophet_mispredicts=40, taken_branches=600)
        assert math.isclose(stats.misp_per_kuops, 2.0)
        assert math.isclose(stats.mispredict_rate, 0.026)
        assert math.isclose(stats.uops_per_flush, 500.0)
        assert math.isclose(stats.prophet_misp_per_kuops, 40 / 13.0)
        assert math.isclose(stats.taken_rate, 0.6)

    def test_wrong_path_uops(self):
        stats = RunStats(committed_uops=100, fetched_uops=160)
        assert stats.wrong_path_uops == 60
        stats2 = RunStats(committed_uops=100, fetched_uops=90)
        assert stats2.wrong_path_uops == 0

    def test_merge_accumulates(self):
        a = RunStats(branches=10, committed_uops=100, mispredicts=1)
        a.census.record(CritiqueKind.CORRECT_AGREE)
        b = RunStats(branches=20, committed_uops=200, mispredicts=3)
        b.census.record(CritiqueKind.CORRECT_NONE)
        a.merge(b)
        assert a.branches == 30
        assert a.mispredicts == 4
        assert a.census.total == 2

    def test_record_site(self):
        stats = RunStats()
        stats.record_site(0x100, prophet_misp=True, final_misp=False)
        stats.record_site(0x100, prophet_misp=False, final_misp=True)
        row = stats.per_site[0x100]
        assert row == [2, 1, 1, 1, 1]

    # -- regression: merge() used to drop other.per_site entirely, so
    # suite-averaged runs silently lost per-site attribution.

    def test_merge_per_site_none_none(self):
        a, b = RunStats(), RunStats()
        a.merge(b)
        assert a.per_site is None

    def test_merge_per_site_copies_from_other(self):
        a = RunStats()
        b = RunStats()
        b.record_site(0x10, prophet_misp=True, final_misp=True)
        a.merge(b)
        assert a.per_site == {0x10: [1, 1, 1, 0, 0]}
        # Rows are copied, never aliased: mutating the merged stats must
        # not corrupt the contributing run.
        a.per_site[0x10][0] += 1
        assert b.per_site[0x10][0] == 1

    def test_merge_per_site_keeps_own_when_other_none(self):
        a = RunStats()
        a.record_site(0x10, prophet_misp=False, final_misp=True)
        a.merge(RunStats())
        assert a.per_site == {0x10: [1, 0, 1, 0, 1]}

    def test_merge_per_site_sums_element_wise(self):
        a = RunStats()
        a.record_site(0x10, prophet_misp=True, final_misp=False)
        a.record_site(0x20, prophet_misp=False, final_misp=False)
        b = RunStats()
        b.record_site(0x10, prophet_misp=True, final_misp=True)
        b.record_site(0x30, prophet_misp=False, final_misp=True)
        a.merge(b)
        # Hand-summed rows: shared key 0x10 adds element-wise, disjoint
        # keys carry over verbatim.
        assert a.per_site == {
            0x10: [2, 2, 1, 1, 0],
            0x20: [1, 0, 0, 0, 0],
            0x30: [1, 0, 1, 0, 1],
        }

    # -- regression: summary() used to emit float("inf") for
    # uops_per_flush on zero-mispredict runs, which json.dump serializes
    # as the invalid token ``Infinity``.

    def test_summary_zero_mispredicts_is_strict_json(self):
        import json

        stats = RunStats(branches=100, committed_uops=1300, mispredicts=0)
        summary = stats.summary()
        assert summary["uops_per_flush"] is None
        text = json.dumps(summary, allow_nan=False)
        parsed = json.loads(
            text, parse_constant=lambda token: pytest.fail(f"non-JSON {token}")
        )
        assert parsed["uops_per_flush"] is None

    def test_summary_finite_uops_per_flush_survives(self):
        stats = RunStats(branches=100, committed_uops=1300, mispredicts=13)
        assert stats.summary()["uops_per_flush"] == 100.0


class TestRunSweep:
    def test_grid_shape_and_aggregation(self):
        systems = {
            "bimodal": SystemSpec(
                kind="single", prophet=PredictorSpec("bimodal", params={"entries": 256})
            ),
            "gshare": SystemSpec(
                kind="single",
                prophet=PredictorSpec(
                    "gshare", params={"entries": 256, "history_length": 8}
                ),
            ),
        }
        benchmarks = {
            f"w{seed}": ProgramSpec(
                profile=WorkloadProfile(name=f"s{seed}", seed=seed, static_branch_target=50)
            )
            for seed in (1, 2)
        }
        result = run_sweep(
            systems, benchmarks, SimulationConfig(n_branches=1500, warmup=300)
        )
        assert set(result.system_labels()) == {"bimodal", "gshare"}
        assert set(result.bench_names()) == {"w1", "w2"}
        assert len(result.runs) == 4
        avg = result.average_misp_per_kuops("gshare")
        assert avg >= 0.0
        pooled = result.aggregate("gshare")
        assert pooled.branches == 2400  # two runs x 1200 measured

    @pytest.mark.parametrize(
        "bad_systems, bad_benchmarks, message",
        [
            pytest.param(
                {"legacy": lambda: SinglePredictorSystem(BimodalPredictor(256))}, {},
                "system 'legacy' must be a SystemSpec, got function",
                id="system-factory",
            ),
            pytest.param(
                {"built": SinglePredictorSystem(BimodalPredictor(256))}, {},
                "system 'built' must be a SystemSpec, got SinglePredictorSystem",
                id="built-system",
            ),
            pytest.param(
                {"config": {"kind": "single", "prophet": ["gshare", 2]}}, {},
                "system 'config' must be a SystemSpec, got dict",
                id="system-config-mapping",
            ),
            pytest.param(
                {"prophet": PredictorSpec("gshare", budget_kb=2)}, {},
                "system 'prophet' must be a SystemSpec, got PredictorSpec",
                id="predictor-spec",
            ),
            pytest.param(
                {}, {"w1": lambda: None},
                "benchmark 'w1' must be a ProgramSpec or a benchmark name, got function",
                id="program-factory",
            ),
            pytest.param(
                {}, {"profile": WorkloadProfile(name="p", seed=1, static_branch_target=50)},
                "benchmark 'profile' must be a ProgramSpec or a benchmark name, "
                "got WorkloadProfile",
                id="bare-profile",
            ),
        ],
    )
    def test_rejects_non_spec_values_before_running(
        self, monkeypatch, bad_systems, bad_benchmarks, message
    ):
        """A factory callable, or any other non-spec value, is a
        TypeError naming its label, raised before the engine sees a
        single cell."""
        from repro.sim import execution

        def no_engine():
            raise AssertionError("a cell ran before the grid was validated")

        monkeypatch.setattr(execution, "get_default_engine", no_engine)
        systems = {"ok": SystemSpec.single("gshare", 2), **bad_systems}
        benchmarks = {"swim": "swim", **bad_benchmarks}
        with pytest.raises(TypeError) as excinfo:
            run_sweep(systems, benchmarks)
        assert str(excinfo.value) == message

    def test_average_of_unknown_label_is_zero(self):
        from repro.sim.sweep import SweepResult

        assert SweepResult().average_misp_per_kuops("nope") == 0.0

    def test_get_missing_pair_raises_descriptive_keyerror(self):
        from repro.sim.sweep import SweepResult

        result = SweepResult()
        result.add("gshare", "w1", RunStats())
        result.add("bimodal", "w2", RunStats())
        with pytest.raises(KeyError) as excinfo:
            result.get("gshare", "w9")
        message = str(excinfo.value)
        assert "gshare" in message and "w9" in message
        assert "w1" in message and "w2" in message  # lists what *is* available
        assert "bimodal" in message

    def test_get_returns_existing_run(self):
        from repro.sim.sweep import SweepResult

        stats = RunStats(branches=5)
        result = SweepResult()
        result.add("gshare", "w1", stats)
        assert result.get("gshare", "w1") is stats
