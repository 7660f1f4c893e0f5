"""Tests for the experiment scaffolding and registry.

Functional experiments run here at a tiny scale — these tests check
plumbing (shapes, headers, registry wiring), not reproduction quality;
the benchmarks under ``benchmarks/`` check the scientific shapes.
"""

import pytest

from repro.experiments import EXPERIMENTS, run_experiment
from repro.experiments.base import (
    ExperimentResult,
    average_series,
    scaled_config,
)
from repro.sim.specs import SystemSpec

TINY = 0.1  # 1600 branches: plumbing-check scale


class TestBase:
    def test_scaled_config(self):
        config = scaled_config(2.0)
        assert config.n_branches == 32_000
        assert config.warmup == 8_000

    def test_scaled_config_floors(self):
        config = scaled_config(0.01)
        assert config.n_branches >= 2_000
        assert config.warmup >= 500

    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            scaled_config(0)

    def test_factories_build_fresh_systems(self):
        spec = SystemSpec.hybrid("gshare", 2, "tagged-gshare", 2, 4)
        a, b = spec.build(), spec.build()
        assert a is not b
        assert a.future_bits == 4
        alone = SystemSpec.single("gshare", 2).build()
        assert alone.future_bits == 0

    def test_average_series(self):
        assert average_series([[1.0, 3.0], [3.0, 5.0]]) == [2.0, 4.0]

    def test_average_series_rejects_ragged(self):
        with pytest.raises(ValueError):
            average_series([[1.0], [1.0, 2.0]])

    def test_result_render_and_accessors(self):
        result = ExperimentResult(
            experiment_id="x",
            title="t",
            headers=["a", "b"],
            rows=[[1, 2.5]],
            series={"s": ([0, 1], [1.0, 2.0])},
            notes="n",
        )
        text = result.render()
        assert "== x: t ==" in text and "s: 0=1.000, 1=2.000" in text
        assert result.column("b") == [2.5]
        assert result.series_values("s") == [1.0, 2.0]


class TestRegistry:
    def test_catalog_covers_every_table_and_figure(self):
        expected = {
            "table3", "table4", "figure5", "figure6a", "figure6b", "figure6c",
            "figure7a", "figure7b", "figure8", "figure9", "figure10", "headline",
            "ablation-oracle", "ablation-filtering", "ablation-insert-policy",
            "ablation-tage",
        }
        assert expected <= set(EXPERIMENTS)

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            run_experiment("figure99")

    def test_table3_runs(self):
        result = run_experiment("table3")
        assert all(result.column("within_budget"))

    def test_figure5_plumbing(self):
        result = run_experiment(
            "figure5", scale=TINY, benchmarks=("swim",), future_bits=(0, 1)
        )
        assert result.rows[-1][0] == "AVG"
        assert "swim" in result.series
        assert len(result.series_values("AVG")) == 2

    def test_figure6_plumbing(self):
        result = run_experiment(
            "figure6c",
            scale=TINY,
            prophet_kbs=(4,),
            critic_kbs=(2,),
            future_bits=(None, 1),
            benchmarks=("swim",),
        )
        assert result.headers[2:] == ["no critic", "fb=1"]
        assert len(result.rows) == 1

    def test_figure6_rejects_unknown_subfigure(self):
        from repro.experiments import figure6

        with pytest.raises(KeyError):
            figure6.run("z")

    def test_figure7_plumbing(self):
        result = run_experiment("figure7a", scale=TINY, benchmarks=("swim",))
        assert len(result.rows) == 9  # 3 prophets x (alone + 2 critics)
        labels = result.column("configuration")
        assert "16KB gshare" in labels

    def test_figure7_rejects_other_budgets(self):
        from repro.experiments import figure7

        with pytest.raises(ValueError):
            figure7.run(total_kb=8)

    def test_figure8_plumbing(self):
        result = run_experiment("figure8", scale=TINY, future_bits=(1,), bench_name="swim")
        assert result.rows[0][0] == 1
        assert result.rows[0][-1] >= 0

    def test_table4_plumbing(self):
        result = run_experiment(
            "table4", scale=TINY, critic_kbs=(2,), future_bits=(1,), bench_name="swim"
        )
        row = result.rows[0]
        assert row[2] + row[3] == pytest.approx(row[4], abs=0.2)

    def test_ablation_insert_policy_plumbing(self):
        result = run_experiment("ablation-insert-policy", scale=TINY, bench_name="swim")
        assert {row[0] for row in result.rows} == {"final", "prophet"}


class _GridReached(Exception):
    """Raised by the patched grid runners: the specs are recorded, the
    cells never run."""


class TestNoSilentScalarFallback:
    """Every accuracy-grid system of every paper experiment runs on the
    batched kernel."""

    def _collect_specs(self, monkeypatch):
        from types import ModuleType

        from repro.experiments import runner

        specs = {}

        def record_grid(systems, *args, **kwargs):
            specs.update((spec, label) for label, spec in systems.items())
            raise _GridReached

        def skip_timed_grid(*args, **kwargs):
            raise _GridReached

        for module in vars(runner).values():
            if not isinstance(module, ModuleType):
                continue
            if hasattr(module, "run_grid"):
                monkeypatch.setattr(module, "run_grid", record_grid)
            if hasattr(module, "run_timed_grid"):
                monkeypatch.setattr(module, "run_timed_grid", skip_timed_grid)
        for experiment_id in EXPERIMENTS:
            try:
                run_experiment(experiment_id, scale=TINY)
            except _GridReached:
                pass
        return specs

    def test_batched_accepts_every_paper_system(self, monkeypatch):
        pytest.importorskip("numpy")
        from dataclasses import replace

        from repro.sim import batched
        from repro.sim.driver import SimulationConfig
        from repro.workloads.generator import generate_program
        from repro.workloads.suites import BENCHMARKS

        specs = self._collect_specs(monkeypatch)
        assert any(spec.critic is not None for spec in specs)
        program = generate_program(replace(
            BENCHMARKS["gcc"], name="fallback-census",
            static_branch_target=60, n_functions=3,
        ))
        config = SimulationConfig(n_branches=200, warmup=0, backend="batched")
        for spec, label in specs.items():
            stats = batched.simulate_batched(program, spec.build(), config)
            assert stats.branches == config.n_branches, label
