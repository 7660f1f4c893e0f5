"""Shared experiment scaffolding: result container, system specs, grid runners.

Experiments describe their grids as :class:`~repro.sim.specs.SystemSpec`
× benchmark-name cells and hand them to :func:`run_grid` /
:func:`run_timed_grid`, which route through the process-wide sweep
engine — so ``--jobs`` and ``--cache-dir`` on the CLI parallelise and
cache every experiment without touching its code.

:func:`single_spec` / :func:`hybrid_spec` cover the paper's Table-3
budget vocabulary; :func:`system_spec` opens the whole predictor
registry (any kind, any geometry, config-dict spellings included — see
``docs/CONFIG.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from repro.pipeline.machine import PipelineResult
from repro.sim.driver import SimulationConfig
from repro.sim.execution import SweepEngine, get_default_engine
from repro.sim.results import format_table, render_series
from repro.sim.specs import (
    MODE_TIMING,
    PredictorSpec,
    ProgramSpec,
    SweepCell,
    SystemSpec,
)
from repro.sim.sweep import SweepResult, run_sweep

#: Default measurement window at scale 1.0 — small enough for a laptop
#: bench run; multiply with REPRO_SCALE (e.g. 8-20) for runs closer to
#: the paper's 30M-instruction traces.
BASE_BRANCHES = 16_000
BASE_WARMUP = 4_000


def scaled_config(scale: float = 1.0, **overrides) -> SimulationConfig:
    """A :class:`SimulationConfig` whose window scales linearly."""
    if scale <= 0:
        raise ValueError("scale must be positive")
    config = SimulationConfig(
        n_branches=max(2_000, int(BASE_BRANCHES * scale)),
        warmup=max(500, int(BASE_WARMUP * scale)),
    )
    for key, value in overrides.items():
        setattr(config, key, value)
    return config


def single_spec(kind: str, budget_kb: int) -> SystemSpec:
    """Spec for a prophet-alone baseline at a Table-3 budget."""
    return SystemSpec.single(kind, budget_kb)


def hybrid_spec(
    prophet_kind: str,
    prophet_kb: int,
    critic_kind: str,
    critic_kb: int,
    future_bits: int,
    insert_on: str = "final",
) -> SystemSpec:
    """Spec for a prophet/critic hybrid at Table-3 budgets."""
    return SystemSpec.hybrid(
        prophet_kind, prophet_kb, critic_kind, critic_kb, future_bits, insert_on
    )


def system_spec(
    prophet,
    critic=None,
    future_bits: int = 0,
    insert_on: str = "final",
) -> SystemSpec:
    """Spec for any registered predictor composition.

    ``prophet`` and ``critic`` accept everything
    :meth:`~repro.sim.specs.PredictorSpec.from_config` does: a
    :class:`~repro.sim.specs.PredictorSpec`, a bare kind string (schema
    defaults), a ``(kind, budget_kb)`` pair, or a config mapping with
    explicit geometry params. With no critic the system is a single
    prophet; with one it is a prophet/critic hybrid.
    """
    if critic is None:
        return SystemSpec(kind="single", prophet=PredictorSpec.from_config(prophet))
    return SystemSpec(
        kind="hybrid",
        prophet=PredictorSpec.from_config(prophet),
        critic=PredictorSpec.from_config(critic),
        future_bits=future_bits,
        insert_on=insert_on,
    )


def run_grid(
    systems: Mapping[str, SystemSpec],
    benchmarks: Sequence[str],
    config: SimulationConfig,
    engine: SweepEngine | None = None,
    progress: Callable | None = None,
) -> SweepResult:
    """Run a (system × benchmark) accuracy grid through the sweep engine.

    Cells fan out across the engine's executor (``--jobs``; the worker
    pool persists across grids, so consecutive experiments share warm
    workers and memoized program builds) and hit its result cache
    (``--cache-dir``) when one is attached; the defaults reproduce the
    original serial in-process loop exactly. ``progress`` (or the
    engine's own ``progress`` attribute, which the CLI's ``--progress``
    installs) is called per finished cell as cells stream in.
    """
    return run_sweep(
        systems, {name: name for name in benchmarks}, config, engine,
        progress=progress,
    )


def run_timed_grid(
    systems: Mapping[str, SystemSpec],
    benchmarks: Sequence[str],
    n_branches: int,
    warmup: int,
    engine: SweepEngine | None = None,
    progress: Callable | None = None,
) -> dict[tuple[str, str], PipelineResult]:
    """Run a (system × benchmark) Table-2 timing grid through the engine.

    Returns results keyed by (system label, benchmark name). Same
    parallelism, caching and progress behaviour as :func:`run_grid`.
    """
    engine = engine if engine is not None else get_default_engine()
    config = SimulationConfig(n_branches=n_branches, warmup=warmup)
    cells = [
        SweepCell(
            system_label=label,
            bench_name=name,
            system=spec,
            program=ProgramSpec(benchmark=name),
            config=config,
            mode=MODE_TIMING,
        )
        for name in benchmarks
        for label, spec in systems.items()
    ]
    results = engine.run_cells(cells, progress=progress)
    return {
        (cell.system_label, cell.bench_name): result
        for cell, result in zip(cells, results)
    }


@dataclass
class ExperimentResult:
    """One reproduced table or figure, renderable as text."""

    experiment_id: str
    title: str
    headers: list[str] = field(default_factory=list)
    rows: list[list] = field(default_factory=list)
    #: Figure series: name -> (xs, ys).
    series: dict[str, tuple[list, list[float]]] = field(default_factory=dict)
    notes: str = ""

    def render(self) -> str:
        """The text the bench target prints: the paper's rows/series."""
        parts: list[str] = [f"== {self.experiment_id}: {self.title} =="]
        if self.rows:
            parts.append(format_table(self.headers, self.rows))
        for name, (xs, ys) in self.series.items():
            parts.append(render_series(name, xs, ys))
        if self.notes:
            parts.append(f"note: {self.notes}")
        return "\n".join(parts)

    def series_values(self, name: str) -> list[float]:
        return list(self.series[name][1])

    def column(self, header: str) -> list:
        index = self.headers.index(header)
        return [row[index] for row in self.rows]


def average_series(all_series: Sequence[Sequence[float]]) -> list[float]:
    """Pointwise arithmetic mean of equal-length series (the AVG line)."""
    if not all_series:
        return []
    length = len(all_series[0])
    if any(len(s) != length for s in all_series):
        raise ValueError("series lengths differ")
    return [sum(s[i] for s in all_series) / len(all_series) for i in range(length)]
