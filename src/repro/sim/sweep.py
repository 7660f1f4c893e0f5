"""Parameter sweeps over (benchmark × system configuration).

Experiments in §7 are grids: prophets × critics × sizes × future bits ×
benchmarks. :func:`run_sweep` executes such a grid with fresh predictor
state per cell and returns a :class:`SweepResult` that experiment modules
turn into the paper's tables and series.

Execution and caching model
---------------------------

Cells are independent — each gets a freshly generated program and fresh
predictor tables — and deterministic in their description, so a sweep
can be decomposed into self-describing
:class:`~repro.sim.specs.SweepCell` tasks and handed to the
:class:`~repro.sim.execution.SweepEngine`:

* **Executor** — cells run either in-process
  (:class:`~repro.sim.execution.SerialExecutor`) or across a
  ``concurrent.futures`` process pool
  (:class:`~repro.sim.execution.ProcessPoolExecutor`, ``--jobs N`` on
  the CLI). The executor cannot change results, only the wall clock; the
  differential tests assert bit-for-bit equality between both paths.
* **Cache** — with a :class:`~repro.sim.cache.ResultCache` attached
  (``--cache-dir`` on the CLI), each cell is keyed by a SHA-256 over its
  content (system spec, resolved workload profile, simulation config,
  format version). Re-running an experiment only simulates cells whose
  content changed; everything else is served from disk, bit-for-bit
  identical to a fresh run.

Sweeps are described with :class:`~repro.sim.specs.SystemSpec` /
:class:`~repro.sim.specs.ProgramSpec` values, which is what makes both
possible. Specs reach every predictor in the registry at any geometry
and round-trip through JSON (``docs/CONFIG.md``); the CLI's ``sweep``
verb runs whole config-file grids this way.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim.driver import SimulationConfig
from repro.sim.metrics import RunStats
from repro.sim.specs import ProgramSpec, SweepCell, SystemSpec


@dataclass
class SweepResult:
    """Results of a sweep, indexed by (system label, benchmark name).

    ``failures`` holds cells the engine *quarantined* instead of running
    to completion (a cell that repeatedly killed pool workers, under a
    quarantining :class:`~repro.sim.execution.FailurePolicy`); every
    other cell's result is present and unaffected. Values are
    :class:`~repro.sim.execution.CellFailure` records.
    """

    runs: dict[tuple[str, str], RunStats] = field(default_factory=dict)
    failures: dict[tuple[str, str], object] = field(default_factory=dict)

    def add(self, system_label: str, bench_name: str, stats: RunStats) -> None:
        self.runs[(system_label, bench_name)] = stats

    def add_failure(self, system_label: str, bench_name: str, failure) -> None:
        self.failures[(system_label, bench_name)] = failure

    def get(self, system_label: str, bench_name: str) -> RunStats:
        try:
            return self.runs[(system_label, bench_name)]
        except KeyError:
            if (system_label, bench_name) in self.failures:
                failure = self.failures[(system_label, bench_name)]
                raise KeyError(
                    f"cell {system_label!r} × {bench_name!r} was quarantined "
                    f"instead of run: {getattr(failure, 'message', failure)}"
                ) from None
            raise KeyError(
                f"no run for system {system_label!r} on benchmark {bench_name!r}; "
                f"systems: {self.system_labels()}; benchmarks: {self.bench_names()}"
            ) from None

    def system_labels(self) -> list[str]:
        seen: dict[str, None] = {}
        for system_label, _ in self.runs:
            seen.setdefault(system_label)
        return list(seen)

    def bench_names(self) -> list[str]:
        seen: dict[str, None] = {}
        for _, bench in self.runs:
            seen.setdefault(bench)
        return list(seen)

    def average_misp_per_kuops(self, system_label: str) -> float:
        """Arithmetic mean of misp/Kuops across benchmarks (paper's AVG)."""
        values = [
            stats.misp_per_kuops
            for (label, _), stats in self.runs.items()
            if label == system_label
        ]
        if not values:
            return 0.0
        return sum(values) / len(values)

    def aggregate(self, system_label: str) -> RunStats:
        """Merge all benchmarks' counters for one system (pooled rates)."""
        merged = RunStats(system=system_label, benchmark="ALL")
        for (label, _), stats in self.runs.items():
            if label == system_label:
                merged.merge(stats)
        return merged


def run_sweep(
    systems: dict[str, SystemSpec],
    benchmarks: dict[str, ProgramSpec | str],
    config: SimulationConfig | None = None,
    engine=None,
    progress=None,
) -> SweepResult:
    """Run every system on every benchmark, fresh state per cell.

    The grid routes through the sweep engine (``engine``, or the
    process-wide default — see
    :func:`repro.sim.execution.get_default_engine`), which brings
    parallel execution, result caching and streaming per-cell
    ``progress`` callbacks. A system that is not a :class:`SystemSpec`,
    or a benchmark that is neither a :class:`ProgramSpec` nor a
    benchmark name, raises :class:`TypeError` naming its label before
    any cell runs.
    """
    for label, system in systems.items():
        if not isinstance(system, SystemSpec):
            raise TypeError(
                f"system {label!r} must be a SystemSpec, got {type(system).__name__}"
            )
    for name, program in benchmarks.items():
        if not isinstance(program, (ProgramSpec, str)):
            raise TypeError(
                f"benchmark {name!r} must be a ProgramSpec or a benchmark name, "
                f"got {type(program).__name__}"
            )
    from repro.sim.execution import get_default_engine

    config = config or SimulationConfig()
    cells = [
        SweepCell(
            system_label=system_label,
            bench_name=bench_name,
            system=system,
            program=ProgramSpec(benchmark=program) if isinstance(program, str) else program,
            config=config,
        )
        for bench_name, program in benchmarks.items()
        for system_label, system in systems.items()
    ]
    engine = engine if engine is not None else get_default_engine()
    return engine.run(cells, progress=progress)
