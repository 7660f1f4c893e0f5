#!/usr/bin/env python3
"""Sweep-throughput profiler: cells/sec through the execution engine.

Where ``tools/profile_kernel.py`` tracks the speed of one ``simulate()``
call, this tool tracks the speed of the **sweep execution layer** — the
persistent worker pool, per-worker memoized program builds, dynamic
scheduling and streaming cache write-back that every §7-style grid runs
through. It emits a machine-readable ``BENCH_sweep.json`` and can gate
CI against a checked-in floor.

Canonical grids (12 systems × 4 build-heavy benchmarks, 1 000-branch
cells). Short cells are deliberate: they are the regime where the
execution layer — not the simulation kernel — is the bottleneck, which
makes this grid the most sensitive instrument for layer regressions.
The kernel's own speed on long cells is tracked separately by
``profile_kernel.py``; ``--branches`` rescales the cells when the
interaction matters.

* ``cold-start/12x4`` — a fresh engine's first grid: includes worker
  spawn and every program build. No result cache.
* ``steady/12x4`` — the same grid re-run on the now-warm engine (pool
  up, per-worker build caches hot). The result cache stays **off**, so
  every cell is fully re-simulated: this is the steady-state throughput
  of a long sweep, and the headline floor cell. The same
  warm-up-then-measure protocol as the kernel bench.
* ``warm-cache/12x4`` — the grid served entirely from a pre-filled
  :class:`~repro.sim.cache.ResultCache` (the resume-after-kill path).
* ``dup-heavy/4x12`` — 4 distinct cells under 12 labels each: the
  duplicate-coalescing path (cache-codec clone vs the old deepcopy).
* ``fused/12x1`` — the twelve systems replayed over one gcc build
  through :func:`repro.sim.batched.simulate_batched` with one shared
  replay context (shared trace columns and per-program precompute)
  against the same panel through the scalar loop, at longer cells where
  fusion matters; whole-result identity asserted per cell.

``--compare-reference`` runs the frozen pre-overhaul engine
(``tests/reference_engine.py``) on identical grids with the same
protocol and reports the speedup ratio; ratios are far more stable
across machines than absolute cells/sec, so the CI floor
(``--check-floor``, ``benchmarks/BENCH_sweep_floor.json``) is expressed
in ratios and fails on a >25% regression.

Usage::

    PYTHONPATH=src python tools/profile_sweep.py                  # measure
    PYTHONPATH=src python tools/profile_sweep.py \\
        --compare-reference --check-floor benchmarks/BENCH_sweep_floor.json
"""

from __future__ import annotations

import copy
import tempfile
from dataclasses import replace

import profiling
from repro.sim.cache import ResultCache, clone_result
from repro.sim.driver import SimulationConfig
from repro.sim.execution import ProcessPoolExecutor, SweepEngine, run_cell
from repro.sim.specs import PredictorSpec, ProgramSpec, SweepCell, SystemSpec

KEY = "grid"

#: Build-heavy benchmark panel: large CFGs across integer, web-server
#: and Windows-application behaviour mixes, so the build-vs-simulate
#: ratio matches the paper's heavyweight traces rather than the small
#: FP loops.
BENCHMARKS = ("gcc", "webmark", "msvc7", "specjbb")

#: Twelve systems spanning the registry: Table-3 singles at two budgets,
#: default-geometry kinds, and three prophet/critic hybrids.
SYSTEMS: tuple[SystemSpec, ...] = (
    SystemSpec.single("gshare", 8),
    SystemSpec.single("gshare", 4),
    SystemSpec.single("2bc-gskew", 8),
    SystemSpec.single("2bc-gskew", 16),
    SystemSpec.single("perceptron", 4),
    SystemSpec.single("tage", 8),
    SystemSpec(kind="single", prophet=PredictorSpec("bimodal")),
    SystemSpec(kind="single", prophet=PredictorSpec("yags")),
    SystemSpec(kind="single", prophet=PredictorSpec("local")),
    SystemSpec.hybrid("2bc-gskew", 8, "tagged-gshare", 8, future_bits=8),
    SystemSpec.hybrid("gshare", 8, "tagged-gshare", 8, future_bits=4),
    SystemSpec.hybrid("2bc-gskew", 8, "gshare", 2, future_bits=1),
)


def grid_cells(branches: int) -> list[SweepCell]:
    """The canonical 12-system × 4-benchmark accuracy grid."""
    config = SimulationConfig(n_branches=branches, warmup=branches // 5)
    return [
        SweepCell(f"sys{i}", bench, system, ProgramSpec(benchmark=bench), config)
        for bench in BENCHMARKS
        for i, system in enumerate(SYSTEMS)
    ]


def duplicate_cells(branches: int) -> list[SweepCell]:
    """4 distinct cells × 12 labels each (the duplicate-coalescing path)."""
    config = SimulationConfig(n_branches=branches, warmup=branches // 5)
    return [
        SweepCell(f"label{i}", bench, SYSTEMS[0], ProgramSpec(benchmark=bench), config)
        for bench in BENCHMARKS
        for i in range(len(SYSTEMS))
    ]


def _reference_engine(jobs: int, cache: ResultCache | None = None):
    from reference_engine import (
        ReferenceProcessPoolExecutor,
        ReferenceSerialExecutor,
        ReferenceSweepEngine,
    )

    executor = (
        ReferenceSerialExecutor() if jobs <= 1 else ReferenceProcessPoolExecutor(jobs)
    )
    return ReferenceSweepEngine(executor=executor, cache=cache)


def _grid_row(grid: str, cells: list, engine, reference, times: int) -> dict:
    """Time ``engine`` (and ``reference``, when given) on ``cells``."""
    runs = {"engine": lambda: engine.run_cells(cells)}
    if reference is not None:
        runs["reference"] = lambda: reference.run_cells(cells)
    timing, results = profiling.repeat(runs, times)
    elapsed = timing["engine"]["best"]
    row = {
        "grid": grid,
        "cells": len(cells),
        "seconds": round(elapsed, 4),
        "cells_per_sec": round(len(cells) / elapsed, 2),
    }
    if reference is not None:
        profiling.assert_identical(
            f"{grid} engine vs reference", results["engine"], results["reference"],
            "tests/sim/test_execution.py",
        )
        ref_elapsed = timing["reference"]["best"]
        row["reference_cells_per_sec"] = round(len(cells) / ref_elapsed, 2)
        row["speedup_vs_reference"] = round(ref_elapsed / elapsed, 3)
    profiling.show(row, KEY, "cells_per_sec", "speedup_vs_reference")
    return row


def measure_grids(jobs: int, branches: int, compare_reference: bool) -> list[dict]:
    """Measure every canonical grid; returns BENCH_sweep.json rows.

    Cold-start and steady are single runs (the first is cold by
    definition); the short warm-cache and dup-heavy grids are
    jitter-bound, so they report the best of 3.
    """
    cells = grid_cells(branches)
    engine = SweepEngine(executor=ProcessPoolExecutor(jobs))
    reference = _reference_engine(jobs) if compare_reference else None
    try:
        # cold start: first-ever grid on a fresh engine (spawn + builds);
        # steady state: the same grid on the now-warm engine, with the
        # result cache off, so all cells are fully re-simulated.
        rows = [
            _grid_row("cold-start/12x4", cells, engine, reference, 1),
            _grid_row("steady/12x4", cells, engine, reference, 1),
        ]

        # warm result cache: every cell served from disk.
        with (
            tempfile.TemporaryDirectory(prefix="bench-sweep-") as cache_dir,
            tempfile.TemporaryDirectory(prefix="bench-sweep-ref-") as ref_dir,
        ):
            cached = SweepEngine(executor=engine.executor, cache=ResultCache(cache_dir))
            cached.run_cells(cells)  # untimed fill
            ref_cached = None
            if compare_reference:
                ref_cached = _reference_engine(jobs, cache=ResultCache(ref_dir))
                ref_cached.run_cells(cells)
            rows.append(_grid_row("warm-cache/12x4", cells, cached, ref_cached, 3))

        # duplicate-heavy: 4 unique cells, 44 clones (serial executor —
        # the point is the stamping path, not the pool).
        rows.append(_grid_row(
            "dup-heavy/4x12", duplicate_cells(branches), SweepEngine(),
            _reference_engine(1) if compare_reference else None, 3,
        ))
    finally:
        engine.close()
    return rows


def measure_fused(branches: int) -> dict:
    """The fused same-program scenario: K systems down one shared trace.

    Replays every system of :data:`SYSTEMS` over a single gcc build
    through :func:`repro.sim.batched.simulate_batched` with one shared
    replay context (per-program precompute — trace columns, flat CFG,
    pc-derived rows — paid once for the whole panel) and compares
    against the same panel run
    cell-by-cell through the scalar loop. Whole-result identity is
    asserted per cell; longer cells than the grid scenarios are used
    because fusion amortizes per-program cost that short cells
    under-weight.
    """
    from repro.sim.batched import FusedReplayContext, simulate_batched
    from repro.sim.driver import simulate

    n = max(4 * branches, 4_000)
    config = SimulationConfig(
        n_branches=n, warmup=n // 5, collect_predictor_stats=False
    )
    scalar_config = replace(config, backend="scalar")
    program = ProgramSpec(benchmark="gcc").build()
    shared = FusedReplayContext()
    # Untimed warm-up run: builds the architectural trace and the shared
    # per-program columns (steady-state sweep regime, as in the kernel
    # bench), plus CFG compilation for the scalar side.
    simulate_batched(program, SYSTEMS[0].build(), config, shared)
    simulate(program, SYSTEMS[0].build(), scalar_config)

    grid = f"fused/{len(SYSTEMS)}x1"
    timing, results = profiling.repeat({
        "fused": lambda: [
            simulate_batched(program, s.build(), config, shared) for s in SYSTEMS
        ],
        "scalar": lambda: [
            simulate(program, s.build(), scalar_config) for s in SYSTEMS
        ],
    }, times=1)
    profiling.assert_identical(
        f"{grid} fused vs scalar", results["fused"], results["scalar"],
        "tests/sim/test_differential_kernel.py",
    )
    fused_elapsed, scalar_elapsed = timing["fused"]["best"], timing["scalar"]["best"]
    row = {
        "grid": grid,
        "cells": len(SYSTEMS),
        "branches_per_cell": n,
        "seconds": round(fused_elapsed, 4),
        "cells_per_sec": round(len(SYSTEMS) / fused_elapsed, 2),
        "scalar_cells_per_sec": round(len(SYSTEMS) / scalar_elapsed, 2),
        "speedup_fused_vs_scalar": round(scalar_elapsed / fused_elapsed, 3),
    }
    profiling.show(row, KEY, "cells_per_sec", "speedup_fused_vs_scalar")
    return row


def measure_duplicate_stamp(branches: int, iterations: int = 2_000) -> dict:
    """Micro-benchmark the duplicate-stamping path: codec clone vs deepcopy.

    Reports the median of ``iterations`` interleaved single copies.
    """
    stats = run_cell(grid_cells(branches)[0])
    timing, _ = profiling.repeat({
        "clone": lambda: clone_result(stats),
        "deepcopy": lambda: copy.deepcopy(stats),
    }, times=iterations)
    clone_us = timing["clone"]["median"] * 1e6
    deepcopy_us = timing["deepcopy"]["median"] * 1e6
    stamp = {
        "clone_us": round(clone_us, 2),
        "deepcopy_us": round(deepcopy_us, 2),
        "speedup_vs_deepcopy": round(deepcopy_us / clone_us, 2),
    }
    print(f"duplicate stamp: {stamp}")
    return stamp


def measure(args) -> tuple[dict, list[dict]]:
    compare = args.compare_reference or args.check_floor is not None
    rows = measure_grids(args.jobs, args.branches, compare)
    return {
        "jobs": args.jobs,
        "branches_per_cell": args.branches,
        "fused": measure_fused(args.branches),
        "duplicate_stamp": measure_duplicate_stamp(args.branches),
    }, rows


def _options(parser) -> None:
    parser.add_argument(
        "--jobs", type=int, default=4,
        help="worker processes for the pooled grids (default 4, the floor's "
             "canonical setting)",
    )
    parser.add_argument(
        "--branches", type=int, default=1_000,
        help="branches per cell (default 1000: short cells expose the "
             "execution layer, long cells the kernel)",
    )
    parser.add_argument(
        "--compare-reference", action="store_true",
        help="also run the frozen pre-overhaul engine and report speedups",
    )


if __name__ == "__main__":
    raise SystemExit(profiling.main(
        "sweep", __doc__, measure, schema="bench-sweep/2", key=KEY,
        options=_options,
    ))
