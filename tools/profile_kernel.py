#!/usr/bin/env python3
"""Simulation-kernel throughput profiler.

Measures **branches per second** of :func:`repro.sim.driver.simulate` on
canonical (benchmark × system) cells — the repo's performance trajectory
for the innermost loop every experiment inherits. Emits a
machine-readable ``BENCH_kernel.json`` and can gate CI against a
checked-in floor.

Methodology (see docs/PERFORMANCE.md):

* throughput = resolved branches / wall-clock of one ``simulate`` call,
  after a separate untimed warm-up run has compiled the CFG transition
  tables and settled allocator state. Each backend is timed 3 times,
  interleaved with the other backends, and the fastest run counts;
* per-predictor ``PredictorStats`` accounting is off during timed runs
  (``collect_predictor_stats=False``), matching how sweeps run;
* every cell is additionally run through the batched structure-of-arrays
  backend (``SimulationConfig.backend = "batched"``) and reported as a
  third column with its speedup over the scalar backend. The timed
  batched run measures steady-state replay: an untimed batched run at
  the same branch count first populates the memoized architectural
  trace (the regime a sweep lives in, where one program is simulated
  across many systems). The batched and the reference ``RunStats``
  must each equal the scalar one as a whole (every counter, the
  critique census, the per-site rows);
* ``--compare-reference`` times the frozen pre-optimization kernel
  (``tests/reference_kernel.py``) on the same cells in the same process
  and reports the speedup ratio. Ratios are much more stable across
  machines than absolute branches/sec, so the CI floor is expressed in
  ratios;
* ``--check-floor FILE`` fails (exit 1) when a cell's speedup — over the
  reference kernel or of the batched backend over scalar — falls more
  than 25% below its floor value.

Usage::

    PYTHONPATH=src python tools/profile_kernel.py                # full panel
    PYTHONPATH=src python tools/profile_kernel.py --quick        # CI smoke
    PYTHONPATH=src python tools/profile_kernel.py --quick \\
        --compare-reference --check-floor benchmarks/BENCH_kernel_floor.json
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from dataclasses import replace
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "tests"))  # frozen reference kernel

from repro.sim.driver import SimulationConfig, simulate  # noqa: E402
from repro.sim.specs import ProgramSpec, SystemSpec  # noqa: E402

#: The canonical cells. "headline" is the acceptance cell: the §1
#: comparison pair on gcc. The remaining cells cover a loop-dominated FP
#: benchmark and the random-heavy server benchmark so a regression that
#: only hits call-heavy or flush-heavy paths cannot hide.
CELLS: list[dict] = [
    {
        "id": "gcc/hybrid-8+8",
        "benchmark": "gcc",
        "system": SystemSpec.hybrid("2bc-gskew", 8, "tagged-gshare", 8, future_bits=8),
        "quick": True,
        "headline": True,
    },
    {
        "id": "gcc/2bc-gskew-16",
        "benchmark": "gcc",
        "system": SystemSpec.single("2bc-gskew", 16),
        "quick": True,
        "headline": True,
    },
    {
        "id": "flash/2bc-gskew-16",
        "benchmark": "flash",
        "system": SystemSpec.single("2bc-gskew", 16),
        "quick": True,
        "headline": True,
    },
    # Perceptron cells: the perceptron as prophet (figure 5) and as an
    # unfiltered critic (figure 6a), both on the batched kernel's
    # integer perceptron ops.
    {
        "id": "gcc/perceptron-8+tagged-8",
        "benchmark": "gcc",
        "system": SystemSpec.hybrid("perceptron", 8, "tagged-gshare", 8, future_bits=8),
        "quick": True,
        "headline": False,
    },
    {
        "id": "gcc/2bc-gskew-8+perceptron-8",
        "benchmark": "gcc",
        "system": SystemSpec.hybrid("2bc-gskew", 8, "perceptron", 8, future_bits=8),
        "quick": True,
        "headline": False,
    },
    {
        "id": "facerec/hybrid-8+8",
        "benchmark": "facerec",
        "system": SystemSpec.hybrid("2bc-gskew", 8, "tagged-gshare", 8, future_bits=8),
        "quick": False,
        "headline": False,
    },
    {
        "id": "tpcc/hybrid-8+8",
        "benchmark": "tpcc",
        "system": SystemSpec.hybrid("2bc-gskew", 8, "tagged-gshare", 8, future_bits=8),
        "quick": False,
        "headline": False,
    },
]


#: Timed repeats per backend, interleaved across backends. Each column
#: reports the fastest, so one noisy run cannot fail a floor check.
REPEATS = 3

#: Where to look when a backend's RunStats differ from the scalar loop's.
_DIFFERENTIAL_TESTS = {
    "batched": "tests/sim/test_batched_backend.py",
    "reference": "tests/sim/test_differential_kernel.py",
}


def _time_run(simulate_fn, program, system, config) -> tuple[float, object]:
    start = time.perf_counter()
    stats = simulate_fn(program, system, config)
    return time.perf_counter() - start, stats


def _reference_run(program, system, config):
    from reference_kernel import reference_simulate

    # The frozen kernel predates the stats switch; disable by hand so
    # both kernels do identical accounting work.
    system.set_stats_enabled(False)
    return reference_simulate(program, system, config)


def _assert_same_result(cell_id: str, backend: str, stats, scalar) -> None:
    """The whole ``RunStats`` -- every counter, the critique census and
    the per-site rows -- must equal the scalar loop's."""
    if stats != scalar:
        raise AssertionError(
            f"{cell_id}: {backend} and scalar RunStats differ — run the "
            f"differential tests ({_DIFFERENTIAL_TESTS[backend]})"
        )


def measure_cell(
    cell: dict,
    n_branches: int,
    warmup_branches: int,
    compare_reference: bool,
) -> dict:
    """Measure one cell; returns the result row for BENCH_kernel.json."""
    config = SimulationConfig(
        n_branches=n_branches,
        warmup=warmup_branches,
        collect_predictor_stats=False,
    )
    program = ProgramSpec(benchmark=cell["benchmark"]).build()

    # Untimed warm-up: compiles CFG segments, touches every table once.
    warm_cfg = SimulationConfig(
        n_branches=max(2_000, n_branches // 10),
        warmup=200,
        collect_predictor_stats=False,
    )
    simulate(program, cell["system"].build(), warm_cfg)

    runs = {"scalar": (simulate, config)}

    from repro.sim import batched as _batched

    if _batched.np is not None:
        batched_cfg = replace(config, backend="batched")
        # Untimed batched run at the full branch count: populates the
        # memoized architectural trace and the flat CFG tables, so the
        # timed runs below measure steady-state replay (the sweep
        # regime: one program, many systems).
        simulate(program, cell["system"].build(), batched_cfg)
        runs["batched"] = (simulate, batched_cfg)
    if compare_reference:
        runs["reference"] = (_reference_run, config)

    best = dict.fromkeys(runs, float("inf"))
    results = {}
    for _ in range(REPEATS):
        for backend, (simulate_fn, run_cfg) in runs.items():
            elapsed, results[backend] = _time_run(
                simulate_fn, program, cell["system"].build(), run_cfg
            )
            best[backend] = min(best[backend], elapsed)
    for backend in runs:
        if backend != "scalar":
            _assert_same_result(
                cell["id"], backend, results[backend], results["scalar"]
            )

    elapsed = best["scalar"]
    row = {
        "cell": cell["id"],
        "benchmark": cell["benchmark"],
        "headline": cell["headline"],
        "branches": n_branches,
        "seconds": round(elapsed, 4),
        "branches_per_sec": round(n_branches / elapsed, 1),
        "mispredicts": results["scalar"].mispredicts,
    }
    if "batched" in best:
        row["batched_branches_per_sec"] = round(n_branches / best["batched"], 1)
        row["speedup_batched_vs_scalar"] = round(elapsed / best["batched"], 3)
    if "reference" in best:
        row["reference_branches_per_sec"] = round(n_branches / best["reference"], 1)
        row["speedup_vs_reference"] = round(best["reference"] / elapsed, 3)
    return row


def check_floor(rows: list[dict], floor_path: Path) -> list[str]:
    """Return failure messages for cells regressing >25% below the floor."""
    floors = json.loads(floor_path.read_text())
    tolerance = floors.get("tolerance", 0.75)
    failures = []
    for row in rows:
        floor = floors.get("min_speedup_vs_reference", {}).get(row["cell"])
        if floor is not None:
            measured = row.get("speedup_vs_reference")
            if measured is None:
                failures.append(
                    f"{row['cell']}: floor set but --compare-reference not run"
                )
            elif measured < floor * tolerance:
                failures.append(
                    f"{row['cell']}: speedup {measured:.2f}x fell below "
                    f"{floor * tolerance:.2f}x (floor {floor:.2f}x, "
                    f"tolerance {tolerance:.0%})"
                )
        floor = floors.get("min_speedup_batched_vs_scalar", {}).get(row["cell"])
        if floor is not None:
            measured = row.get("speedup_batched_vs_scalar")
            if measured is None:
                # numpy absent: the batched column legitimately cannot
                # run, so the batched floor is waived rather than failed.
                from repro.sim import batched as _batched

                if _batched.np is not None:
                    failures.append(
                        f"{row['cell']}: batched floor set but batched "
                        "column missing"
                    )
            elif measured < floor * tolerance:
                failures.append(
                    f"{row['cell']}: batched speedup {measured:.2f}x fell "
                    f"below {floor * tolerance:.2f}x (floor {floor:.2f}x, "
                    f"tolerance {tolerance:.0%})"
                )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="the quick cells (headline and perceptron cells) at a CI-sized branch count",
    )
    parser.add_argument(
        "--branches", type=int, default=None,
        help="branches per timed run (default: 50000, quick: 20000)",
    )
    parser.add_argument(
        "--compare-reference", action="store_true",
        help="also time the frozen pre-optimization kernel and report speedups",
    )
    parser.add_argument(
        "--check-floor", type=Path, default=None,
        help="floor JSON; exit 1 on >25%% regression vs min_speedup_vs_reference",
    )
    parser.add_argument(
        "--json", type=Path, default=REPO_ROOT / "benchmarks" / "BENCH_kernel.json",
        help="output path for the machine-readable result (default: %(default)s)",
    )
    parser.add_argument(
        "--max-seconds", type=float, default=None,
        help="wall-clock budget for the whole profiling run; exit 1 when "
             "exceeded (CI uses this so the perf-smoke job cannot "
             "silently balloon as cells are added)",
    )
    args = parser.parse_args(argv)
    run_start = time.perf_counter()

    n_branches = args.branches or (20_000 if args.quick else 50_000)
    warmup_branches = max(500, n_branches // 10)
    compare = args.compare_reference or args.check_floor is not None

    cells = [c for c in CELLS if c["quick"]] if args.quick else CELLS
    rows = []
    for cell in cells:
        row = measure_cell(cell, n_branches, warmup_branches, compare)
        rows.append(row)
        line = f"{row['cell']:24s} {row['branches_per_sec']:>12,.0f} branches/s"
        if "speedup_batched_vs_scalar" in row:
            line += (
                f"   (batched {row['batched_branches_per_sec']:>10,.0f} b/s,"
                f" {row['speedup_batched_vs_scalar']:.2f}x)"
            )
        if "speedup_vs_reference" in row:
            line += (
                f"   (reference {row['reference_branches_per_sec']:>10,.0f} b/s,"
                f" {row['speedup_vs_reference']:.2f}x)"
            )
        print(line)

    wall_seconds = time.perf_counter() - run_start
    payload = {
        "schema": "bench-kernel/1",
        "branches_per_run": n_branches,
        "quick": args.quick,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "wall_seconds": round(wall_seconds, 2),
        "cells": rows,
    }
    args.json.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.json}")

    status = 0
    if args.check_floor is not None:
        failures = check_floor(rows, args.check_floor)
        if failures:
            for failure in failures:
                print(f"FLOOR REGRESSION: {failure}", file=sys.stderr)
            status = 1
        else:
            print(f"floor check passed ({args.check_floor})")
    if args.max_seconds is not None:
        wall_seconds = time.perf_counter() - run_start
        if wall_seconds > args.max_seconds:
            print(
                f"WALL-CLOCK BUDGET EXCEEDED: profiling took "
                f"{wall_seconds:.1f}s, budget is {args.max_seconds:.1f}s",
                file=sys.stderr,
            )
            status = 1
        else:
            print(
                f"wall-clock budget ok ({wall_seconds:.1f}s of "
                f"{args.max_seconds:.1f}s)"
            )
    return status


if __name__ == "__main__":
    raise SystemExit(main())
