#!/usr/bin/env python3
"""Simulation-kernel throughput profiler.

Measures **branches per second** of :func:`repro.sim.driver.simulate` on
canonical (benchmark × system) cells — the repo's performance trajectory
for the innermost loop every experiment inherits. Emits a
machine-readable ``BENCH_kernel.json`` and can gate CI against a
checked-in floor.

Methodology (see docs/PERFORMANCE.md; repeats, identity and the floor
rule are shared with the other profilers through ``tools/profiling.py``):

* throughput = resolved branches / wall-clock of one ``simulate`` call
  (the batched kernel). The timed runs measure steady-state replay: an
  untimed run at the same branch count first compiles the CFG tables
  and populates the memoized architectural trace (the regime a sweep
  lives in, where one program is simulated across many systems). Each
  kernel is timed 3 times, interleaved with the others, and the fastest
  run counts; the row's ``timing`` also records each one's median and
  IQR;
* per-predictor ``PredictorStats`` accounting is off during timed runs
  (``collect_predictor_stats=False``), matching how sweeps run;
* ``--compare-reference`` times the frozen pre-optimization kernel
  (``tests/reference_kernel.py``) on the same cells in the same process,
  requires its result to equal the batched one as a whole, and reports
  the speedup ratio ``speedup_batched_vs_reference``. Ratios are much
  more stable across machines than absolute branches/sec, so the CI
  floor is expressed in ratios. On the cells marked ``timed`` it also
  times the Table-2 timing model, ``TimedMachine.run``, against its
  frozen loop (``tests/reference_timing.py``) at the same window, warm
  trace memo and replay context, and requires their two results to be
  equal;
* ``--check-floor FILE`` fails (exit 1) when a cell's speedup over the
  reference kernel or timing machine falls more than 25% below its
  floor value, or when a floored cell is not measured.

Usage::

    PYTHONPATH=src python tools/profile_kernel.py                # full panel
    PYTHONPATH=src python tools/profile_kernel.py --quick        # CI smoke
    PYTHONPATH=src python tools/profile_kernel.py --quick \\
        --compare-reference --check-floor benchmarks/BENCH_kernel_floor.json
"""

from __future__ import annotations

import profiling
from repro.pipeline.machine import TimedMachine
from repro.sim.driver import SimulationConfig, simulate
from repro.sim.specs import ProgramSpec, SystemSpec

#: The canonical cells. "headline" is the acceptance cell: the §1
#: comparison pair on gcc. The remaining cells cover a loop-dominated FP
#: benchmark and the random-heavy server benchmark so a regression that
#: only hits call-heavy or flush-heavy paths cannot hide. "timed" cells
#: also run the timing model of Figures 9 and 10.
CELLS: list[dict] = [
    {
        "id": "gcc/hybrid-8+8",
        "benchmark": "gcc",
        "system": SystemSpec.hybrid("2bc-gskew", 8, "tagged-gshare", 8, future_bits=8),
        "quick": True,
        "headline": True,
        "timed": True,
    },
    {
        "id": "gcc/2bc-gskew-16",
        "benchmark": "gcc",
        "system": SystemSpec.single("2bc-gskew", 16),
        "quick": True,
        "headline": True,
        "timed": True,
    },
    {
        "id": "flash/2bc-gskew-16",
        "benchmark": "flash",
        "system": SystemSpec.single("2bc-gskew", 16),
        "quick": True,
        "headline": True,
    },
    # Perceptron cells: the perceptron as prophet (figures 5 and 9) and
    # as an unfiltered critic (figure 6a), both on the batched kernel's
    # integer perceptron ops (the timing model's perceptron prophet too).
    {
        "id": "gcc/perceptron-8+tagged-8",
        "benchmark": "gcc",
        "system": SystemSpec.hybrid("perceptron", 8, "tagged-gshare", 8, future_bits=8),
        "quick": True,
        "headline": False,
        "timed": True,
    },
    {
        "id": "gcc/2bc-gskew-8+perceptron-8",
        "benchmark": "gcc",
        "system": SystemSpec.hybrid("2bc-gskew", 8, "perceptron", 8, future_bits=8),
        "quick": True,
        "headline": False,
    },
    # TAGE, the costliest prophet without a fused arm: the batched kernel
    # calls its predict_packed/update_packed. No floor yet.
    {
        "id": "gcc/tage-16",
        "benchmark": "gcc",
        "system": SystemSpec.single("tage", 16),
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

KEY = "cell"

#: Where to look when a kernel's result differs from its frozen reference.
_DIFFERENTIAL_TESTS = {
    "batched": "tests/sim/test_differential_kernel.py",
    "timed": "tests/pipeline/test_differential_timing.py",
}


def _reference_run(program, system, config):
    from reference_kernel import reference_simulate

    # The frozen kernel predates the stats switch; disable by hand so
    # both kernels do identical accounting work.
    system.set_stats_enabled(False)
    return reference_simulate(program, system, config)


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

    # Untimed run at the full branch count: compiles the flat CFG tables
    # and populates the memoized architectural trace, so the timed runs
    # below measure steady-state replay (the sweep regime: one program,
    # many systems).
    simulate(program, cell["system"].build(), config)
    runs = {"batched": lambda system: simulate(program, system, config)}
    if compare_reference:
        runs["reference"] = lambda system: _reference_run(program, system, config)
        if cell.get("timed"):
            from reference_timing import ReferenceTimedMachine

            def timed(machine_type):
                return lambda system: machine_type(program, system).run(
                    n_branches, warmup_branches
                )

            # Untimed: fills the replay context (flat CFG table, stall
            # column), as a figure's earlier cells on the program do.
            timed(TimedMachine)(cell["system"].build())
            runs["timed"] = timed(TimedMachine)
            runs["timed_reference"] = timed(ReferenceTimedMachine)

    timing, results = profiling.repeat(runs, setup=cell["system"].build)
    for kernel, oracle in (("batched", "reference"), ("timed", "timed_reference")):
        if oracle in results:
            profiling.assert_identical(
                f"{cell['id']} {kernel} vs {oracle}", [results[kernel]],
                [results[oracle]], _DIFFERENTIAL_TESTS[kernel],
            )

    best = {kernel: spread["best"] for kernel, spread in timing.items()}
    row = {
        "cell": cell["id"],
        "benchmark": cell["benchmark"],
        "headline": cell["headline"],
        "branches": n_branches,
        "seconds": round(best["batched"], 4),
        "branches_per_sec": round(n_branches / best["batched"], 1),
        "mispredicts": results["batched"].mispredicts,
    }
    if "reference" in best:
        row["reference_branches_per_sec"] = round(n_branches / best["reference"], 1)
        row["speedup_batched_vs_reference"] = round(
            best["reference"] / best["batched"], 3
        )
    if "timed" in best:
        row["timed_branches_per_sec"] = round(n_branches / best["timed"], 1)
        row["speedup_timing_vs_reference"] = round(
            best["timed_reference"] / best["timed"], 3
        )
    row["timing"] = {
        kernel: {stat: round(value, 4) for stat, value in spread.items()}
        for kernel, spread in timing.items()
    }
    return row


def measure(args) -> tuple[dict, list[dict]]:
    n_branches = args.branches or (20_000 if args.quick else 50_000)
    warmup_branches = max(500, n_branches // 10)
    compare = args.compare_reference or args.check_floor is not None
    rows = []
    for cell in CELLS:
        if cell["quick"] or not args.quick:
            rows.append(measure_cell(cell, n_branches, warmup_branches, compare))
            profiling.show(
                rows[-1], KEY, "branches_per_sec", "speedup_batched_vs_reference",
                "speedup_timing_vs_reference",
            )
    return {"branches_per_run": n_branches, "quick": args.quick}, rows


def _options(parser) -> None:
    parser.add_argument(
        "--quick", action="store_true",
        help="the quick cells (headline, perceptron and TAGE cells) at a CI-sized "
        "branch count",
    )
    parser.add_argument(
        "--branches", type=int, default=None,
        help="branches per timed run (default: 50000, quick: 20000)",
    )
    parser.add_argument(
        "--compare-reference", action="store_true",
        help="also time the frozen pre-optimization kernel and timing machine "
        "and report speedups",
    )


if __name__ == "__main__":
    raise SystemExit(profiling.main(
        "kernel", __doc__, measure, schema="bench-kernel/3", key=KEY,
        options=_options,
    ))
