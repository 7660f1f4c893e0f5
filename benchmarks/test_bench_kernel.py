"""Kernel-throughput bench: branches/sec of the simulation hot path.

Unlike the figure/table benches (which regenerate the paper's results),
this bench tracks the **simulator's own speed** on the canonical
headline cells — the first perf trajectory of the repo. The same cells,
methodology and JSON schema are available standalone via
``tools/profile_kernel.py``; CI runs that script with ``--quick`` and
gates on ``benchmarks/BENCH_kernel_floor.json``.

``REPRO_SCALE`` scales the simulated branch count as in every other
bench (via the session-scoped ``scale`` fixture).

Each bench times the batched kernel with the memoized architectural
trace warm (an untimed run precedes the timed one), as
``tools/profile_kernel.py`` does; bit-identity with the frozen reference
kernel (``tests/reference_kernel.py``) is asserted on every run.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))


def _throughput_cell(benchmark, system_spec, bench_name: str, scale: float):
    from reference_kernel import reference_simulate
    from repro.sim.driver import SimulationConfig, simulate
    from repro.sim.specs import ProgramSpec

    n_branches = max(4_000, int(20_000 * scale))
    config = SimulationConfig(
        n_branches=n_branches,
        warmup=max(400, n_branches // 10),
        collect_predictor_stats=False,
    )
    program = ProgramSpec(benchmark=bench_name).build()
    # Steady-state methodology: compile the CFG tables and populate the
    # memoized architectural trace so the timed run measures replay, not
    # the executor walk.
    simulate(program, system_spec.build(), config)

    stats = benchmark.pedantic(
        lambda: simulate(program, system_spec.build(), config),
        rounds=1,
        iterations=1,
    )
    elapsed = benchmark.stats.stats.mean
    rate = n_branches / elapsed
    print(f"\n{bench_name} [batched]: {rate:,.0f} branches/sec ({n_branches} branches)")
    benchmark.extra_info["branches"] = n_branches
    benchmark.extra_info["branches_per_sec"] = round(rate, 1)
    assert stats.branches == n_branches - config.warmup
    ref = reference_simulate(program, system_spec.build(), config)
    assert (stats.mispredicts, stats.committed_uops, stats.fetched_uops) == (
        ref.mispredicts,
        ref.committed_uops,
        ref.fetched_uops,
    )


def test_bench_kernel_baseline_batched(benchmark, scale):
    """The 16KB 2Bc-gskew baseline on gcc."""
    from repro.sim.specs import SystemSpec

    _throughput_cell(
        benchmark,
        SystemSpec.single("2bc-gskew", 16),
        "gcc",
        scale,
    )


def test_bench_kernel_hybrid_batched(benchmark, scale):
    """The acceptance cell: 8K+8K prophet/critic hybrid on gcc."""
    from repro.sim.specs import SystemSpec

    _throughput_cell(
        benchmark,
        SystemSpec.hybrid("2bc-gskew", 8, "tagged-gshare", 8, future_bits=8),
        "gcc",
        scale,
    )
