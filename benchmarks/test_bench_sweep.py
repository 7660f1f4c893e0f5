"""Sweep-throughput bench: cells/sec through the execution engine.

Companion to ``test_bench_kernel.py``: where the kernel bench tracks one
``simulate()`` call, this bench tracks the **execution layer** — the
persistent pool, per-worker memoized builds and streaming scheduling
that every grid runs through. The full canonical panel, the frozen
pre-overhaul comparison and the CI floor live in
``tools/profile_sweep.py`` (gated against
``benchmarks/BENCH_sweep_floor.json``, whose gate
``test_bench_floors.py`` pins); this bench keeps a small steady-state
cell in the pytest-benchmark trajectory.

``REPRO_SCALE`` scales the per-cell branch count as in every other
bench.
"""

from __future__ import annotations


def test_bench_sweep_steady_state(benchmark, scale):
    """Steady-state cells/sec: warm serial engine, result cache off."""
    from repro.sim import SimulationConfig, SweepEngine
    from repro.sim.specs import ProgramSpec, SweepCell, SystemSpec

    n_branches = max(1_000, int(1_000 * scale))
    config = SimulationConfig(n_branches=n_branches, warmup=n_branches // 5)
    systems = [
        SystemSpec.single("gshare", 8),
        SystemSpec.single("2bc-gskew", 8),
        SystemSpec.hybrid("2bc-gskew", 8, "tagged-gshare", 8, future_bits=8),
    ]
    cells = [
        SweepCell(f"sys{i}", bench, system, ProgramSpec(benchmark=bench), config)
        for bench in ("gcc", "webmark")
        for i, system in enumerate(systems)
    ]
    engine = SweepEngine()
    engine.run_cells(cells)  # untimed warm-up: pool-free, builds memoized

    results = benchmark.pedantic(lambda: engine.run_cells(cells), rounds=1, iterations=1)
    elapsed = benchmark.stats.stats.mean
    rate = len(cells) / elapsed
    print(f"\nsweep steady state: {rate:,.1f} cells/sec ({len(cells)} cells)")
    benchmark.extra_info["cells"] = len(cells)
    benchmark.extra_info["cells_per_sec"] = round(rate, 2)
    assert len(results) == len(cells)
    assert all(r.branches == n_branches - config.warmup for r in results)

