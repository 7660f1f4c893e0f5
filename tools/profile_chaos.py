#!/usr/bin/env python3
"""Chaos profiler: what fault recovery *costs*, gated by a floor.

The chaos harness (``repro chaos``, :func:`repro.faults.chaos.run_chaos_sweep`)
proves recovery is **lossless**; this tool measures that it is also
**cheap**. Each scenario runs one sweep grid twice — fault-free serial
reference, then under a canonical fault plan from ``examples/faults/``
— and records the recovery-overhead ratio (chaos wall-clock over
reference wall-clock). Ratios travel across machines; absolute seconds
do not, so the floor (``benchmarks/BENCH_chaos_floor.json``) bounds the
ratios and caps ``quarantined`` with *no* tolerance. A scenario whose
results are not bit-identical to the reference, or that injected no
fault, stops the run before any floor is checked.

Scenarios:

* ``crash/worker-kill`` — ``worker-crash.json``: two injected worker
  crashes mid-sweep; the pool respawns, the crashed cells re-run.
* ``corrupt/cache-flip`` — ``corrupt-cache.json``: transient errors,
  dropped puts and flipped get-bytes against the result cache; checksum
  verification evicts, the engine recomputes.
* ``dead-hub/blackhole`` — ``dead-hub.json``: every cache op fails for
  the first 8 then the peer recovers — the pattern a dead hub daemon
  shows a tiered cache, degraded to plain misses.

Usage::

    PYTHONPATH=src python tools/profile_chaos.py                  # measure
    PYTHONPATH=src python tools/profile_chaos.py \\
        --check-floor benchmarks/BENCH_chaos_floor.json
"""

from __future__ import annotations

import profiling
from repro.faults.chaos import ChaosReport, run_chaos_sweep
from repro.faults.plan import load_plan
from repro.sim import SimulationConfig
from repro.sim.specs import ProgramSpec, SweepCell, SystemSpec

PLAN_DIR = profiling.REPO_ROOT / "examples" / "faults"

#: scenario name -> (plan file, worker jobs for the chaos pass)
SCENARIOS = {
    "crash/worker-kill": ("worker-crash.json", 2),
    "corrupt/cache-flip": ("corrupt-cache.json", 1),
    "dead-hub/blackhole": ("dead-hub.json", 1),
}
BRANCHES = 4000
WARMUP = 800

KEY = "scenario"
#: The quarantine cap gates recovery correctness: no tolerance.
EXACT = ("quarantined",)


def _grid() -> list[SweepCell]:
    """The canonical chaos panel: 2 systems × 2 benchmarks, small cells."""
    systems = {
        "gshare-4": SystemSpec.single("gshare", 4),
        "gskew-4": SystemSpec.single("2bc-gskew", 4),
    }
    config = SimulationConfig(n_branches=BRANCHES, warmup=WARMUP)
    return [
        SweepCell(label, bench, system, ProgramSpec(benchmark=bench), config)
        for label, system in systems.items()
        for bench in ("swim", "gcc")
    ]


def scenario_row(scenario: str, plan_name: str, jobs: int, report: ChaosReport) -> dict:
    """One BENCH_chaos.json row; raises when the run proved nothing.

    Both checks gate correctness, not speed, so neither has a band: the
    survivors must be bit-identical to the fault-free reference, and at
    least one fault must have been injected.
    """
    if not report.identical:
        raise AssertionError(
            f"{scenario}: chaos results are NOT bit-identical to the fault-free "
            f"reference ({report.mismatches}) — run tests/faults/test_chaos.py"
        )
    counts = (report.injections or {}).get("counts", {})
    faults = sum(counts.values()) + report.crashes_injected
    if faults < 1:
        raise AssertionError(
            f"{scenario}: no faults were injected — the scenario proved "
            "nothing (plan/seed drift?)"
        )
    return {
        "scenario": scenario,
        "plan": plan_name,
        "jobs": jobs,
        "cells": report.cells,
        "quarantined": len(report.quarantined),
        "faults_injected": faults,
        "reference_seconds": round(report.reference_seconds, 4),
        "chaos_seconds": round(report.chaos_seconds, 4),
        "recovery_overhead": round(report.recovery_overhead, 4),
    }


def measure(args) -> tuple[dict, list[dict]]:
    rows = []
    for scenario, (plan_name, jobs) in SCENARIOS.items():
        report = run_chaos_sweep(_grid(), load_plan(PLAN_DIR / plan_name), jobs=jobs)
        rows.append(scenario_row(scenario, plan_name, jobs, report))
        profiling.show(
            rows[-1], KEY, "faults_injected", "quarantined", "recovery_overhead"
        )
    return {"branches_per_cell": BRANCHES}, rows


if __name__ == "__main__":
    raise SystemExit(profiling.main(
        "chaos", __doc__, measure, schema="bench-chaos/2", key=KEY, exact=EXACT
    ))
