"""Chaos bench: the recovery-overhead floor gate, kept honest.

The live harness — three canonical fault plans differentially verified
against fault-free references — lives in ``tools/profile_chaos.py``
(gated against ``benchmarks/BENCH_chaos_floor.json`` in CI's
chaos-smoke job; ``test_bench_floors.py`` pins that gate). These tests
pin the scenarios' inputs without running a sweep: the example plans'
validity and the profiler's references to them.
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tools"))
sys.path.insert(0, str(REPO / "src"))


def test_example_plans_are_valid_and_deterministic():
    from repro.faults.plan import load_plan

    plan_dir = REPO / "examples" / "faults"
    names = {p.name for p in plan_dir.glob("*.json")}
    assert {"worker-crash.json", "corrupt-cache.json", "dead-hub.json"} <= names
    for path in sorted(plan_dir.glob("*.json")):
        plan = load_plan(path)
        # Round-trips through the config codec and draws reproducibly.
        assert type(plan).from_config(plan.to_config()) == plan
        assert plan.stream("cache").random() == plan.stream("cache").random()


def test_profiler_scenarios_match_the_committed_plans():
    from profile_chaos import PLAN_DIR, SCENARIOS

    for scenario, (plan_name, jobs) in SCENARIOS.items():
        assert (PLAN_DIR / plan_name).exists(), f"{scenario} plan missing"
        assert jobs >= 1
