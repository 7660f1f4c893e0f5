"""The floor gate of the four CI profilers, kept honest.

``tools/profile_{kernel,sweep,serve,chaos}.py`` each gate CI through
the one ``check_floor`` in ``tools/profiling.py``. These tests pin that
gate on the committed floor files, with each profiler's own row key
and exact fields: every committed ``BENCH_*.json`` snapshot
passes its floor, ratio floors carry the 25 % band, correctness gates
carry none, ceilings are divided by the tolerance, and a floor nobody
measured fails. No profiler is run.
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tools"))

PROFILERS = ("kernel", "sweep", "serve", "chaos")


def _rows(name: str) -> list[dict]:
    return json.loads((REPO / "benchmarks" / f"BENCH_{name}.json").read_text())["rows"]


def _check(name: str, rows: list[dict]) -> list[str]:
    """The floor check exactly as ``profile_<name>.py --check-floor`` runs it."""
    import profiling

    module = importlib.import_module(f"profile_{name}")
    return profiling.check_floor(
        rows,
        REPO / "benchmarks" / f"BENCH_{name}_floor.json",
        module.KEY,
        getattr(module, "EXACT", ()),
    )


def _with(name: str, row_id: str, field: str, value) -> list[dict]:
    """The committed snapshot's rows with one field of one row replaced."""
    key = importlib.import_module(f"profile_{name}").KEY
    rows = _rows(name)
    for row in rows:
        if row[key] == row_id:
            row[field] = value
    return rows


@pytest.mark.parametrize("name", PROFILERS)
def test_committed_snapshot_passes_committed_floor(name):
    assert _check(name, _rows(name)) == []


#: (profiler, row id, field, a value the floor accepts, one it rejects)
GATES = [
    # ratio floors carry the 25 % band: floor 4.68 -> 3.51 allowed.
    ("kernel", "gcc/hybrid-8+8", "speedup_batched_vs_reference", 3.52, 3.50),
    ("kernel", "gcc/hybrid-8+8", "speedup_timing_vs_reference", 2.63, 2.62),
    ("sweep", "steady/12x4", "speedup_vs_reference", 1.6, 1.4),
    # a scalar floor applies to the row that carries the field.
    ("serve", "warm-cache/1-client", "warm_speedup_vs_cold", 2.5, 2.0),
    # a ceiling is divided by the tolerance: 1.5 -> 2.0 allowed.
    ("chaos", "corrupt/cache-flip", "recovery_overhead", 1.9, 2.1),
    # correctness gates carry NO tolerance.
    ("serve", "dup-heavy/8-client", "cache_served_fraction", 0.8, 0.79),
    ("chaos", "crash/worker-kill", "quarantined", 0, 1),
]


@pytest.mark.parametrize(
    "name, row_id, field, accepted, rejected", GATES,
    ids=[f"{gate[0]}-{gate[2]}" for gate in GATES],
)
def test_floor_band(name, row_id, field, accepted, rejected):
    assert _check(name, _with(name, row_id, field, accepted)) == []
    failures = _check(name, _with(name, row_id, field, rejected))
    assert len(failures) == 1
    assert row_id in failures[0] and field in failures[0]


#: (profiler, row id, field) — field None drops the whole row.
UNMEASURED = [
    # A floored cell the profiler never measured. The per-profiler
    # checks this replaces walked the rows and passed it silently.
    ("kernel", "gcc/perceptron-8+tagged-8", None),
    # --check-floor without --compare-reference.
    ("kernel", "gcc/2bc-gskew-16", "speedup_batched_vs_reference"),
    ("kernel", "gcc/2bc-gskew-16", "speedup_timing_vs_reference"),
    ("sweep", "dup-heavy/4x12", None),
    ("serve", "dup-heavy/8-client", None),
    ("serve", "warm-cache/1-client", "warm_speedup_vs_cold"),
    ("chaos", "dead-hub/blackhole", None),
]


@pytest.mark.parametrize(
    "name, row_id, field", UNMEASURED,
    ids=[f"{case[0]}-{case[2] or 'row'}" for case in UNMEASURED],
)
def test_unmeasured_floor_fails(name, row_id, field):
    key = importlib.import_module(f"profile_{name}").KEY
    rows = [row for row in _rows(name) if field is not None or row[key] != row_id]
    for row in rows:
        if row[key] == row_id:
            del row[field]
    failures = _check(name, rows)
    # A dropped row fails once per floor keyed by it; a dropped field once.
    floors = json.loads((REPO / "benchmarks" / f"BENCH_{name}_floor.json").read_text())
    expected = 1 if field is not None else sum(
        row_id in floor for floor in floors.values() if isinstance(floor, dict)
    )
    assert len(failures) == expected >= 1
    assert all("not measured" in failure for failure in failures)


def _chaos_report(identical: bool = True, crashes_injected: int = 2):
    from repro.faults.chaos import ChaosReport

    return ChaosReport(
        plan={}, cells=4, identical=identical, crashes_injected=crashes_injected,
        reference_seconds=1.0, chaos_seconds=1.2,
    )


def test_chaos_row_accepts_a_lossless_recovery():
    from profile_chaos import scenario_row

    row = scenario_row("crash/worker-kill", "worker-crash.json", 2, _chaos_report())
    assert row["faults_injected"] == 2 and row["recovery_overhead"] == 1.2


@pytest.mark.parametrize("fields, message", [
    ({"identical": False}, "NOT bit-identical"),
    ({"crashes_injected": 0}, "no faults were injected"),
], ids=["not-identical", "no-faults"])
def test_chaos_row_rejects_a_run_that_proved_nothing(fields, message):
    """Correctness, not speed: no band, the profiler stops outright."""
    from profile_chaos import scenario_row

    with pytest.raises(AssertionError, match=message):
        scenario_row("crash/worker-kill", "worker-crash.json", 2, _chaos_report(**fields))
