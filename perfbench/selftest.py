"""Smoke test of the benchmark itself: every workload at minimum length.

    python3 -m pytest perfbench/selftest.py -q

Takes about two minutes. It checks that each run prints every metric
BENCHMARK.json names, with its unit; that a corrupted pinned digest
shows up as failed operations; and that the benchmark refuses to run
without the checkout's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

from common import DIGESTS, HERE, ROOT, WORK

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def run_benchmark(workload: str, trace: int, cwd=ROOT):
    completed = subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return completed


def parse(completed) -> tuple[dict, dict]:
    assert completed.returncode == 0, completed.stderr
    *_, details, result = completed.stdout.strip().splitlines()
    return json.loads(details)["details"], json.loads(result)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    details, result = parse(run_benchmark(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: value["unit"] for name, value in result["metrics"].items()} == {
        entry["name"]: entry["unit"] for entry in expected
    }
    assert details["failed_frac"] == 0
    if trace:
        assert "fallback_cells_by_pair" in details
        assert "build_s_by_benchmark" in details
    else:
        assert all(result["metrics"][entry["name"]]["value"] > 0 for entry in expected)


def checkout(name: str, *, with_sources: bool = True):
    """A checkout of the benchmark (and of ``src/``, unless told
    otherwise) copied under the work directory."""
    copy = WORK / name
    shutil.rmtree(copy, ignore_errors=True)
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(HERE, copy / HERE.name, ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", copy)
    if with_sources:
        shutil.copytree(ROOT / "src", copy / "src", ignore=ignore)
    return copy


def corrupted_checkout(name: str, corrupt):
    copy = checkout(name)
    path = copy / HERE.name / DIGESTS.name
    digests = json.loads(path.read_text(encoding="utf-8"))
    corrupt(digests)
    path.write_text(json.dumps(digests), encoding="utf-8")
    return copy


def flip(digest: str) -> str:
    return ("0" if digest[0] != "0" else "1") + digest[1:]


def test_corrupted_experiment_digest_counts_as_failed():
    def corrupt(digests):
        digests["experiments"]["figure5"] = flip(digests["experiments"]["figure5"])

    copy = corrupted_checkout("corrupt-figure5", corrupt)
    try:
        details, result = parse(run_benchmark("figures-accuracy", 0, cwd=copy))
    finally:
        shutil.rmtree(copy)
    assert result["correct"] is False
    assert result["failed"] == 1
    assert details["failed_frac"] == result["failed"] / result["attempted"] > 0


def test_corrupted_cell_digests_count_as_failed():
    def corrupt(digests):
        cells = digests["serve_cells"]
        for key in cells:
            cells[key] = flip(cells[key])

    copy = corrupted_checkout("corrupt-cells", corrupt)
    try:
        details, result = parse(run_benchmark("serve-sweep", 0, cwd=copy))
    finally:
        shutil.rmtree(copy)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"]
    assert details["failed_frac"] == 1


def test_missing_result_rows_count_as_failed():
    from serve_sweep import check_cells

    document = {"state": "done", "cells": 3, "results": []}
    assert check_cells(document, 1_000, {}) == 3


def test_refuses_to_run_without_sources():
    bare = checkout("bare-checkout", with_sources=False)
    try:
        completed = run_benchmark(WORKLOADS[0], 0, cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
