#!/usr/bin/env python3
"""Service-layer load profiler: jobs/sec through the sweep daemon.

Where ``tools/profile_sweep.py`` tracks the execution engine in-process,
this tool tracks the **service surface** around it — the asyncio HTTP
front door, the job queue, event streaming and the cache-backed dedup of
concurrent identical work (see ``docs/SERVE.md``). It boots a real
daemon (in a thread, ephemeral port, fresh cache), drives it with the
real :class:`~repro.serve.client.SweepClient`, and emits a
machine-readable ``BENCH_serve.json``.

Scenarios (canonical panel: 4 systems × 2 benchmarks, 1 000-branch
cells — small enough that the service layer, not the kernel, dominates):

* ``cold/1-client`` — one job against an empty cache: every cell
  simulates. The submitting client streams the job's events, so the
  per-cell latencies (p50/p95) include the full HTTP + queue + engine
  round trip. The job's results are verified bit-identical to a local
  :func:`~repro.sim.sweep.run_sweep` before timing is trusted.
* ``warm-cache/1-client`` — the same job resubmitted: every cell is
  served from the cache. Its ``warm_speedup_vs_cold`` is the floor's
  headline ratio (ratios travel across machines; absolute jobs/sec
  does not).
* ``dup-heavy/8-client`` — eight clients in eight threads submit the
  *identical* job concurrently against a fresh panel. The daemon's
  single runner serializes them through one engine + cache, so exactly
  one job simulates and seven are cache-served: the
  ``cache_served_fraction`` is deterministically 7/8 = 0.875, and the
  floor requires ≥ 0.8 with **no** tolerance (it measures correctness
  of the dedup path, not machine speed).

Usage::

    PYTHONPATH=src python tools/profile_serve.py                  # measure
    PYTHONPATH=src python tools/profile_serve.py \\
        --check-floor benchmarks/BENCH_serve_floor.json
"""

from __future__ import annotations

import tempfile
import threading
import time

import profiling
from repro.serve import ServeConfig, SweepClient, start_daemon
from repro.sim import SimulationConfig
from repro.sim.specs import SystemSpec
from repro.sim.sweep import run_sweep

KEY = "scenario"
#: The dedup fractions gate the dedup path's correctness, which does not
#: vary with machine speed, so they carry no tolerance.
EXACT = ("cache_served_fraction",)

#: The canonical service panel: small grid, service-bound cells.
SYSTEMS = {
    "gshare-8": {"kind": "single", "prophet": {"kind": "gshare", "budget_kb": 8}},
    "gskew-8": {"kind": "single", "prophet": {"kind": "2bc-gskew", "budget_kb": 8}},
    "bimodal": {"kind": "single", "prophet": "bimodal"},
    "hybrid-8+8": {"kind": "hybrid", "prophet": "2bc-gskew",
                   "critic": "tagged-gshare", "future_bits": 8},
}
BENCHMARKS = "swim,facerec"
BENCH_NAMES = ("swim", "facerec")


def _percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile (robust for the small samples here)."""
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
    return ordered[index]


def _submit_and_stream(
    client: SweepClient, branches: int, priority: int = 0
) -> tuple[str, float, list[float]]:
    """Submit the panel job and stream it; returns (job, seconds, cell ms).

    Per-cell latency is the gap between consecutive streamed events as
    seen by the client — the full submit→simulate→stream round trip,
    which is the latency a human watching ``repro submit --progress``
    experiences.
    """
    start = time.perf_counter()
    job = client.submit(
        SYSTEMS, BENCHMARKS, branches=branches, warmup=branches // 5,
        priority=priority,
    )
    latencies: list[float] = []
    last = time.perf_counter()
    for event in client.events(job):
        now = time.perf_counter()
        if event.get("event") == "cell":
            latencies.append((now - last) * 1e3)
        last = now
    elapsed = time.perf_counter() - start
    return job, elapsed, latencies


def _verify_bit_identity(client: SweepClient, job: str, branches: int) -> None:
    """The HTTP-fetched sweep must equal a local run_sweep, bit for bit."""
    specs = {label: SystemSpec.from_config(c) for label, c in SYSTEMS.items()}
    config = SimulationConfig(n_branches=branches, warmup=branches // 5)
    local = run_sweep(specs, {name: name for name in BENCH_NAMES}, config=config)
    remote = client.sweep_result(job)
    pairs = [(label, bench) for label in specs for bench in BENCH_NAMES]
    profiling.assert_identical(
        "HTTP result vs local run_sweep", [remote.get(*pair) for pair in pairs],
        [local.get(*pair) for pair in pairs], "tests/serve/test_service_e2e.py",
    )


def measure(args) -> tuple[dict, list[dict]]:
    """Run all three scenarios against one freshly booted daemon."""
    branches, clients = args.branches, args.clients
    rows: list[dict] = []

    def row(scenario: str, jobs: int, seconds: float, latencies: list[float],
            stats_before: dict, stats_after: dict, **extra: float) -> dict:
        executed = stats_after["cells_executed"] - stats_before["cells_executed"]
        cached = stats_after["cells_from_cache"] - stats_before["cells_from_cache"]
        total = executed + cached
        entry = {
            "scenario": scenario,
            "jobs": jobs,
            "cells": total,
            "seconds": round(seconds, 4),
            "jobs_per_sec": round(jobs / seconds, 3),
            "cells_per_sec": round(total / seconds, 2),
            "cache_served_fraction": round(cached / total, 4) if total else 0.0,
        }
        if latencies:
            entry["cell_latency_p50_ms"] = round(_percentile(latencies, 0.50), 3)
            entry["cell_latency_p95_ms"] = round(_percentile(latencies, 0.95), 3)
        entry.update(extra)
        profiling.show(
            entry, KEY, "jobs_per_sec", "cache_served_fraction",
            "warm_speedup_vs_cold", "cell_latency_p50_ms", "cell_latency_p95_ms",
        )
        return entry

    with tempfile.TemporaryDirectory(prefix="bench-serve-") as cache_dir:
        handle = start_daemon(
            ServeConfig(port=0, jobs=1, cache_url=cache_dir, max_queue=256)
        )
        try:
            client = SweepClient(handle.url)

            # cold: empty cache, every cell simulates.
            before = client.stats()
            job, cold_elapsed, latencies = _submit_and_stream(client, branches)
            rows.append(row("cold/1-client", 1, cold_elapsed, latencies,
                            before, client.stats()))
            _verify_bit_identity(client, job, branches)

            # warm cache: the identical job again, all cells from disk.
            before = client.stats()
            _, elapsed, latencies = _submit_and_stream(client, branches)
            rows.append(row("warm-cache/1-client", 1, elapsed, latencies,
                            before, client.stats(),
                            warm_speedup_vs_cold=round(cold_elapsed / elapsed, 3)))

            # dup-heavy: N clients race the identical *fresh* panel
            # (branches + 1 so the cold/warm cache entries don't apply);
            # one job simulates, the rest are served from its write-back.
            dup_branches = branches + 1
            before = client.stats()
            errors: list[BaseException] = []
            all_latencies: list[float] = []
            lock = threading.Lock()

            def one_client() -> None:
                try:
                    own = SweepClient(handle.url)
                    _, _, lat = _submit_and_stream(own, dup_branches)
                    with lock:
                        all_latencies.extend(lat)
                except BaseException as exc:  # surfaced after join
                    errors.append(exc)

            threads = [threading.Thread(target=one_client) for _ in range(clients)]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            elapsed = time.perf_counter() - start
            if errors:
                raise errors[0]
            rows.append(row(f"dup-heavy/{clients}-client", clients, elapsed,
                            all_latencies, before, client.stats()))
        finally:
            handle.stop()
    return {"branches_per_cell": branches, "clients": clients}, rows


def _options(parser) -> None:
    parser.add_argument(
        "--branches", type=int, default=1_000,
        help="branches per cell (default 1000: short cells keep the "
             "service layer, not the kernel, on the critical path)",
    )
    parser.add_argument(
        "--clients", type=int, default=8,
        help="concurrent clients in the dup-heavy scenario (default 8)",
    )


if __name__ == "__main__":
    raise SystemExit(profiling.main(
        "serve", __doc__, measure, schema="bench-serve/2", key=KEY,
        options=_options, exact=EXACT,
    ))
