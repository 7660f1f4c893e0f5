"""Daemon under chaos: quarantine rows, job timeouts, cache eviction.

End-to-end counterparts of the chaos harness: a real daemon booted with
``ServeConfig(fault_plan=...)`` over real HTTP, proving the service
degrades per-cell (never per-job), enforces wall-clock budgets, and
keeps serving afterwards.
"""

from __future__ import annotations

import http.client
import json
import time
import urllib.parse

import pytest

from repro.serve import ServeConfig, SweepClient, start_daemon

SYSTEMS = {
    "gshare": {"kind": "single", "prophet": {"kind": "gshare", "budget_kb": 2}},
    "gskew": {"kind": "single", "prophet": {"kind": "2bc-gskew", "budget_kb": 4}},
}


def _payload(**overrides):
    payload = {
        "systems": SYSTEMS,
        "benchmarks": "swim,gcc",
        "branches": 800,
        "warmup": 160,
    }
    payload.update(overrides)
    return payload


def _plan(tmp_path, document: dict):
    path = tmp_path / "fault-plan.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    return str(path)


@pytest.fixture
def chaos_daemon(tmp_path):
    """Factory: boot a daemon with the given ServeConfig overrides."""
    handles = []

    def boot(**overrides):
        config = ServeConfig(
            port=0, cache_url=str(tmp_path / "cache"), **overrides
        )
        handle = start_daemon(config)
        handles.append(handle)
        return handle

    yield boot
    for handle in handles:
        handle.stop()


class TestQuarantineOverHTTP:
    def test_poison_cells_fail_the_row_not_the_job(self, tmp_path, chaos_daemon):
        plan = _plan(tmp_path, {
            "seed": 5,
            "worker": {"crash_at_cell": 1, "crashes": 10, "benchmark": "swim"},
        })
        handle = chaos_daemon(jobs=2, fault_plan=plan)
        client = SweepClient(handle.url)

        job = client.submit_payload(_payload())
        status = client.wait(job, timeout=180)
        assert status["state"] == "done"  # the job survives its poison cells
        assert status["cells_failed"] == 2

        rows = client.results(job)  # only rows that carry a result
        assert {(label, bench) for label, bench, _ in rows} == {
            ("gshare", "gcc"), ("gskew", "gcc"),
        }

        result = client.sweep_result(job)
        assert set(result.failures) == {("gshare", "swim"), ("gskew", "swim")}
        for label in SYSTEMS:
            failure = result.failures[(label, "swim")]
            assert failure["kind"] == "worker-crash"
            assert failure["attempts"] == 3  # initial + the bounded retries
        with pytest.raises(KeyError, match="quarantine"):
            result.get("gshare", "swim")

        stats = client.stats()
        assert stats["cells_quarantined"] == 2
        assert stats["worker_crashes"] >= 1
        assert stats["jobs_done"] == 1 and stats["jobs_failed"] == 0

    def test_daemon_still_serves_after_quarantine(self, tmp_path, chaos_daemon):
        plan = _plan(tmp_path, {
            "seed": 5,
            "worker": {"crash_at_cell": 1, "crashes": 3, "benchmark": "swim"},
        })
        handle = chaos_daemon(jobs=2, fault_plan=plan)
        client = SweepClient(handle.url)
        first = client.wait(client.submit_payload(_payload()), timeout=180)
        assert first["state"] == "done"
        # Crash tokens are spent; the same grid now completes cleanly and
        # the healthy cells come straight from the shared cache.
        second = client.wait(client.submit_payload(_payload()), timeout=180)
        assert second["state"] == "done"
        assert second["cells_failed"] == 0


class TestJobTimeout:
    def test_runaway_job_is_failed_and_the_daemon_moves_on(
        self, tmp_path, chaos_daemon
    ):
        handle = chaos_daemon(jobs=2, job_timeout=0.3)
        client = SweepClient(handle.url)

        runaway = client.submit_payload(_payload(branches=400000, warmup=1000))
        status = client.wait(runaway, timeout=300)
        assert status["state"] == "failed"
        assert status["error"]["timeout_seconds"] == 0.3
        assert "wall-clock" in status["error"]["error"]

        stats = client.stats()
        assert stats["jobs_timed_out"] == 1
        # Killing the pool stops the runaway: its cells are not re-run
        # on a respawned pool as if a worker had crashed.
        assert stats["worker_crashes"] == 0
        assert stats["cells_retried"] == 0

        # One cell, sent to a pool respawned for it (terminate() left
        # none): the 0.3 s budget covers the daemon moving on and a cold
        # pool building one small program (TestWorkerDeath covers the
        # respawn after a crash).
        follow_up = client.submit_payload(_payload(
            branches=400, benchmarks="swim", systems={"gshare": SYSTEMS["gshare"]},
        ))
        assert client.wait(follow_up, timeout=180)["state"] == "done"

    def test_one_cell_runaway_is_stopped(self, chaos_daemon):
        # A roomier budget than above: the first job spawns the pool, and
        # the follow-up spawns it again after the kill.
        handle = chaos_daemon(jobs=2, job_timeout=1.0)
        client = SweepClient(handle.url)

        # One cell of 2M branches runs for seconds. As the daemon's first
        # job it still goes to the workers, so terminate() kills it instead
        # of the daemon waiting it out.
        started = time.monotonic()
        runaway = client.submit_payload(_payload(
            branches=2_000_000, warmup=1000, benchmarks="swim",
            systems={"gshare": SYSTEMS["gshare"]},
        ))
        status = client.wait(runaway, timeout=300)
        elapsed = time.monotonic() - started
        assert status["state"] == "failed"
        assert "wall-clock" in status["error"]["error"]
        assert elapsed < 1.0 + 2.5, elapsed

        stats = client.stats()
        assert stats["jobs_timed_out"] == 1
        assert stats["worker_crashes"] == 0
        assert stats["cells_retried"] == 0
        assert stats["jobs_retried"] == 0

        follow_up = client.submit_payload(_payload(
            branches=400, benchmarks="swim", systems={"gshare": SYSTEMS["gshare"]},
        ))
        assert client.wait(follow_up, timeout=180)["state"] == "done"


class TestCacheChaosOverHTTP:
    def test_faulty_cache_never_changes_results(self, tmp_path, chaos_daemon):
        plan = _plan(tmp_path, {
            "seed": 4,
            "cache": {
                "transient_error_p": 0.3, "drop_put_p": 0.3,
                "corrupt_get_p": 0.3, "corrupt_mode": "flip",
            },
        })
        handle = chaos_daemon(jobs=1, fault_plan=plan)
        client = SweepClient(handle.url)

        first = client.submit_payload(_payload())
        assert client.wait(first, timeout=180)["state"] == "done"
        # Second pass reads a populated (and now misbehaving) cache.
        second = client.submit_payload(_payload())
        assert client.wait(second, timeout=180)["state"] == "done"

        from repro.sim.cache import encode_result

        rows_a = {(s, b): r for s, b, r in client.results(first)}
        rows_b = {(s, b): r for s, b, r in client.results(second)}
        assert rows_a.keys() == rows_b.keys() and len(rows_a) == 4
        for key, result in rows_a.items():
            assert encode_result(result) == encode_result(rows_b[key])

        stats = client.stats()
        assert stats["faults"]["seed"] == 4
        assert "cache_corrupt_evictions" in stats


class TestCacheDelete:
    def test_delete_evicts_an_entry_idempotently(self, tmp_path, chaos_daemon):
        handle = chaos_daemon(jobs=1)
        parsed = urllib.parse.urlparse(handle.url)
        key = "ab" * 32

        def request(method, body=None):
            conn = http.client.HTTPConnection(parsed.hostname, parsed.port)
            try:
                conn.request(method, f"/cache/{key}", body=body)
                response = conn.getresponse()
                return response.status, response.read()
            finally:
                conn.close()

        assert request("PUT", b"opaque-bytes")[0] in (200, 204)
        assert request("GET")[1] == b"opaque-bytes"
        assert request("DELETE")[0] == 204
        assert request("GET")[0] == 404
        assert request("DELETE")[0] == 204  # eviction is idempotent
