"""End-to-end service matrix: the daemon's whole contract over real HTTP.

Everything here drives a genuine daemon (asyncio server on an ephemeral
port) with the genuine :class:`~repro.serve.client.SweepClient`:

* a sweep submitted over HTTP is **bit-identical** to the same grid run
  locally through :func:`~repro.sim.sweep.run_sweep`;
* duplicate concurrent jobs simulate each cell once — the rest come out
  of the shared cache;
* a full queue answers 429 (and counts the rejection), malformed
  configs answer 400 with the failing section named, unknown jobs 404;
* priority outranks FIFO order in the queue;
* SIGTERM drains: accepted jobs finish, new submissions get 503, the
  process exits 0.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.serve import ServeConfig, ServeError, SweepClient, start_daemon
from repro.sim import SimulationConfig
from repro.sim.cache import encode_result
from repro.sim.specs import SystemSpec
from repro.sim.sweep import run_sweep

SYSTEMS = {
    "gshare": {"kind": "single", "prophet": {"kind": "gshare", "budget_kb": 2}},
    "hybrid": {"kind": "hybrid",
               "prophet": {"kind": "gshare", "budget_kb": 2},
               "critic": {"kind": "tagged-gshare", "budget_kb": 2},
               "future_bits": 4},
}
BENCH_NAMES = ("swim", "facerec")
BRANCHES = 1200
WARMUP = 240


def _payload(**overrides):
    payload = {
        "systems": SYSTEMS,
        "benchmarks": ",".join(BENCH_NAMES),
        "branches": BRANCHES,
        "warmup": WARMUP,
    }
    payload.update(overrides)
    return payload


class TestSubmitStreamFetch:
    def test_http_sweep_bit_identical_to_run_sweep(self, client):
        """submit → stream → fetch equals a local run_sweep, bit for bit."""
        job = client.submit_payload(_payload())
        events = list(client.events(job))
        assert events[-1]["event"] == "done"
        cell_events = [e for e in events if e["event"] == "cell"]
        assert len(cell_events) == len(SYSTEMS) * len(BENCH_NAMES)
        assert cell_events[-1]["done"] == len(cell_events)

        remote = client.sweep_result(job)
        assert "backend" not in client.status(job)
        specs = {label: SystemSpec.from_config(c) for label, c in SYSTEMS.items()}
        config = SimulationConfig(n_branches=BRANCHES, warmup=WARMUP)
        local = run_sweep(specs, {n: n for n in BENCH_NAMES}, config=config)
        for label in specs:
            for bench in BENCH_NAMES:
                assert encode_result(remote.get(label, bench)) == encode_result(
                    local.get(label, bench)
                ), f"{label} × {bench} differs from local run_sweep"

    def test_event_stream_replays_history_after_completion(self, client):
        """Subscribing after the job finished replays the whole history."""
        job = client.submit_payload(_payload())
        client.wait(job)
        replayed = list(client.events(job))
        assert [e["event"] for e in replayed][-1] == "done"
        assert sum(e["event"] == "cell" for e in replayed) == 4

    def test_duplicate_concurrent_jobs_simulate_once(self, daemon, client):
        """N identical jobs: one simulates, the rest are cache-served."""
        n_jobs = 4
        jobs: list[str] = []
        errors: list[BaseException] = []

        def submit() -> None:
            try:
                own = SweepClient(daemon.url)
                jobs.append(own.submit_payload(_payload()))
            except BaseException as exc:
                errors.append(exc)

        threads = [threading.Thread(target=submit) for _ in range(n_jobs)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, errors
        for job in jobs:
            assert client.wait(job, timeout=120)["state"] == "done"

        stats = client.stats()
        n_cells = len(SYSTEMS) * len(BENCH_NAMES)
        assert stats["cells_submitted"] == n_jobs * n_cells
        assert stats["cells_executed"] == n_cells  # each cell simulated ONCE
        assert stats["cells_from_cache"] == (n_jobs - 1) * n_cells
        # ...and every job's fetched results agree.
        first = client.sweep_result(jobs[0])
        for job in jobs[1:]:
            other = client.sweep_result(job)
            for label in SYSTEMS:
                for bench in BENCH_NAMES:
                    assert encode_result(other.get(label, bench)) == encode_result(
                        first.get(label, bench)
                    )


class TestQueueDiscipline:
    def test_queue_full_returns_429(self, tmp_path):
        """Submissions beyond max_queue bounce with 429 + Retry-After."""
        handle = start_daemon(ServeConfig(
            port=0, cache_url=str(tmp_path / "cache"), max_queue=2, paused=True,
        ))
        try:
            client = SweepClient(handle.url)
            accepted = [client.submit_payload(_payload()) for _ in range(2)]
            with pytest.raises(ServeError) as excinfo:
                client.submit_payload(_payload())
            assert excinfo.value.status == 429
            assert excinfo.value.payload["max_queue"] == 2
            assert client.stats()["jobs_rejected"] == 1
            # Releasing the runner drains the accepted jobs normally.
            handle.resume()
            for job in accepted:
                assert client.wait(job, timeout=120)["state"] == "done"
        finally:
            handle.stop()

    def test_priority_outranks_fifo(self, tmp_path):
        """A higher-priority job queued later runs first."""
        handle = start_daemon(ServeConfig(
            port=0, cache_url=str(tmp_path / "cache"), paused=True,
        ))
        try:
            client = SweepClient(handle.url)
            low = client.submit_payload(_payload(priority=0))
            high = client.submit_payload(_payload(
                priority=5, branches=BRANCHES + 1, warmup=WARMUP,
            ))
            handle.resume()
            client.wait(low, timeout=120)
            client.wait(high, timeout=120)
            # The high-priority job simulated its cells; the low-priority
            # job ran second (its own distinct cells also simulated) —
            # order is observable through the jobs' finish times.
            low_doc, high_doc = client.status(low), client.status(high)
            assert high_doc["state"] == low_doc["state"] == "done"
            # started later, finished first ⇒ ran first
            assert high_doc["seconds"] is not None
        finally:
            handle.stop()
        # Event history pins the order: high's running status must have
        # been emitted before low's.
        daemon = handle.daemon
        high_started = daemon.jobs[high].started
        low_started = daemon.jobs[low].started
        assert high_started < low_started


class TestRejections:
    @pytest.mark.parametrize(
        ("payload", "section", "fragment"),
        [
            ({"benchmarks": "swim"}, "systems", "needs 'systems'"),
            ({"systems": SYSTEMS}, "benchmarks", "needs 'benchmarks'"),
            (_payload(systems=[]), "systems", "no systems"),
            (_payload(systems={"x": {"kind": "nope", "prophet": "gshare"}}),
             "systems", "kind"),
            (_payload(benchmarks="no-such-bench"), "benchmarks",
             "unknown benchmark"),
            (_payload(branches=0), "branches", "positive"),
            (_payload(warmup=BRANCHES), "warmup", "measurement window"),
            # The retired kernel knob is an unknown key like any other.
            (_payload(backend="batched"), None, "'backend'"),
            (_payload(bogus_key=1), None, "unknown job key"),
            # A TAGE geometry the predictor cannot run, named at submit.
            (_payload(systems={"t": {"kind": "single", "prophet": {
                "kind": "tage", "params": {"min_history": 0}}}}),
             "systems", "min_history"),
            (_payload(systems={"t": {"kind": "single", "prophet": {
                "kind": "tage", "params": {"tag_bits": -1}}}}),
             "systems", "tag_bits"),
            # Other geometries the predictors cannot run, named at submit.
            (_payload(systems={"g": {"kind": "single", "prophet": {
                "kind": "gshare", "params": {"history_length": -1}}}}),
             "systems", "history_length"),
            (_payload(systems={"l": {"kind": "single", "prophet": {
                "kind": "local", "params": {"history_entries": 0}}}}),
             "systems", "history_entries"),
        ],
    )
    def test_malformed_config_rejected_with_section(
        self, client, payload, section, fragment
    ):
        """400 + the failing section named — the PR-5 error discipline."""
        with pytest.raises(ServeError) as excinfo:
            client.submit_payload(payload)
        assert excinfo.value.status == 400
        assert fragment in excinfo.value.payload["error"]
        assert excinfo.value.payload["detail"]["section"] == section
        # a rejected config must not occupy the queue
        assert client.stats()["jobs_submitted"] == 0

    def test_non_json_body_rejected(self, client):
        """Unparseable bytes get 400/section=body, not a connection drop."""
        import http.client as hc

        connection = hc.HTTPConnection(client.host, client.port, timeout=30)
        try:
            connection.request(
                "POST", "/jobs", body=b"{nope",
                headers={"Connection": "close"},
            )
            response = connection.getresponse()
            import json as json_module

            payload = json_module.loads(response.read())
        finally:
            connection.close()
        assert response.status == 400
        assert payload["detail"]["section"] == "body"

    def test_unknown_job_is_404(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.status("job-999999")
        assert excinfo.value.status == 404

    def test_unknown_route_is_404(self, client):
        with pytest.raises(ServeError) as excinfo:
            client._request("GET", "/no/such/route")
        assert excinfo.value.status == 404

    def test_healthz_and_stats_shape(self, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["api"] == 1
        stats = client.stats()
        assert stats["jobs_submitted"] == 0
        assert stats["queue_depth"] == 0
        assert stats["draining"] is False

    def test_failed_cell_yields_failed_job_with_cell_detail(self, tmp_path):
        """An engine-side failure surfaces the CellExecutionError fields.

        Config validation is eager, so the failure must strike *after*
        acceptance: a trace file that validates at submit time but is
        gone by execution time (the classic shared-filesystem hazard).
        """
        from repro.workloads import benchmark
        from repro.workloads.trace import record_trace

        trace_path = tmp_path / "swim.trace"
        record_trace(benchmark("swim"), 1500, trace_path)
        handle = start_daemon(ServeConfig(
            port=0, cache_url=str(tmp_path / "cache"), paused=True,
        ))
        try:
            client = SweepClient(handle.url)
            job = client.submit_payload(_payload(
                benchmarks=str(trace_path), branches=1200, warmup=240,
            ))
            trace_path.unlink()  # vanish between validation and execution
            handle.resume()
            doc = client.wait(job, timeout=120)
            assert doc["state"] == "failed"
            assert doc["error"]["error"] == "sweep cell failed"
            assert doc["error"]["benchmark"] == "swim"
            assert doc["error"]["system"] in SYSTEMS
            assert "cause" in doc["error"]
            assert client.stats()["jobs_failed"] == 1
            with pytest.raises(ServeError):
                client.results(job)
        finally:
            handle.stop()


class TestDrain:
    def test_sigterm_drains_inflight_jobs(self, tmp_path):
        """SIGTERM: the accepted job finishes, new submits get 503, exit 0."""
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--cache-url", str(tmp_path / "cache")],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True,
        )
        try:
            banner = proc.stdout.readline().strip()
            assert banner.startswith("serving on http://"), banner
            client = SweepClient(banner.split()[-1])
            # A job big enough to still be in flight when SIGTERM lands.
            job = client.submit_payload(_payload(branches=24_000, warmup=4_000))
            stream = client.events(job)
            assert next(
                e for e in stream if e.get("status") == "running"
            ), "job never started"
            proc.send_signal(signal.SIGTERM)
            # Draining daemon refuses new work but finishes the old.
            deadline = time.monotonic() + 30
            saw_503 = False
            while time.monotonic() < deadline:
                try:
                    client.submit_payload(_payload())
                except ServeError as exc:
                    assert exc.status == 503
                    saw_503 = True
                    break
                except OSError:
                    break  # daemon already exited: job drained before our POST
                time.sleep(0.05)
            final = [e for e in stream if e.get("event") == "done"]
            assert final and final[0]["status"] == "done"
            assert proc.wait(timeout=60) == 0
            assert saw_503 or proc.poll() == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)

    def test_handle_drain_completes_queued_jobs(self, tmp_path):
        """initiate_drain finishes everything accepted before exiting."""
        handle = start_daemon(ServeConfig(
            port=0, cache_url=str(tmp_path / "cache"), paused=True,
        ))
        client = SweepClient(handle.url)
        jobs = [
            client.submit_payload(_payload()),
            client.submit_payload(_payload(branches=BRANCHES + 1)),
        ]
        handle.drain()  # releases the paused runner AND stops intake
        handle.stop(timeout=120)
        for job in jobs:
            assert handle.daemon.jobs[job].state == "done"


class TestEventStreamEnd:
    def test_events_return_at_done_on_pooled_daemon(self, tmp_path):
        """events() returns right after ``done`` on a ``jobs=2`` daemon.

        The pool forks lazily, inside the first job, so its workers
        inherit that job's open event-stream socket and the stream never
        reaches end-of-file. Reading on to EOF after ``done`` would block
        until the client's timeout.
        """
        handle = start_daemon(ServeConfig(
            port=0, jobs=2, cache_url=str(tmp_path / "cache"), paused=True,
        ))
        try:
            client = SweepClient(handle.url, timeout=60)
            job = client.submit_payload(_payload())
            stream = client.events(job)
            # The stream is open (the history replay has started) before
            # the runner forks the pool for this job.
            events = [next(stream)]
            handle.resume()
            finished = threading.Event()

            def drain() -> None:
                events.extend(stream)
                finished.set()

            reader = threading.Thread(target=drain, daemon=True)
            start = time.monotonic()
            reader.start()
            assert finished.wait(timeout=30), "events() did not return after done"
            assert time.monotonic() - start < 30
            assert events[-1]["event"] == "done"
            assert sum(e["event"] == "cell" for e in events) == 4
        finally:
            handle.stop(timeout=120)
