"""The sweep daemon: an asyncio HTTP service over one engine and one cache.

``repro serve`` turns the PR-5 execution layer into a long-lived
service: one persistent :class:`~repro.sim.execution.SweepEngine`
(worker pool + memoized builds) and one content-addressed result cache,
shared by every client that submits a sweep. The HTTP surface is small
and stdlib-only (hand-rolled HTTP/1.1 over ``asyncio`` streams, every
response ``Connection: close``):

* ``POST /jobs`` — submit a PR-4 JSON sweep config
  (:func:`repro.sim.sweepconfig.cells_from_job` vocabulary, plus an
  optional integer ``priority``). Answers 202 with a job id, 400 with
  structured detail on a malformed config, 429 when the queue is full,
  503 while draining.
* ``GET /jobs/<id>`` — job status; includes per-cell encoded results
  once done (the same lossless codec the cache stores, so clients
  reconstruct bit-identical :class:`~repro.sim.metrics.RunStats`).
* ``GET /jobs/<id>/events`` — newline-delimited JSON event stream:
  the job's full history replays first, then live per-cell completion
  events (fed by the engine's ``progress`` hook) until the terminal
  ``done`` event.
* ``GET /healthz``, ``GET /stats`` — liveness and counters.
* ``GET/PUT /cache/<key>`` — raw cache entry bytes, the sharding
  endpoints :class:`~repro.sim.cache.HTTPBackend` speaks, so other
  daemons can mount this daemon's cache as their remote tier.

Scheduling: one FIFO+priority queue (higher ``priority`` first, FIFO
within a priority) drained by a single runner, so jobs execute one at a
time through the engine — cells *within* a job still fan out over the
pool. That serialization is also what makes duplicate concurrent jobs
cheap: the first computes and streams results into the cache, the rest
hit it (the engine additionally coalesces duplicates inside one job).

Backpressure: the queue is bounded (``max_queue``); a full queue answers
429 with a ``Retry-After`` hint instead of buffering unboundedly.

Shutdown: SIGTERM/SIGINT (or :meth:`SweepDaemon.initiate_drain`) stops
intake (503), finishes every job already accepted, then exits — clients
that got a 202 get their results.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import tempfile
import threading
import time
from dataclasses import dataclass, field

from repro.faults.handling import degrade
from repro.sim.cache import ResultCache, TieredBackend, cache_from_url, encode_result
from repro.sim.execution import (
    QUARANTINE_FAILURE_POLICY,
    CellExecutionError,
    CellFailure,
    ProcessPoolExecutor,
    SerialExecutor,
    SweepEngine,
    WorkerPoolError,
)
from repro.sim.specs import SweepCell
from repro.sim.sweepconfig import SweepConfigError, cells_from_job

#: Max request body: sweep configs are small; anything bigger is abuse.
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Wire-format version stamped on /healthz and /stats.
SERVE_API_VERSION = 1


@dataclass
class ServeConfig:
    """Knobs for one daemon (the CLI's ``serve`` flags)."""

    host: str = "127.0.0.1"
    port: int = 8642
    #: Worker processes for sweep cells (1 = in-process serial).
    jobs: int = 1
    #: ``--cache-url``: local dir, ``http://peer``, or ``tiered:dir|url``
    #: (see :func:`repro.sim.cache.cache_from_url`). None disables the
    #: cache — and with it cross-job dedup.
    cache_url: str | None = None
    #: Bounded backpressure: queued (not yet running) jobs beyond this
    #: answer 429.
    max_queue: int = 64
    #: Start with the runner paused (tests fill the queue deterministically).
    paused: bool = False
    #: Wall-clock budget per job, seconds. On expiry the job is marked
    #: failed, the worker pool is terminated, and the runner moves on.
    #: None (default) = unbounded, the pre-PR-10 behaviour.
    job_timeout: float | None = None
    #: Retry a job once when the worker pool dies under it (the pool
    #: respawns; cells already cached are not recomputed).
    retry_on_pool_death: bool = True
    #: ``--faults plan.json``: run the daemon under a
    #: :class:`~repro.faults.plan.FaultPlan` (chaos testing only).
    fault_plan: str | None = None


class Job:
    """One accepted sweep job and everything observable about it."""

    __slots__ = (
        "id", "cells", "meta", "priority", "state", "created", "started",
        "finished", "results", "error", "events", "subscribers",
        "cells_executed", "cells_from_cache", "cells_deduped",
        "cells_failed", "retries",
    )

    def __init__(self, job_id: str, cells: list[SweepCell], meta: dict, priority: int):
        self.id = job_id
        self.cells = cells
        self.meta = meta
        self.priority = priority
        self.state = "queued"
        self.created = time.monotonic()
        self.started: float | None = None
        self.finished: float | None = None
        self.results: list[dict] | None = None
        self.error: dict | None = None
        self.events: list[dict] = []
        self.subscribers: set[asyncio.Queue] = set()
        self.cells_executed = 0
        self.cells_from_cache = 0
        self.cells_deduped = 0
        #: Cells quarantined by the engine's FailurePolicy (worker-killers).
        self.cells_failed = 0
        #: Whole-job re-runs after the worker pool died underneath it.
        self.retries = 0

    def describe(self, with_results: bool = True) -> dict:
        """The ``GET /jobs/<id>`` document."""
        payload: dict = {
            "job": self.id,
            "state": self.state,
            "priority": self.priority,
            "cells": len(self.cells),
            "labels": self.meta["labels"],
            "benchmarks": self.meta["benchmarks"],
            "branches": self.meta["branches"],
            "warmup": self.meta["warmup"],
            "cells_executed": self.cells_executed,
            "cells_from_cache": self.cells_from_cache,
            "cells_deduped": self.cells_deduped,
            "cells_failed": self.cells_failed,
            "retries": self.retries,
        }
        if self.started is not None and self.finished is not None:
            payload["seconds"] = round(self.finished - self.started, 6)
        if self.error is not None:
            payload["error"] = self.error
        if with_results and self.results is not None:
            payload["results"] = self.results
        return payload


class SweepDaemon:
    """One engine, one cache, one queue — shared by every HTTP client."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        #: FaultyBackend when running under ``--faults`` (chaos), else None.
        self.faulty_backend = None
        self._fault_state_dir: str | None = None
        if config.fault_plan is not None:
            self._arm_faults(config.fault_plan)
        executor = (
            SerialExecutor() if config.jobs <= 1 else ProcessPoolExecutor(config.jobs)
        )
        self.cache = (
            ResultCache(cache_from_url(config.cache_url))
            if config.cache_url is not None
            else None
        )
        if self.cache is not None and self.faulty_backend is not None:
            # Chaos mode: slide the fault injector between the codec and
            # the real storage, exactly where a failing disk/NIC lives.
            self.faulty_backend.inner = self.cache.backend
            self.cache.backend = self.faulty_backend
        # Jobs must survive a cell that repeatedly kills workers: the
        # engine quarantines it (a structured failure row in the job
        # document) instead of failing every other cell with it.
        self.engine = SweepEngine(
            executor=executor,
            cache=self.cache,
            failure_policy=QUARANTINE_FAILURE_POLICY,
        )
        self.jobs: dict[str, Job] = {}
        self.queue: asyncio.PriorityQueue = asyncio.PriorityQueue()
        self.draining = False
        self.started_at = time.monotonic()
        self._seq = 0
        self._resume = asyncio.Event()
        if not config.paused:
            self._resume.set()
        self._server: asyncio.AbstractServer | None = None
        self._runner_task: asyncio.Task | None = None
        self.loop: asyncio.AbstractEventLoop | None = None
        self.port: int | None = None
        #: Daemon-lifetime counters (the /stats document).
        self.jobs_submitted = 0
        self.jobs_done = 0
        self.jobs_failed = 0
        self.jobs_rejected = 0
        self.jobs_retried = 0
        self.jobs_timed_out = 0

    def _arm_faults(self, plan_path: str) -> None:
        """Load a fault plan and arm its injection channels (chaos only)."""
        from repro.faults.backend import FaultyBackend
        from repro.faults.plan import load_plan
        from repro.faults.workers import ENV_PLAN, ENV_STATE

        plan = load_plan(plan_path)
        if plan.cache is not None or plan.peer is not None:
            # Wired to the real backend after the cache is built.
            self.faulty_backend = FaultyBackend(None, plan)
        if plan.worker is not None:
            # Pool workers inherit the environment on spawn; the state
            # dir bounds the crash budget across respawned pools.
            self._fault_state_dir = tempfile.mkdtemp(prefix="repro-faults-")
            os.environ[ENV_PLAN] = os.path.abspath(plan_path)
            os.environ[ENV_STATE] = self._fault_state_dir

    # ------------------------------------------------------------------ stats

    def _queued_count(self) -> int:
        return sum(1 for job in self.jobs.values() if job.state == "queued")

    def stats(self) -> dict:
        jobs = self.jobs.values()
        document = {
            "api": SERVE_API_VERSION,
            "uptime_seconds": round(time.monotonic() - self.started_at, 3),
            "engine_jobs": self.engine.executor.jobs,
            "cache": None if self.cache is None else str(self.cache.root),
            "draining": self.draining,
            "max_queue": self.config.max_queue,
            "queue_depth": self._queued_count(),
            "jobs_submitted": self.jobs_submitted,
            "jobs_rejected": self.jobs_rejected,
            "jobs_done": self.jobs_done,
            "jobs_failed": self.jobs_failed,
            "jobs_retried": self.jobs_retried,
            "jobs_timed_out": self.jobs_timed_out,
            "jobs_running": sum(1 for j in jobs if j.state == "running"),
            "cells_submitted": sum(len(j.cells) for j in jobs),
            "cells_executed": sum(j.cells_executed for j in jobs),
            "cells_from_cache": sum(j.cells_from_cache for j in jobs),
            "cells_deduped": sum(j.cells_deduped for j in jobs),
            "cells_failed": sum(j.cells_failed for j in jobs),
        }
        if self.cache is not None:
            document["cache_corrupt_evictions"] = self.cache.corrupt_evictions
            backend = self.cache.backend
            inner = getattr(backend, "inner", None)
            tiered = backend if isinstance(backend, TieredBackend) else (
                inner if isinstance(inner, TieredBackend) else None
            )
            if tiered is not None:
                document["breaker"] = tiered.breaker.describe()
                document["remote_skipped"] = tiered.remote_skipped
        executor = self.engine.executor
        if hasattr(executor, "worker_crashes"):
            document["worker_crashes"] = executor.worker_crashes
            document["cells_retried"] = executor.cells_retried
            document["cells_quarantined"] = executor.cells_quarantined
        if self.faulty_backend is not None:
            document["faults"] = self.faulty_backend.report()
        return document

    # ------------------------------------------------------------- lifecycle

    async def start(self) -> None:
        """Bind the listening socket and start the job runner."""
        self.loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._runner_task = asyncio.ensure_future(self._runner())

    async def run(self, ready=None) -> None:
        """Serve until drained (the ``repro serve`` main loop).

        ``ready(daemon)`` fires once the port is bound — the in-thread
        harness (tests, the load profiler) uses it to learn the
        ephemeral port. SIGTERM/SIGINT initiate a graceful drain when
        running in the main thread (signal handlers cannot be installed
        elsewhere).
        """
        await self.start()
        if threading.current_thread() is threading.main_thread():
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGTERM, signal.SIGINT):
                loop.add_signal_handler(signum, self.initiate_drain)
        if ready is not None:
            ready(self)
        assert self._runner_task is not None
        await self._runner_task  # returns only after a drain completes
        self._server.close()
        await self._server.wait_closed()
        self.engine.close()
        self._disarm_faults()

    def _disarm_faults(self) -> None:
        """Drop the crash-injection env (the token dir stays as evidence)."""
        if self._fault_state_dir is None:
            return
        from repro.faults.workers import ENV_PLAN, ENV_STATE

        os.environ.pop(ENV_PLAN, None)
        os.environ.pop(ENV_STATE, None)

    def initiate_drain(self) -> None:
        """Stop intake, finish accepted jobs, then let :meth:`run` return."""
        if self.draining:
            return
        self.draining = True
        self._resume.set()  # a paused daemon must still drain
        # The sentinel sorts after every real job, so the runner finishes
        # the whole accepted queue before it sees the stop signal.
        self.queue.put_nowait((float("inf"), float("inf"), None))

    def resume(self) -> None:
        """Release a ``paused=True`` runner (test/bench determinism knob)."""
        self._resume.set()

    # ------------------------------------------------------------ job runner

    async def _runner(self) -> None:
        while True:
            # Wait for the resume gate *before* claiming work: a paused
            # runner must hold nothing, so late-arriving high-priority
            # jobs still outrank everything already queued.
            await self._resume.wait()
            _, _, job_id = await self.queue.get()
            if job_id is None:
                if self.draining:
                    return
                continue
            await self._run_job(self.jobs[job_id])

    async def _run_job(self, job: Job) -> None:
        loop = asyncio.get_running_loop()
        job.state = "running"
        job.started = time.monotonic()
        self._emit(job, {"event": "status", "job": job.id, "status": "running"})

        def progress(done: int, total: int, cell: SweepCell) -> None:
            # Called on the job thread as each cell completes (cache
            # hits, fresh runs and duplicate clones alike); hop onto the
            # loop so subscribers and history stay single-threaded.
            loop.call_soon_threadsafe(
                self._emit,
                job,
                {
                    "event": "cell",
                    "job": job.id,
                    "done": done,
                    "total": total,
                    "system": cell.system_label,
                    "benchmark": cell.bench_name,
                },
            )

        hits_before = misses_before = 0
        results: list | None = None
        try:
            while True:
                if self.cache is not None:
                    # Recaptured per attempt: after a pool-death retry,
                    # cells completed on attempt 1 come back as cache
                    # hits, and the counters should say so.
                    hits_before = self.cache.hits
                    misses_before = self.cache.misses
                try:
                    results = await self._execute_with_timeout(loop, job, progress)
                except WorkerPoolError as exc:
                    # The pool died and the engine's bounded per-cell
                    # retry was exhausted — or a non-quarantining policy
                    # gave up. One whole-job retry: the pool respawns
                    # lazily and every cell already written to the cache
                    # is *not* recomputed, so the retry is cheap and
                    # bit-identical for completed work.
                    if not self.config.retry_on_pool_death or job.retries >= 1:
                        raise
                    job.retries += 1
                    self.jobs_retried += 1
                    self._emit(job, {
                        "event": "retry", "job": job.id, "cause": str(exc),
                    })
                    continue
                break
        except asyncio.TimeoutError:
            job.state = "failed"
            job.error = {
                "error": "job exceeded its wall-clock budget",
                "timeout_seconds": self.config.job_timeout,
            }
            self.jobs_failed += 1
            self.jobs_timed_out += 1
        except (CellExecutionError, WorkerPoolError) as exc:
            job.state = "failed"
            job.error = _error_document(exc)
            self.jobs_failed += 1
        except Exception as exc:  # pragma: no cover - unexpected engine bug
            degrade(exc, f"job {job.id} runner")
            job.state = "failed"
            job.error = {"error": f"{type(exc).__name__}: {exc}"}
            self.jobs_failed += 1
        else:
            job.results = [
                _result_row(cell, result) for cell, result in zip(job.cells, results)
            ]
            failed_hashes = {
                cell.content_hash()
                for cell, result in zip(job.cells, results)
                if isinstance(result, CellFailure)
            }
            job.cells_failed = sum(
                1 for result in results if isinstance(result, CellFailure)
            )
            if self.cache is not None:
                job.cells_from_cache = self.cache.hits - hits_before
                # A quarantined cell counted a cache miss on every
                # attempt but produced no result; subtract the distinct
                # failed cells so `executed` means "ran to completion".
                job.cells_executed = max(
                    0, self.cache.misses - misses_before - len(failed_hashes)
                )
            else:
                job.cells_executed = len(job.cells) - job.cells_failed
            job.cells_deduped = (
                len(job.cells) - job.cells_from_cache - job.cells_executed
                - job.cells_failed
            )
            job.state = "done"
            self.jobs_done += 1
        finally:
            job.finished = time.monotonic()
            self._emit(
                job,
                {
                    "event": "done",
                    "job": job.id,
                    "status": job.state,
                    "cells_executed": job.cells_executed,
                    "cells_from_cache": job.cells_from_cache,
                    "cells_deduped": job.cells_deduped,
                    "cells_failed": job.cells_failed,
                },
            )

    async def _execute_with_timeout(self, loop, job: Job, progress):
        """Run the job's cells, enforcing ``job_timeout`` if configured."""
        future = loop.run_in_executor(
            None, lambda: self.engine.run_cells(job.cells, progress=progress)
        )
        if self.config.job_timeout is None:
            return await future
        try:
            # Shield so a timeout doesn't cancel the executor thread
            # mid-engine (it cannot be interrupted anyway) — we instead
            # terminate the pool out from under it, which makes the
            # stuck `run_cells` raise and the future complete.
            return await asyncio.wait_for(
                asyncio.shield(future), self.config.job_timeout
            )
        except asyncio.TimeoutError:
            await loop.run_in_executor(None, self._terminate_engine)
            try:
                await future  # reap the zombie thread before moving on
            except Exception as exc:
                # Expected: the terminated pool surfaces as a
                # WorkerPoolError inside the stuck run_cells. The job's
                # outcome is already decided (timeout), so record & move on.
                degrade(exc, "reaping a timed-out job's engine thread")
            raise

    def _terminate_engine(self) -> None:
        """Kill the worker pool under a stuck job (timeout recovery)."""
        terminate = getattr(self.engine.executor, "terminate", None)
        if terminate is not None:
            try:
                terminate()
            except Exception as exc:  # pragma: no cover - best-effort kill
                degrade(exc, "terminating worker pool")

    def _emit(self, job: Job, event: dict) -> None:
        job.events.append(event)
        for queue in list(job.subscribers):
            queue.put_nowait(event)

    # ------------------------------------------------------------- HTTP layer

    async def _handle_connection(self, reader, writer) -> None:
        try:
            request = await _read_request(reader)
            if request is None:
                return
            method, target, body = request
            await self._route(method, target, body, writer)
        except asyncio.IncompleteReadError:
            pass
        except ConnectionError:
            pass
        except _BadRequest as exc:
            try:
                _write_response(writer, 400, {"error": str(exc)})
            except ConnectionError:
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _route(self, method: str, target: str, body: bytes, writer) -> None:
        path = target.split("?", 1)[0]
        parts = [p for p in path.split("/") if p]
        if method == "GET" and path == "/healthz":
            _write_response(writer, 200, {
                "status": "draining" if self.draining else "ok",
                "api": SERVE_API_VERSION,
                "engine_jobs": self.engine.executor.jobs,
                "queue_depth": self._queued_count(),
            })
        elif method == "GET" and path == "/stats":
            _write_response(writer, 200, self.stats())
        elif method == "POST" and path == "/jobs":
            self._handle_submit(body, writer)
        elif method == "GET" and len(parts) == 2 and parts[0] == "jobs":
            job = self.jobs.get(parts[1])
            if job is None:
                _write_response(writer, 404, {"error": f"unknown job {parts[1]!r}"})
            else:
                _write_response(writer, 200, job.describe())
        elif (
            method == "GET" and len(parts) == 3
            and parts[0] == "jobs" and parts[2] == "events"
        ):
            await self._handle_events(parts[1], writer)
        elif len(parts) == 2 and parts[0] == "cache":
            await self._handle_cache(method, parts[1], body, writer)
        else:
            _write_response(writer, 404, {"error": f"no route {method} {path}"})

    def _handle_submit(self, body: bytes, writer) -> None:
        if self.draining:
            _write_response(writer, 503, {"error": "daemon is draining; submit elsewhere"})
            return
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            _write_response(writer, 400, {
                "error": f"job body is not valid JSON: {exc}",
                "detail": {"section": "body"},
            })
            return
        priority = payload.get("priority", 0) if isinstance(payload, dict) else 0
        if not isinstance(priority, int) or isinstance(priority, bool):
            _write_response(writer, 400, {
                "error": f"priority must be an integer, got {priority!r}",
                "detail": {"section": "priority"},
            })
            return
        try:
            cells, meta = cells_from_job(payload)
        except SweepConfigError as exc:
            # The PR-5 discipline: name the failing part of the spec in a
            # structured document, never a bare traceback.
            _write_response(writer, 400, {
                "error": f"invalid sweep config: {exc}",
                "detail": {"section": exc.section},
            })
            return
        if self._queued_count() >= self.config.max_queue:
            self.jobs_rejected += 1
            _write_response(
                writer, 429,
                {
                    "error": "job queue is full; retry later",
                    "queue_depth": self._queued_count(),
                    "max_queue": self.config.max_queue,
                },
                extra_headers={"Retry-After": "1"},
            )
            return
        self._seq += 1
        job_id = f"job-{self._seq:06d}"
        job = Job(job_id, cells, meta, priority)
        self.jobs[job_id] = job
        self.jobs_submitted += 1
        self._emit(job, {"event": "status", "job": job_id, "status": "queued"})
        # Higher priority first; FIFO (by sequence) within one priority.
        self.queue.put_nowait((-priority, self._seq, job_id))
        _write_response(writer, 202, {
            "job": job_id,
            "state": "queued",
            "cells": len(cells),
            "priority": priority,
            "queue_depth": self._queued_count(),
        })

    async def _handle_events(self, job_id: str, writer) -> None:
        job = self.jobs.get(job_id)
        if job is None:
            _write_response(writer, 404, {"error": f"unknown job {job_id!r}"})
            return
        _write_stream_header(writer)
        # Subscribe *before* replaying history, with no await in between:
        # _emit only runs on this loop, so the snapshot point is exact —
        # every event lands exactly once (history replay or live queue).
        queue: asyncio.Queue = asyncio.Queue()
        history = list(job.events)
        finished = job.state in ("done", "failed")
        if not finished:
            job.subscribers.add(queue)
        try:
            for event in history:
                _write_event(writer, event)
            await writer.drain()
            if finished:
                return
            while True:
                event = await queue.get()
                _write_event(writer, event)
                await writer.drain()
                if event.get("event") == "done":
                    return
        finally:
            job.subscribers.discard(queue)

    async def _handle_cache(self, method: str, key: str, body: bytes, writer) -> None:
        if self.cache is None:
            _write_response(writer, 404, {"error": "this daemon runs without a cache"})
            return
        if not key or len(key) != 64 or any(c not in "0123456789abcdef" for c in key):
            _write_response(writer, 400, {"error": f"malformed cache key {key!r}"})
            return
        # Backend byte ops are synchronous disk I/O — or, behind a tiered
        # backend, a blocking HTTP round trip to a peer daemon (which can
        # stall for the full socket timeout when the peer is dead). Run
        # them off-loop so one slow cache request cannot freeze every
        # connected client's stream and health check.
        backend = self.cache.backend
        loop = asyncio.get_running_loop()
        if method == "GET":
            try:
                data = await loop.run_in_executor(None, backend.get_bytes, key)
            except OSError as exc:
                _write_response(writer, 502, {"error": f"cache backend error: {exc}"})
                return
            if data is None:
                _write_response(writer, 404, {"error": "miss"})
            else:
                _write_raw_response(writer, 200, data)
        elif method == "PUT":
            try:
                await loop.run_in_executor(None, backend.put_bytes, key, body)
            except OSError as exc:
                _write_response(writer, 502, {"error": f"cache backend error: {exc}"})
                return
            _write_raw_response(writer, 204, b"")
        elif method == "DELETE":
            # Eviction endpoint: peers that detect a corrupt entry tell
            # this daemon to drop its copy too (see docs/ROBUSTNESS.md).
            try:
                await loop.run_in_executor(None, backend.discard, key)
            except OSError as exc:
                _write_response(writer, 502, {"error": f"cache backend error: {exc}"})
                return
            _write_raw_response(writer, 204, b"")
        else:
            _write_response(writer, 405, {"error": f"{method} not allowed on /cache"})


def _result_row(cell: SweepCell, result) -> dict:
    """One entry of a done job's ``results`` list.

    A quarantined cell (the engine's :class:`FailurePolicy` gave up on a
    worker-killer) carries a ``failure`` document instead of ``result``;
    every other cell's row is unchanged from pre-PR-10.
    """
    row = {
        "system": cell.system_label,
        "benchmark": cell.bench_name,
        "content_hash": cell.content_hash(),
    }
    if isinstance(result, CellFailure):
        row["failure"] = result.describe()
    else:
        row["result"] = encode_result(result)
    return row


def _error_document(exc: CellExecutionError | WorkerPoolError) -> dict:
    """A failed job's structured error (the CellExecutionError fields)."""
    if isinstance(exc, CellExecutionError):
        return {
            "error": "sweep cell failed",
            "system": exc.system_label,
            "benchmark": exc.bench_name,
            "cause": exc.cause,
            "cause_types": list(exc.cause_types),
            "spec": exc.spec_config,
            "worker_traceback": exc.worker_traceback,
        }
    return {"error": "worker pool died", "cause": str(exc)}


# ----------------------------------------------------------- HTTP plumbing


class _BadRequest(Exception):
    """An unparseable request line / header block / oversized body."""


async def _read_request(reader) -> tuple[str, str, bytes] | None:
    """Parse one HTTP/1.1 request (method, target, body); None on EOF."""
    line = await reader.readline()
    if not line:
        return None
    try:
        method, target, _version = line.decode("latin-1").split(maxsplit=2)
    except ValueError:
        raise _BadRequest("malformed request line") from None
    headers: dict[str, str] = {}
    while True:
        header = await reader.readline()
        if header in (b"\r\n", b"\n", b""):
            break
        name, _, value = header.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
        if len(headers) > 100:
            raise _BadRequest("too many headers")
    try:
        length = int(headers.get("content-length", "0"))
    except ValueError:
        raise _BadRequest("malformed Content-Length") from None
    if length > MAX_BODY_BYTES:
        raise _BadRequest(f"body exceeds {MAX_BODY_BYTES} bytes")
    body = await reader.readexactly(length) if length else b""
    return method.upper(), target, body


_REASONS = {
    200: "OK", 201: "Created", 202: "Accepted", 204: "No Content",
    400: "Bad Request", 404: "Not Found", 405: "Method Not Allowed",
    413: "Payload Too Large", 429: "Too Many Requests",
    500: "Internal Server Error", 502: "Bad Gateway",
    503: "Service Unavailable",
}


def _write_raw_response(
    writer, status: int, body: bytes,
    content_type: str = "application/json",
    extra_headers: dict | None = None,
) -> None:
    reason = _REASONS.get(status, "Unknown")
    head = [f"HTTP/1.1 {status} {reason}"]
    if body:
        head.append(f"Content-Type: {content_type}")
    head.append(f"Content-Length: {len(body)}")
    for name, value in (extra_headers or {}).items():
        head.append(f"{name}: {value}")
    head.append("Connection: close")
    writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body)


def _write_response(
    writer, status: int, payload: dict, extra_headers: dict | None = None
) -> None:
    body = json.dumps(payload, separators=(",", ":"), allow_nan=False).encode("utf-8")
    _write_raw_response(writer, status, body, extra_headers=extra_headers)


def _write_stream_header(writer) -> None:
    writer.write(
        b"HTTP/1.1 200 OK\r\n"
        b"Content-Type: application/x-ndjson\r\n"
        b"Cache-Control: no-store\r\n"
        b"Connection: close\r\n\r\n"
    )


def _write_event(writer, event: dict) -> None:
    writer.write(json.dumps(event, separators=(",", ":")).encode("utf-8") + b"\n")


# ------------------------------------------------------- in-thread harness


@dataclass
class DaemonHandle:
    """A daemon running on a background thread (tests, the load profiler).

    ``start_daemon`` binds the port before returning, so ``url`` is
    immediately usable; ``stop()`` drains and joins.
    """

    daemon: SweepDaemon
    thread: threading.Thread
    _failure: list = field(default_factory=list)

    @property
    def url(self) -> str:
        return f"http://{self.daemon.config.host}:{self.daemon.port}"

    def resume(self) -> None:
        assert self.daemon.loop is not None
        self.daemon.loop.call_soon_threadsafe(self.daemon.resume)

    def drain(self) -> None:
        if self.daemon.loop is not None and self.thread.is_alive():
            self.daemon.loop.call_soon_threadsafe(self.daemon.initiate_drain)

    def stop(self, timeout: float = 60.0) -> None:
        self.drain()
        self.thread.join(timeout=timeout)
        if self.thread.is_alive():  # pragma: no cover - hang diagnostics
            raise RuntimeError("sweep daemon did not drain in time")
        if self._failure:
            raise self._failure[0]


def start_daemon(config: ServeConfig) -> DaemonHandle:
    """Run a :class:`SweepDaemon` on a fresh thread; returns once bound.

    Use ``port=0`` for an ephemeral port (read it back from
    ``handle.url``). The thread exits when the daemon drains
    (``handle.stop()``); startup errors re-raise here rather than dying
    silently on the background thread.
    """
    daemon = SweepDaemon(config)
    ready = threading.Event()
    failure: list = []

    def main() -> None:
        try:
            asyncio.run(daemon.run(ready=lambda _d: ready.set()))
        except BaseException as exc:  # reported to the caller via `failure`
            # reraise=(): even KeyboardInterrupt must land in `failure`
            # here — re-raising on a daemon thread would kill the
            # process without ever waking the caller blocked on `ready`.
            degrade(exc, "sweep daemon thread", reraise=())
            failure.append(exc)
            ready.set()

    thread = threading.Thread(target=main, name="repro-serve", daemon=True)
    thread.start()
    if not ready.wait(timeout=30.0):
        raise RuntimeError("sweep daemon failed to bind within 30s")
    if failure:
        raise failure[0]
    return DaemonHandle(daemon=daemon, thread=thread, _failure=failure)
