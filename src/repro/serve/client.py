"""Client for the sweep daemon (the ``repro submit`` verb's engine).

:class:`SweepClient` speaks the daemon's JSON-over-HTTP surface with
nothing but :mod:`http.client`: submit a PR-4 sweep config as a job,
follow its newline-delimited event stream, and reconstruct results
through the cache's lossless codec — so a sweep fetched over HTTP is
bit-for-bit the sweep :func:`repro.sim.sweep.run_sweep` would have
produced locally (the service tests assert exactly that).

Every request uses a short-lived connection (the daemon answers with
``Connection: close``), so a client value is cheap, picklable and safe
to share across threads — the 8-client load scenario in
``tools/profile_serve.py`` hammers one daemon with eight of them.

Degradation (PR 10, docs/ROBUSTNESS.md): requests retry transient
connection errors with deterministic backoff; :meth:`submit_payload`
honours a 429's ``Retry-After`` hint up to a bounded budget; and
:meth:`wait` tolerates connection drops mid-wait (a daemon restarting,
a stream cut) by falling back to status polling with growing intervals
instead of surfacing the first ``ConnectionError`` to the caller.
"""

from __future__ import annotations

import http.client
import json
import time
import urllib.parse
from typing import Any, Iterator

from repro.faults.policy import RetryPolicy
from repro.sim.cache import decode_result
from repro.sim.sweep import SweepResult

#: Connection-level failures worth retrying: the daemon restarting, a
#: dropped socket, a refused connect during a respawn window. HTTP
#: *error responses* (4xx/5xx) are never in this set — they reached the
#: daemon and carry a structured answer.
TRANSIENT_ERRORS = (ConnectionError, http.client.HTTPException, TimeoutError, OSError)

#: Default per-request retry schedule (3 tries, ~0.1s/0.2s backoff).
DEFAULT_REQUEST_RETRY = RetryPolicy(attempts=3, base_delay=0.1, max_delay=1.0)


class ServeError(RuntimeError):
    """An HTTP error from the daemon, with its structured payload.

    ``status`` is the HTTP code (429 = queue full, 400 = bad config,
    503 = draining); ``payload`` is the daemon's JSON error document;
    ``retry_after`` is the parsed ``Retry-After`` header in seconds
    when the daemon sent one (429s do), else None.
    """

    def __init__(
        self, status: int, payload: dict, retry_after: float | None = None
    ) -> None:
        self.status = status
        self.payload = payload
        self.retry_after = retry_after
        detail = payload.get("error", "") if isinstance(payload, dict) else ""
        super().__init__(f"HTTP {status}: {detail}")


def _parse_retry_after(value: str | None) -> float | None:
    """Seconds from a ``Retry-After`` header; None when absent/garbled."""
    if value is None:
        return None
    try:
        seconds = float(value)
    except ValueError:
        return None
    return max(0.0, seconds)


class SweepClient:
    """Talk to one daemon at ``http://host:port``."""

    def __init__(
        self,
        url: str,
        timeout: float = 600.0,
        retry: RetryPolicy | None = None,
    ) -> None:
        parsed = urllib.parse.urlsplit(url)
        if parsed.scheme != "http" or not parsed.hostname:
            raise ValueError(f"SweepClient needs an http://host:port URL, got {url!r}")
        self.host = parsed.hostname
        self.port = parsed.port or 80
        self.prefix = parsed.path.rstrip("/")
        self.timeout = timeout
        self.retry = retry if retry is not None else DEFAULT_REQUEST_RETRY
        #: Injectable sleeper — tests patch this to run instantly.
        self._sleep = time.sleep

    # ------------------------------------------------------------- plumbing

    def _connection(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)

    def _request_once(self, method: str, path: str, payload: Any = None) -> dict:
        body = None
        headers = {"Connection": "close"}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        connection = self._connection()
        try:
            connection.request(method, self.prefix + path, body=body, headers=headers)
            response = connection.getresponse()
            data = response.read()
        finally:
            connection.close()
        document = json.loads(data.decode("utf-8")) if data else {}
        if response.status >= 400:
            raise ServeError(
                response.status,
                document,
                retry_after=_parse_retry_after(response.getheader("Retry-After")),
            )
        return document

    def _request(self, method: str, path: str, payload: Any = None) -> dict:
        """One endpoint call, retrying transient *connection* failures.

        Only idempotent-by-design requests flow through here (GETs, and
        POST /jobs whose duplicate submissions the engine dedups via the
        cache), so a retry after an ambiguous drop is safe. ServeError
        is never retried at this layer — it means the daemon answered.
        """
        return self.retry.call(
            lambda: self._request_once(method, path, payload),
            retry_on=TRANSIENT_ERRORS,
            token=f"{method}:{path}",
            sleep=self._sleep,
        )

    # ------------------------------------------------------------- endpoints

    def healthz(self) -> dict:
        return self._request("GET", "/healthz")

    def stats(self) -> dict:
        return self._request("GET", "/stats")

    def submit_payload(
        self, payload: dict, *, retry_after_budget: float = 0.0
    ) -> str:
        """Submit a raw job payload; returns the job id (or raises ServeError).

        With a positive ``retry_after_budget``, a 429 (queue full) whose
        ``Retry-After`` hint fits the remaining budget is waited out and
        the submission retried; the budget bounds total waiting, so a
        persistently full daemon still surfaces the 429.
        """
        remaining = max(0.0, retry_after_budget)
        while True:
            try:
                return self._request("POST", "/jobs", payload)["job"]
            except ServeError as exc:
                if exc.status != 429:
                    raise
                hint = exc.retry_after if exc.retry_after is not None else 1.0
                if remaining <= 0.0 or hint > remaining:
                    raise
                # A zero hint must still consume budget, or a daemon
                # answering `Retry-After: 0` forever would spin us here.
                remaining -= max(hint, 0.05)
                self._sleep(hint)

    def submit(
        self,
        systems: Any,
        benchmarks: Any,
        branches: int | None = None,
        warmup: int | None = None,
        backend: str | None = None,
        priority: int = 0,
        retry_after_budget: float = 0.0,
    ) -> str:
        """Submit one sweep job from PR-4 config pieces (see docs/SERVE.md)."""
        payload: dict[str, Any] = {"systems": systems, "benchmarks": benchmarks}
        if branches is not None:
            payload["branches"] = branches
        if warmup is not None:
            payload["warmup"] = warmup
        if backend is not None:
            payload["backend"] = backend
        if priority:
            payload["priority"] = priority
        return self.submit_payload(payload, retry_after_budget=retry_after_budget)

    def status(self, job_id: str) -> dict:
        return self._request("GET", f"/jobs/{job_id}")

    def events(self, job_id: str) -> Iterator[dict]:
        """Stream the job's events: full history first, then live.

        Yields each newline-delimited JSON event as a dict and returns
        right after the terminal ``done`` event (or on daemon shutdown,
        when the stream closes). It never reads on to end-of-stream after
        ``done``: a daemon's lazily forked pool workers can inherit the
        stream's socket and hold it open long after the job finished.
        """
        connection = self._connection()
        try:
            connection.request(
                "GET", f"{self.prefix}/jobs/{job_id}/events",
                headers={"Connection": "close"},
            )
            response = connection.getresponse()
            if response.status >= 400:
                raise ServeError(response.status, json.loads(response.read() or b"{}"))
            while True:
                line = response.readline()
                if not line:
                    return
                line = line.strip()
                if line:
                    event = json.loads(line.decode("utf-8"))
                    yield event
                    if event.get("event") == "done":
                        return
        finally:
            connection.close()

    def wait(self, job_id: str, poll: float = 0.2, timeout: float | None = None) -> dict:
        """Block until the job finishes; returns its final status document.

        Prefers the event stream (wakes exactly when the job does);
        falls back to polling if the stream drops before the terminal
        event. Transient connection failures — the stream cut mid-job,
        the daemon briefly unreachable between polls — degrade to
        further polling with a growing interval (capped at 10×
        ``poll``); only an expired ``timeout`` or a structured
        :class:`ServeError` surfaces to the caller.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        try:
            for event in self.events(job_id):
                if event.get("event") == "done":
                    return self.status(job_id)
                if deadline is not None and time.monotonic() > deadline:
                    raise TimeoutError(f"job {job_id} still running after {timeout}s")
        except ServeError:
            raise
        except TRANSIENT_ERRORS:
            # Stream dropped (daemon restart, cut socket): the job may
            # well still finish — fall through to polling.
            pass
        interval = poll
        while True:
            try:
                document = self.status(job_id)
            except ServeError:
                raise
            except TRANSIENT_ERRORS:
                document = None  # unreachable right now; keep polling
            if document is not None:
                if document["state"] in ("done", "failed"):
                    return document
                interval = poll
            else:
                interval = min(interval * 2, poll * 10)
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(f"job {job_id} still running after {timeout}s")
            self._sleep(interval)

    # --------------------------------------------------------------- results

    def results(self, job_id: str) -> list[tuple[str, str, Any]]:
        """The finished job's cells as (system label, bench name, result).

        Results decode through :func:`repro.sim.cache.decode_result` —
        the same lossless codec a local cache hit uses, so they are
        bit-identical to a local :func:`~repro.sim.sweep.run_sweep`.
        Quarantined cells (rows carrying ``failure`` instead of
        ``result``) are skipped here; :meth:`sweep_result` files them
        under :attr:`~repro.sim.sweep.SweepResult.failures`.
        """
        document = self.status(job_id)
        if document["state"] == "failed":
            raise ServeError(500, document.get("error") or {"error": "job failed"})
        if document["state"] != "done" or document.get("results") is None:
            raise ServeError(409, {"error": f"job {job_id} is {document['state']}"})
        return [
            (row["system"], row["benchmark"], decode_result(row["result"]))
            for row in document["results"]
            if "result" in row
        ]

    def sweep_result(self, job_id: str) -> SweepResult:
        """The finished job as a :class:`~repro.sim.sweep.SweepResult`.

        Quarantined cells land in ``SweepResult.failures`` (keyed like
        runs), so ``sweep.get`` on one raises the same descriptive
        KeyError a local quarantining engine produces.
        """
        document = self.status(job_id)
        sweep = SweepResult()
        for system_label, bench_name, result in self.results(job_id):
            result.system = system_label
            result.benchmark = bench_name
            sweep.add(system_label, bench_name, result)
        if document["state"] == "done" and document.get("results"):
            for row in document["results"]:
                if "failure" in row:
                    sweep.add_failure(
                        row["system"], row["benchmark"], row["failure"]
                    )
        return sweep
