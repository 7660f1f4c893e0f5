"""The serve-sweep workload: a closed-loop client of ``repro serve``.

The daemon runs as its own process (``--jobs 2``, a fresh cache
directory). The benchmark is its only client and holds one connection at
a time: it submits a job, reads the job's event stream up to the
``done`` event, fetches the job document, checks every cell against its
pinned digest, and only then submits the next job.

Jobs are short cells (1 000 to 2 000 branches) drawn from a fixed pool
of systems and benchmarks by a seeded generator. A fixed share of jobs
repeats an earlier job outright or overlaps one, so cache reads run
alongside cache writes. The mix is synthetic, not
recorded traffic: about three in five cells are computed, a third come
from the cache and a few are deduplicated (the details line reports the
measured shares).

The event stream is read only up to ``done``, never to end of file: on a
``--jobs 2`` daemon the pool workers fork lazily during the first job
that needs them and inherit that job's open event-stream socket, so the
server end stays open and a reader waiting for EOF (as
``SweepClient.events`` does) blocks until its timeout. Set-up runs a
warm-up job that spawns the pool, so no measured job pays for the fork.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import time
from collections import defaultdict, deque
from dataclasses import dataclass

from common import (
    ROOT,
    WORK,
    HostSpeed,
    clock,
    document_digest,
    median,
    metric,
    own_peak_rss_mb,
    repro_env,
    run_limit,
    tail,
    tree_peak_rss_mb,
)

#: label -> (prophet kind, prophet KB, critic kind or None, critic KB, future bits).
SYSTEMS: dict[str, tuple] = {
    "gskew16": ("2bc-gskew", 16, None, 0, 0),
    "gskew16-alias": ("2bc-gskew", 16, None, 0, 0),  # same cell, another label: dedup
    "gshare16": ("gshare", 16, None, 0, 0),
    "perceptron16": ("perceptron", 16, None, 0, 0),
    "tage16": ("tage", 16, None, 0, 0),  # no batched kernel: always scalar
    "gskew8+tgshare8": ("2bc-gskew", 8, "tagged-gshare", 8, 8),
    "perceptron8+fperceptron8": ("perceptron", 8, "filtered-perceptron", 8, 4),
}

#: Ten programs: more than a worker's build memo holds (8), so it evicts.
BENCHMARKS = (
    "gcc", "crafty", "parser", "facerec", "swim",
    "specjbb", "flash", "msvc7", "tpcc", "cad",
)

BRANCHES = tuple(range(1_000, 2_001, 100))

#: One block of the job stream, as (kind, systems, benchmarks) per job.
#: "new" jobs draw from seeded decks, so every seed uses each system,
#: benchmark and window about equally often; "repeat" resubmits an
#: earlier new job of that shape (all cache hits); "overlap" takes one and
#: swaps a benchmark for another. New cells never repeat an earlier cell,
#: so every seed submits the same number of cells and computes about the
#: same number.
#:
#: The block is a hand-picked, synthetic mix, not recorded traffic. Each
#: of the four job shapes (1x1, 1x2, 2x1, 2x2) comes in as a new job at
#: least twice. 11 new, 4 repeat and 5 overlap jobs give 50 cells a
#: block, 33 of them new: the scalar kernel and the program build keep
#: most of the time, while a third of the cells exercise cache reads
#: between the writes.
BLOCK = (
    ("new", 1, 1), ("new", 2, 2), ("repeat", 1, 1), ("new", 1, 2), ("overlap", 2, 2),
    ("new", 2, 1), ("new", 1, 1), ("overlap", 1, 2), ("new", 2, 2), ("repeat", 2, 1),
    ("new", 1, 2), ("overlap", 2, 2), ("new", 2, 1), ("new", 1, 1), ("repeat", 1, 2),
    ("new", 2, 2), ("overlap", 1, 2), ("new", 1, 2), ("repeat", 2, 2), ("overlap", 2, 2),
)

#: Pool workers of the measured daemon.
DAEMON_JOBS = 2

#: Jobs the reference machine (2-core x86 VM, CPython 3.11) finishes per
#: second, rounded down (a 20-job block takes about 3.0 s there, 6.6
#: jobs/s); a run submits whole blocks, about
#: ``seconds * NOMINAL_JOBS_PER_S`` jobs.
NOMINAL_JOBS_PER_S = 6.0

#: Daemon boots timed for ``setup_s``.
SETUP_SAMPLES = 7

#: Spawns the pool during set-up, on programs the job pool never uses.
WARMUP_JOB = {
    "systems": {"warmup": {"kind": "single", "prophet": {"kind": "2bc-gskew", "budget_kb": 4}}},
    "benchmarks": ["ammp", "mpeg"],
    "branches": 900,
}


@dataclass(frozen=True)
class Job:
    systems: tuple[str, ...]
    benchmarks: tuple[str, ...]
    branches: int

    def payload(self) -> dict:
        return {
            "systems": {label: system_config(label) for label in self.systems},
            "benchmarks": list(self.benchmarks),
            "branches": self.branches,
        }


def system_config(label: str) -> dict:
    from repro.sim.specs import SystemSpec

    prophet, prophet_kb, critic, critic_kb, future_bits = SYSTEMS[label]
    if critic is None:
        return SystemSpec.single(prophet, prophet_kb).to_config()
    return SystemSpec.hybrid(prophet, prophet_kb, critic, critic_kb, future_bits).to_config()


def cell_key(system: str, benchmark: str, branches: int) -> str:
    return f"{system}|{benchmark}|{branches}"


class Deck:
    """Seeded draws that cycle through every item before repeating one."""

    def __init__(self, items, rng: random.Random) -> None:
        self.items = list(items)
        self.rng = rng
        self.pile: list = []

    def draw(self, count: int, exclude=()) -> tuple:
        drawn: list = []
        while len(drawn) < count:
            if not self.pile:
                self.pile = list(self.items)
                self.rng.shuffle(self.pile)
            item = self.pile.pop()
            if item not in drawn and item not in exclude:
                drawn.append(item)
        return tuple(drawn)

    def draw_fresh(self, is_fresh, exclude=()):
        """The next item ``is_fresh`` accepts (or the last one tried)."""
        for _ in range(len(self.items)):
            (item,) = self.draw(1, exclude)
            if is_fresh(item):
                break
        return item


def make_jobs(seed: int, count: int) -> list[Job]:
    """The seeded job stream. A repeat or an overlap reuses the oldest new
    job of its shape that it has not reused yet, so systems come back as
    evenly as the decks deal them and every seed computes about the same
    work."""
    rng = random.Random(seed)
    systems = Deck(SYSTEMS, rng)
    benchmarks = Deck(BENCHMARKS, rng)
    windows = Deck(BRANCHES, rng)
    jobs: list[Job] = []
    reusable = {"repeat": defaultdict(deque), "overlap": defaultdict(deque)}
    seen: set[tuple] = set()  # (system, benchmark, branches); aliases are one system

    def unseen(labels, names, branches) -> bool:
        return all((SYSTEMS[a], b, branches) not in seen for a in labels for b in names)

    for index in range(count):
        kind, n_systems, n_benchmarks = BLOCK[index % len(BLOCK)]
        shape = (n_systems, n_benchmarks)
        earlier = reusable[kind][shape] if kind != "new" else None
        if not earlier:
            labels = systems.draw(n_systems)
            names = benchmarks.draw(n_benchmarks)
            job = Job(labels, names, windows.draw_fresh(lambda w: unseen(labels, names, w)))
            for queue in reusable.values():
                queue[shape].append(job)
        elif kind == "repeat":
            job = earlier.popleft()
        else:
            base = earlier.popleft()
            added = benchmarks.draw_fresh(
                lambda name: unseen(base.systems, (name,), base.branches),
                exclude=base.benchmarks,
            )
            job = Job(base.systems, base.benchmarks[:-1] + (added,), base.branches)
        seen.update((SYSTEMS[a], b, job.branches) for a in job.systems for b in job.benchmarks)
        jobs.append(job)
    return jobs


def jobs_for(seconds: float) -> int:
    return len(BLOCK) * max(1, round(seconds * NOMINAL_JOBS_PER_S / len(BLOCK)))


# --------------------------------------------------------------- the client


@dataclass
class JobRecord:
    latency: float
    submit_s: float
    daemon_s: float
    cells: int
    executed: int
    from_cache: int
    deduped: int
    failed: int
    branches: int
    started: float
    finished: float
    #: Host-to-reference factor measured right after the job (1 = host seconds).
    scale: float = 1.0


def wait_done(host: str, port: int, job_id: str, timeout: float = 120.0) -> dict:
    """Read the job's event stream up to its ``done`` event."""
    connection = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        connection.request("GET", f"/jobs/{job_id}/events", headers={"Connection": "close"})
        response = connection.getresponse()
        if response.status != 200:
            raise RuntimeError(f"events for {job_id}: HTTP {response.status}")
        while True:
            line = response.readline()
            if not line:
                raise RuntimeError(f"event stream for {job_id} ended before 'done'")
            event = json.loads(line)
            if event.get("event") == "done":
                return event
    finally:
        connection.close()


def check_cells(document: dict, branches: int, digests: dict) -> int:
    """Cells of a job document that are missing, quarantined or wrong."""
    if document.get("state") != "done":
        return document.get("cells", 0)
    results = document.get("results", [])
    bad = max(0, document.get("cells", 0) - len(results))
    for row in results:
        expected = digests.get(cell_key(row["system"], row["benchmark"], branches))
        if "result" not in row or document_digest(row["result"]) != expected:
            bad += 1
    return bad


class Client:
    """One closed-loop client; ``submit``/``wait``/``fetch`` are the
    calls the traced run wraps in ``serve.*`` spans."""

    def __init__(self, url: str, digests: dict) -> None:
        from repro.serve.client import SweepClient

        self.api = SweepClient(url, timeout=120.0)
        self.digests = digests
        self.submit = self.api.submit_payload
        self.wait = lambda job_id: wait_done(self.api.host, self.api.port, job_id)
        self.fetch = self.api.status

    def run(self, job: Job) -> JobRecord:
        start = clock()
        job_id = self.submit(job.payload())
        submitted = clock()
        self.wait(job_id)
        done = clock()
        document = self.fetch(job_id)
        cells = document.get("cells", len(job.systems) * len(job.benchmarks))
        return JobRecord(
            latency=done - start,
            submit_s=submitted - start,
            daemon_s=document.get("seconds", 0.0),
            cells=cells,
            executed=document.get("cells_executed", 0),
            from_cache=document.get("cells_from_cache", 0),
            deduped=document.get("cells_deduped", 0),
            failed=check_cells(document, job.branches, self.digests),
            branches=job.branches,
            started=start,
            finished=clock(),
        )

    def warm_up(self) -> None:
        self.wait(self.submit(WARMUP_JOB))

    def run_all(
        self, jobs: list[Job], deadline: float, speed: HostSpeed | None = None
    ) -> tuple[list[JobRecord], float]:
        """Run ``jobs`` in a closed loop, calibrating ``speed`` after each
        job (the daemon is idle then); returns the records and the start
        time."""
        records = []
        start = clock()
        for job in jobs:
            started = clock()
            try:
                records.append(self.run(job))
            except Exception as exc:  # a job that cannot finish fails all its cells
                print(f"job {job}: {type(exc).__name__}: {exc}", file=sys.stderr)
                cells = len(job.systems) * len(job.benchmarks)
                records.append(JobRecord(
                    0.0, 0.0, 0.0, cells, 0, 0, 0, cells, job.branches, started, clock()
                ))
            if speed is not None:
                records[-1].scale = speed.scale()
            if clock() > deadline:
                break
        return records, start


# ---------------------------------------------------------- the daemon


class DaemonProcess:
    """``python -m repro serve`` in its own session, on an ephemeral port."""

    def __init__(self, name: str) -> None:
        self.dir = WORK / name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.log_path = self.dir / "daemon.log"
        self.proc: subprocess.Popen | None = None
        self.url = ""

    def start(self, timeout: float = 60.0) -> str:
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve", "--port", "0",
                    "--jobs", str(DAEMON_JOBS), "--cache-url", str(self.dir / "cache"),
                ],
                cwd=ROOT, env=repro_env(), stdout=log, stderr=subprocess.STDOUT,
                start_new_session=True,
            )
        deadline = clock() + timeout
        while clock() < deadline:
            found = re.search(r"serving on (http://\S+)", self.log_path.read_text(errors="replace"))
            if found:
                self.url = found.group(1)
                break
            if self.proc.poll() is not None:
                break
            time.sleep(0.01)
        if not self.url:
            self.stop()
            raise RuntimeError(f"daemon did not start; see {self.log_path}")
        from repro.serve.client import SweepClient

        SweepClient(self.url).healthz()
        return self.url

    def peak_rss_mb(self) -> float:
        return tree_peak_rss_mb(self.proc.pid) if self.proc is not None else 0.0

    def stop(self) -> None:
        """Drain the daemon, then make sure its whole session has ended."""
        proc = self.proc
        if proc is None:
            return
        self.proc = None
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        deadline = clock() + 10
        while clock() < deadline:
            try:
                os.killpg(proc.pid, signal.SIGKILL)  # stray pool workers
            except ProcessLookupError:
                break
            time.sleep(0.05)


def boot(name: str, digests: dict) -> tuple[DaemonProcess, Client, float]:
    """Start a daemon and spawn its pool; returns the boot seconds."""
    start = clock()
    daemon = DaemonProcess(name)
    try:
        client = Client(daemon.start(), digests)
        client.warm_up()
    except BaseException:
        daemon.stop()
        raise
    return daemon, client, clock() - start


def block_seconds(records: list[JobRecord]) -> list[tuple[float, int, int]]:
    """``(reference seconds, simulated branches, cells)`` of each whole
    block of jobs (of all jobs as one block, if the run stopped before one
    was whole)."""
    blocks = []
    size = min(len(BLOCK), len(records))
    for first in range(0, len(records) - size + 1, size):
        block = records[first:first + size]
        seconds = sum((record.finished - record.started) * record.scale for record in block)
        simulated = sum(record.executed * record.branches for record in block)
        cells = sum(record.cells for record in block)
        blocks.append((seconds, simulated, cells))
    return blocks


def timed_run(seconds: float, seed: int, digests: dict):
    """The untraced run: daemon boots, then the job stream. Every boot
    and every job is timed in reference seconds (see ``HostSpeed``)."""
    jobs = make_jobs(seed, jobs_for(seconds))
    speed = HostSpeed()
    boots = []
    daemon = None
    try:
        for sample in range(SETUP_SAMPLES):
            if daemon is not None:
                daemon.stop()
            daemon, client, seconds_to_ready = boot(f"serve-{sample}", digests)
            boots.append(seconds_to_ready * speed.scale())
        records, start = client.run_all(jobs, clock() + run_limit(seconds), speed)
        rss = own_peak_rss_mb() + daemon.peak_rss_mb()
    finally:
        if daemon is not None:
            daemon.stop()
    blocks = block_seconds(records)
    cells = {
        "executed": sum(r.executed for r in records),
        "from_cache": sum(r.from_cache for r in records),
        "deduped": sum(r.deduped for r in records),
    }
    latencies = [record.latency * record.scale for record in records]
    tail_value, tail_pct, n_jobs = tail(latencies)
    attempted = sum(record.cells for record in records)
    failed = sum(record.failed for record in records)
    metrics = {
        "wall_s": metric(median(s for s, _, _ in blocks), "s"),
        "setup_s": metric(median(boots), "s"),
        "sim_branches_per_s": metric(median(sim / s for s, sim, _ in blocks), "1/s"),
        "cells_per_s": metric(median(cells / s for s, _, cells in blocks), "1/s"),
        "job_latency_p50_s": metric(median(latencies), "s"),
        "job_latency_tail_s": metric(tail_value, "s"),
        "peak_rss_mb": metric(rss, "MB"),
    }
    details = {
        "workload": "serve-sweep",
        "host_speed_scale_median": median(speed.scales),
        "jobs": n_jobs,
        "job": "sweep job",
        "job_latency_tail_percentile": tail_pct,
        "block_seconds": [s for s, _, _ in blocks],
        "host_timed_phase_s": records[-1].finished - start - speed.overhead_s,
        "boot_seconds": boots,
        **{f"cells_{kind}": count for kind, count in cells.items()},
        **{f"cells_{kind}_share": count / attempted for kind, count in cells.items()},
    }
    return attempted, failed, metrics, details


def serve_layer_metrics(records: list[JobRecord]) -> dict[str, tuple[float, str]]:
    """The client-side ``serve.*`` metrics (all zero when no job ran)."""
    daemon_s = sum(r.daemon_s for r in records)
    return {
        "serve.submit_s": (sum(r.submit_s for r in records), "s"),
        "serve.daemon_job_s": (daemon_s, "s"),
        "serve.overhead_s": (sum(r.latency for r in records) - daemon_s, "s"),
        "serve.cells_executed": (sum(r.executed for r in records), "count"),
        "serve.cells_from_cache": (sum(r.from_cache for r in records), "count"),
        "serve.cells_deduped": (sum(r.deduped for r in records), "count"),
    }


def _in_process(name: str, digests: dict, jobs: list[Job], seconds: float, tracer=None):
    """Run ``jobs`` against a daemon hosted in this process (``--jobs 1``)."""
    from repro.serve.daemon import ServeConfig, start_daemon

    directory = WORK / name
    shutil.rmtree(directory, ignore_errors=True)
    handle = start_daemon(ServeConfig(port=0, jobs=1, cache_url=str(directory / "cache")))
    try:
        client = Client(handle.url, digests)
        client.warm_up()
        if tracer is not None:
            from layers import install

            install(tracer)
            client.submit = tracer.span("serve.submit", client.submit)
            client.wait = tracer.span("serve.wait", client.wait)
            client.fetch = tracer.span("serve.fetch", client.fetch)
        try:
            records, start = client.run_all(jobs, deadline=clock() + run_limit(seconds))
            return records, records[-1].finished - start
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        handle.stop()


def traced_run(seconds: float, seed: int, digests: dict):
    """A quarter of the jobs untraced, then the same jobs traced, each on
    a fresh in-process daemon so worker-side layers are visible. (With one
    worker the daemon is about half as fast, so both together take about
    as long as an untraced run.)"""
    from layers import Tracer, coverage, layer_self_s, per_layer_metrics, summarize

    jobs = make_jobs(seed, jobs_for(seconds / 4))
    plain, plain_wall = _in_process("serve-plain", digests, jobs, seconds)
    tracer = Tracer()
    traced, traced_wall = _in_process("serve-traced", digests, jobs, seconds, tracer)
    summary = summarize(tracer)
    metrics = per_layer_metrics(summary)
    metrics.update(serve_layer_metrics(traced))
    layers = layer_self_s(summary)
    # The client's serve.* spans wait while the daemon thread works, so
    # they are the root layer: coverage counts the daemon-side layers.
    covered = coverage(layers, "serve", traced_wall)
    metrics.update({
        "trace.wall_s": (traced_wall, "s"),
        "trace.overhead_s": (traced_wall - plain_wall, "s"),
        "trace.self_coverage": (covered, "ratio"),
    })
    attempted = sum(r.cells for r in plain + traced)
    failed = sum(r.failed for r in plain + traced)
    return attempted, failed, summary, metrics, {
        "workload": "serve-sweep",
        "jobs": len(traced),
        "untraced_wall_s": plain_wall,
        "layer_self_s": layers,
        "unattributed_s": traced_wall * (1.0 - covered),
    }
