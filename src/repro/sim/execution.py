"""Sweep-scale parallel execution engine.

Every experiment in §7 is a grid of (prophet × critic × size × future
bits × benchmark) cells. Cells are perfectly independent — each gets a
fresh program and fresh predictor state — so the grid is embarrassingly
parallel. This module turns a list of :class:`~repro.sim.specs.SweepCell`
descriptions into results through three cooperating pieces:

* :func:`run_cell` — the from-scratch work unit: the executors' cell
  body with a fresh build of the cell's program and system. It is the
  *reference semantics* every faster path must match bit for bit.
* **Executors** — :class:`SerialExecutor` runs cells in the calling
  process; :class:`ProcessPoolExecutor` fans them out over a
  **persistent** ``concurrent.futures`` process pool that survives
  across ``map_cells`` calls, so interpreter spawn and imports are paid
  once per worker rather than once per grid. Both memoise program
  builds (:class:`ProgramBuildCache`): a worker compiles each distinct
  workload once and replays it for every system swept over it, resetting
  behaviour state between runs (compiled CFG transition tables survive —
  the expensive part). Both stream results as cells finish instead of
  returning one ordered batch.
* :class:`SweepEngine` — executor + optional
  :class:`~repro.sim.cache.ResultCache`. Before running, each cell's
  content hash is probed in the cache; only missing cells are executed.
  Fresh results are written back **incrementally as each cell finishes**
  (pool workers write their own results), so a killed sweep resumes from
  everything already computed. Duplicate cells inside one sweep (same
  hash under different labels) are simulated once and cloned through the
  cache's lossless codec. An optional progress callback fires per
  completed cell (the CLI's ``--progress``).

The equivalence of every path — serial, persistent pool, memoized
builds, cold cache then warm cache — is not an aspiration but a tested
invariant (``tests/sim/test_execution.py`` asserts field-by-field
equality of the resulting results against :func:`run_cell`, on mixed
accuracy/timing grids with trace-backed and duplicate cells).

A cell that raises does not surface as a bare pickled traceback from a
nameless worker: executors wrap the failure in
:class:`CellExecutionError`, which names the cell's labels and carries
its full spec (and the worker traceback), and the engine cancels
outstanding work.

Experiments pick up the process-wide default engine (see
:func:`get_default_engine`), which the CLI configures from ``--jobs``,
``--cache-dir``, ``--no-cache`` and ``--progress``.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import math
import os
import traceback
from collections import OrderedDict
from concurrent import futures
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator, Sequence, Union

from repro.faults.workers import maybe_crash
from repro.sim.cache import ResultCache, clone_result
from repro.sim.driver import simulate
from repro.sim.metrics import RunStats
from repro.sim.specs import MODE_TIMING, ProgramSpec, SweepCell
from repro.sim.sweep import SweepResult

if TYPE_CHECKING:  # pipeline imports sim.driver; keep the runtime DAG acyclic
    from repro.pipeline.machine import PipelineResult
    from repro.workloads.program import Program

    CellResult = Union[RunStats, "PipelineResult"]
    #: Streaming hook: called with (index, result) as each cell finishes.
    OnResult = Callable[[int, "CellResult"], None]
    #: Progress hook: called with (done, total, cell) per finished cell.
    ProgressFn = Callable[[int, int, SweepCell], None]

#: Default per-process cap on memoized program builds (override with the
#: ``REPRO_BUILD_CACHE`` environment variable; ``0`` disables
#: memoization entirely, e.g. when bisecting a suspected stale-build
#: issue). All 19 named benchmarks, each built and run once at a
#: 2 000-branch window, retain 26.5 MB of Python memory together
#: (tracemalloc), so 24 holds the whole named suite at once with room
#: for a few trace-backed or custom programs. What a kept program holds
#: beyond its build is its trace memo, which grows with the longest
#: window it served; :data:`TRACE_MEMO_BUDGET` bounds those memos
#: across the cache.
DEFAULT_BUILD_CACHE_CAPACITY = 24

#: Branches of trace memo (the batched kernel's ``_trace_cache``
#: columns) that the programs in one build cache may hold together,
#: besides the memo of the program in use. Past it, the least recently
#: used programs drop theirs and walk again (or refetch from the trace
#: store) if they come back. A memo costs 49 to 67 bytes a branch
#: (tracemalloc, five named benchmarks at 65 536- and 262 144-branch
#: windows), so the programs not in use hold at most about 35 MB of
#: memo, whatever the capacity. The experiments' windows (16 000
#: branches at scale 1) never reach it.
TRACE_MEMO_BUDGET = 1 << 19

# --- persistent trace-column cache ------------------------------------------
#
# The batched kernel's architectural-trace columns are a pure function of
# the program build key and prefix-stable in the branch count, so they
# can outlive the process. When ``REPRO_TRACE_CACHE`` names a cache URL
# (same grammar as result caches: a directory, ``http://...`` or
# ``tiered:local|remote``), every executor — including pool workers,
# which inherit the environment rather than pickling a handle — spills
# the trace memo through that backend and skips the one-time CFG walk on
# later runs.

_trace_store_ready = False


def _ensure_trace_store() -> None:
    global _trace_store_ready
    if _trace_store_ready:
        return
    _trace_store_ready = True
    url = os.environ.get("REPRO_TRACE_CACHE")
    if not url:
        return
    from repro.sim.batched import set_trace_store
    from repro.sim.cache import TraceColumnStore, cache_from_url

    set_trace_store(TraceColumnStore(cache_from_url(url)))


class CellExecutionError(RuntimeError):
    """A sweep cell failed: names the cell, carries its spec and traceback.

    Raised by every executor path in place of the cell's bare exception
    (which, from a pool worker, would otherwise surface as an unlabelled
    pickled traceback). The original cause is preserved via exception
    chaining in-process and as formatted text from workers.
    """

    def __init__(
        self,
        system_label: str,
        bench_name: str,
        spec_config: dict,
        cause: str,
        worker_traceback: str | None = None,
        cause_types: tuple[str, ...] = (),
    ) -> None:
        self.system_label = system_label
        self.bench_name = bench_name
        self.spec_config = spec_config
        self.cause = cause
        self.worker_traceback = worker_traceback
        #: Class names in the original exception's MRO (most derived
        #: first) — lets callers match on base classes (e.g. "OSError"
        #: catches FileNotFoundError) even across the pickle boundary,
        #: where the original exception object is not available.
        self.cause_types = tuple(cause_types)
        message = (
            f"sweep cell {system_label!r} × {bench_name!r} failed: {cause}\n"
            f"  cell spec: {json.dumps(spec_config, sort_keys=True)}"
        )
        if worker_traceback:
            message += f"\n  worker traceback:\n{worker_traceback}"
        super().__init__(message)

    def caused_by(self, *type_names: str) -> bool:
        """Whether the original exception is (a subclass of) any name."""
        return any(name in self.cause_types for name in type_names)

    def __reduce__(self):  # pickles across the pool boundary, losslessly
        return (
            CellExecutionError,
            (
                self.system_label,
                self.bench_name,
                self.spec_config,
                self.cause,
                self.worker_traceback,
                self.cause_types,
            ),
        )


def _wrap_cell_error(
    cell: SweepCell, exc: Exception, *, in_worker: bool = False
) -> CellExecutionError:
    # In-process failures chain the original exception (``raise ... from``),
    # which already carries the real traceback; only failures crossing the
    # pool's pickle boundary need it captured as text.
    return CellExecutionError(
        system_label=cell.system_label,
        bench_name=cell.bench_name,
        spec_config=cell.to_config(),
        cause=f"{type(exc).__name__}: {exc}",
        worker_traceback=traceback.format_exc() if in_worker else None,
        cause_types=tuple(base.__name__ for base in type(exc).__mro__),
    )


class WorkerPoolError(RuntimeError):
    """The worker pool died and bounded retry could not contain it.

    Unlike :class:`CellExecutionError` there is no single cell to blame —
    the interpreter hosting it vanished (OOM kill, segfault, machine
    signal). After a pool break the executor respawns the pool and
    re-runs the unfinished cells one at a time (so repeat crashes become
    attributable to a cell); only when a cell exceeds its
    :class:`FailurePolicy` crash budget — and quarantine is off — does
    this error surface. It also surfaces at once, with no retry, when
    :meth:`ProcessPoolExecutor.terminate` kills the pool under a running
    ``map_cells``. The pool respawns on the next use either way, and
    results already computed remain in the cache.
    """


@dataclass(frozen=True)
class FailurePolicy:
    """How the pool executor responds when workers die mid-sweep.

    ``worker_crash_retries`` bounds how many times one cell may be
    re-run after taking a worker down with it (so recovery always
    terminates). A cell that exhausts the budget either aborts the sweep
    with :class:`WorkerPoolError` (``quarantine=False``, the historical
    behaviour) or is **quarantined**: reported as a
    :class:`CellFailure` in the sweep result while every other cell
    completes normally (``quarantine=True`` — what the daemon and the
    chaos harness use, so one poisoned cell cannot sink a whole job).
    """

    worker_crash_retries: int = 2
    quarantine: bool = False


DEFAULT_FAILURE_POLICY = FailurePolicy()

#: The daemon-side default: contain a poisoned cell, finish the job.
QUARANTINE_FAILURE_POLICY = FailurePolicy(quarantine=True)


@dataclass(frozen=True)
class CellFailure:
    """A quarantined cell: what it was, how it died, how often we tried.

    Appears *in place of* a result in ``map_cells``/``run_cells`` output
    (and under :attr:`~repro.sim.sweep.SweepResult.failures`) when a
    quarantining :class:`FailurePolicy` gave up on the cell. Carries the
    cell's labels and spec so a report names the culprit precisely.
    """

    system_label: str
    bench_name: str
    kind: str
    attempts: int
    message: str
    spec_config: dict

    @classmethod
    def worker_crash(cls, cell: SweepCell, attempts: int, message: str) -> "CellFailure":
        return cls(
            system_label=cell.system_label,
            bench_name=cell.bench_name,
            kind="worker-crash",
            attempts=attempts,
            message=message,
            spec_config=cell.to_config(),
        )

    def relabel(self, cell: SweepCell) -> "CellFailure":
        """The same failure filed under another (duplicate) cell's labels."""
        from dataclasses import replace

        return replace(
            self, system_label=cell.system_label, bench_name=cell.bench_name
        )

    def describe(self) -> dict:
        """JSON-safe record for job results and chaos reports."""
        return {
            "system": self.system_label,
            "benchmark": self.bench_name,
            "kind": self.kind,
            "attempts": self.attempts,
            "message": self.message,
        }


class ProgramBuildCache:
    """Per-process LRU of built programs, keyed by build identity.

    ``program_for(spec)`` returns a ready-to-run
    :class:`~repro.workloads.program.Program` for the spec, building it
    only when no behaviourally identical program (equal
    :meth:`~repro.sim.specs.ProgramSpec.build_key`) is cached. Reused
    programs are ``reset()`` — behaviour state and replay cursors rewind,
    while the lazily compiled CFG transition tables (the expensive part
    of a build) survive. :func:`simulate` and the timing machine reset
    again on entry, so a cached program is indistinguishable from a fresh
    build; the differential tests pin that down.

    Capacity-evicted programs are reset too, which closes any open trace
    reader they hold. Kept programs other than the one handed out drop
    their trace memos, least recently used first, while the cache's
    memos together exceed :data:`TRACE_MEMO_BUDGET` branches.
    """

    def __init__(self, capacity: int | None = None) -> None:
        if capacity is None:
            raw = os.environ.get("REPRO_BUILD_CACHE")
            if raw is None or raw == "":
                capacity = DEFAULT_BUILD_CACHE_CAPACITY
            else:
                try:
                    capacity = int(raw)
                except ValueError:
                    # Loud, not silent: a malformed override must never
                    # masquerade as the default (the knob exists for
                    # stale-build bisection, where that would mislead).
                    raise ValueError(
                        f"REPRO_BUILD_CACHE must be an integer >= 0, got {raw!r}"
                    ) from None
        if capacity < 0:
            raise ValueError("build cache capacity must be >= 0 (0 disables memoization)")
        self.capacity = capacity
        self._programs: OrderedDict[str, Program] = OrderedDict()
        #: Lifetime build/reuse counts (read by the tests that pin the
        #: memo's hit pattern).
        self.builds = 0
        self.reuses = 0
        _ensure_trace_store()

    def program_for(self, spec: ProgramSpec) -> "Program":
        key = spec.build_key()
        program = self._programs.get(key)
        if program is None:
            program = spec.build()
            # Annotate the build identity so the batched kernel's trace
            # memo can spill through the persistent trace-column store
            # (ad-hoc programs without the stamp never touch it). The
            # fused replay context rides on the program object itself,
            # so same-program cells in a chunk share all per-program
            # precompute automatically.
            program._build_key = key
            self.builds += 1
            self._programs[key] = program
            while len(self._programs) > self.capacity:
                _, evicted = self._programs.popitem(last=False)
                evicted.reset()
        else:
            self.reuses += 1
            self._programs.move_to_end(key)
            program.reset()
        self._trim_trace_memos(program)
        return program

    def _trim_trace_memos(self, in_use: "Program") -> None:
        memos = [
            (program, memo[0])
            for program in self._programs.values()
            if (memo := getattr(program, "_trace_cache", None)) is not None
        ]
        held = sum(length for _, length in memos)
        for program, length in memos:  # least recently used first
            if held <= TRACE_MEMO_BUDGET:
                break
            if program is not in_use:
                del program._trace_cache
                held -= length

    def clear(self) -> None:
        for program in self._programs.values():
            program.reset()
        self._programs.clear()

    def __len__(self) -> int:
        return len(self._programs)


def _compute_cell(cell: SweepCell, builds: ProgramBuildCache) -> CellResult:
    """Run one cell against a (possibly memoized) program build."""
    program = builds.program_for(cell.program)
    system = cell.system.build()
    if cell.mode == MODE_TIMING:
        from repro.pipeline.machine import TimedMachine

        result: CellResult = TimedMachine(program, system).run(
            cell.config.n_branches, warmup=cell.config.warmup
        )
    else:
        result = simulate(program, system, cell.config)
    # Release per-run resources now, not at reuse/eviction time: for
    # trace-backed programs this closes the replay reader, so a finished
    # sweep holds no open handles on the trace files it read.
    program.reset()
    result.system = cell.system_label
    result.benchmark = cell.bench_name
    return result


def run_cell(cell: SweepCell) -> CellResult:
    """Execute one sweep cell entirely from scratch (reference semantics).

    The executors' cell body against a throwaway build cache: program
    and system are rebuilt from their specs, so the result depends only
    on the cell's content — never on which process, in which order, or
    against which cached build it runs.
    """
    return _compute_cell(cell, ProgramBuildCache())


def _stamp(result: CellResult, cell: SweepCell) -> CellResult:
    """Re-apply a cell's labels (cache entries may carry another label)."""
    result.system = cell.system_label
    result.benchmark = cell.bench_name
    return result


# --- worker side -----------------------------------------------------------
#
# One build cache per worker process, created lazily on the first chunk.
# With cells grouped by program before submission, a worker compiles each
# distinct workload at most once per sweep — a 12-system × 8-benchmark
# grid costs ~8 builds per worker instead of 96 total.

_worker_builds: ProgramBuildCache | None = None


def _worker_build_cache() -> ProgramBuildCache:
    global _worker_builds
    if _worker_builds is None:
        _worker_builds = ProgramBuildCache()
    return _worker_builds


def _run_chunk(
    cells: Sequence[SweepCell],
    cache: ResultCache | None,
    keys: Sequence[str] | None,
) -> list[CellResult]:
    """Pool work unit: run a same-program chunk, writing results back.

    Each finished cell is written to the shared result cache *before* the
    chunk returns (atomic, last-writer-wins), so a sweep killed mid-chunk
    loses at most the one cell in flight per worker.
    """
    builds = _worker_build_cache()
    results: list[CellResult] = []
    for position, cell in enumerate(cells):
        # Fault-injection hook (no-op unless REPRO_FAULTS is set): fires
        # at cell start, before compute and write-back, so a killed
        # worker has published nothing and the retry is bit-identical.
        maybe_crash(cell)
        try:
            result = _compute_cell(cell, builds)
            if cache is not None:
                # Inside the wrap: a full disk / read-only cache dir must
                # surface with the cell's name too, not as a bare OSError.
                cache.put(keys[position] if keys else cell.content_hash(), result)
        except Exception as exc:
            raise _wrap_cell_error(cell, exc, in_worker=True) from exc
        results.append(result)
    return results


class SerialExecutor:
    """Runs cells one after another in the calling process.

    Builds are memoized exactly as in pool workers (an engine-owned
    :class:`ProgramBuildCache`), results stream through ``on_result`` in
    cell order, and fresh results are written to ``cache`` as they
    finish.
    """

    jobs = 1

    def __init__(self) -> None:
        self.builds = ProgramBuildCache()

    def map_cells(
        self,
        cells: Sequence[SweepCell],
        on_result: OnResult | None = None,
        cache: ResultCache | None = None,
        keys: Sequence[str] | None = None,
        failure_policy: "FailurePolicy | None" = None,
    ) -> list[CellResult]:
        # ``failure_policy`` is accepted for interface symmetry with the
        # pool executor; in-process cells cannot take a worker down.
        results: list[CellResult] = []
        for index, cell in enumerate(cells):
            try:
                result = _compute_cell(cell, self.builds)
                if cache is not None:
                    cache.put(keys[index] if keys else cell.content_hash(), result)
            except CellExecutionError:
                raise
            except Exception as exc:
                raise _wrap_cell_error(cell, exc) from exc
            if on_result is not None:
                on_result(index, result)
            results.append(result)
        return results

    def shutdown(self) -> None:
        """Release memoized builds (symmetry with the pool executor)."""
        self.builds.clear()


class ProcessPoolExecutor:
    """Fans cells out over a **persistent** process pool.

    The underlying ``concurrent.futures`` pool is created lazily on first
    use and survives across ``map_cells`` calls (and therefore across the
    grids of a whole experiment run), so worker spawn and module imports
    are paid once per ``jobs`` — not once per grid. Call
    :meth:`shutdown` (or use the owning engine as a context manager) to
    release the workers; a broken pool is discarded and respawned on the
    next call.

    Scheduling is dynamic: cells are grouped by program build identity,
    split into small same-program chunks, and consumed by whichever
    worker frees up first (``as_completed``), so a long timing cell no
    longer straggles behind a static chunk assignment. Grouping keeps
    each worker's :class:`ProgramBuildCache` hot: in the worst case every
    worker builds every distinct workload once; in the common case far
    fewer.

    Nothing stateful crosses the pickle boundary except the cells, the
    (path-only) result-cache handle and the finished results; results are
    reassembled in submission order, so a sweep's outcome is independent
    of worker scheduling.
    """

    #: Upper bound on cells per submitted chunk. Small enough that
    #: streaming write-back and progress stay responsive; large enough
    #: to amortise per-task pickling on big grids.
    MAX_CHUNK = 8

    def __init__(self, jobs: int | None = None) -> None:
        if jobs is not None and jobs < 1:
            raise ValueError("jobs must be at least 1")
        self.jobs = jobs or os.cpu_count() or 1
        self._pool: futures.ProcessPoolExecutor | None = None
        self._serial: SerialExecutor | None = None
        #: Crash-recovery telemetry, cumulative over the executor's life
        #: (read by the chaos harness and the daemon's /stats).
        self.worker_crashes = 0
        self.cells_retried = 0
        self.cells_quarantined = 0
        #: Bumped by :meth:`terminate`; a ``map_cells`` that sees it
        #: change stops instead of re-running its cells on a new pool.
        self._terminations = 0

    # -- pool lifecycle -----------------------------------------------------

    def _ensure_pool(self) -> futures.ProcessPoolExecutor:
        if self._pool is None:
            self._pool = futures.ProcessPoolExecutor(max_workers=self.jobs)
        return self._pool

    def _discard_pool(self) -> None:
        """Drop a broken pool (joins the manager thread; respawn on use)."""
        if self._pool is not None:
            self._pool.shutdown(wait=False)
            self._pool = None

    def shutdown(self) -> None:
        """Stop the persistent workers (idempotent; pool respawns on use)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
        if self._serial is not None:
            self._serial.shutdown()
            self._serial = None

    def terminate(self) -> None:
        """Forcibly kill the worker processes (the job-timeout path).

        Unlike :meth:`shutdown`, does not wait for in-flight cells: each
        worker gets SIGTERM, the broken pool is discarded, and the next
        ``map_cells`` respawns a healthy one. A ``map_cells`` running on
        the killed pool raises :class:`WorkerPoolError` rather than
        treating the kill as a crash to retry. Reaches into the pool's
        ``_processes`` map — a private but long-stable attribute; if a
        future stdlib drops it, this degrades to a plain discard and the
        zombie workers die with the daemon process instead.
        """
        pool = self._pool
        if pool is None:
            return
        self._terminations += 1
        processes = getattr(pool, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.terminate()
            except (OSError, ValueError):
                pass  # already dead or never started
        self._discard_pool()

    def _stop_if_terminated(
        self, terminations: int, exc: BaseException | None = None
    ) -> None:
        """Raise if :meth:`terminate` has run since ``terminations`` was read."""
        if self._terminations != terminations:
            self._discard_pool()
            raise WorkerPoolError("the worker pool was terminated mid-run") from exc

    # -- scheduling ---------------------------------------------------------

    def _chunks(self, cells: Sequence[SweepCell]) -> list[list[int]]:
        """Indices grouped by program build key, split into small chunks."""
        groups: OrderedDict[str, list[int]] = OrderedDict()
        for index, cell in enumerate(cells):
            groups.setdefault(cell.program.build_key(), []).append(index)
        chunks: list[list[int]] = []
        for indices in groups.values():
            per_chunk = min(self.MAX_CHUNK, max(1, math.ceil(len(indices) / self.jobs)))
            for start in range(0, len(indices), per_chunk):
                chunks.append(indices[start : start + per_chunk])
        return chunks

    def map_cells(
        self,
        cells: Sequence[SweepCell],
        on_result: OnResult | None = None,
        cache: ResultCache | None = None,
        keys: Sequence[str] | None = None,
        failure_policy: FailurePolicy | None = None,
    ) -> list[CellResult]:
        if not cells:
            return []
        if self.jobs == 1:
            # A 1-job "pool" runs in-process, memoized and streaming, with
            # no worker spawn or pickle round trips. Any other grid, a
            # single cell included, goes to the workers: this process
            # then keeps no copies of the programs they hold, and
            # terminate() can stop every cell.
            if self._serial is None:
                self._serial = SerialExecutor()
            return self._serial.map_cells(cells, on_result=on_result, cache=cache, keys=keys)
        policy = failure_policy if failure_policy is not None else DEFAULT_FAILURE_POLICY
        terminations = self._terminations
        pool = self._ensure_pool()
        results: list[CellResult | None] = [None] * len(cells)
        finished: set[int] = set()
        submitted: dict[futures.Future, list[int]] = {}

        def harvest(index: int, result: CellResult) -> None:
            results[index] = result
            finished.add(index)
            if on_result is not None:
                on_result(index, result)

        try:
            for chunk in self._chunks(cells):
                chunk_keys = [keys[i] for i in chunk] if keys is not None else None
                future = pool.submit(
                    _run_chunk, [cells[i] for i in chunk], cache, chunk_keys
                )
                submitted[future] = chunk
            for future in futures.as_completed(submitted):
                for index, result in zip(submitted[future], future.result()):
                    harvest(index, result)
        except BrokenProcessPool as exc:
            self._stop_if_terminated(terminations, exc)
            # A dead worker poisons the whole pool. Salvage every chunk
            # that finished before the break, discard the remains, then
            # contain the damage: re-run the unfinished cells one at a
            # time so a repeat crash is attributable to a single cell.
            self.worker_crashes += 1
            for future, chunk in submitted.items():
                if not future.done() or future.cancelled():
                    continue
                if future.exception() is not None:
                    continue
                for index, result in zip(chunk, future.result()):
                    if index not in finished:
                        harvest(index, result)
            for future in submitted:
                future.cancel()
            self._discard_pool()
            remaining = [i for i in range(len(cells)) if i not in finished]
            self._contain_crashes(
                cells, remaining, harvest, cache, keys, policy, terminations
            )
        except BaseException as exc:
            # Fail fast: a cell error (or interrupt) cancels every chunk
            # that has not started; already-running chunks finish in the
            # background and their results stay in the cache.
            for future in submitted:
                future.cancel()
            if isinstance(exc, Exception):
                # submit() on the pool terminate() just shut down.
                self._stop_if_terminated(terminations, exc)
            raise
        return results  # type: ignore[return-value]

    def _contain_crashes(
        self,
        cells: Sequence[SweepCell],
        remaining: Sequence[int],
        harvest: Callable[[int, "CellResult"], None],
        cache: ResultCache | None,
        keys: Sequence[str] | None,
        policy: FailurePolicy,
        terminations: int,
    ) -> None:
        """Finish ``remaining`` cells after a pool break, one at a time.

        Singleton chunks trade the tail's parallelism for attribution:
        when a worker dies here, exactly one cell was in flight, so the
        crash count lands on the right cell. A cell that exceeds
        ``policy.worker_crash_retries`` is quarantined (reported as a
        :class:`CellFailure`) or, without quarantine, aborts with
        :class:`WorkerPoolError` naming it.
        """
        for index in remaining:
            cell = cells[index]
            attempts = 0
            while True:
                attempts += 1
                self._stop_if_terminated(terminations)
                key_arg = [keys[index]] if keys is not None else None
                try:
                    future = self._ensure_pool().submit(_run_chunk, [cell], cache, key_arg)
                except RuntimeError as exc:  # terminate() shut the pool down
                    self._stop_if_terminated(terminations, exc)
                    raise
                try:
                    (result,) = future.result()
                except BrokenProcessPool as exc:
                    self._stop_if_terminated(terminations, exc)
                    self.worker_crashes += 1
                    self._discard_pool()
                    if attempts <= policy.worker_crash_retries:
                        self.cells_retried += 1
                        continue
                    message = (
                        f"cell {cell.system_label!r} × {cell.bench_name!r} "
                        f"killed a sweep worker {attempts} time(s) ({exc})"
                    )
                    if policy.quarantine:
                        self.cells_quarantined += 1
                        harvest(index, CellFailure.worker_crash(cell, attempts, message))
                        break
                    raise WorkerPoolError(
                        f"{message} — likely killed by the OS (out of memory?) "
                        "or crashed; the pool will respawn on the next run, and "
                        "results already computed remain in the cache"
                    ) from exc
                harvest(index, result)
                break


@dataclass
class SweepEngine:
    """Executor + cache: the one place sweep cells get turned into results.

    ``run_cells`` is the primitive — results in cell order, cache
    consulted per cell, duplicates coalesced, fresh results streamed to
    the cache as they finish. ``run`` additionally files accuracy results
    into a :class:`SweepResult` keyed by the cells' (system label,
    benchmark name).

    ``progress`` (or the per-call override) is called as
    ``progress(done, total, cell)`` for every finished cell — cache hits,
    fresh runs and duplicates alike. The engine is a context manager;
    leaving the ``with`` block shuts down a persistent worker pool.
    """

    executor: SerialExecutor | ProcessPoolExecutor = field(default_factory=SerialExecutor)
    cache: ResultCache | None = None
    progress: ProgressFn | None = None
    #: How worker crashes are contained (bounded retry, quarantine).
    failure_policy: FailurePolicy = DEFAULT_FAILURE_POLICY

    def run_cells(
        self,
        cells: Sequence[SweepCell],
        progress: ProgressFn | None = None,
    ) -> list[CellResult]:
        progress = progress if progress is not None else self.progress
        total = len(cells)
        done = 0
        results: dict[int, CellResult] = {}
        pending: list[int] = []
        keys: list[str] = []
        first_index: dict[str, int] = {}
        duplicates: list[tuple[int, str]] = []
        for index, cell in enumerate(cells):
            try:
                key = cell.content_hash()
            except Exception as exc:
                # A spec that cannot even be described (unknown benchmark,
                # unreadable trace) fails here in the parent; name the
                # cell instead of leaking a bare KeyError/OSError.
                raise _wrap_cell_error(cell, exc) from exc
            keys.append(key)
            if key in first_index:
                duplicates.append((index, key))
                continue
            first_index[key] = index
            cached = self.cache.get(key) if self.cache is not None else None
            if cached is not None:
                results[index] = _stamp(cached, cell)
                done += 1
                if progress is not None:
                    progress(done, total, cell)
            else:
                pending.append(index)
        if pending:

            def on_result(position: int, result: CellResult) -> None:
                nonlocal done
                done += 1
                if progress is not None:
                    progress(done, total, cells[pending[position]])

            # Duck-typed executors predating FailurePolicy (tests, user
            # harnesses) keep working: only pass the policy to map_cells
            # signatures that declare it.
            extra: dict = {}
            try:
                map_params = inspect.signature(self.executor.map_cells).parameters
            except (TypeError, ValueError):
                map_params = {}
            if "failure_policy" in map_params:
                extra["failure_policy"] = self.failure_policy
            fresh = self.executor.map_cells(
                [cells[i] for i in pending],
                on_result=on_result,
                cache=self.cache,
                keys=[keys[i] for i in pending],
                **extra,
            )
            for index, result in zip(pending, fresh):
                results[index] = result
        for index, key in duplicates:
            twin = results[first_index[key]]
            if isinstance(twin, CellFailure):
                # A duplicate of a quarantined cell would fail the same
                # way; file the failure under its own labels.
                results[index] = twin.relabel(cells[index])
            else:
                # Duplicates reuse their twin through the cache's lossless
                # codec — the same cheap reconstruction a cache hit performs,
                # far cheaper than deepcopying a stats object.
                results[index] = _stamp(clone_result(twin), cells[index])
            done += 1
            if progress is not None:
                progress(done, total, cells[index])
        return [results[index] for index in range(total)]

    def run(
        self,
        cells: Sequence[SweepCell],
        progress: ProgressFn | None = None,
    ) -> SweepResult:
        """Run accuracy cells and index the stats by (label, benchmark).

        Quarantined cells (see :class:`FailurePolicy`) are filed under
        ``SweepResult.failures`` instead of aborting the sweep.
        """
        sweep = SweepResult()
        for cell, result in zip(cells, self.run_cells(cells, progress=progress)):
            if isinstance(result, CellFailure):
                sweep.add_failure(cell.system_label, cell.bench_name, result)
                continue
            if not isinstance(result, RunStats):
                raise TypeError(
                    "SweepEngine.run expects accuracy cells; use run_cells "
                    "for timing cells"
                )
            sweep.add(cell.system_label, cell.bench_name, result)
        return sweep

    def close(self) -> None:
        """Shut down persistent workers / release memoized builds."""
        shutdown = getattr(self.executor, "shutdown", None)
        if shutdown is not None:
            shutdown()

    def __enter__(self) -> "SweepEngine":
        return self

    def __exit__(self, *_exc_info) -> None:
        self.close()


def make_engine(
    jobs: int = 1,
    cache_dir: str | os.PathLike | None = None,
    progress: ProgressFn | None = None,
    failure_policy: FailurePolicy | None = None,
) -> SweepEngine:
    """Build an engine from CLI-shaped knobs.

    ``jobs`` ≤ 1 selects the in-process serial executor; larger values a
    persistent process pool of that size. ``cache_dir`` of None disables
    caching. ``progress`` installs a per-cell completion callback.
    ``failure_policy`` overrides the default crash containment (the
    daemon passes :data:`QUARANTINE_FAILURE_POLICY`).
    """
    executor = SerialExecutor() if jobs <= 1 else ProcessPoolExecutor(jobs)
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    return SweepEngine(
        executor=executor,
        cache=cache,
        progress=progress,
        failure_policy=failure_policy or DEFAULT_FAILURE_POLICY,
    )


# --- process-wide default engine ------------------------------------------
#
# Experiment modules route their grids through whatever engine is current,
# so `python -m repro run figure5 --jobs 8 --cache-dir .cache` accelerates
# every experiment without threading parameters through each signature.
# Because the engine (and with it the worker pool and the per-process
# build caches) persists between calls, consecutive experiments in one
# process share warm workers and warm builds.

_default_engine: SweepEngine | None = None


def get_default_engine() -> SweepEngine:
    """The engine experiments use when none is passed explicitly.

    Serial and cacheless unless :func:`set_default_engine` or
    :func:`use_engine` installed something else — the exact semantics of
    the original single-process sweep loop.
    """
    global _default_engine
    if _default_engine is None:
        _default_engine = SweepEngine()
    return _default_engine


def set_default_engine(engine: SweepEngine | None) -> None:
    """Install (or with None, reset) the process-wide default engine."""
    global _default_engine
    _default_engine = engine


@contextlib.contextmanager
def use_engine(engine: SweepEngine | None) -> Iterator[SweepEngine]:
    """Temporarily install ``engine`` as the default (None = no change)."""
    if engine is None:
        yield get_default_engine()
        return
    previous = _default_engine
    set_default_engine(engine)
    try:
        yield engine
    finally:
        set_default_engine(previous)
