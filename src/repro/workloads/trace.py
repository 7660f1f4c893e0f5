"""Branch traces: recording, persistence and exact replay.

Traces serve two distinct purposes, and the module keeps them honest
about which is which:

* **Exact replay** (:func:`record_trace` → :func:`replay_program`). A
  recorded trace file carries the program's CFG structure plus the
  committed outcome stream (see :mod:`repro.workloads.trace_io`), so a
  replayed program runs through :func:`repro.sim.driver.simulate` with
  genuine wrong-path fetch and reproduces the live run's statistics
  bit-for-bit. This is the record-once / sweep-many workflow.
* **Oracle replay** (:class:`BranchTrace` + the §6 ablation). The paper
  warns that feeding a critic future bits harvested from a correct-path
  trace gives it *oracle* information a real machine never has.
  :meth:`BranchTrace.future_bits` packages exactly that leak so the
  ablation can quantify the gap against the honest simulation.

In-memory capture and inspection:

>>> trace = BranchTrace("demo")
>>> trace.append(BranchRecord(pc=0x100, taken=True, uops=6))
>>> trace.append(BranchRecord(pc=0x104, taken=False, uops=4))
>>> (len(trace), trace.total_uops, trace.taken_rate)
(2, 10, 0.5)
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from repro.workloads.behaviors import BranchBehavior, ExecutionContext
from repro.workloads.program import Program

if TYPE_CHECKING:  # runtime imports stay lazy: trace_io imports this module
    from repro.workloads.trace_io import TraceHeader


@dataclass(frozen=True)
class BranchRecord:
    """One committed conditional branch."""

    pc: int
    taken: bool
    #: uops committed since the previous conditional branch (inclusive of
    #: this branch's block) — reconstructs uop denominators from a trace.
    uops: int = 1


class BranchTrace:
    """An in-memory sequence of committed branch records.

    For anything longer than an ablation window prefer the streaming
    file APIs (:func:`record_trace`, :class:`~repro.workloads.trace_io.TraceReader`);
    this class materialises every record.
    """

    def __init__(self, name: str = "trace") -> None:
        self.name = name
        self._records: list[BranchRecord] = []

    def append(self, record: BranchRecord) -> None:
        self._records.append(record)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[BranchRecord]:
        return iter(self._records)

    def __getitem__(self, index):
        return self._records[index]

    @classmethod
    def from_file(cls, path: str | os.PathLike) -> "BranchTrace":
        """Load a trace file's records into memory (ablation-sized only)."""
        from repro.workloads.trace_io import TraceReader

        with TraceReader(path) as reader:
            trace = cls(reader.header.name)
            for record in reader.records():
                trace.append(record)
        return trace

    @property
    def total_uops(self) -> int:
        return sum(r.uops for r in self._records)

    @property
    def taken_rate(self) -> float:
        if not self._records:
            return 0.0
        return sum(r.taken for r in self._records) / len(self._records)

    def distinct_sites(self) -> int:
        return len({r.pc for r in self._records})

    def window(self, start: int, length: int) -> list[BranchRecord]:
        """A slice of the trace (bounds-checked).

        >>> trace = BranchTrace()
        >>> for index in range(4):
        ...     trace.append(BranchRecord(pc=index, taken=index % 2 == 0))
        >>> [r.pc for r in trace.window(1, 2)]
        [1, 2]
        """
        if start < 0 or length < 0:
            raise ValueError("start and length must be non-negative")
        return self._records[start : start + length]

    def future_bits(self, index: int, count: int) -> int:
        """Oracle future bits for the branch at ``index``.

        Packs the actual outcomes of branches ``index .. index+count-1``
        with the branch's own outcome at bit ``count-1`` and the newest
        outcome at bit 0 — the same layout the critic's BOR would hold if
        every prophet prediction were correct. This is precisely the
        information §6 warns a trace-driven evaluation would leak.
        """
        value = 0
        for offset in range(count):
            position = count - 1 - offset
            record_index = index + offset
            if record_index < len(self._records):
                value |= int(self._records[record_index].taken) << position
        return value


# ---------------------------------------------------------------------------
# Recording
# ---------------------------------------------------------------------------


def capture_trace(program: Program, n_branches: int) -> BranchTrace:
    """Record ``program``'s committed branch stream into memory.

    The program is reset first, so the capture matches what a fresh
    :func:`~repro.sim.driver.simulate` run commits.
    """
    trace = BranchTrace(program.name)
    for record in _committed_stream(program, n_branches):
        trace.append(record)
    return trace


def record_trace(
    program: Program,
    n_branches: int,
    path: str | os.PathLike,
    *,
    source: dict | None = None,
) -> "TraceHeader":
    """Record ``program``'s committed branch stream to a trace file.

    Streams straight to disk (constant memory) and publishes the file
    atomically; returns the written header. ``source`` is free-form
    provenance stored alongside (e.g. the generating profile).
    """
    from repro.workloads.trace_io import TraceWriter

    with TraceWriter(path, program.structure(), source=source) as writer:
        for record in _committed_stream(program, n_branches):
            writer.write(record)
    assert writer.header is not None
    return writer.header


def _committed_stream(program: Program, n_branches: int) -> Iterator[BranchRecord]:
    """Yield the first ``n_branches`` committed branches of a fresh run."""
    # Engine imports stay local: the engine depends on workloads, not
    # the other way around.
    from repro.engine.executor import ArchitecturalExecutor

    if n_branches < 1:
        raise ValueError("n_branches must be positive")
    program.reset()
    executor = ArchitecturalExecutor(program)
    resolve_next = executor.resolve_next
    for _ in range(n_branches):
        pc, taken, uops = resolve_next()
        yield BranchRecord(pc=pc, taken=taken, uops=uops)


# ---------------------------------------------------------------------------
# Exact replay
# ---------------------------------------------------------------------------


class ReplayCursor:
    """Shared commit-order read position over a trace file's records.

    Every replayed conditional branch pulls its outcome from the same
    cursor, which streams records from disk on demand. ``rewind`` (used
    by ``Program.reset``) reopens the stream from the first record.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = os.fspath(path)
        self.consumed = 0
        self._reader = None
        self._records: Iterator[BranchRecord] | None = None

    def rewind(self) -> None:
        """Restart from the first record (idempotent)."""
        if self._reader is not None:
            self._reader.close()
        self._reader = None
        self._records = None
        self.consumed = 0

    def next_record(self) -> BranchRecord:
        """The next committed branch record, in trace order."""
        from repro.workloads.trace_io import TraceFormatError, TraceReader

        if self._records is None:
            self._reader = TraceReader(self.path)
            self._records = self._reader.records()
        try:
            record = next(self._records)
        except StopIteration:
            exhausted_at = self.consumed
            self.close()
            raise TraceFormatError(
                "trace exhausted: the simulation needs more branches than "
                "were recorded",
                path=self.path,
                offset=exhausted_at,
                actual=f"{exhausted_at} records available",
            ) from None
        self.consumed += 1
        return record

    def close(self) -> None:
        if self._reader is not None:
            self._reader.close()
        self._reader = None
        self._records = None

    def __del__(self) -> None:
        # Deterministic-enough cleanup on CPython: a replayed program
        # going out of scope releases its trace file handle immediately
        # (rewind/close also release it explicitly mid-run).
        try:
            self.close()
        except (OSError, ValueError):
            # The narrow set a close can actually raise (I/O failure,
            # double-close of a wrapped stream); anything else is a bug
            # that must not be muffled by interpreter teardown.
            pass


class TraceReplayBehavior(BranchBehavior):
    """Replays a recorded outcome for one branch site.

    All sites of a replayed program share one :class:`ReplayCursor`;
    because behaviours are resolved exactly once per committed branch in
    program order, popping the cursor in resolution order reproduces the
    recorded stream exactly. A pc mismatch means the trace and the CFG
    disagree (tampering or a format bug) and raises
    :class:`~repro.workloads.trace_io.TraceFormatError`.
    """

    __slots__ = ("cursor",)

    kind = "replay"

    def __init__(self, cursor: ReplayCursor) -> None:
        self.cursor = cursor

    def resolve(self, site: int, ctx: ExecutionContext) -> bool:
        from repro.workloads.trace_io import TraceFormatError

        record = self.cursor.next_record()
        if record.pc != site:
            raise TraceFormatError(
                "replay desync: recorded branch does not match the CFG walk",
                path=self.cursor.path,
                offset=self.cursor.consumed - 1,
                expected=hex(site),
                actual=hex(record.pc),
            )
        return record.taken

    def reset(self) -> None:
        self.cursor.rewind()


def replay_program(path: str | os.PathLike) -> Program:
    """Build a trace-backed :class:`Program` from a recorded file.

    The returned program carries the recorded CFG with every conditional
    branch scripted to its recorded outcomes, so the wrong-path-accurate
    simulator treats it exactly like a generated workload — and produces
    bit-for-bit the statistics of the original live run (the differential
    tests in ``tests/sim/test_trace_replay.py`` enforce this).
    """
    from repro.workloads.trace_io import TraceReader

    with TraceReader(path) as reader:
        structure = reader.structure()
    cursor = ReplayCursor(path)
    return Program.from_structure(
        structure, lambda block_id, pc: TraceReplayBehavior(cursor)
    )
