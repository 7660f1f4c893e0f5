"""Frozen reference implementation of the Table-2 timing model.

This module is a **verbatim behavioural copy** of ``TimedMachine`` as it
stood before the pooled, trace-fed rewrite of its loop: a deque FTQ of
freshly allocated handles, one ``FetchedBranch`` and ``WalkerSnapshot``
per fetch, and a private :class:`ArchitecturalExecutor` resolving the
committed stream in lockstep with the resolve queue. It exists so the
optimized loop in :mod:`repro.pipeline.machine` can be proven
**bit-for-bit identical** by ``tests/pipeline/test_differential_timing.py``:
any difference in a :class:`PipelineResult` field between the two is a
regression, never a tolerance question.

Like :mod:`reference_kernel`, it shares the *model* layer (``Program``,
behaviours, predictors, prediction systems, ``PipelineResult``,
``MemoryModel``) with production code. It drives :mod:`reference_kernel`'s
frozen walker and executor, whose object-shaped API is exactly what the
old loop called, and the production BTB, whose sets the differential
test compares.

It keeps one behaviour the production loop no longer has: ``run`` with
``warmup >= n_branches`` returns an empty measurement window
(``branches == 0``) next to the whole run's cycles, where production
raises ``ValueError``. The differential matrix only uses
``warmup < n_branches``.

Do not "improve" this file alongside timing-model optimizations. It
changes only when the *semantics* of the timing model change on purpose,
in which case the differential test pins the new semantics.
"""

from __future__ import annotations

from collections import deque

from reference_kernel import _ReferenceExecutor as ArchitecturalExecutor
from reference_kernel import _ReferenceWalker as SpeculativeWalker
from repro.core.hybrid import InflightBranch, PredictionSystem
from repro.engine.btb import BranchTargetBuffer
from repro.pipeline.caches import MemoryModel
from repro.pipeline.machine import PipelineResult
from repro.pipeline.uarch import MachineConfig, TABLE2_MACHINE
from repro.sim.driver import SimulationDesyncError
from repro.workloads.program import Program


class ReferenceTimedMachine:
    """Runs a prediction system under the Table-2 timing model."""

    def __init__(
        self,
        program: Program,
        system: PredictionSystem,
        machine: MachineConfig = TABLE2_MACHINE,
        memory: MemoryModel | None = None,
    ) -> None:
        self.program = program
        self.system = system
        self.machine = machine
        self.memory = memory if memory is not None else MemoryModel(machine)
        program.reset()
        self.executor = ArchitecturalExecutor(program)
        self.walker = SpeculativeWalker(program)
        self.btb = BranchTargetBuffer(machine.btb_entries, machine.btb_ways)

    def run(self, n_branches: int, warmup: int = 0) -> PipelineResult:
        """Simulate until ``n_branches`` resolve; measure after ``warmup``."""
        machine = self.machine
        system = self.system
        result = PipelineResult(
            benchmark=self.program.name, system=type(system).__name__
        )
        required_bits = max(system.future_bits, 0)

        # The FTQ holds fetched-but-unconsumed predictions; consumed
        # branches wait in the resolve queue for the pipeline delay.
        ftq: deque[InflightBranch] = deque()
        criticised = 0
        resolve_queue: deque[tuple[int, InflightBranch, int]] = deque()
        next_seq = 0
        resolved = 0
        cycle = 0
        fetch_blocked_until = 0
        backend_stall = 0.0
        committed = 0
        measure_start_uops = 0
        measure_start_fetched = 0
        measure_start_cycle = 0
        head_fetch_remaining = 0  # uops left to fetch of the current head

        def gathered(handle: InflightBranch) -> int:
            return next_seq - handle.seq

        while resolved < n_branches:
            cycle += 1
            if warmup > 0 and resolved >= warmup and measure_start_cycle == 0:
                measure_start_cycle = cycle
                measure_start_uops = committed
                measure_start_fetched = self.walker.fetched_uops

            # --- prophet: up to prophet_rate predictions/cycle ------------
            if cycle >= fetch_blocked_until:
                for _ in range(machine.prophet_rate):
                    if len(ftq) >= machine.ftq_entries:
                        break
                    fetched = self.walker.next_branch()
                    snap = self.walker.snapshot()
                    if self.btb.lookup(fetched.pc):
                        handle = system.predict(fetched.pc)
                        handle.seq = next_seq
                        next_seq += 1
                    else:
                        handle = system.predict_static(fetched.pc)
                        handle.seq = next_seq
                    handle.walker_snapshot = snap
                    handle.uops_hint = fetched.uops
                    ftq.append(handle)
                    self.walker.advance(handle.prophet_pred)

            # --- critic: up to critic_rate critiques/cycle ----------------
            for _ in range(machine.critic_rate):
                if criticised >= len(ftq):
                    break
                handle = ftq[criticised]
                needed = 0 if handle.is_static else required_bits
                if gathered(handle) < needed and len(ftq) < machine.ftq_entries:
                    break  # wait for more future bits
                final = system.critique(handle)
                criticised += 1
                if not handle.is_static and final != handle.prophet_pred:
                    while len(ftq) > criticised:
                        ftq.pop()
                    system.apply_redirect(handle, final)
                    self.walker.restore(handle.walker_snapshot)
                    self.walker.advance(final)
                    next_seq = handle.seq + 1
                    result.critic_redirects += 1

            # --- fetch: cache consumes uops from the FTQ head --------------
            # A block of U uops occupies the fetch port for ceil(U/width)
            # cycles; the branch enters the pipeline when its last uop is
            # fetched and resolves a full pipeline depth later. When the
            # cache requires a prediction whose critique isn't ready, the
            # critique is generated with the future bits available (§5) —
            # stalling fetch on the critic would starve the machine after
            # every flush, when the FTQ is shallow.
            if ftq:
                if not ftq[0].critiqued:
                    forced = ftq[0]
                    final = system.critique(forced)
                    criticised = max(criticised, 1)
                    result_forced = not forced.is_static and final != forced.prophet_pred
                    if result_forced:
                        while len(ftq) > 1:
                            ftq.pop()
                        criticised = 1
                        system.apply_redirect(forced, final)
                        self.walker.restore(forced.walker_snapshot)
                        self.walker.advance(final)
                        next_seq = forced.seq + 1
                        result.critic_redirects += 1
                if head_fetch_remaining == 0:
                    head_fetch_remaining = ftq[0].uops_hint
                head_fetch_remaining -= machine.fetch_width_uops
                if head_fetch_remaining <= 0:
                    head_fetch_remaining = 0
                    head = ftq.popleft()
                    criticised -= 1
                    resolve_queue.append(
                        (cycle + machine.mispredict_penalty_cycles, head, head.uops_hint)
                    )
            else:
                result.ftq_empty_cycles += 1

            # --- retire/resolve: bounded by retire width -------------------
            # Retirement is incremental: a branch commits once all its
            # block's uops have drained through the retire port, so blocks
            # wider than the port simply take several cycles.
            retire_budget = machine.retire_width_uops
            while resolve_queue and resolve_queue[0][0] <= cycle and retire_budget > 0:
                entry = resolve_queue[0]
                head = entry[1]
                uops_left = entry[2]
                if uops_left > retire_budget:
                    resolve_queue[0] = (entry[0], head, uops_left - retire_budget)
                    retire_budget = 0
                    break
                retire_budget -= uops_left
                resolve_queue.popleft()
                actual = self.executor.next_branch()
                if actual.pc != head.pc:
                    raise SimulationDesyncError(
                        f"timing model desync at branch {resolved}: "
                        f"{actual.pc:#x} vs {head.pc:#x}"
                    )
                committed += actual.uops
                backend_stall += self.memory.stall_cycles(committed, actual.uops)
                resolved += 1
                if resolved > warmup:
                    result.branches += 1
                mispredicted = head.final_pred != actual.taken or (
                    head.is_static and actual.taken
                )
                if head.is_static:
                    self.btb.allocate(head.pc)
                system.resolve(head, actual.taken)
                if mispredicted:
                    if resolved > warmup:
                        result.mispredicts += 1
                    system.recover(head, actual.taken)
                    self.walker.restore(head.walker_snapshot)
                    self.walker.advance(actual.taken)
                    ftq.clear()
                    criticised = 0
                    resolve_queue.clear()
                    head_fetch_remaining = 0
                    next_seq = head.seq + 1
                    # The 30-cycle penalty is the fetch→resolve delay the
                    # flushed work already paid; redirected fetch resumes
                    # next cycle (charging it again would double-count).
                    fetch_blocked_until = cycle + 1
                    break

            # --- memory stalls extend the run as skipped cycles ------------
            if backend_stall >= 1.0:
                skip = int(backend_stall)
                backend_stall -= skip
                cycle += skip

        result.cycles = max(1, cycle - measure_start_cycle)
        result.committed_uops = committed - measure_start_uops
        result.fetched_uops = self.walker.fetched_uops - measure_start_fetched
        return result
