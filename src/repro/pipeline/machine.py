"""Cycle-stepped decoupled front end + interval back end → uPC.

The front end models §5's implementation faithfully in timing terms:

* the prophet produces up to 2 predictions per cycle into the FTQ;
* the critic criticises up to 1 prediction per cycle, in order, once the
  required future bits are present; a disagreement flushes only the
  uncriticised FTQ tail and redirects the prophet (no back-end cost);
* the instruction cache consumes up to ``fetch_width_uops`` per cycle
  from the FTQ head;
* consumed branches resolve ``mispredict_penalty_cycles`` later (the
  paper's 30-cycle pipeline); a resolved final-prediction mispredict
  flushes everything and restarts fetch after the penalty;
* committed uops are charged issue-width cycles plus the
  :class:`~repro.pipeline.caches.MemoryModel`'s data-side stalls.

This captures the terms that differentiate predictors — flush frequency,
front-end refill, wasted wrong-path fetch — which is what Figures 9/10
measure. Absolute uPC is calibrated only loosely (documented
substitution: no data-address stream exists in the workload substrate).

Hot-path shape
--------------

Each mispredict flushes the FTQ and the pipe, so the loop fetches many
branches per resolved one. :meth:`TimedMachine.run` is therefore written
like :func:`repro.sim.driver.simulate`: one flat loop over **pooled
in-flight handles** (filled by ``predict_into``/``predict_static_into``,
returned to a free list when they retire or are flushed), flat walker
checkpoints on the handle, and bound methods and config fields hoisted
into locals. The committed stream — pc, outcome and uops per branch —
comes from the memoized architectural-trace columns of
:mod:`repro.sim.batched`, so timing and accuracy cells on one program
share a single CFG walk; each retired branch is checked against the
fetched handle it resolves. The frozen pre-rewrite loop is kept in
``tests/reference_timing.py`` and differential tests pin this loop to it
bit for bit.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.core.hybrid import InflightBranch, PredictionSystem
from repro.engine.btb import BranchTargetBuffer
from repro.engine.frontend import SpeculativeWalker
from repro.pipeline.caches import MemoryModel
from repro.pipeline.uarch import MachineConfig, TABLE2_MACHINE
from repro.sim.driver import SimulationDesyncError
from repro.workloads.program import Program


@dataclass
class PipelineResult:
    """Timing outcome of one run."""

    benchmark: str = ""
    system: str = ""
    cycles: int = 0
    committed_uops: int = 0
    fetched_uops: int = 0
    branches: int = 0
    mispredicts: int = 0
    critic_redirects: int = 0
    ftq_empty_cycles: int = 0

    @property
    def upc(self) -> float:
        """Uops per cycle — the paper's performance metric (Figs. 9/10)."""
        if self.cycles == 0:
            return 0.0
        return self.committed_uops / self.cycles

    @property
    def uops_per_flush(self) -> float:
        if self.mispredicts == 0:
            return float("inf")
        return self.committed_uops / self.mispredicts

    @property
    def wrong_path_fetch_fraction(self) -> float:
        """Share of fetched uops that were wrong-path (headline: −8.6%
        total fetch for the hybrid comes from shrinking this)."""
        if self.fetched_uops == 0:
            return 0.0
        return max(0.0, 1.0 - self.committed_uops / self.fetched_uops)


class TimedMachine:
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
        self.walker = SpeculativeWalker(program)
        self.btb = BranchTargetBuffer(machine.btb_entries, machine.btb_ways)
        #: Committed branches resolved by earlier ``run`` calls: a second
        #: call continues the committed stream where the first stopped.
        self._committed_branches = 0

    def run(self, n_branches: int, warmup: int = 0) -> PipelineResult:
        """Simulate until ``n_branches`` resolve; measure after ``warmup``."""
        if warmup >= n_branches:
            raise ValueError("warmup must leave a measurement window")
        # Looked up on the module at call time, so a wrapper installed on
        # repro.sim.batched also sees the timing model's trace requests.
        from repro.sim import batched

        base = self._committed_branches
        t_pc, t_tk, t_uops = batched._architectural_trace(
            self.program, base + n_branches
        )[:3]
        self._committed_branches = base + n_branches

        machine = self.machine
        system = self.system
        walker = self.walker
        result = PipelineResult(
            benchmark=self.program.name, system=type(system).__name__
        )
        required_bits = max(system.future_bits, 0)
        prophet_slots = range(machine.prophet_rate)
        critic_slots = range(machine.critic_rate)
        ftq_entries = machine.ftq_entries
        fetch_width = machine.fetch_width_uops
        retire_width = machine.retire_width_uops
        penalty = machine.mispredict_penalty_cycles

        # Hoisted bound methods (the loop body runs once per cycle).
        sys_predict_into = system.predict_into
        sys_predict_static_into = system.predict_static_into
        sys_critique = system.critique
        sys_apply_redirect = system.apply_redirect
        sys_resolve = system.resolve
        sys_recover = system.recover
        walker_next_block = walker.next_branch_block
        walker_restore = walker.restore_state
        walker_advance = walker.advance
        ras_snapshot = walker.ras.snapshot
        btb_lookup = self.btb.lookup
        btb_allocate = self.btb.allocate
        stall_cycles = self.memory.stall_cycles

        # The FTQ holds fetched-but-unconsumed predictions; consumed
        # branches wait in the resolve queue, as (resolve cycle, handle),
        # for the pipeline delay. Handles come from and return to `pool`,
        # so a fetch allocates nothing once the pool has warmed up. A
        # queued handle's uops_hint counts its uops not yet retired.
        pool: list[InflightBranch] = []
        ftq: deque[InflightBranch] = deque()
        resolve_queue: deque[tuple[int, InflightBranch]] = deque()
        criticised = 0
        next_seq = 0
        resolved = 0
        trace_index = base
        cycle = 0
        fetch_blocked_until = 0
        backend_stall = 0.0
        committed = 0
        branches = 0
        mispredicts = 0
        critic_redirects = 0
        ftq_empty_cycles = 0
        measure_pending = warmup > 0
        measure_start_uops = 0
        measure_start_fetched = 0
        measure_start_cycle = 0
        head_fetch_remaining = 0  # uops left to fetch of the current head

        while resolved < n_branches:
            cycle += 1
            if measure_pending and resolved >= warmup:
                measure_pending = False
                measure_start_cycle = cycle
                measure_start_uops = committed
                measure_start_fetched = walker.fetched_uops

            # --- prophet: up to prophet_rate predictions/cycle ------------
            if cycle >= fetch_blocked_until:
                for _ in prophet_slots:
                    if len(ftq) >= ftq_entries:
                        break
                    branch = walker_next_block()
                    pc = branch.pc
                    if pool:
                        handle = pool.pop()
                    else:
                        handle = InflightBranch(
                            pc=0, prophet_pred=False, bhr_before=0, bor_before=0
                        )
                    if btb_lookup(pc):
                        sys_predict_into(handle, pc)
                        handle.seq = next_seq
                        next_seq += 1
                    else:
                        sys_predict_static_into(handle, pc)
                        handle.seq = next_seq
                    handle.snap_block = branch.block_id
                    handle.snap_ras = ras_snapshot()
                    handle.uops_hint = walker.last_uops
                    ftq.append(handle)
                    # Inlined walker.advance(handle.prophet_pred).
                    walker.block_id = (
                        branch.taken_target if handle.prophet_pred
                        else branch.fallthrough
                    )
                    walker._at_branch = False

            # --- critic: up to critic_rate critiques/cycle ----------------
            for _ in critic_slots:
                if criticised >= len(ftq):
                    break
                handle = ftq[criticised]
                needed = 0 if handle.is_static else required_bits
                if next_seq - handle.seq < needed and len(ftq) < ftq_entries:
                    break  # wait for more future bits
                final = sys_critique(handle)
                criticised += 1
                if not handle.is_static and final != handle.prophet_pred:
                    while len(ftq) > criticised:
                        pool.append(ftq.pop())
                    sys_apply_redirect(handle, final)
                    walker_restore(handle.snap_block, handle.snap_ras)
                    walker_advance(final)
                    next_seq = handle.seq + 1
                    critic_redirects += 1

            # --- fetch: cache consumes uops from the FTQ head --------------
            # A block of U uops occupies the fetch port for ceil(U/width)
            # cycles; the branch enters the pipeline when its last uop is
            # fetched and resolves a full pipeline depth later. When the
            # cache requires a prediction whose critique isn't ready, the
            # critique is generated with the future bits available (§5) —
            # stalling fetch on the critic would starve the machine after
            # every flush, when the FTQ is shallow.
            if ftq:
                head = ftq[0]
                if not head.critiqued:
                    final = sys_critique(head)
                    if criticised < 1:
                        criticised = 1
                    if not head.is_static and final != head.prophet_pred:
                        while len(ftq) > 1:
                            pool.append(ftq.pop())
                        criticised = 1
                        sys_apply_redirect(head, final)
                        walker_restore(head.snap_block, head.snap_ras)
                        walker_advance(final)
                        next_seq = head.seq + 1
                        critic_redirects += 1
                if head_fetch_remaining == 0:
                    head_fetch_remaining = head.uops_hint
                head_fetch_remaining -= fetch_width
                if head_fetch_remaining <= 0:
                    head_fetch_remaining = 0
                    ftq.popleft()
                    criticised -= 1
                    resolve_queue.append((cycle + penalty, head))
            else:
                ftq_empty_cycles += 1

            # --- retire/resolve: bounded by retire width -------------------
            # Retirement is incremental: a branch commits once all its
            # block's uops have drained through the retire port, so blocks
            # wider than the port simply take several cycles.
            retire_budget = retire_width
            while resolve_queue and resolve_queue[0][0] <= cycle and retire_budget > 0:
                head = resolve_queue[0][1]
                uops_left = head.uops_hint
                if uops_left > retire_budget:
                    head.uops_hint = uops_left - retire_budget
                    break
                retire_budget -= uops_left
                resolve_queue.popleft()
                pc = t_pc[trace_index]
                taken = t_tk[trace_index]
                uops = t_uops[trace_index]
                trace_index += 1
                if pc != head.pc:
                    raise SimulationDesyncError(
                        f"timing model desync at branch {resolved}: "
                        f"{pc:#x} vs {head.pc:#x}"
                    )
                committed += uops
                backend_stall += stall_cycles(committed, uops)
                resolved += 1
                if resolved > warmup:
                    branches += 1
                mispredicted = head.final_pred != taken or (head.is_static and taken)
                if head.is_static:
                    btb_allocate(head.pc)
                sys_resolve(head, taken)
                if mispredicted:
                    if resolved > warmup:
                        mispredicts += 1
                    sys_recover(head, taken)
                    walker_restore(head.snap_block, head.snap_ras)
                    walker_advance(taken)
                    pool.extend(ftq)
                    ftq.clear()
                    criticised = 0
                    pool.extend(entry[1] for entry in resolve_queue)
                    resolve_queue.clear()
                    head_fetch_remaining = 0
                    next_seq = head.seq + 1
                    # The 30-cycle penalty is the fetch→resolve delay the
                    # flushed work already paid; redirected fetch resumes
                    # next cycle (charging it again would double-count).
                    fetch_blocked_until = cycle + 1
                    pool.append(head)
                    break
                pool.append(head)

            # --- memory stalls extend the run as skipped cycles ------------
            if backend_stall >= 1.0:
                skip = int(backend_stall)
                backend_stall -= skip
                cycle += skip

        result.cycles = max(1, cycle - measure_start_cycle)
        result.committed_uops = committed - measure_start_uops
        result.fetched_uops = walker.fetched_uops - measure_start_fetched
        result.branches = branches
        result.mispredicts = mispredicts
        result.critic_redirects = critic_redirects
        result.ftq_empty_cycles = ftq_empty_cycles
        return result
