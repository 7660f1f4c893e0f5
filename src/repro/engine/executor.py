"""Architectural executor — the ground truth.

Walks the program CFG following **actual branch outcomes**, resolving each
conditional branch's behaviour model exactly once, in program order. The
committed path, committed uop counts, and architectural context all live
here. The speculative front end never touches this object; the batched
kernel resolves the committed stream through it once, up front, into
trace columns, and checks that the front end's committed stream matches
(a strong cross-validation of the whole engine).

The executor traverses the precompiled transition table: per
straight-line run it advances the context clock by the segment's block
count, replays the scripted RAS/caller-stack traffic, and records
watched-block executions from the segment's precomputed offsets — all
observable context state evolves exactly as the block-by-block walk did.
"""

from __future__ import annotations

from repro.engine.ras import ReturnAddressStack
from repro.workloads.program import Program

_HISTORY_MASK = 0xFFFFFFFFFFFFFFFF


class ArchitecturalExecutor:
    """Resolves the program's branch stream in committed order."""

    def __init__(self, program: Program, ras_capacity: int = 64) -> None:
        self.program = program
        self.ctx = program.make_context()
        # The table's static call/return pairing must respect this
        # executor's RAS capacity (see CompiledSegment).
        self._compiled = program.compiled(pair_limit=ras_capacity)
        self._segments = self._compiled._segments  # id -> CompiledSegment
        self._entry = program.entry
        self._block_id = program.entry
        #: BasicBlock of the latest resolved COND (the batched kernel's
        #: trace columns read its two successors).
        self._last_branch = None
        self._ras = ReturnAddressStack(ras_capacity)
        self.committed_uops = 0
        self.resolved_branches = 0

    def resolve_next(self) -> tuple[int, bool, int]:
        """Advance to the next conditional branch, resolve it, step past
        it; return ``(pc, taken, uops)``: the branch pc, its outcome, and
        the uops committed since the previous resolved branch (this block
        and any straight-line/call/return blocks before it).
        """
        ctx = self.ctx
        segments = self._segments
        block_id = self._block_id
        uops = 0
        step = ctx.step
        while True:
            seg = segments.get(block_id)
            if seg is None:
                seg = self._compiled.segment(block_id)
            uops += seg.uops
            if seg.watched:
                last_block_step = ctx.last_block_step
                for offset, watched_id in seg.watched:
                    last_block_step[watched_id] = step + offset
            step += seg.steps
            if seg.ras_ops:
                self._ras.apply_ops(seg.ras_ops)
                caller_stack = ctx.caller_stack
                for op in seg.call_ops:
                    if op >= 0:
                        caller_stack.append(op)
                    elif caller_stack:
                        caller_stack.pop()
            branch = seg.branch
            if branch is not None:
                ctx.step = step
                pc = branch.pc
                taken = bool(branch.behavior.resolve(pc, ctx))
                # Inlined ctx.record_outcome (hot path).
                occurrences = ctx.occurrences
                occurrences[pc] = occurrences.get(pc, 0) + 1
                ctx.last_outcome[pc] = taken
                ctx.global_history = (
                    (ctx.global_history << 1) | taken
                ) & _HISTORY_MASK
                target = branch.taken_target if taken else branch.fallthrough
                self._block_id = target
                self._last_branch = branch
                self.committed_uops += uops
                self.resolved_branches += 1
                return pc, taken, uops
            next_block = seg.next_block
            if next_block is not None:
                # Depth-capped split: continue straight into the callee.
                block_id = next_block
                continue
            # Dynamic return: pop the live RAS and caller stack.
            target = self._ras.pop()
            if ctx.caller_stack:
                ctx.caller_stack.pop()
            block_id = self._entry if target is None else target
