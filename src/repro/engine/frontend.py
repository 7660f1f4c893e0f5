"""Speculative fetch walker — the front end's view of the program.

The walker traverses the CFG following **predictions**, not outcomes; it
has no access to behaviour models or architectural state. When the
predictor is wrong the walker simply keeps going down the wrong path,
producing the wrong-path prophet predictions the critic's BOR needs
(paper §6 insists these must come from real wrong-path traversal, not a
trace).

Traversal runs over the program's precompiled transition table
(:meth:`repro.workloads.program.Program.compiled`): each step replays a
whole straight-line run — accumulated uops plus a scripted burst of RAS
pushes/pops — and lands either on the next conditional branch or on a
dynamic return target, so cost scales with call/return traffic instead
of block count.

Checkpoint/restore is flat state: a branch position is (block id, RAS
tuple), where the RAS tuple is memoised per mutation so the per-fetch
snapshot the driver takes allocates nothing on call-free stretches. The
driver stores the two fields straight into its pooled in-flight handles
via :attr:`block_id`/:meth:`ras_state`; :meth:`snapshot`/:meth:`restore`
wrap the same state for callers that want one object.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.ras import ReturnAddressStack
from repro.workloads.program import Program


@dataclass(frozen=True, slots=True)
class WalkerSnapshot:
    """Walker state captured at a conditional branch (before advancing)."""

    block_id: int
    ras: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class FetchedBranch:
    """A conditional branch the walker has fetched (not yet advanced past)."""

    pc: int
    block_id: int
    #: uops fetched since the previous conditional branch.
    uops: int
    taken_target: int
    fallthrough: int


class SpeculativeWalker:
    """Prediction-driven CFG traverser with checkpoint/rewind."""

    def __init__(self, program: Program, ras_capacity: int = 64) -> None:
        self.program = program
        # The table's static call/return pairing must respect this
        # walker's RAS capacity (see CompiledSegment).
        self._compiled = program.compiled(pair_limit=ras_capacity)
        self._segments = self._compiled._segments  # id -> CompiledSegment
        self._entry = program.entry
        #: Current position: the block about to be traversed, or — when
        #: positioned at a branch — the conditional block itself.
        self.block_id = program.entry
        self._branch = None  # BasicBlock of the current conditional
        #: The walker's RAS; the driver snapshots it via ras_state().
        self.ras = self._ras = ReturnAddressStack(ras_capacity)
        #: Total uops fetched, correct and wrong path (paper §1's
        #: "uops fetched along both correct and incorrect paths").
        self.fetched_uops = 0
        #: uops of the most recent next_branch() run (segment-accumulated).
        self.last_uops = 0
        self._at_branch = False

    # -- hot path ----------------------------------------------------------

    def next_branch_block(self):
        """Advance to the next conditional branch; return its BasicBlock.

        The flat-state twin of :meth:`next_branch`: identical traversal,
        no ``FetchedBranch`` construction. The driver reads pc/targets
        off the returned block and steps past it with :meth:`advance`
        (or by assigning :attr:`block_id`/:attr:`_at_branch` inline).
        """
        if self._at_branch:
            raise RuntimeError("already positioned at a branch; call advance() first")
        segments = self._segments
        ras = self._ras
        block_id = self.block_id
        uops = 0
        while True:
            seg = segments.get(block_id)
            if seg is None:
                seg = self._compiled.segment(block_id)
            uops += seg.uops
            if seg.ras_ops:
                ras.apply_ops(seg.ras_ops)
            branch = seg.branch
            if branch is not None:
                self.block_id = branch.block_id
                self._branch = branch
                self._at_branch = True
                self.fetched_uops += uops
                self.last_uops = uops
                return branch
            next_block = seg.next_block
            if next_block is not None:
                # Depth-capped split: continue straight into the callee.
                block_id = next_block
                continue
            # Dynamic return: continue from the live RAS (wrong-path
            # underflow falls back to the entry — any defined target).
            target = ras.pop()
            block_id = self._entry if target is None else target

    def next_branch_pc(self) -> int:
        """Advance to the next conditional branch; return its pc."""
        return self.next_branch_block().pc

    def advance(self, taken: bool) -> None:
        """Step past the current conditional branch in direction ``taken``."""
        if not self._at_branch:
            raise RuntimeError("not positioned at a branch; call next_branch() first")
        branch = self._branch
        self.block_id = branch.taken_target if taken else branch.fallthrough
        self._at_branch = False

    def ras_state(self) -> tuple[int, ...]:
        """The RAS contents as an immutable tuple (memoised per version)."""
        return self._ras.snapshot()

    def restore_state(self, block_id: int, ras: tuple[int, ...]) -> None:
        """Rewind to flat state: positioned at that branch, ready to advance."""
        self.block_id = block_id
        self._branch = self.program.block(block_id)
        self._ras.restore(ras)
        self._at_branch = True

    # -- object-shaped API (tests, frozen reference machines) -------------

    def next_branch(self) -> FetchedBranch:
        """Advance through non-conditional control flow to the next
        conditional branch and stop *on* it."""
        pc = self.next_branch_pc()
        branch = self._branch
        return FetchedBranch(
            pc=pc,
            block_id=branch.block_id,
            uops=self.last_uops,
            taken_target=branch.taken_target,
            fallthrough=branch.fallthrough,
        )

    def snapshot(self) -> WalkerSnapshot:
        """Capture state at the current branch (call before advance)."""
        if not self._at_branch:
            raise RuntimeError("snapshots are taken at conditional branches")
        return WalkerSnapshot(block_id=self.block_id, ras=self._ras.snapshot())

    def restore(self, snap: WalkerSnapshot) -> None:
        """Rewind to a snapshot: positioned at that branch, ready to advance."""
        self.restore_state(snap.block_id, snap.ras)
