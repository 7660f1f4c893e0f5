"""Synthetic program representation: a control-flow graph of basic blocks.

A :class:`Program` is a closed CFG (every path continues forever — the
outermost loop wraps around), so simulations can run for any number of
branches. Blocks carry uop counts, giving the misp/Kuops denominators.

Block terminators:

* ``COND`` — two successors (taken/fall-through) and a behaviour model;
* ``JUMP`` — one successor;
* ``CALL`` — control transfers to ``callee``; the *fall-through* is the
  return point, pushed on the (simulated) return address stack;
* ``RETURN`` — control returns to the top of the RAS.

PCs are assigned per block with realistic spacing so BTB/index hashing
sees address entropy comparable to a real text segment.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable

from repro.workloads.behaviors import BranchBehavior, ExecutionContext


class BlockKind(enum.Enum):
    """Terminator type of a basic block."""

    COND = "cond"
    JUMP = "jump"
    CALL = "call"
    RETURN = "return"


class CompiledSegment:
    """One precompiled straight-line run of the CFG.

    A segment starts at a given block and swallows every JUMP/CALL/RETURN
    up to (and including) either the next conditional branch or the first
    RETURN whose target is not statically known (a return address pushed
    *before* the segment began). Traversers replay a segment in O(1) plus
    its recorded call/return traffic, instead of walking block by block.

    ``ras_ops``/``call_ops`` are parallel scripts: entry ``i`` of both
    describes the same CALL (push the return point / push the call-site
    block) or the same statically-paired RETURN (``-1``: pop). Replaying
    the script verbatim — rather than its net effect — preserves the
    exact overflow/drop-oldest behaviour of a bounded hardware RAS.

    Static pairing is only valid while the paired push is guaranteed to
    survive on a bounded RAS, so the compiler caps the un-popped local
    call depth at the table's ``pair_limit`` (the traverser's RAS
    capacity): a CALL nesting deeper ends the segment with a
    *continuation* into the callee, and the matching RETURNs become
    run-time pops in later segments — which read the live stack top and
    therefore reproduce drop-oldest/underflow behaviour exactly.
    """

    __slots__ = (
        "branch",
        "call_ops",
        "ends_at_branch",
        "next_block",
        "ras_ops",
        "steps",
        "uops",
        "watched",
    )

    def __init__(
        self,
        uops: int,
        steps: int,
        ras_ops: tuple[int, ...],
        call_ops: tuple[int, ...],
        watched: tuple[tuple[int, int], ...],
        branch: "BasicBlock | None",
        next_block: int | None = None,
    ) -> None:
        #: Total uops of every consumed block (terminator included).
        self.uops = uops
        #: Blocks consumed (drives the context's ``step`` clock).
        self.steps = steps
        #: RAS script: push return-point block id (>= 0) or pop (-1).
        self.ras_ops = ras_ops
        #: Caller-stack script, parallel to ``ras_ops`` (call-site ids).
        self.call_ops = call_ops
        #: ``(step_offset, block_id)`` for watched blocks consumed, in
        #: traversal order; offsets are 1-based within the segment.
        self.watched = watched
        #: The terminating conditional block, or None when the segment
        #: ends before one (run-time pop or depth-capped continuation).
        self.branch = branch
        #: Set (with ``branch`` None) when the segment was split by the
        #: pairing depth cap: traversal continues at this block without
        #: popping. None with ``branch`` None means: pop the live RAS.
        self.next_block = next_block
        self.ends_at_branch = branch is not None


class CompiledCFG:
    """Per-block transition table over :class:`CompiledSegment`.

    Built lazily: segments are compiled on first traversal of each start
    block, so only reachable fetch/commit targets pay compilation cost.
    The table assumes the CFG is structurally frozen after ``Program``
    construction (which the rest of the engine already relies on — block
    identity underpins snapshots and trace serialisation).

    ``pair_limit`` must not exceed the RAS capacity of the traverser
    using the table (see :class:`CompiledSegment` on why); traversers
    request a table via ``Program.compiled(pair_limit=ras_capacity)``.
    """

    __slots__ = ("_program", "_segments", "entry", "pair_limit")

    #: Upper bound on blocks consumed while compiling one segment. A
    #: segment longer than this means a branch-free CFG cycle, which the
    #: old block-stepping walker would have spun on forever; failing at
    #: compile time turns that hang into a diagnosable error.
    MAX_SEGMENT_BLOCKS = 100_000

    def __init__(self, program: "Program", pair_limit: int = 64) -> None:
        if pair_limit < 1:
            raise ValueError("pair_limit must be positive")
        self._program = program
        self._segments: dict[int, CompiledSegment] = {}
        self.entry = program.entry
        self.pair_limit = pair_limit

    def segment(self, block_id: int) -> CompiledSegment:
        """The segment starting at ``block_id`` (compiled on first use)."""
        seg = self._segments.get(block_id)
        if seg is None:
            seg = self._compile(block_id)
            self._segments[block_id] = seg
        return seg

    def _compile(self, start: int) -> CompiledSegment:
        program = self._program
        watched_set = program.watched_blocks
        pair_limit = self.pair_limit
        uops = 0
        steps = 0
        ras_ops: list[int] = []
        call_ops: list[int] = []
        watched: list[tuple[int, int]] = []
        local_stack: list[int] = []
        next_block: int | None = None
        block_id = start
        limit = max(self.MAX_SEGMENT_BLOCKS, 16 * len(program.blocks))
        while True:
            block = program.block(block_id)
            steps += 1
            if steps > limit:
                raise ValueError(
                    f"no conditional branch reachable from block {start}: "
                    "the CFG contains a branch-free cycle"
                )
            uops += block.uops
            if block.block_id in watched_set:
                watched.append((steps, block.block_id))
            kind = block.kind
            if kind is BlockKind.COND:
                branch = block
                break
            if kind is BlockKind.JUMP:
                block_id = block.taken_target
            elif kind is BlockKind.CALL:
                ras_ops.append(block.fallthrough)
                call_ops.append(block.block_id)
                if len(local_stack) >= pair_limit:
                    # Pairing this push with its RETURN would not survive
                    # a capacity-`pair_limit` RAS (drop-oldest could
                    # evict it). Split: the segment ends here and the
                    # callee starts a new one; the matching RETURNs
                    # become run-time pops, which read the live stack.
                    branch = None
                    next_block = block.taken_target
                    break
                local_stack.append(block.fallthrough)
                block_id = block.taken_target
            else:  # RETURN
                if local_stack:
                    # Paired with a CALL inside this segment: the target
                    # is static, and the pop is scripted so the real RAS
                    # sees the exact same push/pop sequence.
                    ras_ops.append(-1)
                    call_ops.append(-1)
                    block_id = local_stack.pop()
                else:
                    # Return address predates the segment — the traverser
                    # must pop the live RAS and continue from there.
                    branch = None
                    break
        return CompiledSegment(
            uops=uops,
            steps=steps,
            ras_ops=tuple(ras_ops),
            call_ops=tuple(call_ops),
            watched=tuple(watched),
            branch=branch,
            next_block=next_block,
        )


@dataclass
class BasicBlock:
    """One basic block: some uops, then a control-flow terminator."""

    block_id: int
    pc: int
    uops: int
    kind: BlockKind
    #: Successor block id when taken (COND), the only successor (JUMP),
    #: or the callee entry (CALL). None for RETURN.
    taken_target: int | None = None
    #: Successor when not taken (COND) or the return point (CALL).
    fallthrough: int | None = None
    #: Outcome model; present iff kind is COND.
    behavior: BranchBehavior | None = None

    def validate(self) -> None:
        """Raise ValueError on structurally impossible blocks."""
        if self.uops < 1:
            raise ValueError(f"block {self.block_id}: uop count must be positive")
        if self.kind is BlockKind.COND:
            if self.taken_target is None or self.fallthrough is None or self.behavior is None:
                raise ValueError(f"block {self.block_id}: COND needs both targets and a behaviour")
        elif self.kind is BlockKind.JUMP:
            if self.taken_target is None:
                raise ValueError(f"block {self.block_id}: JUMP needs a target")
        elif self.kind is BlockKind.CALL:
            if self.taken_target is None or self.fallthrough is None:
                raise ValueError(f"block {self.block_id}: CALL needs a callee and a return point")


@dataclass
class Program:
    """A closed CFG plus metadata; the unit the engine executes."""

    name: str
    blocks: list[BasicBlock]
    entry: int
    seed: int = 0
    #: Block ids that path-correlated behaviours observe.
    watched_blocks: set[int] = field(default_factory=set)

    def __post_init__(self) -> None:
        self._by_id = {b.block_id: b for b in self.blocks}
        if len(self._by_id) != len(self.blocks):
            raise ValueError("duplicate block ids")
        if self.entry not in self._by_id:
            raise ValueError("entry block missing")
        self._compiled: dict[int, CompiledCFG] = {}
        # Behaviours must be attached before Program construction (the
        # generator and from_structure both do); capturing them once makes
        # reset() O(#conditionals), which matters now that the execution
        # engine resets memoized programs between every sweep cell.
        self._stateful = tuple(b.behavior for b in self.blocks if b.behavior is not None)

    def block(self, block_id: int) -> BasicBlock:
        """Look up a block by id."""
        return self._by_id[block_id]

    def compiled(self, pair_limit: int = 64) -> CompiledCFG:
        """The precompiled traversal table for this program.

        Built lazily on first use and shared by every traverser of this
        program instance (executor, batched kernel, timing model) that
        uses the same ``pair_limit`` — which must not exceed the
        traverser's RAS capacity (the engine default, 64, is also the
        default here). The CFG is treated as structurally immutable after
        construction; behaviours remain free to mutate (segments
        reference blocks, not outcomes).
        """
        table = self._compiled.get(pair_limit)
        if table is None:
            table = self._compiled[pair_limit] = CompiledCFG(self, pair_limit)
        return table

    def validate(self) -> None:
        """Validate every block and that all edges resolve."""
        for block in self.blocks:
            block.validate()
            for target in (block.taken_target, block.fallthrough):
                if target is not None and target not in self._by_id:
                    raise ValueError(f"block {block.block_id}: dangling edge to {target}")

    def make_context(self) -> ExecutionContext:
        """Create a fresh architectural context for this program."""
        return ExecutionContext(seed=self.seed, watched_blocks=set(self.watched_blocks))

    def __getstate__(self) -> dict:
        """Pickle without memoized replay state.

        The batched kernel caches architectural-trace columns
        (``_trace_cache``) and a fused-replay precompute context
        (``_replay_ctx``) on the program object; both are multi-megabyte,
        derivable, and per-process. Shipping them across the pool's
        pickle boundary would dominate chunk submission cost, so they
        are dropped here and rebuilt (or refetched from the persistent
        trace store) on first use in the receiving process. The
        ``_build_key`` stamp survives — it is a small string and the
        trace store's key.
        """
        state = dict(self.__dict__)
        state.pop("_trace_cache", None)
        state.pop("_replay_ctx", None)
        return state

    def reset(self) -> None:
        """Reset all stateful behaviours (between simulation runs).

        Behaviour state and trace replay cursors rewind; the lazily
        compiled CFG transition tables (:meth:`compiled`) survive, so a
        reused program re-runs without recompilation — the contract the
        execution engine's build memoization relies on.
        """
        for behavior in self._stateful:
            behavior.reset()

    # -- inventory helpers (used by tests and reports) ------------------------

    @property
    def static_conditional_branches(self) -> int:
        return sum(1 for b in self.blocks if b.kind is BlockKind.COND)

    def behavior_census(self) -> dict[str, int]:
        """Count conditional branches by behaviour kind."""
        census: dict[str, int] = {}
        for block in self.blocks:
            if block.behavior is not None:
                census[block.behavior.kind] = census.get(block.behavior.kind, 0) + 1
        return census

    def conditional_sites(self) -> list[int]:
        """PCs of all conditional branch sites."""
        return [b.pc for b in self.blocks if b.kind is BlockKind.COND]

    # -- structural (de)serialisation -----------------------------------------
    #
    # The on-disk trace format (workloads/trace_io.py) persists a program's
    # *shape* — everything the speculative front end and executor traverse —
    # without its behaviour models, which are replaced on replay by
    # scripted behaviours that feed back the recorded outcome stream.

    def structure(self) -> dict:
        """JSON-serialisable CFG structure (no behaviour models).

        Round-trips through :meth:`from_structure`:

        >>> from repro.workloads.behaviors import PatternBehavior
        >>> block = BasicBlock(0, 0x40, 2, BlockKind.COND, taken_target=0,
        ...                    fallthrough=0, behavior=PatternBehavior("TN"))
        >>> data = Program("demo", [block], entry=0, seed=7).structure()
        >>> data["blocks"]
        [[0, 64, 2, 'cond', 0, 0]]
        >>> rebuilt = Program.from_structure(
        ...     data, lambda block_id, pc: PatternBehavior("TN"))
        >>> (rebuilt.name, rebuilt.seed, rebuilt.block(0).pc)
        ('demo', 7, 64)
        """
        return {
            "name": self.name,
            "seed": self.seed,
            "entry": self.entry,
            "watched": sorted(self.watched_blocks),
            "blocks": [
                [b.block_id, b.pc, b.uops, b.kind.value, b.taken_target, b.fallthrough]
                for b in self.blocks
            ],
        }

    @staticmethod
    def from_structure(
        data: dict,
        behavior_for: Callable[[int, int], BranchBehavior | None],
    ) -> "Program":
        """Rebuild a program from :meth:`structure` output.

        ``behavior_for(block_id, pc)`` supplies the behaviour for each
        conditional block (the structure itself carries none). Raises
        :class:`ValueError` on structurally invalid data — the same
        validation a generated program gets.
        """
        try:
            blocks = [
                BasicBlock(
                    block_id=int(block_id),
                    pc=int(pc),
                    uops=int(uops),
                    kind=BlockKind(kind),
                    taken_target=None if taken is None else int(taken),
                    fallthrough=None if fall is None else int(fall),
                )
                for block_id, pc, uops, kind, taken, fall in data["blocks"]
            ]
            for block in blocks:
                if block.kind is BlockKind.COND:
                    block.behavior = behavior_for(block.block_id, block.pc)
            program = Program(
                name=str(data["name"]),
                blocks=blocks,
                entry=int(data["entry"]),
                seed=int(data["seed"]),
                watched_blocks={int(b) for b in data.get("watched", ())},
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed program structure: {exc}") from exc
        program.validate()
        return program
