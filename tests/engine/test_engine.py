"""Tests for RAS, BTB, executor and speculative walker."""

import random

import pytest

from repro.engine import (
    ArchitecturalExecutor,
    BranchTargetBuffer,
    ReturnAddressStack,
    SpeculativeWalker,
)
from repro.workloads.behaviors import PatternBehavior
from repro.workloads.generator import WorkloadProfile, generate_program
from repro.workloads.program import BasicBlock, BlockKind, Program
from repro.workloads.suites import benchmark


class TestReturnAddressStack:
    def test_push_pop(self):
        ras = ReturnAddressStack(4)
        ras.push(1)
        ras.push(2)
        assert ras.pop() == 2
        assert ras.pop() == 1

    def test_underflow_returns_none(self):
        ras = ReturnAddressStack(4)
        assert ras.pop() is None
        assert ras.underflows == 1

    def test_overflow_drops_oldest(self):
        ras = ReturnAddressStack(2)
        ras.push(1)
        ras.push(2)
        ras.push(3)
        assert ras.overflows == 1
        assert ras.pop() == 3
        assert ras.pop() == 2
        assert ras.pop() is None

    def test_snapshot_restore(self):
        ras = ReturnAddressStack(4)
        ras.push(7)
        snap = ras.snapshot()
        ras.push(8)
        ras.restore(snap)
        assert ras.pop() == 7
        assert len(ras) == 0

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            ReturnAddressStack(0)


class TestBranchTargetBuffer:
    def test_miss_then_allocate_then_hit(self):
        btb = BranchTargetBuffer(64, 4)
        assert not btb.lookup(0x4000)
        btb.allocate(0x4000)
        assert btb.lookup(0x4000)

    def test_lru_within_set(self):
        btb = BranchTargetBuffer(8, 2)  # 4 sets, 2 ways
        # PCs mapping to the same set differ by sets << 2.
        pcs = [0x1000 + i * (4 << 2) for i in range(3)]
        for pc in pcs:
            btb.allocate(pc)
        # First allocated should have been evicted.
        assert not btb.lookup(pcs[0])
        assert btb.lookup(pcs[1])
        assert btb.lookup(pcs[2])

    def test_occupancy(self):
        btb = BranchTargetBuffer(8, 2)
        assert btb.occupancy() == 0.0
        btb.allocate(0x4000)
        assert btb.occupancy() == 1 / 8

    def test_stats(self):
        btb = BranchTargetBuffer(8, 2)
        btb.lookup(0x4000)
        btb.allocate(0x4000)
        btb.lookup(0x4000)
        assert btb.stats.lookups == 2
        assert btb.stats.hits == 1
        assert btb.stats.hit_rate == 0.5

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            BranchTargetBuffer(10, 4)


def two_branch_program() -> Program:
    """entry: cond A (pattern TN) -> {B, C}; both jump back to A.

    Block A: taken -> B, not-taken -> C.
    """
    blocks = [
        BasicBlock(0, 0x1000, 4, BlockKind.COND, taken_target=1, fallthrough=2,
                   behavior=PatternBehavior("TN")),
        BasicBlock(1, 0x1010, 3, BlockKind.JUMP, taken_target=0),
        BasicBlock(2, 0x1020, 5, BlockKind.JUMP, taken_target=0),
    ]
    return Program(name="two", blocks=blocks, entry=0)


class TestArchitecturalExecutor:
    def test_resolves_pattern_in_order(self):
        executor = ArchitecturalExecutor(two_branch_program())
        outcomes = [executor.next_branch().taken for _ in range(6)]
        assert outcomes == [True, False] * 3

    def test_uop_accounting(self):
        executor = ArchitecturalExecutor(two_branch_program())
        first = executor.next_branch()
        assert first.uops == 4  # block A only
        second = executor.next_branch()
        assert second.uops == 3 + 4  # block B then A

    def test_committed_uops_accumulate(self):
        executor = ArchitecturalExecutor(two_branch_program())
        for _ in range(4):
            executor.resolve_next()
        assert executor.committed_uops > 0
        assert executor.resolved_branches == 4

    def test_calls_and_returns(self):
        # main: call f -> cond -> loop back; f: return immediately.
        blocks = [
            BasicBlock(0, 0x1000, 2, BlockKind.CALL, taken_target=3, fallthrough=1),
            BasicBlock(1, 0x1008, 4, BlockKind.COND, taken_target=2, fallthrough=2,
                       behavior=PatternBehavior("T")),
            BasicBlock(2, 0x1010, 1, BlockKind.JUMP, taken_target=0),
            BasicBlock(3, 0x2000, 7, BlockKind.RETURN),
        ]
        program = Program(name="call", blocks=blocks, entry=0)
        executor = ArchitecturalExecutor(program)
        first = executor.next_branch()
        assert first.pc == 0x1008
        assert first.uops == 2 + 7 + 4  # call block + callee + cond block


class TestSpeculativeWalker:
    def test_follows_predictions_not_outcomes(self):
        walker = SpeculativeWalker(two_branch_program())
        assert walker.next_branch_block().pc == 0x1000
        walker.advance(False)  # predict not-taken regardless of behaviour
        before = walker.fetched_uops
        walker.next_branch_block()
        assert walker.fetched_uops - before == 5 + 4  # went through block C

    def test_restore_state_rewinds(self):
        walker = SpeculativeWalker(two_branch_program())
        first = walker.next_branch_block()
        checkpoint = (walker.block_id, walker.ras.snapshot())
        walker.advance(True)
        walker.next_branch_block()
        walker.restore_state(*checkpoint)
        walker.advance(False)  # re-steer down the other edge
        before = walker.fetched_uops
        refetched = walker.next_branch_block()
        assert refetched.pc == first.pc
        assert walker.fetched_uops - before == 5 + 4

    def test_restore_state_rewinds_the_ras(self):
        # main: call f -> cond; f: return. The checkpoint is taken with
        # an empty RAS; a wrong-path call pushes, the restore must drop it.
        blocks = [
            BasicBlock(0, 0x1000, 2, BlockKind.COND, taken_target=1, fallthrough=2,
                       behavior=PatternBehavior("T")),
            BasicBlock(1, 0x1008, 1, BlockKind.CALL, taken_target=3, fallthrough=2),
            BasicBlock(2, 0x1010, 1, BlockKind.JUMP, taken_target=0),
            BasicBlock(3, 0x2000, 7, BlockKind.COND, taken_target=4, fallthrough=4,
                       behavior=PatternBehavior("T")),
            BasicBlock(4, 0x2008, 1, BlockKind.RETURN),
        ]
        walker = SpeculativeWalker(Program(name="call", blocks=blocks, entry=0))
        walker.next_branch_block()
        checkpoint = (walker.block_id, walker.ras.snapshot())
        walker.advance(True)
        assert walker.next_branch_block().pc == 0x2000
        assert len(walker.ras) == 1
        walker.restore_state(*checkpoint)
        assert len(walker.ras) == 0
        walker.advance(False)
        assert walker.next_branch_block().pc == 0x1000

    def test_double_advance_rejected(self):
        walker = SpeculativeWalker(two_branch_program())
        walker.next_branch_block()
        walker.advance(True)
        with pytest.raises(RuntimeError):
            walker.advance(True)

    def test_next_branch_requires_advance(self):
        walker = SpeculativeWalker(two_branch_program())
        walker.next_branch_block()
        with pytest.raises(RuntimeError):
            walker.next_branch_block()

    def test_fetched_uops_accumulate(self):
        walker = SpeculativeWalker(two_branch_program())
        walker.next_branch_block()
        walker.advance(True)
        walker.next_branch_block()
        assert walker.fetched_uops == 4 + 3 + 4

    @pytest.mark.parametrize(
        "bench, ras_capacity",
        [("gcc", 64), ("swim", 64), ("specjbb", 64), ("gcc", 2)],
        ids=["gcc", "swim", "specjbb", "gcc-ras2"],
    )
    def test_wrong_path_excursions_rewind_to_the_committed_path(self, bench, ras_capacity):
        """Every few branches the walker runs down the wrong edge for a
        while (calls, returns and RAS overflow included), then rewinds
        with ``restore_state``; the committed path it then fetches must be
        exactly the executor's."""
        program = benchmark(bench)
        executor = ArchitecturalExecutor(program, ras_capacity=ras_capacity)
        walker = SpeculativeWalker(program, ras_capacity=ras_capacity)
        rng = random.Random(bench)
        for step in range(3000):
            before = walker.fetched_uops
            branch = walker.next_branch_block()
            pc, taken, uops = executor.resolve_next()
            assert (branch.pc, walker.fetched_uops - before) == (pc, uops)
            if step % 7 == 3:
                checkpoint = (walker.block_id, walker.ras.snapshot())
                walker.advance(not taken)
                for _ in range(rng.randrange(1, 12)):
                    walker.next_branch_block()
                    walker.advance(rng.random() < 0.5)
                walker.restore_state(*checkpoint)
            walker.advance(taken)

    def test_walker_and_executor_agree_on_committed_path(self):
        """Driving the walker with actual outcomes must reproduce the
        executor's block traversal exactly — on any generated program."""
        program = generate_program(WorkloadProfile(name="t", seed=12, static_branch_target=60))
        executor = ArchitecturalExecutor(program)
        walker = SpeculativeWalker(program)
        for _ in range(2000):
            before = walker.fetched_uops
            branch = walker.next_branch_block()
            pc, taken, uops = executor.resolve_next()
            assert branch.pc == pc
            assert walker.fetched_uops - before == uops
            walker.advance(taken)
