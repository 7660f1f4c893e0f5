"""Tests for RAS, BTB and executor."""

import pytest

from repro.engine import ArchitecturalExecutor, BranchTargetBuffer, ReturnAddressStack
from repro.workloads.behaviors import PatternBehavior
from repro.workloads.program import BasicBlock, BlockKind, Program


class TestReturnAddressStack:
    def test_op_script_pushes_and_pops(self):
        ras = ReturnAddressStack(4)
        ras.apply_ops((1, 2, 3, -1))
        assert ras.pop() == 2
        assert ras.pop() == 1

    def test_underflow_returns_none(self):
        ras = ReturnAddressStack(4)
        assert ras.pop() is None
        assert ras.snapshot() == ()

    def test_overflow_drops_oldest(self):
        ras = ReturnAddressStack(2)
        ras.apply_ops((1, 2, 3))
        assert ras.snapshot() == (2, 3)
        assert ras.pop() == 3
        assert ras.pop() == 2
        assert ras.pop() is None

    def test_snapshot_memoised_until_mutation(self):
        ras = ReturnAddressStack(4)
        ras.apply_ops((7,))
        snap = ras.snapshot()
        assert snap == (7,) and ras.snapshot() is snap
        ras.apply_ops((8,))
        assert ras.snapshot() == (7, 8)
        assert ras.pop() == 8
        assert ras.snapshot() == (7,)

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
        outcomes = [executor.resolve_next()[1] for _ in range(6)]
        assert outcomes == [True, False] * 3

    def test_uop_accounting(self):
        executor = ArchitecturalExecutor(two_branch_program())
        _, _, first_uops = executor.resolve_next()
        assert first_uops == 4  # block A only
        _, _, second_uops = executor.resolve_next()
        assert second_uops == 3 + 4  # block B then A

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
        pc, _, uops = executor.resolve_next()
        assert pc == 0x1008
        assert uops == 2 + 7 + 4  # call block + callee + cond block
