"""Tests for the CFG program model, generator, suites and traces."""

import pytest

from repro.workloads.generator import ProgramGenerator, WorkloadProfile, generate_program
from repro.workloads.program import BasicBlock, BlockKind, Program
from repro.workloads.suites import (
    BENCHMARKS,
    FIGURE5_BENCHMARKS,
    SUITES,
    benchmark,
    benchmark_names,
    suite_benchmarks,
    suite_names,
)
from repro.engine.executor import ArchitecturalExecutor
from repro.workloads.trace import BranchRecord, BranchTrace
from repro.workloads.behaviors import (
    BiasedRandomBehavior,
    LoopBehavior,
    ModalBehavior,
    PatternBehavior,
)


def tiny_program() -> Program:
    """A hand-built two-block infinite loop with one conditional."""
    blocks = [
        BasicBlock(0, 0x1000, 4, BlockKind.COND, taken_target=1, fallthrough=1,
                   behavior=PatternBehavior("TN")),
        BasicBlock(1, 0x1010, 6, BlockKind.JUMP, taken_target=0),
    ]
    return Program(name="tiny", blocks=blocks, entry=0)


class TestProgramModel:
    def test_block_lookup(self):
        program = tiny_program()
        assert program.block(1).uops == 6

    def test_validate_catches_dangling_edge(self):
        blocks = [BasicBlock(0, 0x1000, 4, BlockKind.JUMP, taken_target=99)]
        program = Program(name="bad", blocks=blocks, entry=0)
        with pytest.raises(ValueError):
            program.validate()

    def test_validate_catches_cond_without_behavior(self):
        blocks = [BasicBlock(0, 0x1000, 4, BlockKind.COND, taken_target=0, fallthrough=0)]
        program = Program(name="bad", blocks=blocks, entry=0)
        with pytest.raises(ValueError):
            program.validate()

    def test_duplicate_block_ids_rejected(self):
        blocks = [
            BasicBlock(0, 0x1000, 4, BlockKind.JUMP, taken_target=0),
            BasicBlock(0, 0x2000, 4, BlockKind.JUMP, taken_target=0),
        ]
        with pytest.raises(ValueError):
            Program(name="dup", blocks=blocks, entry=0)

    def test_missing_entry_rejected(self):
        blocks = [BasicBlock(0, 0x1000, 4, BlockKind.JUMP, taken_target=0)]
        with pytest.raises(ValueError):
            Program(name="bad", blocks=blocks, entry=5)

    def test_census_and_sites(self):
        program = tiny_program()
        assert program.static_conditional_branches == 1
        assert program.behavior_census() == {"pattern": 1}
        assert program.conditional_sites() == [0x1000]


def committed_stream(program: Program, n: int) -> list[tuple[int, bool, int]]:
    executor = ArchitecturalExecutor(program)
    return [executor.resolve_next() for _ in range(n)]


class CountingLoop(LoopBehavior):
    """A loop back-edge that counts its resets."""

    __slots__ = ("resets",)

    def __init__(self) -> None:
        super().__init__(trip_count=3)
        self.resets = 0

    def reset(self) -> None:
        super().reset()
        self.resets += 1


class TestResetContract:
    """``Program.reset`` rewinds behaviours only when a context was made
    since the program was built or last reset."""

    def test_reset_after_a_run_replays_like_a_fresh_build(self):
        profile = WorkloadProfile(name="t", seed=21, static_branch_target=120)
        program = generate_program(profile)
        first = committed_stream(program, 3000)
        program.reset()
        assert committed_stream(program, 3000) == first
        assert committed_stream(generate_program(profile), 3000) == first

    def test_reset_without_a_context_is_a_no_op(self):
        loop = CountingLoop()
        blocks = [
            BasicBlock(0, 0x1000, 4, BlockKind.COND, 1, 1, loop),
            BasicBlock(1, 0x1010, 6, BlockKind.JUMP, 0),
        ]
        program = Program(name="counted", blocks=blocks, entry=0)
        program.reset()
        assert loop.resets == 0
        program.make_context()
        program.reset()
        program.reset()
        assert loop.resets == 1

    def test_only_behaviours_with_state_are_rewound(self):
        stateless_modal = ModalBehavior((PatternBehavior("TTN"), BiasedRandomBehavior(0.3)))
        looping_modal = ModalBehavior((LoopBehavior(4), BiasedRandomBehavior(0.3)))
        assert not PatternBehavior("TN").has_state()
        assert not stateless_modal.has_state()
        assert LoopBehavior(4).has_state() and looping_modal.has_state()
        blocks = [
            BasicBlock(0, 0x1000, 4, BlockKind.COND, 1, 1, stateless_modal),
            BasicBlock(1, 0x1010, 4, BlockKind.COND, 2, 2, looping_modal),
            BasicBlock(2, 0x1020, 4, BlockKind.COND, 0, 0, PatternBehavior("TN")),
        ]
        program = Program(name="mixed", blocks=blocks, entry=0)
        assert program._stateful == (looping_modal,)


class TestGenerator:
    def test_generates_valid_program(self):
        program = generate_program(WorkloadProfile(name="t", seed=3, static_branch_target=120))
        program.validate()
        assert program.static_conditional_branches > 40

    def test_deterministic_for_same_seed(self):
        a = generate_program(WorkloadProfile(name="t", seed=9, static_branch_target=80))
        b = generate_program(WorkloadProfile(name="t", seed=9, static_branch_target=80))
        assert [bl.pc for bl in a.blocks] == [bl.pc for bl in b.blocks]
        assert a.behavior_census() == b.behavior_census()

    def test_different_seeds_differ(self):
        a = generate_program(WorkloadProfile(name="t", seed=1, static_branch_target=80))
        b = generate_program(WorkloadProfile(name="t", seed=2, static_branch_target=80))
        assert [bl.pc for bl in a.blocks] != [bl.pc for bl in b.blocks]

    def test_branch_target_roughly_met(self):
        target = 300
        program = generate_program(WorkloadProfile(name="t", seed=5, static_branch_target=target))
        conds = program.static_conditional_branches
        assert 0.5 * target <= conds <= 2.0 * target

    def test_behavior_mix_respected(self):
        profile = WorkloadProfile(
            name="t", seed=4, static_branch_target=400,
            behavior_mix={"loop": 1.0},  # loops only
        )
        program = generate_program(profile)
        census = program.behavior_census()
        # Everything should be loops (caller boost is off when absent).
        assert set(census) == {"loop"}

    def test_rejects_empty_mix(self):
        profile = WorkloadProfile(name="t", seed=4, behavior_mix={"loop": 0.0})
        with pytest.raises(ValueError):
            ProgramGenerator(profile).generate()

    def test_pcs_are_unique_and_increasing(self):
        program = generate_program(WorkloadProfile(name="t", seed=8, static_branch_target=100))
        pcs = [b.pc for b in program.blocks]
        assert len(set(pcs)) == len(pcs)
        assert pcs == sorted(pcs)


class TestSuites:
    def test_all_benchmarks_build(self):
        # Building every profile would be slow; spot-check one per suite.
        for members in SUITES.values():
            program = benchmark(members[0])
            program.validate()
            assert program.name == members[0]

    def test_every_member_is_a_known_benchmark(self):
        for members in SUITES.values():
            for name in members:
                assert name in BENCHMARKS

    def test_figure5_benchmarks_known(self):
        assert set(FIGURE5_BENCHMARKS) <= set(BENCHMARKS)

    def test_seven_suites(self):
        assert len(suite_names()) == 7

    def test_unknown_benchmark_raises(self):
        with pytest.raises(KeyError):
            benchmark("doom")

    def test_unknown_suite_raises(self):
        with pytest.raises(KeyError):
            suite_benchmarks("GAMES")

    def test_cached_benchmark_is_reset(self):
        a = benchmark("swim", fresh=False)
        first = committed_stream(a, 2000)
        b = benchmark("swim", fresh=False)
        assert a is b
        assert committed_stream(b, 2000) == first
        assert committed_stream(benchmark("swim"), 2000) == first

    def test_benchmark_names_stable(self):
        assert benchmark_names() == list(BENCHMARKS)


class TestTrace:
    def make_trace(self):
        trace = BranchTrace("t")
        for i, taken in enumerate([True, False, True, True]):
            trace.append(BranchRecord(pc=0x100 + 4 * i, taken=taken, uops=10))
        return trace

    def test_basic_stats(self):
        trace = self.make_trace()
        assert len(trace) == 4
        assert trace.total_uops == 40
        assert trace.taken_rate == 0.75
        assert trace.distinct_sites() == 4

    def test_window(self):
        trace = self.make_trace()
        assert [r.taken for r in trace.window(1, 2)] == [False, True]
        with pytest.raises(ValueError):
            trace.window(-1, 2)

    def test_future_bits_layout(self):
        trace = self.make_trace()
        # Outcomes T F T T; future of index 0 with 3 bits: own outcome at
        # bit 2, next at bit 1, next-next at bit 0 -> T,F,T = 0b101.
        assert trace.future_bits(0, 3) == 0b101

    def test_future_bits_at_end_pad_zero(self):
        trace = self.make_trace()
        # Index 3 (T) with 3 bits: T,_,_ -> 0b100.
        assert trace.future_bits(3, 3) == 0b100
