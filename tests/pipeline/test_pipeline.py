"""Tests for the Table-2 machine config, caches and timing model."""

import pytest

from repro.core import ProphetCriticSystem, SinglePredictorSystem
from repro.pipeline import CacheModel, MemoryModel, TABLE2_MACHINE, TimedMachine
from repro.pipeline.uarch import CacheConfig
from repro.predictors import BimodalPredictor, GsharePredictor, TaggedGsharePredictor
from repro.workloads.behaviors import PatternBehavior
from repro.workloads.generator import WorkloadProfile, generate_program
from repro.workloads.program import BasicBlock, BlockKind, Program


class TestMachineConfig:
    def test_table2_values(self):
        m = TABLE2_MACHINE
        assert m.frequency_ghz == 3.8
        assert m.fetch_width_uops == 6
        assert m.mispredict_penalty_cycles == 30
        assert m.btb_entries == 4096 and m.btb_ways == 4
        assert m.ftq_entries == 32
        assert m.instruction_window_uops == 2048
        assert m.scheduling_window == {"int": 256, "mem": 128, "fp": 384}
        assert m.load_buffer_uops == 768 and m.store_buffer_uops == 512
        assert m.icache.size_kb == 64 and m.icache.ways == 8
        assert m.l1d.size_kb == 32 and m.l1d.hit_cycles == 3
        assert m.l2.size_kb == 2048 and m.l2.hit_cycles == 16

    def test_memory_latency_cycles(self):
        # 100ns at 3.8GHz = 380 cycles.
        assert TABLE2_MACHINE.memory_latency_cycles == 380


class TestCacheModel:
    def test_miss_then_hit(self):
        cache = CacheModel(CacheConfig("t", 4, 2, 64, 1))
        assert not cache.access(0x1000)
        assert cache.access(0x1000)
        assert cache.miss_rate == 0.5

    def test_same_line_hits(self):
        cache = CacheModel(CacheConfig("t", 4, 2, 64, 1))
        cache.access(0x1000)
        assert cache.access(0x1004)  # same 64-byte line

    def test_lru_eviction(self):
        # 4KB, 2-way, 64B lines -> 32 sets; lines mapping to one set
        # differ by 32*64 = 2048 bytes.
        cache = CacheModel(CacheConfig("t", 4, 2, 64, 1))
        for i in range(3):
            cache.access(0x1000 + i * 2048)
        assert not cache.access(0x1000)  # evicted

    def test_reset(self):
        cache = CacheModel(CacheConfig("t", 4, 2, 64, 1))
        cache.access(0x1000)
        cache.reset()
        assert cache.accesses == 0
        assert not cache.access(0x1000)


class TestMemoryModel:
    def test_deterministic(self):
        a = MemoryModel(TABLE2_MACHINE)
        b = MemoryModel(TABLE2_MACHINE)
        stalls_a = [a.stall_cycles(i, 10) for i in range(100)]
        stalls_b = [b.stall_cycles(i, 10) for i in range(100)]
        assert stalls_a == stalls_b

    def test_zero_rates_zero_stall(self):
        model = MemoryModel(TABLE2_MACHINE, l1_miss_per_uop=0.0, l2_miss_per_uop=0.0)
        assert all(model.stall_cycles(i, 10) == 0.0 for i in range(50))

    def test_expected_stall_scales_with_rate(self):
        low = MemoryModel(TABLE2_MACHINE, l1_miss_per_uop=0.001, l2_miss_per_uop=0.0)
        high = MemoryModel(TABLE2_MACHINE, l1_miss_per_uop=0.1, l2_miss_per_uop=0.0)
        total_low = sum(low.stall_cycles(i, 10) for i in range(500))
        total_high = sum(high.stall_cycles(i, 10) for i in range(500))
        assert total_high > total_low * 5

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            MemoryModel(TABLE2_MACHINE, l1_miss_per_uop=2.0)
        with pytest.raises(ValueError):
            MemoryModel(TABLE2_MACHINE, mlp=0.0)


def easy_program() -> Program:
    blocks = [
        BasicBlock(0, 0x1000, 8, BlockKind.COND, taken_target=1, fallthrough=1,
                   behavior=PatternBehavior("T")),
        BasicBlock(1, 0x1010, 8, BlockKind.JUMP, taken_target=0),
    ]
    return Program(name="easy", blocks=blocks, entry=0)


class TestTimedMachine:
    def test_upc_bounded_by_width(self):
        machine = TimedMachine(easy_program(), SinglePredictorSystem(BimodalPredictor(64)))
        result = machine.run(2000, warmup=200)
        assert 0.0 < result.upc <= TABLE2_MACHINE.issue_width_uops

    def test_perfectly_predicted_program_has_few_flushes(self):
        machine = TimedMachine(easy_program(), SinglePredictorSystem(BimodalPredictor(64)))
        result = machine.run(2000, warmup=200)
        assert result.mispredicts < 10

    def test_mispredicts_cost_upc(self):
        """A program the predictor cannot learn must run slower than one
        it can."""
        hard_blocks = [
            BasicBlock(0, 0x1000, 8, BlockKind.COND, taken_target=1, fallthrough=1,
                       behavior=PatternBehavior("TN")),
            BasicBlock(1, 0x1010, 8, BlockKind.JUMP, taken_target=0),
        ]
        # Bimodal cannot learn an alternating pattern.
        hard = Program(name="hard", blocks=hard_blocks, entry=0)
        fast = TimedMachine(easy_program(), SinglePredictorSystem(BimodalPredictor(64))).run(
            2000, warmup=200
        )
        slow = TimedMachine(hard, SinglePredictorSystem(BimodalPredictor(64))).run(
            2000, warmup=200
        )
        assert slow.mispredicts > fast.mispredicts * 5
        assert slow.upc < fast.upc

    def test_hybrid_runs_through_timing_model(self):
        program = generate_program(WorkloadProfile(name="t", seed=6, static_branch_target=80))
        system = ProphetCriticSystem(
            GsharePredictor(1024, 10),
            TaggedGsharePredictor(sets=64, ways=4),
            future_bits=4,
        )
        result = TimedMachine(program, system).run(3000, warmup=300)
        assert result.branches == 2700
        assert result.fetched_uops >= result.committed_uops * 0.5
        assert result.cycles > 0

    def test_wrong_path_fraction_in_range(self):
        program = generate_program(WorkloadProfile(name="t", seed=6, static_branch_target=80))
        result = TimedMachine(program, SinglePredictorSystem(GsharePredictor(1024, 10))).run(
            3000, warmup=300
        )
        assert 0.0 <= result.wrong_path_fetch_fraction < 1.0

    def test_uops_per_flush(self):
        program = generate_program(WorkloadProfile(name="t", seed=6, static_branch_target=80))
        result = TimedMachine(program, SinglePredictorSystem(GsharePredictor(1024, 10))).run(
            3000, warmup=300
        )
        if result.mispredicts:
            assert result.uops_per_flush == result.committed_uops / result.mispredicts

    @pytest.mark.parametrize("warmup", [1000, 1500])
    def test_empty_measurement_window_rejected(self, warmup):
        """Like ``simulate``, a warmup that covers the whole run is an
        error, not a result with ``branches == 0`` and the whole run's
        uPC."""
        from repro.sim.specs import ProgramSpec, SystemSpec

        machine = TimedMachine(
            ProgramSpec(benchmark="flash").build(),
            SystemSpec.single("gshare", 16).build(),
        )
        with pytest.raises(ValueError, match="warmup must leave a measurement window"):
            machine.run(1000, warmup=warmup)
