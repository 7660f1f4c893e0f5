"""Tests for the functional accuracy driver.

``simulate`` runs the one accuracy kernel (``sim/batched.py``); the
differential and property suites hold it equal to the frozen reference.
"""

from dataclasses import replace

import pytest

from repro.core import ProphetCriticSystem, SinglePredictorSystem
from repro.predictors import BimodalPredictor, GsharePredictor, TaggedGsharePredictor
from repro.sim import SimulationConfig, simulate
from repro.sim.specs import ProgramSpec, SweepCell, SystemSpec
from repro.workloads.behaviors import BiasedRandomBehavior, PatternBehavior
from repro.workloads.generator import WorkloadProfile, generate_program
from repro.workloads.program import BasicBlock, BlockKind, Program


def pattern_program(pattern="TTN") -> Program:
    blocks = [
        BasicBlock(0, 0x1000, 4, BlockKind.COND, taken_target=1, fallthrough=2,
                   behavior=PatternBehavior(pattern)),
        BasicBlock(1, 0x1010, 3, BlockKind.JUMP, taken_target=0),
        BasicBlock(2, 0x1020, 5, BlockKind.JUMP, taken_target=0),
    ]
    return Program(name="pattern", blocks=blocks, entry=0)


def small_config(**kw) -> SimulationConfig:
    defaults = dict(n_branches=3000, warmup=500)
    defaults.update(kw)
    return SimulationConfig(**defaults)


class TestDriverBasics:
    def test_learns_pattern_to_high_accuracy(self):
        stats = simulate(
            pattern_program(), SinglePredictorSystem(GsharePredictor(256, 8)), small_config()
        )
        assert stats.accuracy > 0.95
        assert stats.branches == 2500

    def test_uop_accounting_consistent(self):
        stats = simulate(
            pattern_program(), SinglePredictorSystem(GsharePredictor(256, 8)), small_config()
        )
        # Every committed branch contributes its block's uops.
        assert stats.committed_uops >= stats.branches * 4
        assert stats.fetched_uops >= stats.committed_uops * 0.9

    def test_warmup_must_leave_window(self):
        with pytest.raises(ValueError):
            simulate(
                pattern_program(),
                SinglePredictorSystem(BimodalPredictor(64)),
                SimulationConfig(n_branches=100, warmup=100),
            )

    def test_deterministic(self):
        def run():
            return simulate(
                pattern_program(),
                SinglePredictorSystem(GsharePredictor(256, 8)),
                small_config(),
            )

        a, b = run(), run()
        assert a.mispredicts == b.mispredicts
        assert a.committed_uops == b.committed_uops

    def test_btb_disabled_has_no_static_branches(self):
        stats = simulate(
            pattern_program(),
            SinglePredictorSystem(GsharePredictor(256, 8)),
            small_config(use_btb=False),
        )
        assert stats.static_branches == 0

    def test_btb_cold_misses_counted(self):
        program = generate_program(WorkloadProfile(name="t", seed=3, static_branch_target=80))
        stats = simulate(
            program,
            SinglePredictorSystem(GsharePredictor(256, 8)),
            SimulationConfig(n_branches=2000, warmup=10),
        )
        # Early cold misses land inside the (tiny) measurement window.
        assert stats.static_branches >= 0  # accounted, never negative

    def test_per_site_collection(self):
        stats = simulate(
            pattern_program(),
            SinglePredictorSystem(GsharePredictor(256, 8)),
            small_config(collect_per_site=True),
        )
        assert stats.per_site is not None
        assert 0x1000 in stats.per_site
        row = stats.per_site[0x1000]
        assert row[0] == stats.branches

    def test_mispredict_rate_of_random_branch_matches_bias(self):
        blocks = [
            BasicBlock(0, 0x1000, 4, BlockKind.COND, taken_target=1, fallthrough=1,
                       behavior=BiasedRandomBehavior(0.75)),
            BasicBlock(1, 0x1010, 3, BlockKind.JUMP, taken_target=0),
        ]
        program = Program(name="rand", blocks=blocks, entry=0, seed=5)
        stats = simulate(
            program, SinglePredictorSystem(BimodalPredictor(64)), small_config(n_branches=8000)
        )
        # A 2-bit counter on a Bernoulli(0.75) stream cannot beat the 25%
        # Bayes rate and pays extra for counter flip-flop (~31% in the
        # steady state of the Markov chain) — bound it in [Bayes, ~flip-flop].
        assert 0.24 <= stats.mispredict_rate <= 0.36


class TestConfigValidation:
    """Impossible configs fail at construction, naming the field — not
    as a ZeroDivisionError or IndexError inside a kernel, and never as a
    distinct cache key."""

    @pytest.mark.parametrize(
        ("field", "kw"),
        [
            ("btb_ways", dict(btb_ways=0)),
            ("btb_entries", dict(btb_entries=0)),
            ("btb_entries", dict(btb_entries=12, btb_ways=4)),
            ("btb_entries", dict(btb_entries=6, btb_ways=4)),
            ("warmup", dict(warmup=-5)),
            ("inflight_depth", dict(inflight_depth=-3)),
        ],
    )
    def test_rejected_naming_the_field(self, field, kw):
        with pytest.raises(ValueError, match=field):
            small_config(**kw)

    def test_rejected_through_replace_and_spec_config(self):
        with pytest.raises(ValueError, match="btb_ways"):
            replace(small_config(), btb_ways=0)
        cell = SweepCell(
            system_label="s",
            bench_name="gcc",
            system=SystemSpec.single("gshare", 2),
            program=ProgramSpec(benchmark="gcc"),
            config=small_config(),
        ).to_config()
        cell["config"]["inflight_depth"] = -3
        with pytest.raises(ValueError, match="inflight_depth"):
            SweepCell.from_config(cell)

    @pytest.mark.parametrize(
        "kw",
        [
            dict(inflight_depth=0, warmup=0),
            dict(btb_entries=16, btb_ways=1),
            dict(btb_entries=64, btb_ways=2),
            dict(btb_entries=4, btb_ways=4),
        ],
    )
    def test_edge_values_still_run(self, kw):
        stats = simulate(
            pattern_program(),
            SinglePredictorSystem(GsharePredictor(256, 8)),
            small_config(**kw),
        )
        assert stats.branches == 3000 - kw.get("warmup", 500)


class TestDriverWithHybrid:
    def make_hybrid(self, fb=4):
        return ProphetCriticSystem(
            GsharePredictor(1024, 10),
            TaggedGsharePredictor(sets=64, ways=4, history_length=12),
            future_bits=fb,
        )

    @pytest.mark.parametrize("fb", [0, 1, 4, 8])
    def test_hybrid_runs_at_any_future_bits(self, fb):
        stats = simulate(pattern_program(), self.make_hybrid(fb), small_config())
        assert stats.branches == 2500
        assert stats.census.total == stats.branches - stats.static_branches

    def test_hybrid_not_worse_on_easy_program(self):
        base = simulate(
            pattern_program(), SinglePredictorSystem(GsharePredictor(1024, 10)), small_config()
        )
        hyb = simulate(pattern_program(), self.make_hybrid(), small_config())
        assert hyb.mispredicts <= base.mispredicts + 25

    def test_census_totals_match_branches(self):
        stats = simulate(pattern_program(), self.make_hybrid(), small_config())
        assert stats.census.total == stats.branches - stats.static_branches

    def test_inflight_depth_respected_for_future_bits(self):
        # A depth smaller than future_bits must still work (auto-raised).
        stats = simulate(
            pattern_program(), self.make_hybrid(8), small_config(inflight_depth=2)
        )
        assert stats.branches == 2500

    def test_forced_critiques_are_rare(self):
        stats = simulate(pattern_program(), self.make_hybrid(8), small_config())
        assert stats.forced_critiques <= stats.branches * 0.01


class TestGeneratedProgramIntegrity:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_no_desync_on_generated_programs(self, seed):
        """The front-end/executor cross-check runs inside simulate(); any
        divergence raises SimulationDesyncError."""
        program = generate_program(
            WorkloadProfile(name="t", seed=seed, static_branch_target=120)
        )
        stats = simulate(
            program,
            ProphetCriticSystem(
                GsharePredictor(1024, 10),
                TaggedGsharePredictor(sets=64, ways=4),
                future_bits=4,
            ),
            SimulationConfig(n_branches=4000, warmup=400),
        )
        assert stats.branches == 3600

    def test_metrics_summary_keys(self):
        program = pattern_program()
        stats = simulate(
            program, SinglePredictorSystem(BimodalPredictor(64)), small_config()
        )
        summary = stats.summary()
        for key in ("misp_per_kuops", "mispredict_pct", "uops_per_flush"):
            assert key in summary
