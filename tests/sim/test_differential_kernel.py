"""Differential proof that the optimized kernel matches the frozen reference.

The hot-path overhaul (precompiled CFG traversal, pooled in-flight
handles, predictor fast paths) is only admissible because it is
**bit-for-bit identical** to the straightforward kernel it replaced.
These tests run the same (program, system, config) cell through both
:func:`repro.sim.driver.simulate` and
:func:`reference_kernel.reference_simulate` and require every measured
field of ``RunStats`` — census and per-site attribution included — to be
exactly equal across a randomized matrix of seeds × suite archetypes ×
{baseline, hybrid} × BTB on/off.

Any intentional semantic change to the simulation must be applied to
``tests/reference_kernel.py`` as well, with the reasoning documented
there; these tests then pin the new semantics.

Every case runs under each simulation backend (the ``kernel_backend``
fixture: scalar and batched), so the batched structure-of-arrays kernel
is held to the same bit-for-bit standard against the same frozen
reference. Backends the batched kernel does not support fall back to
scalar inside ``simulate`` — running them under ``backend="batched"``
still proves the fallback path. Use ``--backend`` to restrict.
"""

from __future__ import annotations

import zlib
from dataclasses import replace

import pytest

from reference_kernel import reference_simulate
from repro.sim.driver import SimulationConfig, simulate
from repro.sim.metrics import RunStats
from repro.sim.specs import SystemSpec
from repro.workloads.suites import BENCHMARKS
from repro.workloads.generator import generate_program

#: Scalar RunStats fields that must match exactly.
_FIELDS = (
    "branches",
    "committed_uops",
    "mispredicts",
    "prophet_mispredicts",
    "static_branches",
    "forced_critiques",
    "critic_redirects",
    "fetched_uops",
    "taken_branches",
)

#: One representative per suite archetype, shrunk for test runtime but
#: keeping each archetype's behaviour mix (loopy FP, random-heavy server,
#: call/correlation-rich integer, short-path multimedia).
_ARCHETYPES = {
    "INT00": "gcc",
    "FP00": "swim",
    "MM": "flash",
    "SERV": "tpcc",
}

_SYSTEMS = {
    "baseline": SystemSpec.single("2bc-gskew", 2),
    "hybrid": SystemSpec.hybrid("2bc-gskew", 2, "tagged-gshare", 2, future_bits=4),
}

_CONFIG = SimulationConfig(
    n_branches=1500, warmup=300, inflight_depth=12, collect_per_site=True
)


def _program(suite: str, seed: int):
    profile = replace(
        BENCHMARKS[_ARCHETYPES[suite]],
        name=f"diff-{suite}-{seed}",
        seed=seed,
        static_branch_target=150,
        n_functions=5,
    )
    return generate_program(profile)


def _simulate(program, system, config, backend):
    return simulate(program, system, replace(config, backend=backend))


def assert_bit_identical(new: RunStats, ref: RunStats) -> None:
    for field in _FIELDS:
        assert getattr(new, field) == getattr(ref, field), field
    assert new.census.counts == ref.census.counts
    assert new.per_site == ref.per_site


class TestDifferentialMatrix:
    """Randomized seeds × suites × systems × BTB — the acceptance matrix."""

    @pytest.mark.parametrize("suite", sorted(_ARCHETYPES))
    @pytest.mark.parametrize("system_kind", sorted(_SYSTEMS))
    @pytest.mark.parametrize("use_btb", [True, False])
    def test_kernel_matches_reference(self, suite, system_kind, use_btb, kernel_backend):
        # Deterministic per-cell seed variation (crc32, not hash(): the
        # matrix must exercise the same seeds on every run and machine).
        seed = 1000 + zlib.crc32(f"{suite}/{system_kind}".encode()) % 7
        program = _program(suite, seed)
        config = replace(_CONFIG, use_btb=use_btb, btb_entries=256, btb_ways=4)
        new = _simulate(program, _SYSTEMS[system_kind].build(), config, kernel_backend)
        ref = reference_simulate(program, _SYSTEMS[system_kind].build(), config)
        assert new.mispredicts > 0  # a trivial run would prove nothing
        assert_bit_identical(new, ref)

    @pytest.mark.parametrize("seed", [7, 8, 9])
    def test_random_seeds_hybrid(self, seed, kernel_backend):
        """Fresh random programs (same archetype, new seeds) stay identical."""
        program = _program("INT00", seed)
        system = SystemSpec.hybrid(
            "2bc-gskew", 2, "tagged-gshare", 2, future_bits=8
        )
        new = _simulate(program, system.build(), _CONFIG, kernel_backend)
        ref = reference_simulate(program, system.build(), _CONFIG)
        assert_bit_identical(new, ref)


class TestDifferentialCriticShapes:
    """Critic variants exercise every prediction-system fast path."""

    def test_filtered_perceptron_critic(self, kernel_backend):
        program = _program("MM", 21)
        spec = SystemSpec.hybrid(
            "2bc-gskew", 2, "filtered-perceptron", 2, future_bits=4
        )
        new = _simulate(program, spec.build(), _CONFIG, kernel_backend)
        ref = reference_simulate(program, spec.build(), _CONFIG)
        assert_bit_identical(new, ref)

    def test_unfiltered_critic_and_insert_on_prophet(self, kernel_backend):
        from repro.core.hybrid import ProphetCriticSystem
        from repro.predictors.budget import make_prophet

        program = _program("SERV", 22)

        def build():
            return ProphetCriticSystem(
                make_prophet("2bc-gskew", 2),
                make_prophet("gshare", 2),  # plain predictor: unfiltered critic
                future_bits=4,
                insert_on="prophet",
            )

        new = _simulate(program, build(), _CONFIG, kernel_backend)
        ref = reference_simulate(program, build(), _CONFIG)
        assert_bit_identical(new, ref)

    @pytest.mark.parametrize("critic", ["tagged-gshare", "filtered-perceptron"])
    def test_filtered_critic_insert_on_prophet(self, critic, kernel_backend):
        """ablation-insert-policy's shape: a filtered critic with
        ``insert_on="prophet"``, through the allocate path both filtered
        critics share. The two policies give equal results by
        construction: the allocate reads the policy only on a filter
        miss at resolve, and final and prophet predictions differ only
        after a hit at critique, which stays a hit until resolve."""
        program = _program("INT00", 24)
        spec = SystemSpec.hybrid(
            "2bc-gskew", 8, critic, 8, future_bits=8, insert_on="prophet"
        )
        new = _simulate(program, spec.build(), _CONFIG, kernel_backend)
        ref = reference_simulate(program, spec.build(), _CONFIG)
        assert_bit_identical(new, ref)

    def test_zero_future_bits_conventional_hybrid(self, kernel_backend):
        program = _program("FP00", 23)
        spec = SystemSpec.hybrid("gshare", 2, "tagged-gshare", 2, future_bits=0)
        new = _simulate(program, spec.build(), _CONFIG, kernel_backend)
        ref = reference_simulate(program, spec.build(), _CONFIG)
        assert_bit_identical(new, ref)

    def test_single_predictor_prophets(self, kernel_backend):
        """Every prophet family goes through the packed fast path."""
        program = _program("INT00", 31)
        for kind in ("gshare", "perceptron", "tage"):
            spec = SystemSpec.single(kind, 2)
            new = _simulate(program, spec.build(), _CONFIG, kernel_backend)
            ref = reference_simulate(program, spec.build(), _CONFIG)
            assert_bit_identical(new, ref)


class TestFusedMultiSystemReplay:
    """The fused sweep path: K same-program systems replayed down shared
    trace columns (one :class:`FusedReplayContext`) must each stay
    bit-identical to the frozen reference — the same standard as a lone
    run. Covers the hybrid/critic matrix plus singles, mixed geometries
    in one context, unfiltered critics, and prophets without a fused arm
    sharing the context with fused ones."""

    def _runs(self):
        specs = [
            SystemSpec.hybrid("2bc-gskew", 2, "tagged-gshare", 2, future_bits=4),
            SystemSpec.hybrid("2bc-gskew", 2, "filtered-perceptron", 2, future_bits=4),
            SystemSpec.hybrid("2bc-gskew", 2, "tagged-gshare", 2, future_bits=0),
            SystemSpec.hybrid("gshare", 2, "tagged-gshare", 4, future_bits=8),
            SystemSpec.single("2bc-gskew", 2),
            SystemSpec.single("gshare", 4),
            # Figure 6a: unfiltered perceptron critic.
            SystemSpec.hybrid("2bc-gskew", 4, "perceptron", 8, future_bits=4),
            SystemSpec.hybrid("2bc-gskew", 4, "perceptron", 8, future_bits=12),
            # ablation-filtering: plain gshare critic.
            SystemSpec.hybrid("2bc-gskew", 8, "gshare", 8, future_bits=8),
        ]
        return [spec.build for spec in specs]

    def test_fused_matrix_matches_reference(self):
        from repro.sim.batched import FusedReplayContext, simulate_batched

        program = _program("INT00", 51)
        builders = self._runs()
        shared = FusedReplayContext()
        results = [
            simulate_batched(program, build(), _CONFIG, shared) for build in builders
        ]
        assert len(shared) > 0  # per-program precompute actually pooled
        for build, got in zip(builders, results):
            ref = reference_simulate(_program("INT00", 51), build(), _CONFIG)
            assert_bit_identical(got, ref)

    def test_fused_mixed_arms_share_a_context(self):
        """A prophet without a fused arm shares one context with fused
        ones, and neither perturbs the other."""
        from repro.sim.batched import FusedReplayContext, simulate_batched

        from repro.core.hybrid import ProphetCriticSystem
        from repro.predictors.budget import make_prophet

        program = _program("MM", 52)
        fused = SystemSpec.single("2bc-gskew", 2)
        packed = SystemSpec.single("tage", 2)  # the packed-call arm

        # An unfiltered plain-predictor critic runs batched.
        def unfiltered():
            return ProphetCriticSystem(
                make_prophet("2bc-gskew", 2), make_prophet("gshare", 2), future_bits=4
            )

        shared = FusedReplayContext()
        results = [
            simulate_batched(program, system, _CONFIG, shared)
            for system in (fused.build(), packed.build(), unfiltered(), fused.build())
        ]
        assert_bit_identical(results[3], results[0])
        for i, build in ((1, packed.build), (2, unfiltered)):
            ref = reference_simulate(_program("MM", 52), build(), _CONFIG)
            assert_bit_identical(results[i], ref)


class TestDifferentialEdges:
    def test_call_nesting_deeper_than_ras_capacity(self):
        """Static call/return pairing must fall back to live-RAS pops
        when nesting exceeds capacity (drop-oldest would evict the
        paired entry): walker and executor must reproduce the reference
        traversal exactly, underflow fallback included."""
        from reference_kernel import _ReferenceExecutor, _ReferenceWalker
        from repro.engine.executor import ArchitecturalExecutor
        from repro.engine.frontend import SpeculativeWalker
        from repro.workloads.behaviors import PatternBehavior
        from repro.workloads.program import BasicBlock, BlockKind, Program

        def deep_call_program():
            # COND -> CALL f1 -> CALL f2 -> CALL f3 -> RETURN x3 -> back.
            # With a capacity-2 RAS the first return point is dropped, so
            # the third RETURN underflows to the entry.
            return Program(
                name="deep-calls",
                blocks=[
                    BasicBlock(0, 0x1000, 4, BlockKind.COND, taken_target=1,
                               fallthrough=1, behavior=PatternBehavior("TN")),
                    BasicBlock(1, 0x1010, 1, BlockKind.CALL, taken_target=2, fallthrough=10),
                    BasicBlock(2, 0x1020, 1, BlockKind.CALL, taken_target=3, fallthrough=11),
                    BasicBlock(3, 0x1030, 1, BlockKind.CALL, taken_target=4, fallthrough=12),
                    BasicBlock(4, 0x1040, 2, BlockKind.RETURN),
                    BasicBlock(12, 0x1050, 3, BlockKind.RETURN),
                    BasicBlock(11, 0x1060, 5, BlockKind.RETURN),
                    BasicBlock(10, 0x1070, 7, BlockKind.JUMP, taken_target=0),
                ],
                entry=0,
            )

        for capacity in (2, 3, 64):
            program = deep_call_program()
            walker = SpeculativeWalker(program, ras_capacity=capacity)
            ref_walker = _ReferenceWalker(deep_call_program(), ras_capacity=capacity)
            for _ in range(40):
                before = walker.fetched_uops
                pc = walker.next_branch_block().pc
                expected = ref_walker.next_branch()
                assert (pc, walker.fetched_uops - before) == (
                    expected.pc, expected.uops
                ), capacity
                walker.advance(True)
                ref_walker.advance(True)
            assert walker.fetched_uops == ref_walker.fetched_uops

            executor = ArchitecturalExecutor(deep_call_program(), ras_capacity=capacity)
            ref_executor = _ReferenceExecutor(deep_call_program(), ras_capacity=capacity)
            for _ in range(40):
                expected = ref_executor.next_branch()
                assert executor.resolve_next() == (
                    expected.pc, expected.taken, expected.uops
                ), capacity

    def test_tiny_window_forces_critiques(self, kernel_backend):
        """A shallow window exercises the forced-critique path."""
        program = _program("INT00", 41)
        config = replace(_CONFIG, inflight_depth=2, collect_per_site=False)
        spec = SystemSpec.hybrid("2bc-gskew", 2, "tagged-gshare", 2, future_bits=8)
        new = _simulate(program, spec.build(), config, kernel_backend)
        ref = reference_simulate(program, spec.build(), config)
        assert_bit_identical(new, ref)

    def test_zero_warmup(self, kernel_backend):
        program = _program("MM", 42)
        config = replace(_CONFIG, warmup=0)
        spec = SystemSpec.single("2bc-gskew", 2)
        new = _simulate(program, spec.build(), config, kernel_backend)
        ref = reference_simulate(program, spec.build(), config)
        assert_bit_identical(new, ref)


class TestPackedProphetArm:
    """Prophets without a fused arm run batched through their packed
    calls. Behind a filtered critic, the hybrid shape's wrong-path
    fetches, overrides and flushes all reach them, and the result must
    equal the frozen reference kernel's."""

    @pytest.mark.parametrize("kind", [
        "tage", "yags", "local", "tournament", "gas", "bimodal", "always-taken",
    ])
    def test_hybrid_matches_reference(self, kind):
        from repro.sim.batched import simulate_batched
        from repro.sim.specs import PredictorSpec

        spec = SystemSpec(
            kind="hybrid", prophet=PredictorSpec(kind),
            critic=PredictorSpec("tagged-gshare", budget_kb=2), future_bits=4,
        )
        got = simulate_batched(_program("SERV", 61), spec.build(), _CONFIG)
        ref = reference_simulate(_program("SERV", 61), spec.build(), _CONFIG)
        assert_bit_identical(got, ref)
        assert got.critic_redirects > 0


#: Every registered predictor kind, as literals, so scalar/batched
#: agreement is exercised for all of them on every run; the
#: registry-equality test below keeps this list from rotting.
_ALL_KINDS = (
    "2bc-gskew",
    "always-not-taken",
    "always-taken",
    "bimodal",
    "filtered-perceptron",
    "gas",
    "gshare",
    "local",
    "perceptron",
    "tage",
    "tagged-gshare",
    "tournament",
    "yags",
)


class TestAllRegisteredKinds:
    """Scalar/batched differential across the *entire* predictor registry.

    Every kind runs batched, through a fused arm or the packed-call arm,
    and gets a genuine SoA-vs-scalar bit-identity check. Every
    registered kind is pinned here: adding a predictor without extending
    this matrix fails ``test_kind_list_matches_registry``.
    """

    def test_kind_list_matches_registry(self):
        from repro.predictors.registry import registered_kinds

        assert list(_ALL_KINDS) == registered_kinds()

    @pytest.mark.parametrize("kind", _ALL_KINDS)
    def test_single_system_scalar_batched_identical(self, kind):
        from repro.sim.specs import PredictorSpec

        spec = SystemSpec(kind="single", prophet=PredictorSpec(kind))
        program = _program("INT00", 23)
        config = replace(_CONFIG, collect_per_site=False)
        scalar = _simulate(program, spec.build(), config, "scalar")
        batched = _simulate(program, spec.build(), config, "batched")
        if kind not in ("always-taken", "always-not-taken"):
            assert scalar.mispredicts > 0
        assert_bit_identical(batched, scalar)
