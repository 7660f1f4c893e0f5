"""Regression tests for simulation determinism.

The execution engine's caching and parallelism are only sound because a
cell's result is a pure function of its spec. These tests pin that
property at the `simulate` level: the same seed and config must produce
identical ``RunStats`` across independent runs, across a ``reset()`` of
the system, and regardless of unrelated simulations in between.
"""

import pytest

from repro.predictors.registry import critic_capable_kinds, registered_kinds
from repro.sim import RunStats, SimulationConfig, simulate
from repro.sim.specs import PredictorSpec, SystemSpec
from repro.workloads.suites import benchmark

CONFIG = SimulationConfig(n_branches=2000, warmup=400)
GSHARE_HYBRID = SystemSpec.hybrid("gshare", 2, "tagged-gshare", 2, 4)

_FIELDS = (
    "benchmark",
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


def assert_identical(a: RunStats, b: RunStats) -> None:
    for field in _FIELDS:
        assert getattr(a, field) == getattr(b, field), field
    assert a.census.counts == b.census.counts


class TestSimulateDeterminism:
    """The kernel memoizes the trace and its precompute on the program,
    which these reruns reuse."""

    def test_two_fresh_runs_are_identical(self):
        first = simulate(benchmark("flash"), GSHARE_HYBRID.build(), CONFIG)
        second = simulate(benchmark("flash"), GSHARE_HYBRID.build(), CONFIG)
        assert first.mispredicts > 0  # a trivial run would prove nothing
        assert_identical(first, second)

    def test_rerun_after_system_reset_is_identical(self):
        program = benchmark("swim")
        system = SystemSpec.hybrid("2bc-gskew", 2, "tagged-gshare", 2, 4).build()
        first = simulate(program, system, CONFIG)
        system.reset()
        second = simulate(program, system, CONFIG)  # simulate() resets the program
        assert_identical(first, second)

    def test_single_system_reset_is_identical(self):
        program = benchmark("ammp")
        system = SystemSpec.single("gshare", 2).build()
        first = simulate(program, system, CONFIG)
        system.reset()
        second = simulate(program, system, CONFIG)
        assert_identical(first, second)

    def test_interleaved_unrelated_run_does_not_perturb(self):
        """No hidden global state couples independent simulations."""
        first = simulate(benchmark("flash"), GSHARE_HYBRID.build(), CONFIG)
        simulate(benchmark("tpcc"), SystemSpec.single("perceptron", 2).build(), CONFIG)
        second = simulate(benchmark("flash"), GSHARE_HYBRID.build(), CONFIG)
        assert_identical(first, second)

    @pytest.mark.parametrize("kind", registered_kinds())
    def test_every_prophet_kind_reset_is_identical(self, kind):
        """``reset()`` returns every predictor kind to its cold state."""
        program = benchmark("gcc")
        system = SystemSpec(kind="single", prophet=PredictorSpec(kind)).build()
        first = simulate(program, system, CONFIG)
        system.reset()
        second = simulate(program, system, CONFIG)
        assert_identical(first, second)

    @pytest.mark.parametrize("kind", critic_capable_kinds())
    def test_every_critic_kind_reset_is_identical(self, kind):
        """The same holds for each kind in the critic role, whose filter
        and future-bit state a reset must clear as well."""
        program = benchmark("specjbb")
        system = SystemSpec(
            kind="hybrid", prophet=PredictorSpec("2bc-gskew", budget_kb=2),
            critic=PredictorSpec(kind), future_bits=4,
        ).build()
        first = simulate(program, system, CONFIG)
        system.reset()
        second = simulate(program, system, CONFIG)
        assert first.critic_redirects > 0
        assert_identical(first, second)
