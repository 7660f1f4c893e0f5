"""Regression tests for simulation determinism.

The execution engine's caching and parallelism are only sound because a
cell's result is a pure function of its spec. These tests pin that
property at the `simulate` level: the same seed and config must produce
identical ``RunStats`` across independent runs, across a ``reset()`` of
the system, and regardless of unrelated simulations in between.
"""

from dataclasses import replace

import pytest

from repro.sim import RunStats, SimulationConfig, simulate
from repro.sim.specs import SystemSpec
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
    """Under both kernels: the batched one memoizes the trace and its
    precompute on the program, which these reruns reuse."""

    @pytest.fixture
    def config(self, kernel_backend):
        return replace(CONFIG, backend=kernel_backend)

    def test_two_fresh_runs_are_identical(self, config):
        first = simulate(benchmark("flash"), GSHARE_HYBRID.build(), config)
        second = simulate(benchmark("flash"), GSHARE_HYBRID.build(), config)
        assert first.mispredicts > 0  # a trivial run would prove nothing
        assert_identical(first, second)

    def test_rerun_after_system_reset_is_identical(self, config):
        program = benchmark("swim")
        system = SystemSpec.hybrid("2bc-gskew", 2, "tagged-gshare", 2, 4).build()
        first = simulate(program, system, config)
        system.reset()
        second = simulate(program, system, config)  # simulate() resets the program
        assert_identical(first, second)

    def test_single_system_reset_is_identical(self, config):
        program = benchmark("ammp")
        system = SystemSpec.single("gshare", 2).build()
        first = simulate(program, system, config)
        system.reset()
        second = simulate(program, system, config)
        assert_identical(first, second)

    def test_interleaved_unrelated_run_does_not_perturb(self, config):
        """No hidden global state couples independent simulations."""
        first = simulate(benchmark("flash"), GSHARE_HYBRID.build(), config)
        simulate(benchmark("tpcc"), SystemSpec.single("perceptron", 2).build(), config)
        second = simulate(benchmark("flash"), GSHARE_HYBRID.build(), config)
        assert_identical(first, second)
