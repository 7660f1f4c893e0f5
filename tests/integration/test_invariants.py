"""Property-based invariants of the whole simulation stack.

Hypothesis drives randomly generated programs and system configurations
through the simulator; these properties must hold for any of them:

* the front end and architectural executor never desync (checked
  internally by simulate — any violation raises);
* replaying the same configuration is bit-identical;
* census totals and mispredict counters are mutually consistent;
* the prophet-alone accuracy of a system is independent of the critic
  attached to it (critics never perturb the prophet's tables).

They run the scalar loop (``backend="scalar"``), whose walker/executor
cross-check is the desync oracle; the property suite holds the batched
kernel equal to it.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ProphetCriticSystem, SinglePredictorSystem
from repro.predictors import GsharePredictor, TaggedGsharePredictor, TwoBcGskewPredictor
from repro.sim import SimulationConfig, simulate
from repro.workloads.generator import WorkloadProfile, generate_program

SEEDS = st.integers(min_value=1, max_value=50)
FUTURE_BITS = st.sampled_from([0, 1, 3, 8])


def tiny_config(**kw) -> SimulationConfig:
    defaults = dict(n_branches=1200, warmup=200, backend="scalar")
    defaults.update(kw)
    return SimulationConfig(**defaults)


def tiny_program(seed: int):
    return generate_program(
        WorkloadProfile(name=f"prop{seed}", seed=seed, static_branch_target=60)
    )


@settings(max_examples=10, deadline=None)
@given(seed=SEEDS, fb=FUTURE_BITS)
def test_simulation_never_desyncs_and_counts_are_consistent(seed, fb):
    system = ProphetCriticSystem(
        GsharePredictor(512, 9),
        TaggedGsharePredictor(sets=32, ways=4, history_length=10),
        future_bits=fb,
    )
    stats = simulate(tiny_program(seed), system, tiny_config())
    assert stats.branches == 1000
    assert stats.census.total == stats.branches - stats.static_branches
    # Final mispredicts = prophet mispredicts - net critic gain (statics
    # counted identically on both sides).
    assert stats.mispredicts == stats.prophet_mispredicts - stats.census.net_gain()
    assert 0 <= stats.mispredicts <= stats.branches


@settings(max_examples=6, deadline=None)
@given(seed=SEEDS, fb=FUTURE_BITS)
def test_simulation_is_deterministic(seed, fb):
    def run():
        system = ProphetCriticSystem(
            TwoBcGskewPredictor(256, 8),
            TaggedGsharePredictor(sets=32, ways=4, history_length=10),
            future_bits=fb,
        )
        return simulate(tiny_program(seed), system, tiny_config())

    a, b = run(), run()
    assert a.mispredicts == b.mispredicts
    assert a.committed_uops == b.committed_uops
    assert a.census.as_dict() == b.census.as_dict()
    assert a.critic_redirects == b.critic_redirects


@settings(max_examples=6, deadline=None)
@given(seed=SEEDS)
def test_critic_never_perturbs_prophet_tables(seed):
    """The prophet's per-branch prediction stream (and hence its stats)
    must be identical with and without a critic attached: critics only
    override downstream, never feed back into prophet state.

    Two legitimate coupling channels are excluded or tolerated:

    * the BTB is disabled (different wrong paths diverge its LRU state);
    * exact per-branch equality is NOT required — when the critic fixes a
      mispredict it also *prevents the flush*, so younger branches are
      predicted before (not after) the older branch's commit-time table
      update; a few predictions near each fixed mispredict may differ.
      What must hold is the absence of systematic feedback: identical
      prediction counts and accuracy within noise.
    """
    alone = SinglePredictorSystem(GsharePredictor(512, 9))
    simulate(tiny_program(seed), alone, tiny_config(use_btb=False))

    hybrid = ProphetCriticSystem(
        GsharePredictor(512, 9),
        TaggedGsharePredictor(sets=32, ways=4, history_length=10),
        future_bits=4,
    )
    simulate(tiny_program(seed), hybrid, tiny_config(use_btb=False))
    assert alone.predictor.stats.predictions == hybrid.prophet.stats.predictions
    drift = abs(alone.predictor.stats.correct - hybrid.prophet.stats.correct)
    assert drift <= max(10, alone.predictor.stats.predictions * 0.02)


@settings(max_examples=6, deadline=None)
@given(seed=SEEDS, depth=st.integers(min_value=4, max_value=64))
def test_inflight_depth_does_not_change_committed_path(seed, depth):
    """Training delay changes predictor accuracy but never the committed
    branch stream (uops and branch counts are architectural facts)."""
    def run(d):
        system = SinglePredictorSystem(GsharePredictor(512, 9))
        return simulate(tiny_program(seed), system, tiny_config(inflight_depth=d))

    a = run(4)
    b = run(depth)
    assert a.committed_uops == b.committed_uops
    assert a.taken_branches == b.taken_branches
