"""Property-based differential test: batched replay == scalar loop.

The kernel matrices in ``test_differential_kernel.py`` and
``test_batched_backend.py`` are hand-picked. Here hypothesis draws the
cell: every batched prophet kind at sampled geometries, alone (the
critic-less shape of the replay loop) or behind either fused critic,
under sampled BTB geometries, window depths and warmups, over a few
archetype programs. Each drawn cell must give the same ``RunStats`` —
every counter, the critique census and the per-site rows — and the same
predictor telemetry from both backends.

The profile is derandomized, so tier-1 replays the same examples on
every run.
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import ProphetCriticSystem, SinglePredictorSystem
from repro.predictors.registry import ROLE_CRITIC, build_predictor
from repro.sim import batched
from repro.sim.driver import SimulationConfig, simulate
from repro.workloads.generator import generate_program
from repro.workloads.suites import BENCHMARKS

pytest.importorskip("numpy")

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

#: One program per archetype: integer (INT00), floating point (FP00),
#: server (SERV) and multimedia (MM).
_ARCHETYPES = ("gcc", "swim", "tpcc", "flash")

_PROFILE = settings(
    derandomize=True,
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@lru_cache(maxsize=None)
def _program(benchmark: str):
    """Small programs, built once and shared across examples, as a sweep
    shares them (so trace and precompute memos are exercised too)."""
    profile = replace(
        BENCHMARKS[benchmark],
        name=f"property-{benchmark}",
        static_branch_target=150,
        n_functions=5,
    )
    return generate_program(profile)


def _pow2(lo: int, hi: int):
    return st.integers(lo, hi).map(lambda bits: 1 << bits)


def _gshare_params(bits: int):
    return st.fixed_dictionaries({
        "entries": st.just(1 << bits),
        "history_length": st.one_of(st.none(), st.integers(0, bits)),
        "counter_bits": st.integers(1, 3),
    })


_PROPHETS = st.one_of(
    st.tuples(st.just("2bc-gskew"), st.fixed_dictionaries({
        "entries_per_table": _pow2(4, 12),
        "history_length": st.one_of(st.none(), st.integers(1, 24)),
    })),
    st.tuples(st.just("gshare"), st.integers(4, 14).flatmap(_gshare_params)),
    st.tuples(st.just("gas"), st.fixed_dictionaries({
        "history_length": st.integers(1, 12),
        "set_bits": st.integers(0, 6),
        "counter_bits": st.integers(1, 3),
    })),
    st.tuples(st.just("bimodal"), st.fixed_dictionaries({
        "entries": _pow2(2, 13),
        "counter_bits": st.integers(1, 3),
    })),
    st.tuples(st.just("perceptron"), st.fixed_dictionaries({
        "n_perceptrons": st.integers(1, 300),
        "history_length": st.integers(1, 40),
    })),
)

_CRITICS = st.one_of(
    st.tuples(st.just("tagged-gshare"), st.fixed_dictionaries({
        "sets": _pow2(4, 10),
        "ways": st.integers(1, 6),
        "history_length": st.integers(4, 24),
        "tag_bits": st.integers(4, 10),
    })),
    st.tuples(st.just("filtered-perceptron"), st.fixed_dictionaries({
        "n_perceptrons": st.integers(1, 200),
        "history_length": st.integers(1, 30),
        "filter_sets": _pow2(4, 9),
        "filter_ways": st.integers(1, 4),
        "filter_history_length": st.integers(4, 20),
        "tag_bits": st.integers(4, 10),
    })),
)


@st.composite
def _configs(draw) -> SimulationConfig:
    n_branches = draw(st.integers(300, 1500))
    ways = draw(st.integers(1, 4))
    sets = draw(st.sampled_from(
        [s for s in (4, 8, 16, 32, 64, 128, 256) if 16 <= s * ways <= 256]
    ))
    return SimulationConfig(
        n_branches=n_branches,
        warmup=draw(st.integers(0, n_branches - 1)),
        inflight_depth=draw(st.integers(0, 64)),
        use_btb=draw(st.booleans()),
        btb_entries=sets * ways,
        btb_ways=ways,
        collect_per_site=True,
        collect_predictor_stats=draw(st.booleans()),
    )


def _assert_backends_agree(program, build, config):
    scalar_system = build()
    batched_system = build()
    scalar = simulate(program, scalar_system, replace(config, backend="scalar"))
    batch = batched.simulate_batched(program, batched_system, config)
    assert batch is not None, "batched kernel declined a supported shape"
    for field in _FIELDS:
        assert getattr(batch, field) == getattr(scalar, field), field
    assert batch.census.counts == scalar.census.counts
    assert batch.per_site == scalar.per_site
    assert batched_system.bhr.value == scalar_system.bhr.value
    for attr in ("predictor", "prophet", "critic"):
        ours = getattr(batched_system, attr, None)
        if ours is not None:
            theirs = getattr(scalar_system, attr)
            assert ours.stats == theirs.stats, attr
    if isinstance(batched_system, ProphetCriticSystem):
        assert batched_system.bor.value == scalar_system.bor.value
        assert batched_system.critic.filter.stats == scalar_system.critic.filter.stats


@given(
    prophet=_PROPHETS,
    config=_configs(),
    benchmark=st.sampled_from(_ARCHETYPES),
)
@_PROFILE
def test_single_predictor_cells(prophet, config, benchmark):
    kind, params = prophet

    def build():
        return SinglePredictorSystem(build_predictor(kind, params))

    _assert_backends_agree(_program(benchmark), build, config)


@given(
    prophet=_PROPHETS,
    critic=_CRITICS,
    future_bits=st.integers(0, 12),
    config=_configs(),
    benchmark=st.sampled_from(_ARCHETYPES),
)
@settings(_PROFILE, max_examples=50)
def test_prophet_critic_cells(prophet, critic, future_bits, config, benchmark):
    (kind, params), (ckind, cparams) = prophet, critic

    def build():
        return ProphetCriticSystem(
            build_predictor(kind, params),
            build_predictor(ckind, cparams, role=ROLE_CRITIC),
            future_bits=future_bits,
        )

    _assert_backends_agree(_program(benchmark), build, config)
