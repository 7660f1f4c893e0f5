"""Property-based differential test: batched replay == frozen reference.

The kernel matrices in ``test_differential_kernel.py`` and
``test_batched_backend.py`` are hand-picked. Here hypothesis draws the
cell: every registered prophet kind at sampled geometries (the fused
arms and the packed-call arm alike), alone (the critic-less shape of
the replay loop), behind either fused filtered critic under either
filter insertion policy, or behind any critic-capable kind as an
unfiltered critic, under sampled BTB
geometries, window depths and warmups, over a few archetype programs.
Each drawn cell must give the same ``RunStats`` — every counter, the
critique census and the per-site rows — and the same predictor
telemetry and learned end state (perceptron weight bytes, counter and
tag tables) from the batched kernel and from
``reference_kernel.reference_simulate``.

The loaded hypothesis profile governs the example count and seed: the
tier-1 default replays the same 100 examples per test on every run, and
``--hypothesis-profile=deep`` draws 1 000 fresh ones (see
``tests/conftest.py``).
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reference_kernel import reference_simulate
from repro.core import ProphetCriticSystem, SinglePredictorSystem
from repro.predictors.base import PredictorStats
from repro.predictors.registry import ROLE_CRITIC, build_predictor
from repro.sim import batched
from repro.sim.driver import SimulationConfig
from repro.workloads.generator import generate_program
from repro.workloads.suites import BENCHMARKS

np = pytest.importorskip("numpy")

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

#: No example count or seed here: the loaded profile supplies them.
_PROFILE = settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])


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


#: Perceptron history lengths across the widths of the batched kernel's
#: bit planes: short planes, byte multiples, the Table-3 lengths (17, 24,
#: 28, 47, 57), and planes at and past one 64-bit word.
_PERCEPTRON_HISTORY = st.one_of(
    st.integers(1, 7), st.sampled_from((8, 16, 17, 24, 28, 47, 57)),
    st.integers(33, 40), st.sampled_from((63, 64, 65, 72)),
)

_GSKEW = st.tuples(st.just("2bc-gskew"), st.fixed_dictionaries({
    "entries_per_table": _pow2(4, 12),
    "history_length": st.one_of(st.none(), st.integers(1, 24)),
}))
_GSHARE = st.tuples(st.just("gshare"), st.integers(4, 14).flatmap(_gshare_params))
_GAS = st.tuples(st.just("gas"), st.fixed_dictionaries({
    "history_length": st.integers(1, 12),
    "set_bits": st.integers(0, 6),
    "counter_bits": st.integers(1, 3),
}))
_PERCEPTRON = st.tuples(st.just("perceptron"), st.fixed_dictionaries({
    "n_perceptrons": st.integers(1, 300),
    "history_length": _PERCEPTRON_HISTORY,
}))
#: TAGE geometries up to and past the presets the workloads run (6
#: components, 130 bits of history, 1 024-entry components): histories
#: across one and two 64-bit words, one-bit tags, one-entry components.
_TAGE = st.tuples(st.just("tage"), st.fixed_dictionaries({
    "n_components": st.integers(1, 8),
    "base_entries": _pow2(0, 13),
    "component_entries": _pow2(0, 10),
    "min_history": st.integers(1, 6),
    "max_history": st.one_of(
        st.integers(8, 40), st.sampled_from((63, 64, 65, 130, 200))
    ),
    "tag_bits": st.integers(1, 12),
}))
_YAGS = st.tuples(st.just("yags"), st.fixed_dictionaries({
    "choice_entries": _pow2(4, 10),
    "cache_entries": _pow2(4, 8),
    "history_length": st.integers(1, 12),
    "tag_bits": st.integers(4, 10),
}))

#: Every registered prophet kind. The fused arms (2bc-gskew, gshare,
#: perceptron) and the packed-call arm that runs all the others.
_PROPHETS = st.one_of(
    _GSKEW,
    _GSHARE,
    _GAS,
    st.tuples(st.just("bimodal"), st.fixed_dictionaries({
        "entries": _pow2(2, 13),
        "counter_bits": st.integers(1, 3),
    })),
    _PERCEPTRON,
    _TAGE,
    _YAGS,
    st.tuples(st.just("local"), st.fixed_dictionaries({
        "history_entries": _pow2(2, 10),
        "local_history_length": st.integers(1, 12),
        "counter_bits": st.integers(1, 3),
    })),
    st.tuples(st.just("tournament"), st.fixed_dictionaries({
        "component_a": st.sampled_from(("bimodal", "local", "gas")),
        "component_b": st.sampled_from(("gshare", "2bc-gskew", "tage", "yags")),
        "chooser_entries": _pow2(4, 12),
    })),
    st.tuples(st.sampled_from(("always-taken", "always-not-taken")), st.just({})),
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
        "history_length": _PERCEPTRON_HISTORY,
        "filter_sets": _pow2(4, 9),
        "filter_ways": st.integers(1, 4),
        "filter_history_length": st.integers(4, 20),
        "tag_bits": st.integers(4, 10),
    })),
    # Unfiltered critics: every other critic-capable kind.
    _GSHARE,
    _PERCEPTRON,
    _GSKEW,
    _GAS,
    _TAGE,
    _YAGS,
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


def _end_state(value):
    """Comparable snapshot of a predictor's learned state: counter and
    tag tables, perceptron weights as bytes, stats. Attributes ending in
    ``_np`` are constant tables the batched kernel caches; bound methods
    are skipped."""
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, (list, tuple)):
        return [_end_state(v) for v in value]
    if isinstance(value, dict):
        return {k: _end_state(v) for k, v in value.items()}
    if value is None or isinstance(value, (bool, int, float, str, PredictorStats)):
        return value
    if callable(value):
        return None
    slots = getattr(type(value), "__slots__", ())
    fields = dict(getattr(value, "__dict__", {}))
    fields.update((name, getattr(value, name)) for name in slots if hasattr(value, name))
    return (type(value).__name__, {
        k: _end_state(v) for k, v in fields.items() if not k.endswith("_np")
    })


def _reference(program, system, config):
    """The frozen reference run. It ignores ``collect_predictor_stats``,
    so stats are switched off around the call when the config does."""
    if config.collect_predictor_stats:
        return reference_simulate(program, system, config)
    system.set_stats_enabled(False)
    try:
        return reference_simulate(program, system, config)
    finally:
        system.set_stats_enabled(True)


def _assert_kernel_matches_reference(program, build, config):
    ref_system = build()
    batched_system = build()
    ref = _reference(program, ref_system, config)
    batch = batched.simulate_batched(program, batched_system, config)
    for field in _FIELDS:
        assert getattr(batch, field) == getattr(ref, field), field
    assert batch.census.counts == ref.census.counts
    assert batch.per_site == ref.per_site
    assert batched_system.bhr.value == ref_system.bhr.value
    for attr in ("predictor", "prophet", "critic"):
        ours = getattr(batched_system, attr, None)
        if ours is not None:
            theirs = getattr(ref_system, attr)
            assert ours.stats == theirs.stats, attr
            assert _end_state(ours) == _end_state(theirs), attr
    if isinstance(batched_system, ProphetCriticSystem):
        assert batched_system.bor.value == ref_system.bor.value
        if hasattr(batched_system.critic, "filter"):
            assert (
                batched_system.critic.filter.stats == ref_system.critic.filter.stats
            )


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

    _assert_kernel_matches_reference(_program(benchmark), build, config)


@given(
    prophet=_PROPHETS,
    critic=_CRITICS,
    future_bits=st.integers(0, 12),
    insert_on=st.sampled_from(("final", "prophet")),
    config=_configs(),
    benchmark=st.sampled_from(_ARCHETYPES),
)
@_PROFILE
def test_prophet_critic_cells(
    prophet, critic, future_bits, insert_on, config, benchmark
):
    (kind, params), (ckind, cparams) = prophet, critic

    def build():
        return ProphetCriticSystem(
            build_predictor(kind, params),
            build_predictor(ckind, cparams, role=ROLE_CRITIC),
            future_bits=future_bits,
            insert_on=insert_on,
        )

    _assert_kernel_matches_reference(_program(benchmark), build, config)
