"""The batched structure-of-arrays kernel: identity, memoization, ops.

The batched kernel (:mod:`repro.sim.batched`) is admissible only because
it is bit-for-bit identical to the frozen reference kernel — the full
seeds × suites × systems matrix runs in
``tests/sim/test_differential_kernel.py``. This module covers what that
matrix does not:

* deep windows (long aligned run-ahead, the batched fast path);
* the memoized architectural trace: repeat runs and prefix reuse;
* the per-pc prophet constants from the trace gather and the flat CFG
  extractor against each other, and the critic's split fold images
  against the critic's own hash over every window value;
* what the kernel keeps alive between replays: precompute entries per
  program, live contexts per process, and the fold images' size;
* the op-bundle convention: every bundle in the kernel's type table
  against its predictor's packed calls, the bit-sliced perceptron ops
  against the numpy perceptron, and both loops picking the bundle arm;
* dispatch: the retired scalar kernel refused by name, a prophet and a
  filtered critic without a fused arm, and systems the kernel refuses;
* the hash-stability constraint: ``SweepCell.content_hash`` stays pinned
  to its PR-5 value.
"""

from __future__ import annotations

import zlib
from dataclasses import replace
from functools import partial

import pytest

from reference_kernel import reference_simulate
from repro.predictors.budget import BUDGETS_KB, make_critic
from repro.sim import batched
from repro.sim.driver import SimulationConfig, simulate
from repro.sim.specs import ProgramSpec, SweepCell, SystemSpec
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

_CONFIG = SimulationConfig(
    n_branches=1500, warmup=300, inflight_depth=12, collect_per_site=True
)


def _program(benchmark: str, seed: int):
    profile = replace(
        BENCHMARKS[benchmark],
        name=f"batched-{benchmark}-{seed}",
        seed=seed,
        static_branch_target=150,
        n_functions=5,
    )
    return generate_program(profile)


def _assert_identical(a, b):
    for field in _FIELDS:
        assert getattr(a, field) == getattr(b, field), field
    assert a.census.counts == b.census.counts
    assert a.per_site == b.per_site


def _single_builders():
    """One builder per table single-predictor kind (gas and bimodal
    have no budget presets, so they are built from explicit params)."""
    from repro.core import SinglePredictorSystem
    from repro.predictors import BimodalPredictor, GAsPredictor

    return {
        "2bc-gskew": lambda: SystemSpec.single("2bc-gskew", 2).build(),
        "gshare": lambda: SystemSpec.single("gshare", 2).build(),
        "gas": lambda: SinglePredictorSystem(GAsPredictor(10, 4)),
        "bimodal": lambda: SinglePredictorSystem(BimodalPredictor(4096)),
    }


class TestDeepWindow:
    """A 64-deep window maximizes aligned run-ahead — the batched kernel's
    burst fast path — and the post-trace speculative tail."""

    @pytest.mark.parametrize("use_btb", [True, False])
    @pytest.mark.parametrize("kind", ["2bc-gskew", "gshare", "gas", "bimodal"])
    def test_single_predictors(self, kind, use_btb):
        program = _program("gcc", 5)
        build = _single_builders()[kind]
        config = replace(
            _CONFIG, inflight_depth=64, use_btb=use_btb,
            btb_entries=256, btb_ways=4,
        )
        batch = simulate(program, build(), config)
        ref = reference_simulate(program, build(), config)
        _assert_identical(batch, ref)

    @pytest.mark.parametrize("future_bits", [0, 8])
    def test_hybrid(self, future_bits):
        program = _program("tpcc", 6)
        spec = SystemSpec.hybrid(
            "2bc-gskew", 2, "tagged-gshare", 2, future_bits=future_bits
        )
        config = replace(_CONFIG, inflight_depth=64)
        batch = simulate(program, spec.build(), config)
        ref = reference_simulate(program, spec.build(), config)
        _assert_identical(batch, ref)


class TestTraceMemoization:
    """The architectural trace is predictor-independent and prefix-stable,
    so it is cached on the program object across batched runs."""

    def test_repeat_runs_bit_identical(self):
        program = _program("gcc", 11)
        spec = SystemSpec.single("2bc-gskew", 2)
        first = simulate(program, spec.build(), _CONFIG)
        assert getattr(program, "_trace_cache", None) is not None
        second = simulate(program, spec.build(), _CONFIG)
        _assert_identical(second, first)

    def test_cache_shared_across_systems(self):
        """One walk serves every system swept over the same program."""
        program = _program("flash", 12)
        simulate(program, SystemSpec.single("gshare", 2).build(), _CONFIG)
        cache = program._trace_cache
        stats = simulate(program, SystemSpec.single("2bc-gskew", 2).build(), _CONFIG)
        assert program._trace_cache is cache  # not rebuilt
        fresh = reference_simulate(
            _program("flash", 12), SystemSpec.single("2bc-gskew", 2).build(), _CONFIG
        )
        _assert_identical(stats, fresh)

    def test_prefix_reuse(self):
        """A shorter run is served as a slice of the longest cached trace."""
        program = _program("swim", 13)
        spec = SystemSpec.single("gshare", 2)
        short_cfg = replace(_CONFIG, n_branches=500, warmup=100)
        simulate(program, spec.build(), _CONFIG)
        assert program._trace_cache[0] == _CONFIG.n_branches
        short = simulate(program, spec.build(), short_cfg)
        assert program._trace_cache[0] == _CONFIG.n_branches  # kept, not shrunk
        fresh = reference_simulate(_program("swim", 13), spec.build(), short_cfg)
        _assert_identical(short, fresh)


class TestTraceColumnStore:
    """The persistent trace-column cache: codec round trips, prefix-stable
    keep-longest semantics, cross-backend round trips, and the kernel
    hook that lets a fresh process skip the architectural CFG walk."""

    def _cols(self, rng, n):
        """Random but shape-correct trace columns (property-test input)."""
        t_pc = [0x40000000 + 4 * int(rng.integers(0, 1 << 20)) for _ in range(n)]
        t_tk = [bool(rng.integers(0, 2)) for _ in range(n)]
        t_uops = [int(rng.integers(1, 16)) for _ in range(n)]
        t_tt = [int(rng.integers(0, 1 << 16)) for _ in range(n)]
        t_ft = [int(rng.integers(0, 1 << 16)) for _ in range(n)]
        t_snap = [
            tuple(int(rng.integers(0, 200)) for _ in range(int(rng.integers(0, 8))))
            for _ in range(n)
        ]
        return (t_pc, t_tk, t_uops, t_tt, t_ft, t_snap)

    def test_codec_round_trips(self):
        from repro.sim.cache import decode_trace_columns, encode_trace_columns

        rng = np.random.default_rng(7)
        for n in (0, 1, 17, 300):
            cols = self._cols(rng, n)
            stored_n, out = decode_trace_columns(encode_trace_columns(n, cols))
            assert stored_n == n
            assert out == cols

    def test_codec_rejects_garbage(self):
        from repro.sim.cache import decode_trace_columns, encode_trace_columns

        with pytest.raises(ValueError):
            decode_trace_columns(b"not a trace entry")
        blob = encode_trace_columns(3, self._cols(np.random.default_rng(8), 3))
        with pytest.raises(ValueError):
            decode_trace_columns(blob[: len(blob) - 2])  # truncated

    def test_prefix_reuse_and_keep_longest(self, tmp_path):
        from repro.sim.cache import LocalDirBackend, TraceColumnStore

        rng = np.random.default_rng(9)
        store = TraceColumnStore(LocalDirBackend(tmp_path))
        long_cols = self._cols(rng, 50)
        assert store.get("bk", 10) is None  # cold
        store.put("bk", 50, long_cols)
        hit = store.get("bk", 10)  # served from the longer entry
        assert hit is not None and hit[0] == 50 and hit[1] == long_cols
        store.put("bk", 5, self._cols(rng, 5))  # shorter: must not clobber
        assert store.get("bk", 50) == (50, long_cols)
        assert store.get("bk", 51) is None  # longer than stored: miss
        assert store.misses == 2 and store.hits == 2

    def test_cross_backend_round_trip(self, tmp_path):
        """An entry written through one backend reads back identically
        through another over the same bytes — including the tiered
        backend's local-over-remote promotion path."""
        from repro.sim.cache import LocalDirBackend, TieredBackend, TraceColumnStore

        rng = np.random.default_rng(10)
        cols = self._cols(rng, 40)
        remote = LocalDirBackend(tmp_path / "remote")
        TraceColumnStore(remote).put("bk", 40, cols)
        tiered = TraceColumnStore(
            TieredBackend(LocalDirBackend(tmp_path / "local"), remote)
        )
        assert tiered.get("bk", 40) == (40, cols)  # read-through
        assert tiered.get("bk", 12)[1] == cols  # now from the local tier
        fresh = TraceColumnStore(LocalDirBackend(tmp_path / "local"))
        assert fresh.get("bk", 40) == (40, cols)  # promotion persisted

    def test_kernel_skips_walk_on_store_hit(self, tmp_path):
        """A fresh program object (new process, worker restart) with the
        same build key is served from the store — and the result is
        bit-identical to a run that walked the CFG itself."""
        from repro.sim.cache import LocalDirBackend, TraceColumnStore

        store = TraceColumnStore(LocalDirBackend(tmp_path))
        batched.set_trace_store(store)
        try:
            spec = SystemSpec.single("2bc-gskew", 2)
            warm_program = _program("gcc", 31)
            warm_program._build_key = "bk-gcc-31"
            warm = simulate(warm_program, spec.build(), _CONFIG)
            assert store.misses >= 1 and store.hits == 0
            cold_program = _program("gcc", 31)  # no memoized state at all
            cold_program._build_key = "bk-gcc-31"
            served = simulate(cold_program, spec.build(), _CONFIG)
            assert store.hits >= 1
            _assert_identical(served, warm)
        finally:
            batched.set_trace_store(None)

    def test_unkeyed_programs_never_touch_the_store(self, tmp_path):
        """Ad-hoc programs (no ``_build_key`` stamp) stay out of the
        persistent tier entirely."""
        from repro.sim.cache import LocalDirBackend, TraceColumnStore

        store = TraceColumnStore(LocalDirBackend(tmp_path))
        batched.set_trace_store(store)
        try:
            spec = SystemSpec.single("gshare", 2)
            simulate(_program("swim", 32), spec.build(), _CONFIG)
            assert store.hits == 0 and store.misses == 0
        finally:
            batched.set_trace_store(None)


class TestPickleHygiene:
    """Memoized numpy tables and replay state must not ride along when
    predictors or programs cross the pool's pickle boundary."""

    def test_predictor_drops_np_table_caches(self):
        import pickle

        from repro.predictors.budget import make_prophet

        predictor = make_prophet("2bc-gskew", 2)
        batched._np_table(predictor, "_h_np", predictor._h_table)
        assert hasattr(predictor, "_h_np")
        clone = pickle.loads(pickle.dumps(predictor))
        assert not hasattr(clone, "_h_np")
        # and the cache rebuilds transparently on next batched use
        rebuilt = batched._np_table(clone, "_h_np", clone._h_table)
        assert rebuilt.tolist() == list(clone._h_table)

    def test_program_drops_replay_state_keeps_build_key(self):
        import pickle

        program = _program("gcc", 33)
        program._build_key = "bk-gcc-33"
        spec = SystemSpec.single("2bc-gskew", 2)
        simulate(program, spec.build(), _CONFIG)
        assert getattr(program, "_trace_cache", None) is not None
        assert getattr(program, "_replay_ctx", None) is not None
        clone = pickle.loads(pickle.dumps(program))
        assert not hasattr(clone, "_trace_cache")
        assert not hasattr(clone, "_replay_ctx")
        assert clone._build_key == "bk-gcc-33"
        # the clone still simulates identically (state rebuilds lazily)
        fresh = simulate(clone, spec.build(), _CONFIG)
        ref = reference_simulate(_program("gcc", 33), spec.build(), _CONFIG)
        _assert_identical(fresh, ref)


def _random_inputs(rng, count=256):
    pcs = np.asarray(
        [0x40000000 + 4 * int(rng.integers(0, 1 << 20)) for _ in range(count)],
        dtype=np.int64,
    )
    hists = np.asarray(
        [int(rng.integers(0, 1 << 24)) for _ in range(count)], dtype=np.int64
    )
    return pcs, hists


class TestBatchHelpers:
    """The per-pc constants the shared fetch step reads, and the critic
    hash the critique drain builds from them, against their scalar
    counterparts. An aligned fetch reads them from the fused trace row
    (vectorized ``_prophet_columns``), a wrong-path fetch from the flat
    CFG entry (``_make_pc_consts``); the two must agree slot for slot.
    There are two column shapes: 2bc-gskew's four constants, and the
    word ``pc >> 2`` that every other prophet reads (gshare inline, a
    bundle's ops, or nothing for a packed prophet)."""

    @pytest.mark.parametrize(
        "kind", ["2bc-gskew", "gshare", "gas", "bimodal", "perceptron", "tage"]
    )
    def test_batch_predict_matches_scalar(self, kind):
        builders = _single_builders()
        if kind in builders:
            predictor = builders[kind]().predictor
        else:
            predictor = SystemSpec.single(kind, 2).build().predictor
        code = batched._PROPHET_KINDS.get(type(predictor), batched._PACKED)
        rng = np.random.default_rng(zlib.crc32(kind.encode()))
        pcs, _ = _random_inputs(rng)
        columns = batched._prophet_columns(predictor, code, pcs)
        pc_consts = batched._make_pc_consts(predictor, code, None)
        gskew = kind == "2bc-gskew"
        assert len(columns) == (4 if gskew else 1)
        # Only 2bc-gskew's columns depend on the geometry: every other
        # prophet shares one flat table and one set of fused rows.
        assert bool(batched._prophet_geometry(predictor, code)) == gskew
        for i in range(len(pcs)):
            pc = int(pcs[i])
            consts = pc_consts(pc)
            assert tuple(col[i] for col in columns) == consts[: len(columns)], i
            assert consts[len(columns) : 4] == (0,) * (4 - len(columns)), i
            assert consts[4] == pc >> 2, i
            if not gskew:
                assert columns[0][i] == pc >> 2, i

    @pytest.mark.parametrize("budget", BUDGETS_KB)
    @pytest.mark.parametrize("kind", ["tagged-gshare", "filtered-perceptron"])
    def test_batch_hash_matches_scalar(self, kind, budget):
        """The split fold images against the critic's own hash over every
        window value, so every ``w`` with bit 0 and the top bit both set
        is covered: there the tag rotation's OR is not linear."""
        critic = make_critic(kind, budget)
        geometry = batched._critic_fold_geometry(critic)
        hmask, _, _, _, set_mask, tag_mask = geometry
        assert 0 < hmask.bit_length() <= 19  # the loop uses the images
        lo, hi, k = batched._critic_fold_tables(geometry)
        prophet = SystemSpec.single("gshare", 2).build().predictor
        pc_consts = batched._make_pc_consts(
            prophet, batched._PROPHET_KINDS[type(prophet)], critic
        )
        pc = 0x41F3C
        k0, k1 = pc_consts(pc)[4:]
        kmask = (1 << k) - 1
        set_bits = set_mask.bit_length()
        windows = range((hmask << 1) + 2)
        got = []
        for w in windows:
            x = lo[w & kmask] ^ hi[((w >> k) << 1) | (w & 1)]
            got.append(((k0 ^ x) & set_mask, (k1 ^ (x >> set_bits)) & tag_mask))
        if kind == "tagged-gshare":
            expected = list(map(partial(critic._hash_pair, pc), windows))
        else:
            expected = list(zip(
                map(partial(critic._set_index, pc), windows),
                map(partial(critic._tag, pc), windows),
            ))
        assert got == expected


class TestReplayMemory:
    """What the batched kernel keeps alive between replays: one set of
    precompute entries per program whatever its windows, a bounded
    number of programs holding them, and critic hash images of about
    the square root of the window's size."""

    _SPEC = SystemSpec.hybrid("2bc-gskew", 2, "tagged-gshare", 2, future_bits=4)

    def test_context_entries_independent_of_window(self):
        many = _program("gcc", 61)
        for n in range(1000, 2001, 100):
            config = replace(_CONFIG, n_branches=n, warmup=n // 5)
            last = simulate(many, self._SPEC.build(), config)
        single = _program("gcc", 61)
        alone = simulate(single, self._SPEC.build(), config)
        assert len(many._replay_ctx) == len(single._replay_ctx) > 0
        _assert_identical(last, alone)

    def test_live_contexts_bounded(self):
        limit = batched._LIVE_CTX_LIMIT
        programs = [_program("swim", 70 + i) for i in range(limit + 2)]
        config = replace(_CONFIG, n_branches=1000, warmup=200)
        for program in programs:
            simulate(program, self._SPEC.build(), config)
        live = [getattr(p, "_replay_ctx", None) is not None for p in programs]
        assert live == [False] * 2 + [True] * limit

    def test_fold_images_are_split(self):
        for kind in ("tagged-gshare", "filtered-perceptron"):
            for budget in BUDGETS_KB:
                geometry = batched._critic_fold_geometry(make_critic(kind, budget))
                h = geometry[0].bit_length()
                lo, hi, _ = batched._critic_fold_tables(geometry)
                assert max(len(lo), len(hi)) <= 2 ** ((h + 3) // 2), (kind, budget)


class TestPerceptronOps:
    """The batched kernel's bit-sliced perceptron ops against the numpy
    predictor: the exact dot at every step and training steps
    (saturation included, from weights seeded at and next to both
    bounds), across plane widths up to and past one 64-bit word; the
    load/write-back round trip; out-of-range weights refused."""

    @pytest.mark.parametrize(
        "history_length", [1, 7, 8, 9, 16, 24, 28, 33, 40, 47, 57, 63, 64, 65, 72]
    )
    def test_matches_numpy_perceptron(self, history_length):
        """``train`` returns numpy's int32 dot at every step, over words
        on both sides of ``n_perceptrons``."""
        from repro.predictors.perceptron import PerceptronOps, PerceptronPredictor

        rng = np.random.default_rng(history_length)
        oracle = PerceptronPredictor(5, history_length)
        oracle.weights[:] = rng.choice(
            [-128, -127, -1, 0, 126, 127], size=oracle.weights.shape
        )
        mirrored = PerceptronPredictor(5, history_length)
        mirrored.weights[:] = oracle.weights
        ops = PerceptronOps(mirrored)
        for step in range(300):
            w = step % 7 if step % 2 else int(rng.integers(0, 1 << 20))
            pc = w << 2
            # Wider than any h here: the ops mask to the history length.
            history = int(rng.integers(0, 1 << 62)) | int(rng.integers(0, 1 << 62)) << 62
            taken = bool(rng.integers(0, 2))
            y = int(
                np.dot(oracle.weights[w % 5].astype(np.int32), oracle._inputs(history))
            )
            assert ops.predict(w, history) == (y >= 0)
            pred, x = oracle.predict_packed(pc, history)
            oracle.update_packed(pc, history, taken, pred, x)
            assert ops.train(w, history, taken) == y
        ops.write_back()
        assert mirrored.weights.tobytes() == oracle.weights.tobytes()

    @pytest.mark.parametrize("history_length", [1, 8, 28, 64, 65])
    @pytest.mark.parametrize("target", [-1, 0, 1])
    def test_predict_at_the_sign_boundary(self, history_length, target):
        """``predict`` is ``dot >= 0`` on rows whose dot is exactly -1, 0
        or +1: the bias weight is chosen to land it there."""
        from repro.predictors.perceptron import PerceptronOps, PerceptronPredictor

        rng = np.random.default_rng(history_length * 3 + target)
        perceptron = PerceptronPredictor(7, history_length)
        perceptron.weights[:, 1:] = rng.integers(
            -1, 2, size=(7, history_length)
        )
        histories = [int(rng.integers(0, 1 << 62)) << 8 | i for i in range(7)]
        for row, history in enumerate(histories):
            inputs = perceptron._inputs(history)
            rest = int(np.dot(perceptron.weights[row, 1:].astype(np.int32), inputs[1:]))
            perceptron.weights[row, 0] = target - rest
        assert perceptron.weights.min() >= -128 and perceptron.weights.max() <= 127
        ops = PerceptronOps(perceptron)
        for row, history in enumerate(histories):
            assert perceptron.output(row << 2, history) == target
            for w in (row, row + 7, row + 7 * 1000):
                assert ops.predict(w, history) == (target >= 0)

    @pytest.mark.parametrize("history_length", [1, 28, 57, 64, 65, 72])
    @pytest.mark.parametrize("table", ["random", "zero"])
    def test_load_write_back_round_trip(self, history_length, table):
        """Every row re-encoded from its planes equals the loaded row,
        bias column included; untouched rows are not written."""
        from repro.predictors.perceptron import PerceptronOps, PerceptronPredictor

        perceptron = PerceptronPredictor(37, history_length)
        if table == "random":
            rng = np.random.default_rng(history_length)
            perceptron.weights[:] = rng.integers(
                -128, 128, size=perceptron.weights.shape
            )
        loaded = perceptron.weights.tobytes()
        ops = PerceptronOps(perceptron)
        perceptron.weights[:] = 99
        ops.write_back()  # nothing trained: nothing written
        assert not (perceptron.weights != 99).any()
        # Equal rows under new identities count as trained.
        ops.rows[:] = [row[:1] + row[1:] for row in ops.rows]
        ops.write_back()
        assert perceptron.weights.tobytes() == loaded

    @pytest.mark.parametrize("weight", [128, -129])
    @pytest.mark.parametrize("where", ["prophet", "critic"])
    def test_out_of_range_weight_refused(self, weight, where):
        """Eight planes hold [-128, 127] only: ``simulate`` refuses a
        table with any other weight before it replays a branch."""
        system = SystemSpec.hybrid(
            "perceptron", 8, "filtered-perceptron", 8, future_bits=4
        ).build()
        perceptron = (
            system.prophet if where == "prophet" else system.critic.perceptron
        )
        perceptron.weights[3, 5] = weight
        with pytest.raises(ValueError, match=r"perceptron weights must lie in \[-128, 127\]"):
            simulate(_program("gcc", 26), system, _CONFIG)


class TestTageOps:
    """The batched kernel's fused TAGE ops against the object API: the
    predicted bit and every training step (provider search, usefulness,
    allocation draw, pressure release) at every step, then the end tables
    and the allocation state, over geometries whose history lengths are
    and are not multiples of the index and tag widths."""

    @pytest.mark.parametrize(
        "geometry",
        [
            # 1 component; L = 8 is a multiple of neither width.
            {"n_components": 1, "min_history": 8, "component_entries": 64},
            # 8 components, L = 3..200 (past 64 and 128 bits): 18 and 60
            # are multiples of the 6-bit index width, 60 and 200 of the
            # 4-bit tag width.
            {"n_components": 8, "min_history": 3, "max_history": 200,
             "component_entries": 64, "tag_bits": 4},
            # L = 9, 27, 81: multiples of the 9-bit tag width.
            {"n_components": 3, "min_history": 9, "max_history": 81,
             "component_entries": 128},
            # L = 10, 40, 160: multiples of the 10-bit index width.
            {"n_components": 3, "min_history": 10, "max_history": 160,
             "component_entries": 1024},
            # The 16KB preset the workloads run: L = 5..130.
            {"base_entries": 8192, "component_entries": 1024},
            {"n_components": 4, "min_history": 5, "max_history": 130,
             "component_entries": 16, "tag_bits": 1},
            {"n_components": 3, "min_history": 2, "max_history": 70,
             "base_entries": 1, "component_entries": 1, "tag_bits": 2},
        ],
        ids=["one-component", "eight-components", "tag-multiples",
             "index-multiples", "preset-16kb", "tag-bits-1", "one-entry"],
    )
    def test_matches_object_api(self, geometry):
        from repro.predictors.tage import TageOps, TagePredictor

        rng = np.random.default_rng(len(repr(geometry)))
        oracle = TagePredictor(**geometry)
        fused = TagePredictor(**geometry)
        ops = TageOps(fused)
        h = oracle.history_length
        pcs = [int(pc) << 2 for pc in rng.integers(0, 1 << 20, size=48)]
        history = 0
        for step in range(3000):
            pc = pcs[int(rng.integers(0, len(pcs)))]
            if step % 5 == 4:
                # Bits above the longest history: both sides mask them.
                history = int(rng.integers(0, 1 << 62)) << 80 | int(
                    rng.integers(0, 1 << 62)
                ) << 20 | history
            pred, state = oracle.predict_packed(pc, history)
            assert ops.predict(pc >> 2, history) == pred
            taken = bool(rng.integers(0, 2)) if step % 3 else bool(history & 4)
            oracle.update_packed(pc, history, taken, pred, state)
            ops.train(pc >> 2, history, taken)
            assert fused._alloc_state == oracle._alloc_state
            history = ((history << 1) | taken) & ((1 << h) - 1)
        assert fused._base == oracle._base
        for ours, theirs in zip(fused.components, oracle.components):
            assert ours.tags == theirs.tags
            assert ours.ctrs == theirs.ctrs
            assert ours.useful == theirs.useful
        assert any(t >= 0 for comp in fused.components for t in comp.tags)


#: A small geometry per bundled predictor type, by registry name.
_BUNDLED = {
    "perceptron": {"n_perceptrons": 37, "history_length": 28},
    "tage": {"n_components": 4, "component_entries": 64, "min_history": 3,
             "max_history": 40, "tag_bits": 5},
}


class TestOpBundles:
    """The op-bundle convention, for every bundle in the kernel's type
    table: over ``w = pc >> 2``, ``predict`` is the bit ``predict_packed``
    returns and ``train`` then ``write_back`` leave the predictor's tables
    as ``update_packed`` does, at every step, for words on both sides of
    any table size."""

    @pytest.mark.parametrize("ptype", list(batched._BUNDLES), ids=lambda t: t.name)
    def test_matches_packed_calls(self, ptype):
        import pickle

        from repro.sim.specs import PredictorSpec

        def build():
            predictor = PredictorSpec(ptype.name, params=_BUNDLED[ptype.name]).build()
            predictor.stats_enabled = False  # the ops leave stats to the loops
            return predictor

        oracle, bundled = build(), build()
        assert type(bundled) is ptype
        ops = batched._BUNDLES[ptype](bundled)
        rng = np.random.default_rng(zlib.crc32(ptype.name.encode()))
        words = [int(w) for w in rng.integers(0, 1 << 20, size=40)] + list(range(8))
        mask = (1 << oracle.history_length) - 1
        history = 0
        for step in range(2000):
            pc = words[int(rng.integers(0, len(words)))] << 2
            pred, state = oracle.predict_packed(pc, history)
            assert ops.predict(pc >> 2, history) == pred, step
            taken = bool(rng.integers(0, 2)) if step % 3 else bool(history & 2)
            oracle.update_packed(pc, history, taken, pred, state)
            ops.train(pc >> 2, history, taken)
            history = ((history << 1) | taken) & mask
        ops.write_back()

        def tables(predictor):
            return {k: pickle.dumps(v) for k, v in predictor.__getstate__().items()}

        assert tables(bundled) == tables(oracle)


class TestArmSelection:
    """Both loops pick a bundle from the one type table: with the packed
    calls of every bundled predictor type made to raise, a bundle prophet
    and a bundle unfiltered critic still run through ``simulate`` and
    ``TimedMachine.run``."""

    @pytest.mark.parametrize(
        "spec",
        [
            SystemSpec.single("perceptron", 2),
            SystemSpec.single("tage", 2),
            SystemSpec.hybrid("2bc-gskew", 2, "perceptron", 2, future_bits=4),
            SystemSpec.hybrid("tage", 2, "tage", 2, future_bits=4),
            SystemSpec.hybrid("perceptron", 2, "filtered-perceptron", 2, future_bits=4),
        ],
        ids=["perceptron", "tage", "gskew+perceptron", "tage+tage",
             "perceptron+filtered-perceptron"],
    )
    def test_bundles_run_without_packed_calls(self, spec, monkeypatch):
        from repro.pipeline.machine import TimedMachine

        def refuse(predictor, *args):
            raise AssertionError(f"{predictor.name} called through its packed calls")

        for ptype in batched._BUNDLES:
            monkeypatch.setattr(ptype, "predict_packed", refuse)
            monkeypatch.setattr(ptype, "update_packed", refuse)
        program = _program("gcc", 27)
        stats = simulate(program, spec.build(), _CONFIG)
        assert stats.branches == _CONFIG.n_branches - _CONFIG.warmup
        result = TimedMachine(program, spec.build()).run(800, 200)
        assert result.branches == 600


class TestBackendDispatch:
    @pytest.mark.parametrize("backend", ["scalar", "vector"])
    def test_retired_backends_refused(self, backend):
        """``set_default_backend`` only accepts the one kernel."""
        from repro.sim.driver import set_default_backend

        with pytest.raises(ValueError, match="retired"):
            set_default_backend(backend)
        set_default_backend("batched")

    def test_tage_runs_batched_and_equals_reference(self):
        """tage runs on its fused arm (``TageOps``), and the result
        matches the frozen reference exactly."""
        program = _program("gcc", 22)
        spec = SystemSpec.single("tage", 2)
        batch = batched.simulate_batched(program, spec.build(), _CONFIG)
        fresh = reference_simulate(_program("gcc", 22), spec.build(), _CONFIG)
        _assert_identical(batch, fresh)

    def test_filtered_critic_of_another_type(self):
        """A filtered critic the loop does not fuse goes through its own
        ``lookup``/``train``, with the filter's stats and learned state
        identical to the frozen reference's."""
        from repro.core import ProphetCriticSystem
        from repro.predictors import TaggedGsharePredictor, TwoBcGskewPredictor

        class OtherTaggedGshare(TaggedGsharePredictor):
            pass

        def build():
            return ProphetCriticSystem(
                TwoBcGskewPredictor(4096), OtherTaggedGshare(sets=256, ways=4),
                future_bits=4,
            )

        program = _program("gcc", 25)
        batch_system, ref_system = build(), build()
        batch = batched.simulate_batched(program, batch_system, _CONFIG)
        ref = reference_simulate(program, ref_system, _CONFIG)
        _assert_identical(batch, ref)
        assert batch.critic_redirects > 0
        ours, theirs = batch_system.critic, ref_system.critic
        assert ours.filter.stats == theirs.filter.stats
        assert ours.filter._tags == theirs.filter._tags
        assert ours._counters_raw == theirs._counters_raw
        assert ours.stats == theirs.stats

    def test_other_systems_are_refused_by_the_kernel(self):
        """The kernel inlines the two systems' events, so a subclass, which
        could override them, is a TypeError naming it, not a silently
        wrong run."""
        from repro.core import SinglePredictorSystem

        class Custom(SinglePredictorSystem):
            pass

        system = Custom(SystemSpec.single("gshare", 2).build().predictor)
        program = _program("gcc", 26)
        with pytest.raises(TypeError, match="Custom"):
            batched.simulate_batched(program, system, _CONFIG)
        with pytest.raises(TypeError, match="Custom"):
            simulate(program, system, _CONFIG)


class TestPredictorStatsSwitch:
    """``collect_predictor_stats=False`` silences every predictor, the
    filtered critic's inner perceptron included."""

    def test_filtered_perceptron_inner_stats(self):
        program = _program("gcc", 24)
        spec = SystemSpec.hybrid(
            "2bc-gskew", 2, "filtered-perceptron", 2, future_bits=4
        )
        quiet = spec.build()
        config = replace(_CONFIG, collect_predictor_stats=False)
        simulate(program, quiet, config)
        assert quiet.critic.stats.predictions == 0
        assert quiet.critic.perceptron.stats.predictions == 0
        assert quiet.critic.perceptron.stats_enabled  # switched back on

        loud = spec.build()
        simulate(program, loud, replace(config, collect_predictor_stats=True))
        assert loud.critic.perceptron.stats.predictions > 0


class TestContentHashStability:
    """Result identity survives kernel changes: a cell hashes as it did
    at PR 5, before a ``backend`` field came and went (the PR-3/PR-4
    cache-invalidation mistake, not again)."""

    #: content_hash of the canonical cell below, computed at PR 5.
    _PR5_HASH = "4fe51eab9d29759c5c0bc9eb9f8f36a54c5b7d9e5a8893688d9258fe407c3bff"

    def _cell(self, warmup=2000):
        return SweepCell(
            system_label="baseline",
            bench_name="gcc",
            system=SystemSpec.single("2bc-gskew", 16),
            program=ProgramSpec(benchmark="gcc"),
            config=SimulationConfig(n_branches=20000, warmup=warmup),
        )

    def test_hash_pinned_to_pr5(self):
        assert self._cell().content_hash() == self._PR5_HASH

    def test_other_config_fields_still_hash(self):
        assert self._cell(warmup=2001).content_hash() != self._PR5_HASH
