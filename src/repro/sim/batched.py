"""Batched structure-of-arrays simulation kernel: the one accuracy kernel.

Every :func:`repro.sim.driver.simulate` call runs here. Same machines,
same event order, same numbers as the frozen reference kernel
(``tests/reference_kernel.py``) — the differential tests pin it bit for
bit — but organised around flat parallel arrays instead of per-branch
handle objects:

* the committed branch stream is prediction-independent, so the
  architectural executor resolves it **once, up front**, into
  structure-of-arrays trace columns; per-branch quantities that depend
  only on the branch pc — BTB set/tag pairs, each predictor's pc-side
  index constants — are then precomputed in one vectorized numpy pass;
* the in-flight window lives in **structure-of-arrays rings** (one plain
  list per field) instead of a ring of ``InflightBranch`` objects;
* predictor/BTB/RAS/walker operations are **fused into the kernel**: per
  branch the loop does raw list indexing and integer arithmetic instead
  of a stack of method calls;
* while the front end sits on the committed path, a fetch is pure column
  reads plus one table probe — the CFG walk and RAS maintenance only
  run for wrong-path fetches between a divergence and its flush.

Memory note: a batched run holds its program's trace columns and the
per-program precompute built from them, a handful of machine words per
branch of the longest window the program has been replayed at, where
the reference loop is O(window). That is the deliberate trade for
throughput, and it is bounded twice over: a program's precompute
context (``program._replay_ctx``) has one set of entries however many
windows it is replayed at, and only the last ``_LIVE_CTX_LIMIT``
programs replayed in a process keep theirs. The critic hash images are
split in two tables of about 2 ** ((h + 1) / 2) entries each, for a
critic history of h bits.

``simulate_batched`` runs every exact :class:`SinglePredictorSystem`
and :class:`ProphetCriticSystem`, the shapes ``TimedMachine`` runs too,
and raises ``TypeError`` for any other system. A predictor is called one
of three ways, in both loops: 2bc-gskew and gshare prophets are inlined;
a predictor with an op bundle (``_BUNDLES``: ``PerceptronOps`` and
``TageOps``, which live beside their predictors) goes through its
bundle's ``predict``/``train``, as prophet or as unfiltered critic; every
other one (YAGS, local, tournament, ...) through its own
``predict_packed``/``update_packed``. Filtered critics are the
tagged-gshare and filtered-perceptron critics (fused) or any other
(its own ``lookup``/``train``). Both system shapes run through one
replay loop, :func:`_replay`: a single predictor is the prophet/critic
machine with no critic, exactly as in the reference kernel. The loop has
one fetch step for aligned and wrong-path fetches and one critique
drain, which runs the reference kernel's critique phase at the only points
where it can fire: when a fetch gives the oldest uncritiqued branch its
future bits, and when a full window forces a critique (see the
replay-loop section comment).

Two amortization layers sit on top of the loop:

* :class:`FusedReplayContext` — shared precompute (trace-derived
  columns, flat CFG tables, fused per-branch rows) for replaying many
  systems over one program in a sweep, plumbed in via
  ``simulate_batched(..., shared=ctx)``;
* a process-wide :func:`set_trace_store` hook that spills the memoized
  architectural-trace columns through a persistent
  :class:`repro.sim.cache.CacheBackend`, keyed by the program's build
  key and prefix-stable in branch count.
"""

from __future__ import annotations

import weakref
from itertools import repeat

import numpy as np

from repro.core.critiques import CritiqueKind
from repro.core.hybrid import ProphetCriticSystem, SinglePredictorSystem
from repro.engine.btb import BranchTargetBuffer
from repro.engine.executor import ArchitecturalExecutor
from repro.predictors.filtered_perceptron import FilteredPerceptronPredictor
from repro.predictors.gshare import GsharePredictor
from repro.predictors.gskew import TwoBcGskewPredictor
from repro.predictors.perceptron import PerceptronOps, PerceptronPredictor
from repro.predictors.tage import TageOps, TagePredictor
from repro.predictors.tagged_gshare import TaggedGsharePredictor
from repro.sim.driver import SimulationDesyncError
from repro.sim.metrics import RunStats
from repro.workloads.trace_io import TraceFormatError

#: Must match the ArchitecturalExecutor default: the compiled-CFG pair
#: limit and the drop-oldest RAS bound of the fused wrong-path walker.
_RAS_CAPACITY = 64

_PACKED, _GSKEW, _GSHARE, _OPS = 0, 1, 2, 3

#: Op bundle classes by exact predictor type, read by both replay loops
#: for a prophet and for an unfiltered critic. A bundle takes
#: ``w = pc >> 2`` and exposes ``predict(w, history) -> bool``,
#: ``train(w, history, taken)`` (``update_packed`` minus the stats) and
#: ``write_back()``, which a loop calls when it ends.
_BUNDLES = {PerceptronPredictor: PerceptronOps, TagePredictor: TageOps}

#: Prophet arms by exact type: a subclass may override behaviour an arm
#: inlines. Every other prophet is ``_PACKED``, called through its own
#: ``predict_packed``/``update_packed``.
_PROPHET_KINDS = {
    TwoBcGskewPredictor: _GSKEW,
    GsharePredictor: _GSHARE,
    **dict.fromkeys(_BUNDLES, _OPS),
}

#: Critic shapes. The two filtered critics are fused by exact type, like
#: the prophets; ``_CR_LOOKUP`` is any other filtered critic, through its
#: own ``lookup``/``train``; ``_CR_PLAIN`` is any unfiltered critic
#: (§7.2, Figure 6a), through its packed calls; ``_CR_NONE`` is the
#: critic-less shape of a SinglePredictorSystem.
_CR_NONE, _CR_TAGGED, _CR_FPERC, _CR_PLAIN, _CR_LOOKUP = 0, 1, 2, 3, 4
_CRITIC_KINDS = {
    TaggedGsharePredictor: _CR_TAGGED,
    FilteredPerceptronPredictor: _CR_FPERC,
}


def _critic_kind(system) -> int:
    """The critic shape of a :class:`ProphetCriticSystem`."""
    ckind = _CRITIC_KINDS.get(type(system.critic))
    if ckind is None:
        ckind = _CR_LOOKUP if system._critic_is_filtered else _CR_PLAIN
    return ckind


def _bundle(bundles: dict, predictor):
    """``predictor``'s op bundle for one replay, made on first use and
    kept in ``bundles`` (by predictor object) for the loop to write back."""
    ops = bundles.get(id(predictor))
    if ops is None:
        ops = bundles[id(predictor)] = _BUNDLES[type(predictor)](predictor)
    return ops


# -- numpy constant tables ----------------------------------------------------
#
# ``_prophet_columns`` gathers each trace pc's prophet constants through
# the predictor's constant hash tables in one vectorized pass; those
# tables are cached on the predictor as numpy arrays on first use (and
# dropped when the predictor is pickled).


def _np_table(predictor, attr: str, values) -> "np.ndarray":
    """Cache a constant lookup table on the predictor as int64 ndarray."""
    cached = getattr(predictor, attr, None)
    if cached is None:
        cached = np.asarray(values, dtype=np.int64)
        setattr(predictor, attr, cached)
    return cached


# -- flat CFG segments ------------------------------------------------------
#
# The replay loop walks a per-block table of flat tuples instead of
# CompiledSegment objects + BasicBlock attribute chains. Slot layout:
#
#   0 uops   1 ras_ops|None   2 pc|None (None = no terminating branch)
#   3 taken_target   4 fallthrough   5 next_block
#   6 btb set index  7 btb tag
#   8..11 prophet per-pc constants (2bc-gskew's four; every other
#         prophet's are the word ``pc >> 2`` and three zeros)
#   12 critic fold seed (pc >> 2)   13 critic tag pc-part


# Patched by name by perfbench/layers.py, the layer tracer.
def _make_pc_consts(predictor, kind: int, critic):
    """Per-branch-pc constant extractor for the flat segment table."""
    tb5 = 5 + critic.tag_bits if critic is not None else 5
    if kind == _GSKEW:
        imask = predictor._index_mask
        shift = predictor._pc_high_shift
        h = predictor._h_table
        hinv = predictor._hinv_table

        def pc_consts(pc):
            v1 = (pc >> 2) & imask
            return v1, pc >> shift, h[v1], hinv[v1], pc >> 2, (pc >> 5) ^ (pc >> tb5)
    else:

        def pc_consts(pc):
            return pc >> 2, 0, 0, 0, pc >> 2, (pc >> 5) ^ (pc >> tb5)

    return pc_consts


# -- precomputed hash-image tables -------------------------------------------
#
# The critic fold hash and the gskew skewing functions are pure functions
# of a bounded-width input, so their images are precomputed once per
# geometry and the per-critique / per-fetch hash collapses to table
# lookups (two for the critic's split images). Cached module-level, not
# per run: geometries repeat across a sweep and the images are immutable.

_FOLD_TBL_CACHE: dict = {}


def _critic_fold_geometry(critic) -> tuple:
    """A filtered critic's hash geometry: ``(history mask, rotate shift,
    set fold shifts, tag fold shifts, set mask, tag mask)``. Both
    filtered critics hash like ``TaggedGsharePredictor._hash_pair``."""
    if type(critic) is TaggedGsharePredictor:
        return (
            critic._history_mask, critic._rotate_shift,
            critic._set_fold_shifts, critic._tag_fold_shifts,
            critic._set_mask, critic._tag_mask,
        )
    fhl = critic.filter_history_length
    set_bits = critic.filter.set_bits
    return (
        (1 << fhl) - 1 if fhl > 0 else 0, fhl - 1,
        tuple(range(0, fhl, max(set_bits, 1))),
        tuple(range(0, fhl, max(critic.tag_bits, 1))),
        (1 << set_bits) - 1, (1 << critic.tag_bits) - 1,
    )


def _critic_fold_tables(geometry):
    """Split set/tag fold images over the (history_bits + 1)-wide window.

    The window is ``w = bor & vmask`` with ``vmask = (c_hmask << 1) | 1``:
    the rotated tag fold reads one bit above the history mask. Each
    image entry packs the masked set fold in its low ``set_bits`` bits
    and the masked tag fold (plain and rotated hashes together,
    ``ftag ^ (ft2 << 1)``) above them, and the image of ``w`` is

        lo[w & kmask] ^ hi[((w >> k) << 1) | (w & 1)]

    so each table has about 2 ** ((h + 1) / 2) entries instead of
    2 ** (h + 1). The folds are xor-linear in ``w`` except where the
    rotation ORs bit 0 into bit ``c_rot``, onto which the window's top
    bit also shifts; that one AND term couples bit 0 with the high
    chunk, so ``hi`` is keyed by bit 0 as well:
    ``hi[j] = f(high | b0) ^ f(b0)``. Returns ``(lo, hi, k)``.
    """
    hit = _FOLD_TBL_CACHE.get(geometry)
    if hit is None:
        c_hmask, c_rot, c_set_shifts, c_tag_shifts, c_set_mask, c_tag_mask = geometry
        set_bits = c_set_mask.bit_length()

        def image(w):
            value = w & c_hmask
            fs = np.zeros(w.shape[0], dtype=np.int64)
            for sh in c_set_shifts:
                fs ^= value >> sh
            ft = np.zeros_like(fs)
            for sh in c_tag_shifts:
                ft ^= value >> sh
            if c_tag_shifts:
                rotated = ((w >> 1) | ((w & 1) << c_rot)) & c_hmask
                f2 = np.zeros_like(fs)
                for sh in c_tag_shifts:
                    f2 ^= rotated >> sh
                ft ^= f2 << 1
            return (fs & c_set_mask) | ((ft & c_tag_mask) << set_bits)

        width = c_hmask.bit_length() + 1
        k = (width + 1) // 2
        lo = image(np.arange(1 << k, dtype=np.int64))
        j = np.arange(1 << (width - k + 1), dtype=np.int64)
        hi = image(((j >> 1) << k) | (j & 1)) ^ image(j & 1)
        if len(_FOLD_TBL_CACHE) >= 8:
            _FOLD_TBL_CACHE.clear()
        _FOLD_TBL_CACHE[geometry] = hit = (lo.tolist(), hi.tolist(), k)
    return hit


def _fold_hash(geometry):
    """``(pc >> 2, tag pc-part, history) -> (set index, tag)``: the fold
    as loops (``TaggedGsharePredictor._hash_pair``), for the zero-history
    and wide shapes that the fold images' width gate leaves out."""
    c_hmask, c_rot, c_set_shifts, c_tag_shifts, c_set_mask, c_tag_mask = geometry

    def fold_hash(fi, ftag, history):
        value = history & c_hmask
        for sh in c_set_shifts:
            fi ^= value >> sh
        if c_tag_shifts:
            rotated = ((history >> 1) | ((history & 1) << c_rot)) & c_hmask
            for sh in c_tag_shifts:
                ftag ^= (value >> sh) ^ ((rotated >> sh) << 1)
        return fi & c_set_mask, ftag & c_tag_mask

    return fold_hash


_GSKEW_XOR_CACHE: dict = {}


def _gskew_xor_tables(prophet):
    """``hinv[v] ^ v`` / ``h[v] ^ v`` images for the skewed indices.

    With these, ``g0 = h1 ^ hx[v2]``, ``g1 = g0 ^ v2 ^ v1`` and
    ``meta = hi1 ^ hv[v2]`` — four xors instead of seven per prediction.
    Pure functions of the index width, so keyed by it. Their values
    reuse the skew images' int objects (``h`` is a permutation, so
    ``sorted(h)[v]`` is the object for ``v``).
    """
    n = prophet._index_bits
    hit = _GSKEW_XOR_CACHE.get(n)
    if hit is None:
        h = prophet._h_table
        hinv = prophet._hinv_table
        ints = sorted(h)
        hx = [ints[hinv[v] ^ v] for v in range(len(hinv))]
        hv = [ints[h[v] ^ v] for v in range(len(h))]
        if len(_GSKEW_XOR_CACHE) >= 8:
            _GSKEW_XOR_CACHE.clear()
        _GSKEW_XOR_CACHE[n] = hit = (hx, hv)
    return hit


def _make_flattener(compiled, use_btb: bool, set_mask: int, set_bits: int, pc_consts):
    """Return ``(flat, flatten)``: the lazy per-block flat-tuple table.

    Straight-line ``next_block`` chains are collapsed into the entry of
    their starting block — uop counts summed, RAS op lists concatenated
    in walk order — so the walker reaches the next conditional branch
    (or dynamic return) in a single table hit. ``next_block`` (slot 5)
    is therefore always None in collapsed entries.
    """
    segments = compiled._segments
    flat: dict = {}

    def flatten(bid):
        uops = 0
        ops: list = []
        cur = bid
        while True:
            seg = segments.get(cur)
            if seg is None:
                seg = compiled.segment(cur)
            uops += seg.uops
            if seg.ras_ops:
                ops.extend(seg.ras_ops)
            branch = seg.branch
            if branch is not None:
                pc = branch.pc
                word = pc >> 2
                c0, c1, c2, c3, k0, k1 = pc_consts(pc)
                entry = (
                    uops, tuple(ops) or None, pc,
                    branch.taken_target, branch.fallthrough, None,
                    word & set_mask if use_btb else 0,
                    word >> set_bits if use_btb else 0,
                    c0, c1, c2, c3, k0, k1,
                )
                break
            nxt = seg.next_block
            if nxt is None:
                # Chain ends at a dynamic return: the next block comes
                # off the walker's RAS.
                entry = (
                    uops, tuple(ops) or None, None, 0, 0, None,
                    0, 0, 0, 0, 0, 0, 0, 0,
                )
                break
            cur = nxt
        flat[bid] = entry
        return entry

    return flat, flatten


# -- fused multi-system replay ----------------------------------------------
#
# A sweep replays many systems over the *same* program: the trace
# columns, the flat CFG table, the BTB set/tag columns and every
# pc-derived per-branch row are pure functions of (program, predictor
# geometry, BTB geometry) — not of predictor *state* — so K same-program
# cells can share them. The loop asks for each artifact through
# `_ctx_get(shared, key, build)`: the first run pays and the rest reuse.
#
# Every artifact is built over the program's whole memoized trace, not
# over one run's window, so a program replayed at many windows keeps one
# set of entries; the loop stops at its own ``n_branches``. A longer
# trace memo invalidates them (``fit``).


class FusedReplayContext:
    """Memoized per-program precompute shared across batched replays.

    One context is valid for exactly one program (one ``build_key``)
    and one trace memo of it. ``simulate_batched`` keeps one on the program
    (``program._replay_ctx``) for at most ``_LIVE_CTX_LIMIT`` programs per
    process; callers may pass their own as ``shared``. Keys embed
    every geometry input the artifact depends on, so systems with
    different predictor/BTB shapes coexist in one context.
    """

    __slots__ = ("_store", "_trace")

    def __init__(self) -> None:
        self._store: dict = {}
        self._trace = None

    def fit(self, trace) -> None:
        """Drop every entry built over another trace memo (a longer one
        replaces the columns, so growth always refits)."""
        if trace is not self._trace:
            self._store.clear()
            self._trace = trace

    def get(self, key, build):
        store = self._store
        hit = store.get(key)
        if hit is None:
            store[key] = hit = build()
        return hit

    def __len__(self) -> int:
        return len(self._store)


# A wrapper, not a direct ``shared.get``, so that perfbench/layers.py,
# the layer tracer, can patch it by name.
def _ctx_get(shared, key, build):
    return shared.get(key, build)


def _prophet_geometry(predictor, kind: int) -> tuple:
    """Geometry key: everything the per-pc prophet columns depend on.
    The word column (``pc >> 2``) is geometry-free, so every prophet but
    2bc-gskew shares it."""
    if kind == _GSKEW:
        return (_GSKEW, predictor._index_bits, predictor._pc_high_shift)
    return ()


# -- persistent trace-column store ------------------------------------------
#
# Process-wide hook: when installed (see ``repro.sim.execution``), the
# in-memory trace memo spills through a persistent cache backend keyed
# by the program's build key, so pool workers and daemon restarts skip
# the one-time architectural CFG walk. Only programs carrying a
# ``_build_key`` annotation (stamped by the execution layer's build
# cache) participate — ad-hoc programs never touch the store.

_trace_store = None


def set_trace_store(store) -> None:
    """Install (or clear, with None) the persistent trace-column store."""
    global _trace_store
    _trace_store = store


def get_trace_store():
    return _trace_store


# -- dispatch ---------------------------------------------------------------


#: Programs holding a live ``_replay_ctx`` in this process, least
#: recently replayed first. A pool worker's build cache keeps several
#: programs alive; only the last few keep their precompute.
_LIVE_CTX_LIMIT = 2
_live_ctx: list = []


def _program_ctx(program) -> FusedReplayContext:
    """The program's own replay context, created on first use."""
    ctx = getattr(program, "_replay_ctx", None)
    for i, ref in enumerate(_live_ctx):
        if ref() is program:
            del _live_ctx[i]
            break
    if ctx is None:
        ctx = program._replay_ctx = FusedReplayContext()
    _live_ctx.append(weakref.ref(program))
    while len(_live_ctx) > _LIVE_CTX_LIMIT:
        evicted = _live_ctx.pop(0)()
        if evicted is not None:
            vars(evicted).pop("_replay_ctx", None)
    return ctx


# Patched by name by perfbench/layers.py, the layer tracer.
def simulate_batched(program, system, config, shared=None):
    """Run the batched kernel on an exact SinglePredictorSystem or
    ProphetCriticSystem (the loop inlines their events, which a subclass
    could override). ``shared`` is the replay context to draw the
    per-program precompute from; by default, the program's own."""
    if type(system) is SinglePredictorSystem:
        kind = _PROPHET_KINDS.get(type(system.predictor), _PACKED)
        ckind = _CR_NONE
    elif type(system) is ProphetCriticSystem:
        kind = _PROPHET_KINDS.get(type(system.prophet), _PACKED)
        ckind = _critic_kind(system)
    else:
        raise TypeError(
            "the batched kernel runs a SinglePredictorSystem or a "
            f"ProphetCriticSystem, not {type(system).__name__}"
        )
    if shared is None:
        # Sequential replays of one program reuse the same memoized
        # precompute; every key embeds the geometry it depends on, so
        # mixed systems coexist.
        shared = _program_ctx(program)
    return _replay(program, system, config, kind, ckind, shared)


# -- architectural trace ----------------------------------------------------
#
# The architectural executor never observes the front end, so the
# committed branch stream is a pure function of the program. It is
# resolved once, up front, into structure-of-arrays trace columns, and
# everything derivable from the trace pcs alone — BTB set/tag pairs,
# each predictor's pc-side index constants — is precomputed in one
# vectorized numpy pass. While the front end is on the committed path
# ("aligned", which is everywhere except between a divergent fetch and
# the flush that follows it) a fetch needs no CFG walk and no RAS
# maintenance at all: it reads trace columns, probes the BTB, and
# predicts from the precomputed constants. Only wrong-path fetches walk
# the flat CFG table, and every flush re-aligns the front end with the
# trace.


# Patched by name by perfbench/layers.py, the layer tracer.
def _architectural_trace(program, n: int):
    """Columns of at least the first ``n`` committed branches, memoized.

    The architectural stream never observes the front end, so the trace
    is a pure function of the (deterministic) program — independent of
    predictor, BTB, and window configuration — and prefix-stable in
    ``n``. The longest trace built so far is cached on the program
    object and returned whole to shorter requests (callers stop at their
    own ``n``), so sweeping many systems over one program pays for the
    executor walk once. A walk goes to the next power of two at or above
    ``n``, so a longer request that walks again from branch 0 walks to
    at least twice the memo's length: a program serving windows that
    vary within a factor of two (a daemon's mixed jobs) mostly walks
    once, and any growing sequence walks a logarithmic number of times,
    for at most twice the branches of the longest request. Memory is
    O(longest walk) per program;
    ``Program.reset()`` leaves the cache intact (the replay is
    deterministic from reset state by construction).

    Returns ``(t_pc, t_tk, t_uops, t_tt, t_ft, t_snap)``: per-branch pc,
    outcome, uop count, taken target, fallthrough, and post-resolve RAS
    snapshot.
    """
    cached = getattr(program, "_trace_cache", None)
    if cached is not None and cached[0] >= n:
        return cached[1]
    store = _trace_store
    build_key = getattr(program, "_build_key", None)
    if store is not None and build_key is not None:
        hit = store.get(build_key, n)
        if hit is not None:
            program._trace_cache = hit
            return hit[1]
    # A power of two, and at least twice any memo (a store hit's may not
    # be a power of two).
    floor = 2 * cached[0] if cached is not None else n
    walk = 1 << (max(n, floor) - 1).bit_length()
    program.reset()
    executor = ArchitecturalExecutor(program)
    t_pc = [0] * walk
    t_tk = [False] * walk
    t_uops = [0] * walk
    t_tt = [0] * walk
    t_ft = [0] * walk
    t_snap = [()] * walk
    cols = (t_pc, t_tk, t_uops, t_tt, t_ft, t_snap)
    resolve_next = executor.resolve_next
    ras_snapshot = executor._ras.snapshot
    for i in range(walk):
        try:
            pc, taken, uops = resolve_next()
        except TraceFormatError:
            # A recorded trace may end (or stop matching its CFG) past
            # the request: the walk keeps what resolved before that.
            if i < n:
                raise
            walk = i
            for col in cols:
                del col[walk:]
            break
        br = executor._last_branch
        t_pc[i] = pc
        t_tk[i] = taken
        t_uops[i] = uops
        t_tt[i] = br.taken_target
        t_ft[i] = br.fallthrough
        t_snap[i] = ras_snapshot()
    program._trace_cache = (walk, cols)
    if store is not None and build_key is not None:
        store.put(build_key, walk, cols)
    return cols


def _prophet_columns(prophet, kind: int, pcs) -> list:
    """Per-branch pc-side prophet index columns (slots 8.. of the flat
    segment table, in the same order)."""
    words = pcs >> 2
    if kind == _GSKEW:
        v1_np = words & prophet._index_mask
        return [
            v1_np.tolist(),
            (pcs >> prophet._pc_high_shift).tolist(),
            _np_table(prophet, "_h_np", prophet._h_table)[v1_np].tolist(),
            _np_table(prophet, "_hinv_np", prophet._hinv_table)[v1_np].tolist(),
        ]
    return [words.tolist()]


# -- the replay loop --------------------------------------------------------
#
# One loop runs both system shapes. It keeps the reference kernel's
# event order exactly -- future bits make the interleaving of critiques,
# fetches and resolves data-dependent -- but fuses every operation:
# walker traversal, BTB, prophet predict, the critic's fold hash + tag
# filter + counter train, and both history registers as plain local
# ints. Each outer iteration is two bursts:
#
# * fetch/critique burst -- one fetch step serves aligned and wrong-path
#   fetches alike: it fills the same locals (pc, uops, BTB set/tag, both
#   successors, RAS snapshot, critic pc columns, prophet pc constants)
#   from the fused trace row or from the flat CFG entry, then runs one
#   BTB probe, one per-kind prophet predict, one ring store and one check
#   for leaving the trace. After each fetch, the one critique drain runs
#   when the oldest uncritiqued entry has its future bits, or when the
#   window is at hard_cap with nothing critiqued (a forced critique,
#   §5). The drain critiques every consecutively-eligible entry. That is
#   reference order: the reference kernel's critique phase runs before
#   its resolve and its fetch, and a critique changes no other entry's
#   eligibility. A critic override flushes every uncritiqued entry, so
#   it ends the drain. The burst then resolves if the window is at
#   depth + 1, and otherwise fetches on under that bound -- where the
#   reference fetch guard stands once something is critiqued.
# * resolve burst -- the reference resolve phase, repeated while the
#   window stays deep and nothing flushes.
#
# No separate critique arm is needed: every exit from the fetch burst
# leaves no eligible or forced critique and the reference fetch guard shut,
# and a resolve burst only flushes or shrinks the window, which makes no
# critique eligible and reopens the guard.
#
# A SinglePredictorSystem is the prophet/critic machine with no critic
# (``ckind == _CR_NONE``): 0 required future bits, no BOR. Every
# critique is then eligible the moment its branch is fetched and never
# redirects (final == prophet), so the critic-less shape is exact with
# three parts swapped, each marked "critic-less" below:
#
# * critique -- a pass-through: ``critiqued`` advances with ``tail``, no
#   critique record is written;
# * wrong-path fill -- entries past a divergence are flushed by the
#   divergent branch's own resolve before any of them reaches the head,
#   so the fill stores nothing in the ring and keeps only the side
#   effects: fetched uops, BTB LRU refreshes and the speculative BHR bits
#   that steer further wrong-path predictions. It stays an arm of its
#   own rather than going through the shared fetch step, which would
#   build ring records nothing reads: folding it in slowed table-
#   predictor single cells by 34-39 % (docs/PERFORMANCE.md);
# * resolve -- no critic training and no filter stats.
#
# A prophet with an op bundle (``kind == _OPS``) is called through it:
# ``predict(c, bhr)`` at every fetch, wrong-path ones included, over the
# word column ``c = pc >> 2``, and at resolve ``train(c, bhrb, taken)``
# with ``c`` kept as the ring state (TAGE's train recomputes its history
# folds from ``bhrb`` rather than carrying them in the ring). Any other
# prophet (``kind == _PACKED``) is called the way ``ProphetCriticSystem``
# calls it: ``predict_packed(pc, bhr)`` at every fetch and
# ``update_packed`` at resolve with the packed state from its fetch.
#
# An unfiltered critic (``ckind == _CR_PLAIN``, §7.2) keeps the hybrid
# event loop and swaps only the critic's two calls, made in the same
# order as ``ProphetCriticSystem``: at critique, its bundle's
# ``predict(pc >> 2, bor)`` or its ``predict_packed(pc, bor)`` gives the
# final prediction (every dynamic branch is a "hit"); at resolve, after
# the prophet's update, ``train(pc >> 2, bor_at_critique, taken)`` or
# ``update_packed`` with the packed state from the critique trains it.
# No filter, fold tables or tag columns are involved. A filtered critic
# without a fused arm (``_CR_LOOKUP``) is the same two sites with its
# own ``lookup`` and ``train``. The two fused filtered
# critics share the critique's hash and filter probe and the resolve's
# probe, allocate and LRU touch; only the opinion and training bodies
# depend on the critic kind.


def _replay(program, system, config, kind: int, ckind: int, shared):
    program.reset()
    compiled = program.compiled(pair_limit=_RAS_CAPACITY)
    entry = program.entry
    n_branches = config.n_branches

    # Architectural trace, resolved up front (the executor never observes
    # the front end): at least n_branches resolve_next() calls, memoized.
    # The per-program precompute below spans the whole memo.
    t_pc, t_tk, t_uops, t_tt, t_ft, t_snap = _architectural_trace(
        program, n_branches
    )
    shared.fit(t_pc)

    use_btb = config.use_btb
    if use_btb:
        btb = BranchTargetBuffer(config.btb_entries, config.btb_ways)
        b_sets = btb._sets
        b_set_mask = btb._set_mask
        b_set_bits = btb._set_bits
        b_ways = btb.ways
    else:
        b_sets = b_set_mask = b_set_bits = b_ways = None

    filtered = ckind == _CR_TAGGED or ckind == _CR_FPERC
    if ckind:
        prophet = system.prophet
        critic = system.critic
    else:
        prophet = system.predictor
        critic = None
    tb5 = 5 + critic.tag_bits if filtered else 5
    prophet_update = prophet.update_packed
    geom = _prophet_geometry(prophet, kind)
    pc_consts = _make_pc_consts(prophet, kind, critic if filtered else None)
    flat, flatten = _ctx_get(
        shared,
        ("flat", geom, use_btb, b_set_mask or 0, b_set_bits or 0, tb5),
        lambda: _make_flattener(
            compiled, use_btb, b_set_mask or 0, b_set_bits or 0, pc_consts
        ),
    )

    # ---- vectorized precompute over the trace pcs ----------------------
    pcs = _ctx_get(shared, ("pcs",), lambda: np.array(t_pc, dtype=np.int64))
    if use_btb:

        def _build_btb_cols():
            words = pcs >> 2
            return (words & b_set_mask).tolist(), (words >> b_set_bits).tolist()

        a_si, a_tag = _ctx_get(
            shared, ("btb", b_set_mask, b_set_bits), _build_btb_cols
        )
    else:
        a_si = a_tag = repeat(0)

    if filtered:
        a_k0, a_k1 = _ctx_get(
            shared,
            ("critic-pc", tb5),
            lambda: ((pcs >> 2).tolist(), ((pcs >> 5) ^ (pcs >> tb5)).tolist()),
        )
    else:
        # Critic-less or unfiltered: nothing reads the critic pc columns
        # (an unfiltered critic is called with the branch pc).
        a_k0 = a_k1 = repeat(0)

    def _build_snapc():
        # Trace RAS snapshots in the walker's cons-list form, deduped by
        # identity of the source tuple run (snaps repeat between calls).
        out = []
        ap = out.append
        memo = {}
        for st in t_snap:
            c = memo.get(st)
            if c is None:
                chain = None
                for x in st:
                    chain = (x, chain)
                memo[st] = c = (chain, len(st))
            ap(c)
        return out

    t_snap_c = _ctx_get(shared, ("snapc",), _build_snapc)

    # Fused per-branch rows: one tuple unpack per aligned fetch instead
    # of a dozen list indexings. Rows without a filtered critic carry
    # zero critic columns, so they key apart from the filtered rows.
    f_rows = _ctx_get(
        shared,
        ("frows", geom, use_btb,
         b_set_mask or 0, b_set_bits or 0, tb5 if filtered else None),
        lambda: list(zip(
            t_uops, t_tk, a_si, a_tag, t_pc, t_tt, t_ft, t_snap_c,
            a_k0, a_k1, *_prophet_columns(prophet, kind, pcs),
        )),
    )

    # Op bundles, one per predictor object, written back in the
    # ``finally`` below.
    bundles: dict = {}

    if kind == _GSKEW:
        gk_imask = prophet._index_mask
        gk_hmask = prophet._history_mask
        gk_bim = prophet._bim_raw
        gk_g0 = prophet._g0_raw
        gk_g1 = prophet._g1_raw
        gk_meta = prophet._meta_raw
        gk_hx, gk_hv = _gskew_xor_tables(prophet)
    elif kind == _GSHARE:
        gs_hmask = prophet._history_mask
        gs_imask = prophet._index_mask
        gs_raw = prophet._raw
        gs_mid = prophet._midpoint
    elif kind == _OPS:
        p_ops = _bundle(bundles, prophet)
        p_predict = p_ops.predict
        p_train = p_ops.train
    else:
        p_predict = prophet.predict_packed

    # Critic constants: fold-hash geometry + tag filter, plus either the
    # 2-bit counter bank (tagged gshare) or the perceptron weight table
    # (filtered perceptron). Both critics share the TagFilter and the
    # same fold-hash structure, so the critique arm's inline hash is
    # common; only the opinion/train bodies dispatch on ``ckind``. An
    # unfiltered critic has no filter: it is its op bundle, or its packed
    # calls. Any other filtered critic is its own lookup/train pair.
    f_ins = f_evc = 0
    f_lookups = f_hits = 0
    cp_ops = None
    if ckind == _CR_PLAIN:
        if type(critic) in _BUNDLES:
            cp_ops = _bundle(bundles, critic)
            cp_predict = cp_ops.predict
            cp_train = cp_ops.train
        else:
            c_predict = critic.predict_packed
            c_update = critic.update_packed
    elif ckind == _CR_LOOKUP:
        c_lookup = critic.lookup
        c_train = critic.train
    elif filtered:
        filt = critic.filter
        f_tags = filt._tags
        f_lru = filt._lru
        # Tag->way mirror of the filter rows: one dict probe per critique
        # instead of two linear scans; the (inlined) inserts keep it in
        # sync.
        f_ways = filt.ways
        f_maps = []
        for _row in f_tags:
            _m = {}
            for _w, _t in enumerate(_row):
                if _t is not None:
                    _m[_t] = _w
            f_maps.append(_m)
        c_geometry = _critic_fold_geometry(critic)
        c_hmask, c_set_mask, c_tag_mask = c_geometry[0], c_geometry[4], c_geometry[5]
        # Split fold images for the critique hash (both critics share the
        # fold structure). Gated by width, so no image exceeds 2 ** 11
        # entries; wider and degenerate zero-history shapes keep the loop
        # path.
        if 0 < c_hmask.bit_length() <= 19:
            f_lo, f_hi, f_k = _critic_fold_tables(c_geometry)
            f_kmask = (1 << f_k) - 1
            f_sb = c_set_mask.bit_length()
            vmask = (c_hmask << 1) | 1
        else:
            f_lo = None
            c_fold_hash = _fold_hash(c_geometry)
    if ckind == _CR_TAGGED:
        c_ways = critic.ways
        c_counters = critic._counters_raw
    elif ckind == _CR_FPERC:
        fp = critic.perceptron
        fp_ops = _bundle(bundles, fp)
        fp_predict = fp_ops.predict
        fp_train = fp_ops.train

    stats = RunStats(benchmark=program.name, system=type(system).__name__)
    required_bits = max(system.future_bits, 0)
    use_live_bor = system.future_bits >= 1
    insert_final = system._insert_on_final if ckind else True
    depth = config.effective_depth(required_bits)
    hard_cap = depth + 8
    warmup = config.warmup
    collect_per_site = config.collect_per_site

    # In-flight ring. Power-of-two capacity so every ring index is a
    # mask (``& cmask``) instead of a modulo, and each entry packs its
    # fetch-time fields into ONE tuple store (``r_fe``) and its
    # critique-time fields into another (``r_cq``): the fetch loop is
    # the hottest code in the kernel and a single BUILD_TUPLE +
    # STORE_SUBSCR beats a dozen separate list stores.
    #
    #   r_fe[s] = (pc, bhrb, borb, tkb, ftb, k0, k1, snap, seq,
    #              static, pred, state)
    #   r_cq[s] = (final, chit, cpred, cset, ctag, borc)
    cap = 1 << (hard_cap - 1).bit_length()
    cmask = cap - 1
    r_fe = [()] * cap
    r_cq = [()] * cap
    head = 0
    tail = 0
    critiqued = 0
    next_seq = 0
    resolved = 0
    warmup_fetched = 0
    fetched_uops = 0

    bhr = system.bhr
    bhr_val = bhr._value
    bhr_mask = bhr._mask
    if ckind:
        bor = system.bor
        bor_val = bor._value
        bor_mask = bor._mask
    else:
        bor_val = bor_mask = 0

    w_block = entry
    ras_c = None  # immutable cons-list: (block, rest) | None
    ras_n = 0  # live depth (overflow drops-oldest without trimming)
    ras_ver = 1
    snap_ver = 0
    ras_snap = (None, 0)
    #: True while the front end tracks the committed trace: fetches are
    #: then pure column reads (no CFG walk, no RAS maintenance) and the
    #: walker state above is dormant. While False, ``n_aligned`` counts
    #: the trace-correspondent ring prefix — ring offsets 0..n_aligned-1
    #: hold trace rows resolved..resolved+n_aligned-1; everything past
    #: that prefix is wrong-path and will be flushed, never resolved.
    fe_aligned = True
    n_aligned = 0

    st_branches = st_uops = st_taken = st_static = st_misp = st_pmisp = 0
    st_forced = st_credir = 0
    n_ca = n_cd = n_ia = n_id = n_cn = n_in = 0
    site: dict = {}

    if not config.collect_predictor_stats:
        system.set_stats_enabled(False)
    # Hoist after the toggle so the stats gates are the live ones (the
    # filtered perceptron's flag is its inner perceptron's).
    p_stats_on = (kind == _GSKEW or kind == _OPS) and prophet.stats_enabled
    c_stats_on = ckind and critic.stats_enabled
    p_sn = p_sc = c_sn = c_sc = fp_sn = fp_sc = 0
    depth1 = depth + 1
    try:
        while resolved < n_branches:
            # 1) Fetch/critique burst (see the section comment).
            head_depth1 = head + depth1
            if critiqued < tail - head:
                have_candidate = True
                target_seq = r_fe[(head + critiqued) & cmask][8] + required_bits
            else:
                have_candidate = False
            # ``head`` is constant for the whole burst (only the resolve
            # burst advances it), so the two fetch-exit conditions
            # (pending >= hard_cap; critiqued > 0 and pending > depth)
            # collapse into one precomputed tail bound per
            # critiqued-regime: ONE compare per fetch. Critic-less, every
            # fetch is critiqued on the spot, so the bound is depth + 1
            # from the first fetch on.
            fetch_limit = head_depth1 if critiqued or not ckind else head + hard_cap
            while True:
                # -- fetch one entry ------------------------------------
                if fe_aligned:
                    i = resolved + tail - head
                    if i >= n_branches:
                        # Trace exhausted mid-window: keep fetching
                        # speculatively past the last committed branch,
                        # following its committed direction (an
                        # override-repaired entry's pred may disagree
                        # with the direction the front end actually
                        # took, so read the trace column).
                        fe_aligned = False
                        n_aligned = tail - head
                        fe = r_fe[(tail - 1) & cmask]
                        snap = fe[7]
                        ras_c, ras_n = snap
                        ras_ver += 1
                        ras_snap = snap
                        snap_ver = ras_ver
                        w_block = fe[3] if t_tk[i - 1] else fe[4]
                if fe_aligned:
                    # Aligned: one fused trace row -- no CFG walk, no RAS
                    # maintenance, and the RAS snapshot comes free out of
                    # the trace column.
                    if kind == _GSKEW:
                        (uops, taken, si, btag, pc, tkb, ftb, snap,
                         k0, k1, v1, pch, h1, hi1) = f_rows[i]
                    else:
                        (uops, taken, si, btag, pc, tkb, ftb, snap,
                         k0, k1, c) = f_rows[i]
                elif ckind:
                    # Wrong-path (or post-trace): one flat CFG entry.
                    try:
                        fs = flat[w_block]
                    except KeyError:
                        fs = flatten(w_block)
                    if fs[2] is not None and fs[1] is None:
                        # Common case: the collapsed chain ends at a
                        # conditional branch with no RAS traffic.
                        uops = fs[0]
                    else:
                        uops = 0
                        while True:
                            uops += fs[0]
                            ops = fs[1]
                            if ops is not None:
                                for op in ops:
                                    if op >= 0:
                                        ras_c = (op, ras_c)
                                        if ras_n < _RAS_CAPACITY:
                                            ras_n += 1
                                    else:
                                        ras_c = ras_c[1]
                                        ras_n -= 1
                                ras_ver += 1
                            if fs[2] is not None:
                                break
                            if ras_n:
                                bid, ras_c = ras_c
                                ras_n -= 1
                                ras_ver += 1
                            else:
                                bid = entry
                            try:
                                fs = flat[bid]
                            except KeyError:
                                fs = flatten(bid)
                    if snap_ver != ras_ver:
                        ras_snap = (ras_c, ras_n)
                        snap_ver = ras_ver
                    snap = ras_snap
                    if kind == _GSKEW:
                        (_, _, pc, tkb, ftb, _, si, btag,
                         v1, pch, h1, hi1, k0, k1) = fs
                    else:
                        (_, _, pc, tkb, ftb, _, si, btag,
                         c, _, _, _, k0, k1) = fs
                else:
                    # Critic-less wrong-path fill: walk the flat CFG up
                    # to the window bound in one go, storing nothing in
                    # the ring (see the section comment).
                    while tail < fetch_limit:
                        bid = w_block
                        uops = 0
                        while True:
                            try:
                                fs = flat[bid]
                            except KeyError:
                                fs = flatten(bid)
                            uops += fs[0]
                            ops = fs[1]
                            if ops is not None:
                                for op in ops:
                                    if op >= 0:
                                        ras_c = (op, ras_c)
                                        if ras_n < _RAS_CAPACITY:
                                            ras_n += 1
                                    else:
                                        ras_c = ras_c[1]
                                        ras_n -= 1
                            if fs[2] is not None:
                                break
                            if ras_n:
                                bid, ras_c = ras_c
                                ras_n -= 1
                            else:
                                bid = entry
                        fetched_uops += uops
                        tail += 1
                        if use_btb:
                            row = b_sets[fs[6]]
                            t = fs[7]
                            if row and row[-1] == t:
                                dyn = True
                            elif t in row:
                                row.remove(t)
                                row.append(t)
                                dyn = True
                            else:
                                dyn = False
                        else:
                            dyn = True
                        if dyn:
                            if kind == _GSKEW:
                                v1 = fs[8]
                                v2 = ((bhr_val & gk_hmask) ^ fs[9]) & gk_imask
                                bim = gk_bim[v1] > 1
                                if gk_meta[fs[11] ^ gk_hv[v2]] > 1:
                                    g0 = fs[10] ^ gk_hx[v2]
                                    pred = (
                                        bim + (gk_g0[g0] > 1)
                                        + (gk_g1[g0 ^ v2 ^ v1] > 1)
                                    ) >= 2
                                else:
                                    pred = bim
                            elif kind == _GSHARE:
                                pred = gs_raw[
                                    (fs[8] ^ (bhr_val & gs_hmask)) & gs_imask
                                ] > gs_mid
                            elif kind == _OPS:
                                pred = p_predict(fs[8], bhr_val)
                            else:
                                pred = p_predict(fs[2], bhr_val)[0]
                            bhr_val = ((bhr_val << 1) | pred) & bhr_mask
                            w_block = fs[3] if pred else fs[4]
                        else:
                            w_block = fs[4]
                    break
                fetched_uops += uops
                s = tail & cmask
                tail += 1
                if use_btb:
                    brow = b_sets[si]
                    if brow and brow[-1] == btag:
                        dyn = True
                    elif btag in brow:
                        brow.remove(btag)
                        brow.append(btag)
                        dyn = True
                    else:
                        dyn = False
                else:
                    dyn = True
                if dyn:
                    if kind == _GSKEW:
                        v2 = ((bhr_val & gk_hmask) ^ pch) & gk_imask
                        g0 = h1 ^ gk_hx[v2]
                        g1 = g0 ^ v2 ^ v1
                        meta = hi1 ^ gk_hv[v2]
                        state = (v1, g0, g1, meta)
                        bim = gk_bim[v1] > 1
                        if gk_meta[meta] > 1:
                            pred = (bim + (gk_g0[g0] > 1) + (gk_g1[g1] > 1)) >= 2
                        else:
                            pred = bim
                    elif kind == _GSHARE:
                        state = (c ^ (bhr_val & gs_hmask)) & gs_imask
                        pred = gs_raw[state] > gs_mid
                    elif kind == _OPS:
                        state = c
                        pred = p_predict(c, bhr_val)
                    else:
                        pred, state = p_predict(pc, bhr_val)
                    r_fe[s] = (pc, bhr_val, bor_val, tkb, ftb, k0, k1,
                               snap, next_seq, False, pred, state)
                    bhr_val = ((bhr_val << 1) | pred) & bhr_mask
                    bor_val = ((bor_val << 1) | pred) & bor_mask
                    next_seq += 1
                else:
                    # BTB miss: static not-taken, and no BOR bit, so seq
                    # is stored without incrementing next_seq.
                    pred = False
                    r_fe[s] = (pc, bhr_val, bor_val, tkb, ftb, k0, k1,
                               snap, next_seq, True, False, 0)
                if not fe_aligned:
                    w_block = tkb if pred else ftb
                elif pred != taken:
                    # Divergence (a static taken branch included): leave
                    # the trace; the walker picks up at the predicted
                    # target.
                    fe_aligned = False
                    n_aligned = tail - head
                    ras_c, ras_n = snap
                    ras_ver += 1
                    ras_snap = snap
                    snap_ver = ras_ver
                    w_block = tkb if pred else ftb
                # -- burst exit checks. A candidate that has just gone
                #    bits-ready is critiqued before the window bound is
                #    checked: the reference critique phase runs before its
                #    fetch guard.
                if not ckind:
                    if tail < fetch_limit:
                        continue
                    break
                if not have_candidate:
                    have_candidate = True
                    if dyn:
                        target_seq = next_seq - 1 + required_bits
                    else:
                        target_seq = next_seq  # static: eligible now
                if next_seq < target_seq:
                    if tail < fetch_limit:
                        continue
                    if critiqued:
                        break  # window at depth + 1: resolve
                    # Window at hard_cap with nothing critiqued and the
                    # candidate's bits still missing: forced critique
                    # with the bits available (§5).
                    if resolved >= warmup:
                        st_forced += 1
                # -- critique drain: every consecutively-eligible entry
                s = (head + critiqued) & cmask
                fe = r_fe[s]
                while True:
                    if fe[9]:
                        # Static: no critic consult, nothing the resolve
                        # burst reads back.
                        critiqued += 1
                    else:
                        ppred = fe[10]
                        bor_value = bor_val if use_live_bor else fe[2]
                        if ckind == _CR_PLAIN:
                            # Unfiltered critic: an opinion on every
                            # branch, no filter (its packed state rides
                            # in ``si``).
                            if cp_ops is None:
                                final, si = c_predict(fe[0], bor_value)
                            else:
                                si = None
                                final = cp_predict(fe[0] >> 2, bor_value)
                            r_cq[s] = (final, True, final, si, 0, bor_value)
                        elif ckind == _CR_LOOKUP:
                            found = c_lookup(fe[0], bor_value)
                            final = found.prediction if found.hit else ppred
                            r_cq[s] = (final, found.hit, found.prediction,
                                       0, 0, bor_value)
                        else:
                            k0 = fe[5]
                            if f_lo is not None:
                                w = bor_value & vmask
                                x = f_lo[w & f_kmask] ^ f_hi[
                                    ((w >> f_k) << 1) | (w & 1)
                                ]
                                si = (k0 ^ x) & c_set_mask
                                tg = (fe[6] ^ (x >> f_sb)) & c_tag_mask
                            else:
                                si, tg = c_fold_hash(k0, fe[6], bor_value)
                            f_lookups += 1
                            way = f_maps[si].get(tg)
                            if way is not None:
                                f_hits += 1
                                order = f_lru[si]
                                if order[-1] != way:
                                    order.remove(way)
                                    order.append(way)
                                if ckind == _CR_TAGGED:
                                    final = c_counters[si * c_ways + way] > 1
                                else:
                                    final = fp_predict(k0, bor_value)
                                r_cq[s] = (final, True, final, si, tg, bor_value)
                            else:
                                final = ppred
                                r_cq[s] = (ppred, False, None, si, tg, bor_value)
                        critiqued += 1
                        if final != ppred:
                            # Critic override: FTQ-confined flush +
                            # redirect. No uncritiqued entry survives it,
                            # so the drain ends below.
                            tail = head + critiqued
                            bhr_val = ((fe[1] << 1) | final) & bhr_mask
                            bor_val = ((fe[2] << 1) | final) & bor_mask
                            next_seq = fe[8] + 1
                            if resolved >= warmup:
                                st_credir += 1
                            # Re-point the front end. A redirect inside
                            # the trace-correspondent prefix keeps (or
                            # repairs) alignment exactly when it lands on
                            # the committed outcome; only a redirect onto
                            # the wrong path materialises walker state --
                            # from the ring, where aligned entries carry
                            # the free trace-column RAS snapshot.
                            off = critiqued - 1
                            if fe_aligned or off < n_aligned:
                                n_aligned = critiqued
                                fe_aligned = final == t_tk[resolved + off]
                            if not fe_aligned:
                                snap = fe[7]
                                ras_c, ras_n = snap
                                ras_ver += 1
                                ras_snap = snap
                                snap_ver = ras_ver
                                w_block = fe[3] if final else fe[4]
                    if critiqued >= tail - head:
                        have_candidate = False
                        break
                    s = (head + critiqued) & cmask
                    fe = r_fe[s]
                    if fe[9]:
                        continue
                    target_seq = fe[8] + required_bits
                    if next_seq < target_seq:
                        break
                if tail >= head_depth1:
                    break  # window at depth + 1: resolve
                fetch_limit = head_depth1
            if not ckind:
                # Critic-less critique: a pass-through for every entry
                # just fetched.
                critiqued = tail - head
            # 2) Resolve burst.
            while True:
                s = head & cmask
                pc = t_pc[resolved]
                taken = t_tk[resolved]
                uops = t_uops[resolved]
                (fpc, bhrb, borb, tkb, ftb, k0, k1, snap, seq, statc,
                 ppred, state) = r_fe[s]
                if pc != fpc:
                    raise SimulationDesyncError(
                        f"committed branch {pc:#x} but front end fetched "
                        f"{fpc:#x} (branch #{resolved})"
                    )
                if statc:
                    if resolved >= warmup:
                        st_branches += 1
                        st_uops += uops
                        if taken:
                            st_taken += 1
                        st_static += 1
                        if taken:
                            st_misp += 1
                            st_pmisp += 1
                    if use_btb:
                        word = pc >> 2
                        t = word >> b_set_bits
                        row = b_sets[word & b_set_mask]
                        if t in row:
                            row.remove(t)
                        elif len(row) >= b_ways:
                            row.pop(0)
                        row.append(t)
                    mispredicted = taken
                else:
                    if ckind:
                        (final, chit, cpred, si, tg, borc) = r_cq[s]
                    else:
                        final = ppred
                        chit = False
                    if resolved >= warmup:
                        st_branches += 1
                        st_uops += uops
                        if taken:
                            st_taken += 1
                        pcorr = ppred == taken
                        if not chit:
                            if pcorr:
                                n_cn += 1
                            else:
                                n_in += 1
                        elif cpred == ppred:
                            if pcorr:
                                n_ca += 1
                            else:
                                n_ia += 1
                        elif pcorr:
                            n_cd += 1
                        else:
                            n_id += 1
                        fm = final != taken
                        if not pcorr:
                            st_pmisp += 1
                        if fm:
                            st_misp += 1
                        if collect_per_site:
                            row = site.get(pc)
                            if row is None:
                                site[pc] = row = [0, 0, 0, 0, 0]
                            row[0] += 1
                            if not pcorr:
                                row[1] += 1
                                if not fm:
                                    row[3] += 1
                            if fm:
                                row[2] += 1
                                if pcorr:
                                    row[4] += 1
                    if kind == _GSKEW:
                        # Inlined TwoBcGskewPredictor.update_packed —
                        # ``state`` carries the four bank indices
                        # unpacked, so no shift/mask decode here.
                        if p_stats_on:
                            p_sn += 1
                            if ppred == taken:
                                p_sc += 1
                        bi, g0i, g1i, mi = state
                        bv = gk_bim[bi]
                        g0v = gk_g0[g0i]
                        g1v = gk_g1[g1i]
                        bim = bv > 1
                        g0 = g0v > 1
                        g1 = g1v > 1
                        mm = gk_meta[mi] > 1
                        majority = (bim + g0 + g1) >= 2
                        overall = majority if mm else bim
                        if taken:
                            if overall:
                                if mm:
                                    if bim and bv < 3:
                                        gk_bim[bi] = bv + 1
                                    if g0 and g0v < 3:
                                        gk_g0[g0i] = g0v + 1
                                    if g1 and g1v < 3:
                                        gk_g1[g1i] = g1v + 1
                                elif bv < 3:
                                    gk_bim[bi] = bv + 1
                            else:
                                if bv < 3:
                                    gk_bim[bi] = bv + 1
                                if g0v < 3:
                                    gk_g0[g0i] = g0v + 1
                                if g1v < 3:
                                    gk_g1[g1i] = g1v + 1
                        else:
                            if not overall:
                                if mm:
                                    if not bim and bv > 0:
                                        gk_bim[bi] = bv - 1
                                    if not g0 and g0v > 0:
                                        gk_g0[g0i] = g0v - 1
                                    if not g1 and g1v > 0:
                                        gk_g1[g1i] = g1v - 1
                                elif bv > 0:
                                    gk_bim[bi] = bv - 1
                            else:
                                if bv > 0:
                                    gk_bim[bi] = bv - 1
                                if g0v > 0:
                                    gk_g0[g0i] = g0v - 1
                                if g1v > 0:
                                    gk_g1[g1i] = g1v - 1
                        if bim != majority:
                            mv = gk_meta[mi]
                            if majority == taken:
                                if mv < 3:
                                    gk_meta[mi] = mv + 1
                            elif mv > 0:
                                gk_meta[mi] = mv - 1
                    elif kind == _OPS:
                        # A bundle's train: ``state`` is its fetch-time
                        # word column, pc >> 2.
                        if p_stats_on:
                            p_sn += 1
                            if ppred == taken:
                                p_sc += 1
                        p_train(state, bhrb, taken)
                    else:
                        prophet_update(pc, bhrb, taken, ppred, state)
                    # Critic training (critic-less: none). The filtered
                    # critics inline their train with the critique's hash
                    # pair: probe (no LRU/stats side effects); on a hit,
                    # train and touch; on a miss with a mispredict under
                    # the insertion policy, allocate, touch and prime.
                    # Only the training body depends on the critic kind.
                    if filtered:
                        way = f_maps[si].get(tg)
                        hit = way is not None
                        if hit or (final if insert_final else ppred) != taken:
                            if not hit:
                                fmap = f_maps[si]
                                frow = f_tags[si]
                                if len(fmap) < f_ways:
                                    way = frow.index(None)
                                else:
                                    way = f_lru[si][0]
                                    del fmap[frow[way]]
                                    f_evc += 1
                                frow[way] = tg
                                fmap[tg] = way
                                f_ins += 1
                            order = f_lru[si]
                            if order[-1] != way:
                                order.remove(way)
                                order.append(way)
                            if ckind == _CR_TAGGED:
                                idx = si * c_ways + way
                                if hit:
                                    v = c_counters[idx]
                                    if c_stats_on:
                                        c_sn += 1
                                        if (v > 1) == taken:
                                            c_sc += 1
                                    if taken:
                                        if v < 3:
                                            c_counters[idx] = v + 1
                                    elif v > 0:
                                        c_counters[idx] = v - 1
                                else:
                                    c_counters[idx] = 2 if taken else 1
                            else:
                                # Filtered perceptron: a hit trains it, an
                                # allocate primes it toward the outcome
                                # (critic stats count hits only). The
                                # object API dots the weight row twice
                                # (predict, then update's recompute)
                                # against weights nothing mutates in
                                # between, so one dot is bit-identical.
                                y = fp_train(k0, borc, taken)
                                if c_stats_on:
                                    fp_sn += 1
                                    c_sn += hit
                                    if (y >= 0) == taken:
                                        fp_sc += 1
                                        c_sc += hit
                    elif ckind == _CR_PLAIN:
                        # Unfiltered critic: trains on every dynamic
                        # branch with the BOR and packed state from its
                        # critique (the state rides in the ``si`` slot).
                        if cp_ops is None:
                            c_update(pc, borc, taken, cpred, si)
                        else:
                            if c_stats_on:
                                c_sn += 1
                                if cpred == taken:
                                    c_sc += 1
                            cp_train(pc >> 2, borc, taken)
                    elif ckind == _CR_LOOKUP:
                        c_train(pc, borc, taken,
                                (final if insert_final else ppred) != taken)
                    mispredicted = final != taken
                head += 1
                resolved += 1
                if resolved == warmup:
                    warmup_fetched = fetched_uops
                if mispredicted:
                    bhr_val = ((bhrb << 1) | taken) & bhr_mask
                    bor_val = ((borb << 1) | taken) & bor_mask
                    # The refetch resumes at the committed outcome of the
                    # branch just resolved -- by definition back on the
                    # trace. Re-align instead of restoring walker state;
                    # the walker is rebuilt lazily from the ring only if
                    # the front end diverges again.
                    fe_aligned = True
                    tail = head
                    critiqued = 0
                    next_seq = seq + 1
                    break
                if not fe_aligned:
                    n_aligned -= 1
                critiqued -= 1
                if resolved >= n_branches:
                    break
                if not (critiqued > 0 and tail - head > depth):
                    break
    finally:
        if not config.collect_predictor_stats:
            system.set_stats_enabled(True)
        for ops in bundles.values():
            ops.write_back()
        bhr._value = bhr_val
        if p_sn:
            pstats = prophet.stats
            pstats.predictions += p_sn
            pstats.correct += p_sc
        if ckind:
            bor._value = bor_val
        if c_sn:
            cstats = critic.stats
            cstats.predictions += c_sn
            cstats.correct += c_sc
        if filtered:
            fstats = filt.stats
            fstats.lookups += f_lookups
            fstats.hits += f_hits
            fstats.inserts += f_ins
            fstats.evictions += f_evc
            if fp_sn:
                fpstats = fp.stats
                fpstats.predictions += fp_sn
                fpstats.correct += fp_sc

    stats.branches = st_branches
    stats.committed_uops = st_uops
    stats.taken_branches = st_taken
    stats.static_branches = st_static
    stats.mispredicts = st_misp
    stats.prophet_mispredicts = st_pmisp
    stats.forced_critiques = st_forced
    stats.critic_redirects = st_credir
    counts = stats.census.counts
    counts[CritiqueKind.CORRECT_AGREE] = n_ca
    counts[CritiqueKind.CORRECT_DISAGREE] = n_cd
    counts[CritiqueKind.INCORRECT_AGREE] = n_ia
    counts[CritiqueKind.INCORRECT_DISAGREE] = n_id
    counts[CritiqueKind.CORRECT_NONE] = n_cn
    counts[CritiqueKind.INCORRECT_NONE] = n_in
    if site:
        stats.per_site = site
    stats.fetched_uops = max(0, fetched_uops - warmup_fetched)
    return stats
