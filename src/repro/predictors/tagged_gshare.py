"""Tagged gshare — the paper's preferred critic (§4, Table 3).

A gshare-style predictor in which every 2-bit counter carries a tag, the
whole structure organised like an N-way set-associative cache. Index and
tag come from *different* XOR hashes of (branch address, BOR value), so a
context colliding in the index is unlikely to alias in the tag as well.

Semantics as a critic:

* **lookup** — on tag hit the stored counter gives the critic's direction
  prediction for the branch; on miss the critic implicitly agrees with the
  prophet.
* **train** — on tag hit the counter trains toward the actual outcome; on
  miss, a new entry is allocated *only if the final prediction was wrong*
  (insert-on-mispredict), initialised weakly toward the actual outcome.

The class also implements the plain :class:`DirectionPredictor` interface
(predict falls back to taken on a miss) so it can be exercised standalone
in unit tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.predictors.base import DirectionPredictor
from repro.predictors.counters import CounterTable
from repro.predictors.filtering import TagFilter
from repro.predictors.registry import register_predictor
from repro.utils.hashing import index_hash, tag_hash


@dataclass(frozen=True)
class CritiqueLookup:
    """Result of a critic lookup: filter hit flag and direction prediction.

    ``prediction`` is None when ``hit`` is False — the critic has no
    opinion and implicitly agrees with the prophet.
    """

    hit: bool
    prediction: bool | None


class TaggedGsharePredictor(DirectionPredictor):
    """Set-associative tagged counter store keyed by hash(PC, history)."""

    name = "tagged-gshare"

    def __init__(
        self,
        sets: int,
        ways: int = 6,
        history_length: int = 18,
        tag_bits: int = 8,
    ) -> None:
        super().__init__()
        if history_length < 0:
            raise ValueError(f"history_length must be non-negative, got {history_length}")
        self.sets = sets
        self.ways = ways
        self.history_length = history_length
        self.tag_bits = tag_bits
        self.filter = TagFilter(sets, ways, tag_bits)
        # One counter per (set, way); flattened row-major.
        self.counters = CounterTable(sets * ways, bits=2)
        # Hot-path constants for the fused hash (see _hash_pair).
        self._set_mask = (1 << self.filter.set_bits) - 1
        self._tag_mask = (1 << tag_bits) - 1
        self._history_mask = (1 << history_length) - 1 if history_length > 0 else 0
        self._rotate_shift = history_length - 1
        self._counters_raw = self.counters.raw
        # Unrolled fold schedules: XORing the unmasked shifted chunks and
        # masking once at the end equals the chunk-by-chunk masked fold
        # (only the low out_width bits of the XOR survive the final mask).
        self._set_fold_shifts = tuple(range(0, history_length, max(self.filter.set_bits, 1)))
        self._tag_fold_shifts = tuple(range(0, history_length, max(tag_bits, 1)))

    # -- hashing -------------------------------------------------------------

    def _hash_pair(self, pc: int, history: int) -> tuple[int, int]:
        """(set index, tag) in one pass — inlined fold loops.

        Produces exactly :func:`repro.utils.hashing.index_hash` and
        :func:`repro.utils.hashing.tag_hash` over ``history_length``
        history bits; critics hash every branch twice (lookup + train),
        so the folding is flattened here.
        """
        tag_bits = self.tag_bits
        tag_shifts = self._tag_fold_shifts

        value = history & self._history_mask
        folded_index = pc >> 2
        for shift in self._set_fold_shifts:
            folded_index ^= value >> shift
        folded_tag = 0
        for shift in tag_shifts:
            folded_tag ^= value >> shift
        # tag_hash's second fold runs over the rotated history.
        folded_tag2 = 0
        if tag_shifts:  # empty iff history_length == 0 (no rotation either)
            rotated = ((history >> 1) | ((history & 1) << self._rotate_shift)) & self._history_mask
            for shift in tag_shifts:
                folded_tag2 ^= rotated >> shift
        tag = (
            (pc >> 5) ^ (pc >> (5 + tag_bits)) ^ folded_tag ^ (folded_tag2 << 1)
        ) & self._tag_mask
        return folded_index & self._set_mask, tag

    def _set_index(self, pc: int, history: int) -> int:
        return index_hash(pc, history, self.filter.set_bits, self.history_length)

    def _tag(self, pc: int, history: int) -> int:
        return tag_hash(pc, history, self.tag_bits, self.history_length)

    def _counter_index(self, set_index: int, way: int) -> int:
        return set_index * self.ways + way

    # -- critic interface ------------------------------------------------------

    def train_hashed(
        self, pc: int, history: int, taken: bool, final_mispredict: bool,
        set_index: int, tag: int,
    ) -> None:
        """:meth:`train` with the (set index, tag) pair precomputed — the
        hashes are pure in (pc, history), so the timing model carries the
        pair it hashed at critique to commit."""
        way = self.filter.probe(set_index, tag)
        if way is not None:
            idx = set_index * self.ways + way
            if self.stats_enabled:
                self.stats.record((self._counters_raw[idx] > 1) == taken)
            self.counters.update(idx, taken)
            # Refresh recency so live contexts survive (probe() is
            # side-effect free; LRU is maintained here and at lookup).
            self.filter._touch(set_index, way)
            return
        if final_mispredict:
            way, _evicted = self.filter.insert(set_index, tag)
            self.counters.set_direction(set_index * self.ways + way, taken)

    def lookup(self, pc: int, history: int) -> CritiqueLookup:
        """Filtered lookup: (hit, prediction-or-None)."""
        set_index, tag = self._hash_pair(pc, history)
        way = self.filter.lookup(set_index, tag)
        if way is None:
            return CritiqueLookup(hit=False, prediction=None)
        return CritiqueLookup(hit=True, prediction=self.counters.taken(self._counter_index(set_index, way)))

    def train(self, pc: int, history: int, taken: bool, final_mispredict: bool) -> None:
        """Commit-time training with insert-on-mispredict allocation."""
        set_index, tag = self._hash_pair(pc, history)
        self.train_hashed(pc, history, taken, final_mispredict, set_index, tag)

    # -- standalone DirectionPredictor interface -------------------------------

    def predict(self, pc: int, history: int) -> bool:
        result = self.lookup(pc, history)
        if result.hit:
            return bool(result.prediction)
        return True

    def update(self, pc: int, history: int, taken: bool, predicted: bool) -> None:
        self.train(pc, history, taken, final_mispredict=(predicted != taken))

    def storage_bits(self) -> int:
        return self.filter.storage_bits() + self.counters.storage_bits()

    def reset(self) -> None:
        super().reset()
        self.filter.reset()
        self.counters.reset()

@dataclass(frozen=True)
class TaggedGshareParams:
    """Geometry schema for :class:`TaggedGsharePredictor` (defaults: Table-3 8KB)."""

    sets: int = 1024
    ways: int = 6
    history_length: int = 18
    tag_bits: int = 8

    def build(self) -> TaggedGsharePredictor:
        return TaggedGsharePredictor(
            self.sets, self.ways, self.history_length, self.tag_bits
        )


register_predictor(
    "tagged-gshare",
    TaggedGshareParams,
    TaggedGshareParams.build,
    critic_capable=True,
    summary="set-associative tagged counters keyed by hash(PC, history)",
)
