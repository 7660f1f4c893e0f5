"""2Bc-gskew predictor (Seznec & Michaud, 1999) — the EV8-style baseline.

Four banks of 2-bit counters:

* **BIM** — bimodal, PC-indexed;
* **G0**, **G1** — gshare-like banks indexed with different *skewing*
  functions of (PC, global history), so that a pair colliding in one bank
  cannot collide in the others;
* **META** — chooser between the bimodal prediction and the majority vote
  of {BIM, G0, G1}.

The partial-update policy is the one published for 2Bc-gskew/EV8:

* correct & META chose bimodal → strengthen BIM only;
* correct & META chose majority → strengthen only the banks that voted
  with the outcome;
* mispredict → write the outcome into all three voting banks;
* META trains toward the source (bimodal vs majority) that was correct,
  and only when the two disagreed.

The paper's headline comparison (§1) pits an 8K+8K prophet/critic hybrid
against a 16KB instance of this predictor.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.predictors.base import DirectionPredictor
from repro.predictors.counters import CounterTable
from repro.predictors.registry import register_predictor
from repro.utils.bitops import mask
from repro.utils.hashing import skew_h, skew_hinv


_SKEW_TABLE_CACHE: dict = {}


def _skew_tables(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Precomputed H / H^-1 images over ``n``-bit values.

    The skewing functions run on every predict and update, so table
    lookups beat recomputing the bit-twiddling four times per branch.
    Pure functions of the index width, so every predictor of one width
    shares one read-only pair. Both are permutations of ``range(2 ** n)``,
    so they also share one int object per value.
    """
    hit = _SKEW_TABLE_CACHE.get(n)
    if hit is None:
        values = range(1 << n)
        ints = list(values)
        if len(_SKEW_TABLE_CACHE) >= 8:
            _SKEW_TABLE_CACHE.clear()
        _SKEW_TABLE_CACHE[n] = hit = (
            tuple([ints[skew_h(value, n)] for value in values]),
            tuple([ints[skew_hinv(value, n)] for value in values]),
        )
    return hit


class TwoBcGskewPredictor(DirectionPredictor):
    """2Bc-gskew: BIM + two skewed global banks + META chooser."""

    name = "2bc-gskew"

    def __init__(self, entries_per_table: int, history_length: int | None = None) -> None:
        super().__init__()
        if entries_per_table & (entries_per_table - 1):
            raise ValueError("entries_per_table must be a power of two")
        self.entries_per_table = entries_per_table
        self._index_bits = entries_per_table.bit_length() - 1
        if history_length is None:
            history_length = self._index_bits
        if history_length < 0:
            raise ValueError(f"history_length must be non-negative, got {history_length}")
        self.history_length = history_length
        self.bim = CounterTable(entries_per_table, bits=2)
        self.g0 = CounterTable(entries_per_table, bits=2)
        self.g1 = CounterTable(entries_per_table, bits=2)
        self.meta = CounterTable(entries_per_table, bits=2)
        n = self._index_bits
        self._h_table, self._hinv_table = _skew_tables(n)
        # Hot-path constants and raw table references (identity-stable
        # across reset(), see CounterTable.raw).
        self._index_mask = mask(n)
        self._history_mask = mask(history_length)
        self._pc_high_shift = 2 + n
        self._bim_raw = self.bim.raw
        self._g0_raw = self.g0.raw
        self._g1_raw = self.g1.raw
        self._meta_raw = self.meta.raw

    # -- indexing -----------------------------------------------------------

    def _bim_index(self, pc: int) -> int:
        return (pc >> 2) & mask(self._index_bits)

    def _skewed_index(self, bank: int, pc: int, history: int) -> int:
        n = self._index_bits
        v1 = (pc >> 2) & mask(n)
        v2 = ((history & mask(self.history_length)) ^ (pc >> (2 + n))) & mask(n)
        if bank == 0:
            return self._h_table[v1] ^ self._hinv_table[v2] ^ v2
        if bank == 1:
            return self._h_table[v1] ^ self._hinv_table[v2] ^ v1
        return self._hinv_table[v1] ^ self._h_table[v2] ^ v2

    # -- prediction ---------------------------------------------------------

    def _component_predictions(self, pc: int, history: int) -> tuple[bool, bool, bool, bool]:
        """Return (bim, g0, g1, meta_chooses_majority)."""
        bim = self.bim.taken(self._bim_index(pc))
        g0 = self.g0.taken(self._skewed_index(0, pc, history))
        g1 = self.g1.taken(self._skewed_index(1, pc, history))
        meta_majority = self.meta.taken(self._skewed_index(2, pc, history))
        return bim, g0, g1, meta_majority

    @staticmethod
    def _majority(bim: bool, g0: bool, g1: bool) -> bool:
        return (int(bim) + int(g0) + int(g1)) >= 2

    def predict(self, pc: int, history: int) -> bool:
        bim, g0, g1, meta_majority = self._component_predictions(pc, history)
        if meta_majority:
            return self._majority(bim, g0, g1)
        return bim

    # -- packed fast path ----------------------------------------------------
    #
    # The four bank indices are pure functions of (pc, history); the engine
    # carries the prediction-time history to commit, so the driver-facing
    # systems compute the indices once at predict and replay them at
    # update. Counter *values* are always re-read at update time — other
    # in-flight branches may have trained the same entries — keeping the
    # packed path bit-identical to predict()/update().

    def _pack_indices(self, pc: int, history: int) -> int:
        n = self._index_bits
        index_mask = self._index_mask
        v1 = (pc >> 2) & index_mask
        v2 = ((history & self._history_mask) ^ (pc >> self._pc_high_shift)) & index_mask
        h = self._h_table
        hinv = self._hinv_table
        hv1 = h[v1]
        hinv_v2 = hinv[v2]
        g0_idx = hv1 ^ hinv_v2 ^ v2
        g1_idx = hv1 ^ hinv_v2 ^ v1
        meta_idx = hinv[v1] ^ h[v2] ^ v2
        return v1 | (g0_idx << n) | (g1_idx << (2 * n)) | (meta_idx << (3 * n))

    def predict_packed(self, pc: int, history: int) -> tuple[bool, int]:
        # _pack_indices fused in: computing the four indices as locals,
        # reading the banks, then packing avoids an immediate unpack.
        n = self._index_bits
        index_mask = self._index_mask
        v1 = (pc >> 2) & index_mask
        v2 = ((history & self._history_mask) ^ (pc >> self._pc_high_shift)) & index_mask
        h = self._h_table
        hinv = self._hinv_table
        hv1 = h[v1]
        hinv_v2 = hinv[v2]
        g0_idx = hv1 ^ hinv_v2 ^ v2
        g1_idx = hv1 ^ hinv_v2 ^ v1
        meta_idx = hinv[v1] ^ h[v2] ^ v2
        packed = v1 | (g0_idx << n) | (g1_idx << (2 * n)) | (meta_idx << (3 * n))
        bim = self._bim_raw[v1] > 1
        if self._meta_raw[meta_idx] > 1:
            g0 = self._g0_raw[g0_idx] > 1
            g1 = self._g1_raw[g1_idx] > 1
            return (bim + g0 + g1) >= 2, packed
        return bim, packed

    def update_packed(
        self, pc: int, history: int, taken: bool, predicted: bool, packed: int
    ) -> None:
        if self.stats_enabled:
            self.stats.record(predicted == taken)
        n = self._index_bits
        index_mask = self._index_mask
        bim_idx = packed & index_mask
        g0_idx = (packed >> n) & index_mask
        g1_idx = (packed >> (2 * n)) & index_mask
        meta_idx = packed >> (3 * n)
        bim_raw = self._bim_raw
        g0_raw = self._g0_raw
        g1_raw = self._g1_raw

        bim_value = bim_raw[bim_idx]
        g0_value = g0_raw[g0_idx]
        g1_value = g1_raw[g1_idx]
        bim = bim_value > 1
        g0 = g0_value > 1
        g1 = g1_value > 1
        meta_majority = self._meta_raw[meta_idx] > 1
        majority = (bim + g0 + g1) >= 2
        overall = majority if meta_majority else bim

        # Same partial-update policy as the classic path, on raw 2-bit
        # counters: saturating step toward `taken` for the chosen banks.
        if taken:
            if overall == taken:
                if meta_majority:
                    if bim and bim_value < 3:
                        bim_raw[bim_idx] = bim_value + 1
                    if g0 and g0_value < 3:
                        g0_raw[g0_idx] = g0_value + 1
                    if g1 and g1_value < 3:
                        g1_raw[g1_idx] = g1_value + 1
                elif bim_value < 3:
                    bim_raw[bim_idx] = bim_value + 1
            else:
                if bim_value < 3:
                    bim_raw[bim_idx] = bim_value + 1
                if g0_value < 3:
                    g0_raw[g0_idx] = g0_value + 1
                if g1_value < 3:
                    g1_raw[g1_idx] = g1_value + 1
        else:
            if overall == taken:
                if meta_majority:
                    if not bim and bim_value > 0:
                        bim_raw[bim_idx] = bim_value - 1
                    if not g0 and g0_value > 0:
                        g0_raw[g0_idx] = g0_value - 1
                    if not g1 and g1_value > 0:
                        g1_raw[g1_idx] = g1_value - 1
                elif bim_value > 0:
                    bim_raw[bim_idx] = bim_value - 1
            else:
                if bim_value > 0:
                    bim_raw[bim_idx] = bim_value - 1
                if g0_value > 0:
                    g0_raw[g0_idx] = g0_value - 1
                if g1_value > 0:
                    g1_raw[g1_idx] = g1_value - 1

        # META learns which source to trust, only on disagreement.
        if bim != majority:
            self.meta.update(meta_idx, majority == taken)

    # -- update -------------------------------------------------------------

    def update(self, pc: int, history: int, taken: bool, predicted: bool) -> None:
        self.update_packed(pc, history, taken, predicted, self._pack_indices(pc, history))

    def storage_bits(self) -> int:
        return (
            self.bim.storage_bits()
            + self.g0.storage_bits()
            + self.g1.storage_bits()
            + self.meta.storage_bits()
        )

    def reset(self) -> None:
        super().reset()
        for table in (self.bim, self.g0, self.g1, self.meta):
            table.reset()

@dataclass(frozen=True)
class GskewParams:
    """Geometry schema for :class:`TwoBcGskewPredictor` (defaults: Table-3 8KB).

    ``history_length`` of None uses the per-table index width.
    """

    entries_per_table: int = 8 * 1024
    history_length: int | None = None

    def build(self) -> TwoBcGskewPredictor:
        return TwoBcGskewPredictor(self.entries_per_table, self.history_length)


register_predictor(
    "2bc-gskew",
    GskewParams,
    GskewParams.build,
    critic_capable=True,
    summary="BIM + two skewed global banks + META chooser (Seznec & Michaud)",
)
