"""Gshare predictor (McFarling, WRL TN-36, 1993).

Global history is XORed with the branch address to index a single table of
2-bit counters, spreading branches across the table and reducing aliasing
relative to GAs at the same size. Table 3 of the paper uses gshare at
2-32KB with history lengths 13-17 (always log2 of the entry count).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.predictors.base import DirectionPredictor
from repro.predictors.counters import CounterTable
from repro.predictors.registry import register_predictor
from repro.utils.bitops import mask


class GsharePredictor(DirectionPredictor):
    """Classic gshare: index = (PC >> 2) XOR history, one counter table."""

    name = "gshare"

    def __init__(self, entries: int, history_length: int | None = None, counter_bits: int = 2) -> None:
        super().__init__()
        if entries & (entries - 1):
            raise ValueError("entries must be a power of two")
        self.entries = entries
        self._index_bits = entries.bit_length() - 1
        if history_length is None:
            history_length = self._index_bits
        if history_length < 0:
            raise ValueError(f"history_length must be non-negative, got {history_length}")
        if history_length > self._index_bits:
            raise ValueError(
                "gshare history cannot exceed index width "
                f"({history_length} > {self._index_bits}); use folding predictors for longer histories"
            )
        self.history_length = history_length
        self.table = CounterTable(entries, bits=counter_bits)
        self._history_mask = mask(history_length)
        self._index_mask = mask(self._index_bits)
        self._raw = self.table.raw
        self._midpoint = self.table.midpoint

    def _index(self, pc: int, history: int) -> int:
        return ((pc >> 2) ^ (history & self._history_mask)) & self._index_mask

    def predict(self, pc: int, history: int) -> bool:
        return self._raw[self._index(pc, history)] > self._midpoint

    def predict_packed(self, pc: int, history: int) -> tuple[bool, int]:
        """Packed fast path: the table index is pure in (pc, history)."""
        index = ((pc >> 2) ^ (history & self._history_mask)) & self._index_mask
        return self._raw[index] > self._midpoint, index

    def update_packed(
        self, pc: int, history: int, taken: bool, predicted: bool, index: int
    ) -> None:
        if self.stats_enabled:
            self.stats.record(predicted == taken)
        self.table.update(index, taken)

    def update(self, pc: int, history: int, taken: bool, predicted: bool) -> None:
        self.update_packed(pc, history, taken, predicted, self._index(pc, history))

    def storage_bits(self) -> int:
        return self.table.storage_bits()

    def reset(self) -> None:
        super().reset()
        self.table.reset()

@dataclass(frozen=True)
class GshareParams:
    """Geometry schema for :class:`GsharePredictor` (defaults: Table-3 8KB).

    ``history_length`` of None uses the full index width, Table 3's rule.
    """

    entries: int = 32 * 1024
    history_length: int | None = None
    counter_bits: int = 2

    def build(self) -> GsharePredictor:
        return GsharePredictor(self.entries, self.history_length, self.counter_bits)


register_predictor(
    "gshare",
    GshareParams,
    GshareParams.build,
    critic_capable=True,
    summary="PC XOR global-history indexed counter table (McFarling, 1993)",
)
