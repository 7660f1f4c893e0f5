"""PAg-style local-history two-level predictor.

A first-level table records per-branch local history; a shared second-level
counter table is indexed by that history. The Alpha 21264's tournament
predictor pairs one of these with a global-history component.

The local history table is updated non-speculatively at ``update`` time.
This predictor ignores the caller-supplied global history value (it keeps
its own first level), so it is usable as a standalone baseline and as a
tournament component, but it is not offered as a critic: critics must read
the BOR, which is global by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.predictors.base import DirectionPredictor
from repro.predictors.counters import CounterTable
from repro.predictors.registry import register_predictor
from repro.utils.bitops import mask


class LocalHistoryPredictor(DirectionPredictor):
    """PAg: per-branch history rows index a shared counter table."""

    name = "local"
    history_length = 0  # consumes no *global* history

    def __init__(
        self,
        history_entries: int,
        local_history_length: int,
        counter_bits: int = 2,
        pattern_entries: int | None = None,
    ) -> None:
        super().__init__()
        if history_entries < 1 or history_entries & (history_entries - 1):
            raise ValueError(f"history_entries must be a power of two, got {history_entries}")
        self.history_entries = history_entries
        self.local_history_length = local_history_length
        if pattern_entries is None:
            pattern_entries = 1 << local_history_length
        if pattern_entries & (pattern_entries - 1):
            raise ValueError("pattern_entries must be a power of two")
        self.pattern_entries = pattern_entries
        self._pattern_index_bits = pattern_entries.bit_length() - 1
        self._histories = np.zeros(history_entries, dtype=np.int64)
        self.table = CounterTable(pattern_entries, bits=counter_bits)

    def _history_index(self, pc: int) -> int:
        return (pc >> 2) & (self.history_entries - 1)

    def _pattern_index(self, local_history: int) -> int:
        return local_history & mask(self._pattern_index_bits)

    def local_history(self, pc: int) -> int:
        """Current local history bits recorded for the branch at ``pc``."""
        return int(self._histories[self._history_index(pc)]) & mask(self.local_history_length)

    def predict(self, pc: int, history: int) -> bool:
        return self.table.taken(self._pattern_index(self.local_history(pc)))

    def update(self, pc: int, history: int, taken: bool, predicted: bool) -> None:
        if self.stats_enabled:
            self.stats.record(predicted == taken)
        h_idx = self._history_index(pc)
        local = int(self._histories[h_idx]) & mask(self.local_history_length)
        self.table.update(self._pattern_index(local), taken)
        new_local = ((local << 1) | int(taken)) & mask(self.local_history_length)
        self._histories[h_idx] = new_local

    def storage_bits(self) -> int:
        first_level = self.history_entries * self.local_history_length
        return first_level + self.table.storage_bits()

    def reset(self) -> None:
        super().reset()
        self._histories[:] = 0
        self.table.reset()

@dataclass(frozen=True)
class LocalHistoryParams:
    """Geometry schema for :class:`LocalHistoryPredictor`.

    ``pattern_entries`` of None sizes the second level to
    ``2 ** local_history_length``.
    """

    history_entries: int = 1024
    local_history_length: int = 10
    counter_bits: int = 2
    pattern_entries: int | None = None

    def build(self) -> LocalHistoryPredictor:
        return LocalHistoryPredictor(
            self.history_entries,
            self.local_history_length,
            self.counter_bits,
            self.pattern_entries,
        )


register_predictor(
    "local",
    LocalHistoryParams,
    LocalHistoryParams.build,
    critic_capable=False,  # keeps private per-branch history; never reads a BOR
    summary="PAg two-level local-history predictor (Alpha 21264 component)",
)
