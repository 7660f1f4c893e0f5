"""YAGS predictor (Eden & Mudge, 1998) — a de-aliased baseline.

YAGS keeps a bimodal *choice* table plus two small tagged caches that
record only the **exceptions**: the T-cache holds branches that go taken
when the choice table says not-taken, and the NT-cache the converse.
The paper cites YAGS alongside 2Bc-gskew as evidence that de-aliased
predictors beat larger aliased ones, so it earns a slot in the zoo (and
its tagged-exception structure is a direct ancestor of the tagged-gshare
critic).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.predictors.base import DirectionPredictor
from repro.predictors.counters import CounterTable
from repro.predictors.registry import register_predictor
from repro.utils.bitops import mask


class _ExceptionCache:
    """Direct-mapped tagged counter cache used for YAGS exceptions."""

    def __init__(self, entries: int, tag_bits: int) -> None:
        if entries & (entries - 1):
            raise ValueError("entries must be a power of two")
        self.entries = entries
        self.index_bits = entries.bit_length() - 1
        self.tag_bits = tag_bits
        self.tags: list[int | None] = [None] * entries
        self.counters = CounterTable(entries, bits=2)

    def probe(self, index: int, tag: int) -> bool:
        return self.tags[index] == tag

    def storage_bits(self) -> int:
        return self.entries * (self.tag_bits + 2)

    def reset(self) -> None:
        self.tags = [None] * self.entries
        self.counters.reset()


class YagsPredictor(DirectionPredictor):
    """YAGS: bimodal choice + taken/not-taken exception caches."""

    name = "yags"

    def __init__(self, choice_entries: int, cache_entries: int, history_length: int, tag_bits: int = 8) -> None:
        super().__init__()
        self.choice = CounterTable(choice_entries, bits=2)
        self._choice_bits = choice_entries.bit_length() - 1
        if choice_entries & (choice_entries - 1):
            raise ValueError("choice_entries must be a power of two")
        for field, value in (("history_length", history_length), ("tag_bits", tag_bits)):
            if value < 0:
                raise ValueError(f"{field} must be non-negative, got {value}")
        self.t_cache = _ExceptionCache(cache_entries, tag_bits)
        self.nt_cache = _ExceptionCache(cache_entries, tag_bits)
        self.history_length = history_length
        self.tag_bits = tag_bits

    def _choice_index(self, pc: int) -> int:
        return (pc >> 2) & mask(self._choice_bits)

    def _cache_index(self, pc: int, history: int) -> int:
        return ((pc >> 2) ^ (history & mask(self.history_length))) & mask(self.t_cache.index_bits)

    def _cache_tag(self, pc: int) -> int:
        return (pc >> 2) & mask(self.tag_bits)

    def predict(self, pc: int, history: int) -> bool:
        choice_taken = self.choice.taken(self._choice_index(pc))
        index = self._cache_index(pc, history)
        tag = self._cache_tag(pc)
        # Consult the cache that records exceptions to the choice direction.
        cache = self.nt_cache if choice_taken else self.t_cache
        if cache.probe(index, tag):
            return cache.counters.taken(index)
        return choice_taken

    def predict_packed(self, pc: int, history: int) -> tuple[bool, tuple[int, int, int]]:
        """Packed fast path: (choice index, cache index, tag) are pure."""
        choice_index = self._choice_index(pc)
        index = self._cache_index(pc, history)
        tag = self._cache_tag(pc)
        choice_taken = self.choice.taken(choice_index)
        cache = self.nt_cache if choice_taken else self.t_cache
        if cache.probe(index, tag):
            return cache.counters.taken(index), (choice_index, index, tag)
        return choice_taken, (choice_index, index, tag)

    def update_packed(
        self,
        pc: int,
        history: int,
        taken: bool,
        predicted: bool,
        state: tuple[int, int, int],
    ) -> None:
        if self.stats_enabled:
            self.stats.record(predicted == taken)
        choice_index, index, tag = state
        # The choice direction is re-read: it may have trained since
        # prediction, and it selects which exception cache to consult.
        choice_taken = self.choice.taken(choice_index)
        cache = self.nt_cache if choice_taken else self.t_cache
        hit = cache.probe(index, tag)
        if hit:
            cache.counters.update(index, taken)
        elif taken != choice_taken:
            # Allocate an exception entry when the choice direction failed.
            cache.tags[index] = tag
            cache.counters.set_direction(index, taken)
        # The choice table trains except when it was (rightly) overridden:
        # standard YAGS policy — don't destroy a good bias because the
        # exception cache handled the outlier.
        if not (hit and cache.counters.taken(index) == taken and choice_taken != taken):
            self.choice.update(choice_index, taken)

    def update(self, pc: int, history: int, taken: bool, predicted: bool) -> None:
        state = (self._choice_index(pc), self._cache_index(pc, history), self._cache_tag(pc))
        self.update_packed(pc, history, taken, predicted, state)

    def storage_bits(self) -> int:
        return (
            self.choice.storage_bits()
            + self.t_cache.storage_bits()
            + self.nt_cache.storage_bits()
        )

    def reset(self) -> None:
        super().reset()
        self.choice.reset()
        self.t_cache.reset()
        self.nt_cache.reset()

@dataclass(frozen=True)
class YagsParams:
    """Geometry schema for :class:`YagsPredictor`."""

    choice_entries: int = 4096
    cache_entries: int = 1024
    history_length: int = 12
    tag_bits: int = 8

    def build(self) -> YagsPredictor:
        return YagsPredictor(
            self.choice_entries, self.cache_entries, self.history_length, self.tag_bits
        )


register_predictor(
    "yags",
    YagsParams,
    YagsParams.build,
    critic_capable=True,  # exception caches are indexed with the supplied history
    summary="bimodal choice + tagged exception caches (Eden & Mudge, 1998)",
)
