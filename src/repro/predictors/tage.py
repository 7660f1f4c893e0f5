"""TAGE predictor (Seznec & Michaud, 2006) — extension for the ablations.

The paper's conclusion (§9) urges experimenting with newer components; the
design that ultimately superseded prophet/critic hybrids is TAGE, so the
repository carries a compact but faithful implementation: a bimodal base
plus N partially-tagged components indexed with geometrically increasing
history lengths, usefulness counters, and allocate-on-mispredict. The
ablation bench compares a prophet/critic hybrid against a TAGE of equal
budget (`experiments.ablations`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.predictors.base import DirectionPredictor
from repro.predictors.registry import register_predictor
from repro.utils.bitops import fold_bits, mask
from repro.utils.hashing import mix64


@dataclass
class _TageEntry:
    tag: int = 0
    ctr: int = 0  # signed 3-bit: -4..3; >= 0 predicts taken
    useful: int = 0  # 0..3
    valid: bool = False


class _TageComponent:
    """One partially-tagged TAGE bank."""

    def __init__(self, entries: int, tag_bits: int, history_length: int) -> None:
        if entries & (entries - 1):
            raise ValueError("entries must be a power of two")
        self.entries = entries
        self.index_bits = entries.bit_length() - 1
        self.tag_bits = tag_bits
        self.history_length = history_length
        self.table = [_TageEntry() for _ in range(entries)]

    def index(self, pc: int, history: int) -> int:
        folded = fold_bits(history, self.history_length, self.index_bits)
        return ((pc >> 2) ^ (pc >> (2 + self.index_bits)) ^ folded) & mask(self.index_bits)

    def tag(self, pc: int, history: int) -> int:
        folded = fold_bits(history, self.history_length, self.tag_bits)
        folded2 = fold_bits(history, self.history_length, self.tag_bits - 1) << 1
        return ((pc >> 2) ^ folded ^ folded2) & mask(self.tag_bits)

    def storage_bits(self) -> int:
        # tag + 3-bit ctr + 2-bit useful + valid
        return self.entries * (self.tag_bits + 3 + 2 + 1)


class TagePredictor(DirectionPredictor):
    """TAGE with a bimodal base and geometric tagged components."""

    name = "tage"

    def __init__(
        self,
        n_components: int = 6,
        base_entries: int = 4096,
        component_entries: int = 1024,
        min_history: int = 5,
        max_history: int = 130,
        tag_bits: int = 9,
        seed: int = 0x7A6E,
    ) -> None:
        super().__init__()
        if n_components < 1:
            raise ValueError("TAGE needs at least one tagged component")
        self.base_entries = base_entries
        self._base_bits = base_entries.bit_length() - 1
        if base_entries & (base_entries - 1):
            raise ValueError("base_entries must be a power of two")
        self._base = [2] * base_entries  # 2-bit counters, weakly not-taken
        # Geometric history series L_i = min * (max/min)^(i/(n-1)).
        self.components: list[_TageComponent] = []
        for i in range(n_components):
            if n_components == 1:
                length = min_history
            else:
                ratio = (max_history / min_history) ** (i / (n_components - 1))
                length = max(1, int(round(min_history * ratio)))
            self.components.append(_TageComponent(component_entries, tag_bits, length))
        self.history_length = self.components[-1].history_length
        self._seed = seed
        self._alloc_state = mix64(seed)

    # -- base bimodal ---------------------------------------------------------

    def _base_index(self, pc: int) -> int:
        return (pc >> 2) & mask(self._base_bits)

    def _base_predict(self, pc: int) -> bool:
        return self._base[self._base_index(pc)] >= 2

    def _base_update(self, pc: int, taken: bool) -> None:
        idx = self._base_index(pc)
        value = self._base[idx]
        if taken and value < 3:
            self._base[idx] = value + 1
        elif not taken and value > 0:
            self._base[idx] = value - 1

    # -- provider search --------------------------------------------------------
    #
    # Component indices and tags are pure (pc, history) hashes built from
    # multi-step history folds — by far the predictor's per-branch cost.
    # The packed state memoises them (tags lazily: a tag is only hashed
    # when some lookup needs it) so that commit-time training, which must
    # re-run the provider search against *current* table contents, reuses
    # every fold computed at prediction time.

    def _hash_state(self, pc: int, history: int) -> tuple[list[int], list[int | None]]:
        indices = [comp.index(pc, history) for comp in self.components]
        tags: list[int | None] = [None] * len(self.components)
        return indices, tags

    def _tag_of(self, i: int, pc: int, history: int, tags: list[int | None]) -> int:
        tag = tags[i]
        if tag is None:
            tag = self.components[i].tag(pc, history)
            tags[i] = tag
        return tag

    def _find_cached(
        self, pc: int, history: int, indices: list[int], tags: list[int | None]
    ) -> tuple[int | None, int | None]:
        """Provider search against current tables, memoised hashes."""
        provider = None
        alternate = None
        for i in range(len(self.components) - 1, -1, -1):
            entry = self.components[i].table[indices[i]]
            if entry.valid and entry.tag == self._tag_of(i, pc, history, tags):
                if provider is None:
                    provider = i
                else:
                    alternate = i
                    break
        return provider, alternate

    def _find(self, pc: int, history: int) -> tuple[int | None, int | None]:
        """Return (provider component idx, alternate component idx)."""
        indices, tags = self._hash_state(pc, history)
        return self._find_cached(pc, history, indices, tags)

    def predict(self, pc: int, history: int) -> bool:
        pred, _state = self.predict_packed(pc, history)
        return pred

    def predict_packed(self, pc: int, history: int):
        state = self._hash_state(pc, history)
        indices, tags = state
        provider, _alternate = self._find_cached(pc, history, indices, tags)
        if provider is None:
            return self._base_predict(pc), state
        entry = self.components[provider].table[indices[provider]]
        return entry.ctr >= 0, state

    # -- update ------------------------------------------------------------------

    def update_packed(
        self, pc: int, history: int, taken: bool, predicted: bool, state
    ) -> None:
        if self.stats_enabled:
            self.stats.record(predicted == taken)
        indices, tags = state
        # Re-run the provider search against current table contents:
        # allocations/evictions by other in-flight branches may have
        # changed validity or tags since prediction time.
        provider, alternate = self._find_cached(pc, history, indices, tags)

        if provider is None:
            provider_pred = self._base_predict(pc)
            alt_pred = provider_pred
        else:
            provider_pred = self.components[provider].table[indices[provider]].ctr >= 0
            if alternate is not None:
                alt_pred = self.components[alternate].table[indices[alternate]].ctr >= 0
            else:
                alt_pred = self._base_predict(pc)

        # Train the provider (or the base when no component hit).
        if provider is None:
            self._base_update(pc, taken)
        else:
            entry = self.components[provider].table[indices[provider]]
            if taken and entry.ctr < 3:
                entry.ctr += 1
            elif not taken and entry.ctr > -4:
                entry.ctr -= 1
            # Usefulness: the provider proved its worth when it beat the alt.
            if provider_pred != alt_pred:
                if provider_pred == taken and entry.useful < 3:
                    entry.useful += 1
                elif provider_pred != taken and entry.useful > 0:
                    entry.useful -= 1
            if alternate is None and provider == 0:
                self._base_update(pc, taken)

        # Allocate a longer-history entry on a provider mispredict.
        if provider_pred != taken:
            start = (provider + 1) if provider is not None else 0
            self._allocate(start, pc, history, taken, indices, tags)

    def update(self, pc: int, history: int, taken: bool, predicted: bool) -> None:
        self.update_packed(pc, history, taken, predicted, self._hash_state(pc, history))

    def _allocate(
        self,
        start: int,
        pc: int,
        history: int,
        taken: bool,
        indices: list[int],
        tags: list[int | None],
    ) -> None:
        candidates = []
        for i in range(start, len(self.components)):
            entry = self.components[i].table[indices[i]]
            if not entry.valid or entry.useful == 0:
                candidates.append(i)
        if not candidates:
            # Pressure release: age everything on the allocation path.
            for i in range(start, len(self.components)):
                entry = self.components[i].table[indices[i]]
                if entry.useful > 0:
                    entry.useful -= 1
            return
        # Prefer shorter histories with 2/3 probability (standard TAGE).
        self._alloc_state = mix64(self._alloc_state)
        pick = candidates[0]
        if len(candidates) > 1 and (self._alloc_state & 3) == 3:
            pick = candidates[1]
        entry = self.components[pick].table[indices[pick]]
        entry.valid = True
        entry.tag = self._tag_of(pick, pc, history, tags)
        entry.ctr = 0 if taken else -1
        entry.useful = 0

    def storage_bits(self) -> int:
        return self.base_entries * 2 + sum(c.storage_bits() for c in self.components)

    def reset(self) -> None:
        super().reset()
        self._base = [2] * self.base_entries
        for comp in self.components:
            comp.table = [_TageEntry() for _ in range(comp.entries)]
        self._alloc_state = mix64(self._seed)

@dataclass(frozen=True)
class TageParams:
    """Geometry schema for :class:`TagePredictor` (defaults ≈ 12KB; the
    8KB Table-3-style preset in :mod:`repro.predictors.budget` uses
    ``component_entries=512``)."""

    n_components: int = 6
    base_entries: int = 4096
    component_entries: int = 1024
    min_history: int = 5
    max_history: int = 130
    tag_bits: int = 9
    seed: int = 0x7A6E

    def build(self) -> TagePredictor:
        return TagePredictor(
            self.n_components,
            self.base_entries,
            self.component_entries,
            self.min_history,
            self.max_history,
            self.tag_bits,
            self.seed,
        )


register_predictor(
    "tage",
    TageParams,
    TageParams.build,
    critic_capable=True,
    summary="bimodal base + geometric tagged components (Seznec & Michaud, 2006)",
)
