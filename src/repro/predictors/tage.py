"""TAGE predictor (Seznec & Michaud, 2006) — extension for the ablations.

The paper's conclusion (§9) urges experimenting with newer components; the
design that ultimately superseded prophet/critic hybrids is TAGE, so the
repository carries a compact but faithful implementation: a bimodal base
plus N partially-tagged components indexed with geometrically increasing
history lengths, usefulness counters, and allocate-on-mispredict. The
ablation bench compares a prophet/critic hybrid against a TAGE of equal
budget (`experiments.ablations`).

Each component keeps its entries as three flat lists, as the gskew and
gshare banks keep ``_raw`` counter lists: ``tags`` (``INVALID`` marks an
entry never allocated), ``ctrs`` (signed 3-bit, -4..3, >= 0 predicts
taken) and ``useful`` (0..3). The object API (``predict_packed`` /
``update_packed``) hashes with :func:`fold_bits` and is the oracle the
differential tests hold :class:`TageOps`, the batched kernel's fused
bundle over the same lists, to.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.predictors.base import DirectionPredictor
from repro.predictors.registry import register_predictor
from repro.utils.bitops import fold_bits, mask
from repro.utils.hashing import _GOLDEN64, _MASK64, mix64

#: Tag of an entry that was never allocated: no folded tag equals it.
INVALID = -1


class _TageComponent:
    """One partially-tagged TAGE bank: its geometry and its flat lists."""

    def __init__(self, entries: int, tag_bits: int, history_length: int) -> None:
        self.entries = entries
        self.index_bits = entries.bit_length() - 1
        self.tag_bits = tag_bits
        self.history_length = history_length
        self.tags = [INVALID] * entries
        self.ctrs = [0] * entries
        self.useful = [0] * entries

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
        for field, entries in (
            ("base_entries", base_entries), ("component_entries", component_entries)
        ):
            if entries < 1 or entries & (entries - 1):
                raise ValueError(f"{field} must be a power of two, got {entries}")
        if min_history < 1:
            raise ValueError(f"min_history must be at least 1, got {min_history}")
        if max_history < min_history:
            raise ValueError(
                f"max_history ({max_history}) must be at least min_history "
                f"({min_history})"
            )
        if tag_bits < 1:
            raise ValueError(f"tag_bits must be at least 1, got {tag_bits}")
        self.base_entries = base_entries
        self._base_bits = base_entries.bit_length() - 1
        self._base = [2] * base_entries  # 2-bit counters, weakly not-taken
        self.tag_bits = tag_bits
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
            stored = self.components[i].tags[indices[i]]
            if stored != INVALID and stored == self._tag_of(i, pc, history, tags):
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
        return self.components[provider].ctrs[indices[provider]] >= 0, state

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
            provider_pred = self.components[provider].ctrs[indices[provider]] >= 0
            if alternate is not None:
                alt_pred = self.components[alternate].ctrs[indices[alternate]] >= 0
            else:
                alt_pred = self._base_predict(pc)

        # Train the provider (or the base when no component hit).
        if provider is None:
            self._base_update(pc, taken)
        else:
            comp = self.components[provider]
            idx = indices[provider]
            ctr = comp.ctrs[idx]
            if taken and ctr < 3:
                comp.ctrs[idx] = ctr + 1
            elif not taken and ctr > -4:
                comp.ctrs[idx] = ctr - 1
            # Usefulness: the provider proved its worth when it beat the alt.
            if provider_pred != alt_pred:
                useful = comp.useful[idx]
                if provider_pred == taken and useful < 3:
                    comp.useful[idx] = useful + 1
                elif provider_pred != taken and useful > 0:
                    comp.useful[idx] = useful - 1
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
        comps = self.components
        candidates = [
            i for i in range(start, len(comps))
            if comps[i].tags[indices[i]] == INVALID or comps[i].useful[indices[i]] == 0
        ]
        if not candidates:
            # Pressure release: age everything on the allocation path.
            for i in range(start, len(comps)):
                useful = comps[i].useful
                if useful[indices[i]] > 0:
                    useful[indices[i]] -= 1
            return
        # Prefer shorter histories with 2/3 probability (standard TAGE).
        self._alloc_state = mix64(self._alloc_state)
        pick = candidates[0]
        if len(candidates) > 1 and (self._alloc_state & 3) == 3:
            pick = candidates[1]
        comp = comps[pick]
        idx = indices[pick]
        comp.tags[idx] = self._tag_of(pick, pc, history, tags)
        comp.ctrs[idx] = 0 if taken else -1
        comp.useful[idx] = 0

    def storage_bits(self) -> int:
        return self.base_entries * 2 + sum(c.storage_bits() for c in self.components)

    def reset(self) -> None:
        super().reset()
        self._base[:] = [2] * self.base_entries
        for comp in self.components:
            comp.tags[:] = [INVALID] * comp.entries
            comp.ctrs[:] = [0] * comp.entries
            comp.useful[:] = [0] * comp.entries
        self._alloc_state = mix64(self._seed)


# -- fused op bundle ----------------------------------------------------------
#
# The batched kernel predicts a TAGE at every fetch, wrong-path fill
# included (about five predicts per committed branch), and trains it once
# per resolve. ``TageOps`` binds the predictor's flat lists, so there is
# nothing to load or write back, and replaces the ``fold_bits`` loops with
# precomputed log-step plans: a fold of an L-bit value into w-bit chunks
# XORs the upper half of the chunks onto the lower half,
# ceil(log2(ceil(L / w))) times. The components share one index width, so
# all their index folds run as one: the history is multiplied into one
# lane per component, each lane masked to its component's history length
# and padded to a power-of-two count of chunks, and each log-step then
# halves every lane at once (SWAR). Tags are folded only for an entry
# that is valid, as the object API hashes them lazily.


def _fold_plan(length: int, width: int) -> tuple[int, tuple]:
    """``(history mask, steps)`` folding ``length`` history bits into
    ``width`` bits: ``x = history & mask``, then ``x = (x >> s) ^ (x & m)``
    per step gives ``fold_bits(history, length, width)``."""
    if width <= 0:
        return 0, ()
    steps = []
    chunks = -(-length // width)
    while chunks > 1:
        chunks = (chunks + 1) // 2
        steps.append((chunks * width, (1 << (chunks * width)) - 1))
    return mask(length), tuple(steps)


class TageOps:
    """Fused op bundle over one :class:`TagePredictor` (see the section
    comment), in the shape of :class:`~repro.predictors.perceptron.PerceptronOps`.

    Both ops take ``w = pc >> 2``. ``predict(w, history)`` is the bit
    ``predict_packed`` returns, searching from the longest component and
    stopping at the first tag hit. ``train(w, history, taken)`` is
    ``update_packed`` minus the stats: it recomputes the folds from the
    fetch-time history and re-runs the provider search against current
    tables. The ops read and write the predictor's own lists, so unlike
    the perceptron bundle there is nothing to write back.
    """

    __slots__ = ("predict", "train")

    def __init__(self, tage: TagePredictor) -> None:
        comps = tage.components
        n = len(comps)
        ib = comps[0].index_bits
        imask = mask(ib)
        tmask = mask(tage.tag_bits)
        base = tage._base
        bmask = mask(tage._base_bits)
        # SWAR index fold: lane i (from bit i * lane) holds component i's
        # history, in a power-of-two count of ib-bit chunks.
        hmask = mask(tage.history_length)
        lane = max(ib, 1)
        while lane < tage.history_length:
            lane *= 2
        rep = lanes = 0
        for i, comp in enumerate(comps):
            rep |= 1 << (i * lane)
            lanes |= mask(comp.history_length) << (i * lane)
        iplan = []
        half = lane // 2
        while ib and half >= ib:
            iplan.append((half, rep * mask(half)))
            half //= 2
        if not ib:
            rep = lanes = 0
        iplan = tuple(iplan)
        shifts = [i * lane for i in range(n)]
        tag_plans = [
            _fold_plan(c.history_length, tage.tag_bits)
            + _fold_plan(c.history_length, tage.tag_bits - 1)
            for c in comps
        ]
        tags = [c.tags for c in comps]
        ctrs = [c.ctrs for c in comps]
        useful = [c.useful for c in comps]
        # Longest component first, as the provider search runs.
        search = tuple(zip(range(n), shifts, tags, ctrs))[::-1]

        def index_lanes(w, history):
            """Every component's index, lane i at bit ``shifts[i]``."""
            v = ((history & hmask) * rep) & lanes
            for s, m in iplan:
                v = (v ^ (v >> s)) & m
            return v ^ ((w ^ (w >> ib)) & imask) * rep

        def tag_of(i, w, history):
            l1, p1, l2, p2 = tag_plans[i]
            x = history & l1
            for s, m in p1:
                x = (x >> s) ^ (x & m)
            y = history & l2
            for s, m in p2:
                y = (y >> s) ^ (y & m)
            return (w ^ x ^ (y << 1)) & tmask

        def predict(w, history):
            v = index_lanes(w, history)
            for i, sh, ctags, cctrs in search:
                idx = (v >> sh) & imask
                t = ctags[idx]
                if t >= 0 and t == tag_of(i, w, history):
                    return cctrs[idx] >= 0
            return base[w & bmask] >= 2

        def train(w, history, taken):
            v = index_lanes(w, history)
            idxs = [(v >> sh) & imask for sh in shifts]
            memo = [INVALID] * n
            provider = alternate = -1
            for i in range(n - 1, -1, -1):
                t = tags[i][idxs[i]]
                if t >= 0:
                    memo[i] = tag = tag_of(i, w, history)
                    if t == tag:
                        if provider < 0:
                            provider = i
                        else:
                            alternate = i
                            break
            bi = w & bmask
            if provider < 0:
                provider_pred = base[bi] >= 2
            else:
                idx = idxs[provider]
                pctrs = ctrs[provider]
                ctr = pctrs[idx]
                provider_pred = ctr >= 0
                if alternate >= 0:
                    alt_pred = ctrs[alternate][idxs[alternate]] >= 0
                else:
                    alt_pred = base[bi] >= 2
                if taken:
                    if ctr < 3:
                        pctrs[idx] = ctr + 1
                elif ctr > -4:
                    pctrs[idx] = ctr - 1
                if provider_pred != alt_pred:
                    pu = useful[provider]
                    u = pu[idx]
                    if provider_pred == taken:
                        if u < 3:
                            pu[idx] = u + 1
                    elif u > 0:
                        pu[idx] = u - 1
            # The base trains when no component hit, and alongside a
            # shortest-history provider that has no alternate.
            if provider < 0 or (provider == 0 and alternate < 0):
                bv = base[bi]
                if taken:
                    if bv < 3:
                        base[bi] = bv + 1
                elif bv > 0:
                    base[bi] = bv - 1
            if provider_pred == taken:
                return
            # Allocate a longer-history entry on a provider mispredict.
            candidates = [
                i for i in range(provider + 1, n)
                if tags[i][idxs[i]] < 0 or useful[i][idxs[i]] == 0
            ]
            if not candidates:
                for i in range(provider + 1, n):
                    cu = useful[i]
                    if cu[idxs[i]] > 0:
                        cu[idxs[i]] -= 1
                return
            # mix64(tage._alloc_state), inlined.
            a = (tage._alloc_state + _GOLDEN64) & _MASK64
            a = ((a ^ (a >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            a = ((a ^ (a >> 27)) * 0x94D049BB133111EB) & _MASK64
            tage._alloc_state = a = a ^ (a >> 31)
            pick = candidates[0]
            if len(candidates) > 1 and (a & 3) == 3:
                pick = candidates[1]
            idx = idxs[pick]
            tag = memo[pick]
            tags[pick][idx] = tag if tag >= 0 else tag_of(pick, w, history)
            ctrs[pick][idx] = 0 if taken else -1
            useful[pick][idx] = 0

        self.predict = predict
        self.train = train


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
