"""Filtered perceptron — the paper's second critic (§4, Table 3).

An ordinary perceptron predictor paired with an N-way associative table of
tags. The perceptron output and the tag lookup proceed in parallel; the
critic's prediction is offered only on a tag hit. A tag miss is an
implicit agreement with the prophet.

Table 3 gives the filter a fixed 18-bit slice of the BOR for its hashes
while the perceptron may read a longer slice (its history length), which
is why the two structures take separate history widths here.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.predictors.base import DirectionPredictor
from repro.predictors.filtering import TagFilter
from repro.predictors.perceptron import PerceptronPredictor
from repro.predictors.registry import register_predictor
from repro.predictors.tagged_gshare import CritiqueLookup
from repro.utils.hashing import index_hash, tag_hash


class FilteredPerceptronPredictor(DirectionPredictor):
    """Perceptron + tag filter, offered as a critic or standalone predictor."""

    name = "filtered-perceptron"

    def __init__(
        self,
        n_perceptrons: int,
        history_length: int,
        filter_sets: int,
        filter_ways: int = 3,
        filter_history_length: int = 18,
        tag_bits: int = 9,
    ) -> None:
        super().__init__()
        if filter_history_length < 0:
            raise ValueError(
                f"filter_history_length must be non-negative, got {filter_history_length}"
            )
        self.perceptron = PerceptronPredictor(n_perceptrons, history_length)
        self.filter = TagFilter(filter_sets, filter_ways, tag_bits)
        self.filter_history_length = filter_history_length
        self.tag_bits = tag_bits
        self.history_length = max(history_length, filter_history_length)

    @property
    def stats_enabled(self) -> bool:
        """One flag for the critic and its inner perceptron, whose
        ``update`` keeps its own stats."""
        return self.perceptron.stats_enabled

    @stats_enabled.setter
    def stats_enabled(self, enabled: bool) -> None:
        self.perceptron.stats_enabled = enabled

    def _set_index(self, pc: int, history: int) -> int:
        return index_hash(pc, history, self.filter.set_bits, self.filter_history_length)

    def _tag(self, pc: int, history: int) -> int:
        return tag_hash(pc, history, self.tag_bits, self.filter_history_length)

    # -- critic interface ------------------------------------------------------

    def lookup(self, pc: int, history: int) -> CritiqueLookup:
        """Parallel tag probe + perceptron compute; opinion only on hit."""
        way = self.filter.lookup(self._set_index(pc, history), self._tag(pc, history))
        if way is None:
            return CritiqueLookup(hit=False, prediction=None)
        return CritiqueLookup(hit=True, prediction=self.perceptron.predict(pc, history))

    def train(self, pc: int, history: int, taken: bool, final_mispredict: bool) -> None:
        """Train on hits; allocate (and prime the perceptron) on mispredict+miss."""
        set_index = self._set_index(pc, history)
        tag = self._tag(pc, history)
        way = self.filter.probe(set_index, tag)
        if way is not None:
            predicted = self.perceptron.predict(pc, history)
            if self.stats_enabled:
                self.stats.record(predicted == taken)
            self.perceptron.update(pc, history, taken, predicted)
            self.filter._touch(set_index, way)
            return
        if final_mispredict:
            self.filter.insert(set_index, tag)
            # Initialise the prediction structure toward the outcome, the
            # perceptron analogue of setting a counter weakly taken/not.
            predicted = self.perceptron.predict(pc, history)
            self.perceptron.update(pc, history, taken, predicted)

    # -- standalone DirectionPredictor interface -------------------------------

    def predict(self, pc: int, history: int) -> bool:
        result = self.lookup(pc, history)
        if result.hit:
            return bool(result.prediction)
        return True

    def update(self, pc: int, history: int, taken: bool, predicted: bool) -> None:
        self.train(pc, history, taken, final_mispredict=(predicted != taken))

    def storage_bits(self) -> int:
        return self.perceptron.storage_bits() + self.filter.storage_bits()

    def reset(self) -> None:
        super().reset()
        self.perceptron.reset()
        self.filter.reset()

@dataclass(frozen=True)
class FilteredPerceptronParams:
    """Geometry schema for :class:`FilteredPerceptronPredictor` (Table-3 8KB)."""

    n_perceptrons: int = 163
    history_length: int = 24
    filter_sets: int = 512
    filter_ways: int = 3
    filter_history_length: int = 18
    tag_bits: int = 9

    def build(self) -> FilteredPerceptronPredictor:
        return FilteredPerceptronPredictor(
            self.n_perceptrons,
            self.history_length,
            self.filter_sets,
            self.filter_ways,
            self.filter_history_length,
            self.tag_bits,
        )


register_predictor(
    "filtered-perceptron",
    FilteredPerceptronParams,
    FilteredPerceptronParams.build,
    critic_capable=True,
    summary="perceptron behind a tagged filter (the paper's best critic)",
)
