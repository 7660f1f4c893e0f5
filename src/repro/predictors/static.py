"""Static (non-learning) predictors — baselines and test scaffolding."""

from __future__ import annotations

from dataclasses import dataclass

from repro.predictors.base import DirectionPredictor
from repro.predictors.registry import register_predictor


class AlwaysTakenPredictor(DirectionPredictor):
    """Predicts taken for every branch. Zero storage."""

    name = "always-taken"
    history_length = 0

    def predict(self, pc: int, history: int) -> bool:
        return True

    def update(self, pc: int, history: int, taken: bool, predicted: bool) -> None:
        if self.stats_enabled:
            self.stats.record(predicted == taken)

    def storage_bits(self) -> int:
        return 0


class AlwaysNotTakenPredictor(DirectionPredictor):
    """Predicts not-taken for every branch. Zero storage."""

    name = "always-not-taken"
    history_length = 0

    def predict(self, pc: int, history: int) -> bool:
        return False

    def update(self, pc: int, history: int, taken: bool, predicted: bool) -> None:
        if self.stats_enabled:
            self.stats.record(predicted == taken)

    def storage_bits(self) -> int:
        return 0


@dataclass(frozen=True)
class StaticParams:
    """Static predictors have no geometry; the schema is empty."""

    def build_taken(self) -> AlwaysTakenPredictor:
        return AlwaysTakenPredictor()

    def build_not_taken(self) -> AlwaysNotTakenPredictor:
        return AlwaysNotTakenPredictor()


register_predictor(
    "always-taken",
    StaticParams,
    StaticParams.build_taken,
    critic_capable=False,  # consults no history at all
    summary="static taken baseline (zero storage)",
)

register_predictor(
    "always-not-taken",
    StaticParams,
    StaticParams.build_not_taken,
    critic_capable=False,
    summary="static not-taken baseline (zero storage)",
)
