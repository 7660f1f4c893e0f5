"""Base interface for direction predictors.

Design notes
------------

Predictors are *table machines*: they map a (PC, history value) pair to a
taken/not-taken prediction, and they learn from (PC, history value, actual
outcome) triples. The history register itself lives **outside** the
predictor — in the prophet's BHR or the critic's BOR — so the same class
can be used:

* as a standalone predictor (the paper's "prophet alone" baselines),
* as a prophet inside a hybrid (speculatively-updated BHR), or
* as a critic (BOR mixing history and future bits).

``update`` always receives the history value *that was used at prediction
time*; the engine is responsible for carrying it from prediction to commit,
which is exactly what hardware does by storing it with the in-flight branch.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field


@dataclass
class PredictorStats:
    """Lifetime accuracy counters, kept by every predictor."""

    predictions: int = 0
    correct: int = 0
    extra: dict = field(default_factory=dict)

    @property
    def mispredicts(self) -> int:
        return self.predictions - self.correct

    @property
    def accuracy(self) -> float:
        """Fraction of predictions that were correct (1.0 when unused)."""
        if self.predictions == 0:
            return 1.0
        return self.correct / self.predictions

    def record(self, was_correct: bool) -> None:
        self.predictions += 1
        if was_correct:
            self.correct += 1


class DirectionPredictor(abc.ABC):
    """Abstract conditional-branch direction predictor.

    Subclasses must implement :meth:`predict`, :meth:`update` and
    :meth:`storage_bits`. ``history_length`` announces how many history
    bits the predictor consumes; the engine sizes the BHR/BOR to the
    maximum over all components.

    Packed calls
    ------------

    Hot-loop callers (the simulation kernels and the prediction systems)
    predict with ``predict_packed(pc, history) -> (prediction, state)``
    and train with ``update_packed(pc, history, taken, predicted,
    state)``. The state is an opaque value capturing whatever pure
    function of ``(pc, history)`` the predictor computes on both sides —
    table indices, hashes, folded histories — so commit-time training
    skips recomputing it. The defaults here carry no state and call
    :meth:`predict`/:meth:`update`; overrides must read *mutable*
    structures (counters, tags, usefulness) afresh at update time: only
    pure derivations may ride in the state, keeping packed and classic
    paths bit-for-bit identical.

    Per-prediction accounting in :attr:`stats` can be switched off by
    setting :attr:`stats_enabled` — throughput harnesses do — and every
    ``update``/``update_packed`` must honour the flag.
    """

    #: Number of history bits consumed from the supplied history value.
    history_length: int = 0

    #: Human-readable short name, used in experiment tables.
    name: str = "predictor"

    #: When False, update() skips PredictorStats accounting entirely.
    stats_enabled: bool = True

    def __init__(self) -> None:
        self.stats = PredictorStats()

    @abc.abstractmethod
    def predict(self, pc: int, history: int) -> bool:
        """Predict the direction of the branch at ``pc``.

        ``history`` is the current value of the caller's history register
        (bit 0 = most recent outcome).
        """

    @abc.abstractmethod
    def update(self, pc: int, history: int, taken: bool, predicted: bool) -> None:
        """Train on the resolved branch.

        ``history`` must be the value passed to :meth:`predict` for this
        dynamic instance, and ``predicted`` the direction this predictor
        returned. Implementations should call ``self.stats.record``.
        """

    def predict_packed(self, pc: int, history: int) -> tuple:
        """:meth:`predict` plus the state :meth:`update_packed` reuses."""
        return self.predict(pc, history), None

    def update_packed(
        self, pc: int, history: int, taken: bool, predicted: bool, state
    ) -> None:
        """:meth:`update` given :meth:`predict_packed`'s ``state``."""
        self.update(pc, history, taken, predicted)

    @abc.abstractmethod
    def storage_bits(self) -> int:
        """Modelled hardware budget in bits (tables, tags, weights)."""

    def storage_bytes(self) -> float:
        """Modelled hardware budget in bytes."""
        return self.storage_bits() / 8.0

    def reset(self) -> None:
        """Clear learned state (default: re-construct stats only)."""
        self.stats = PredictorStats()

    def __getstate__(self) -> dict:
        """Pickle without batched-kernel table caches.

        The batched kernel memoizes constant lookup tables on predictor
        instances as numpy ndarrays under ``*_np`` attributes (see
        ``sim.batched._np_table``). They are derivable constants, so
        shipping them with pool chunks or cache entries would bloat
        every pickle by megabytes — and would make predictor pickles
        depend on whether a batched run happened to touch the object
        first. Dropped here; rebuilt lazily on first batched use.
        """
        return {
            key: value
            for key, value in self.__dict__.items()
            if not key.endswith("_np")
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.storage_bits() / 8192.0:.1f}KB h={self.history_length}>"
