"""Prediction systems: the prophet/critic hybrid and the single-predictor baseline.

A *prediction system* owns the speculative history registers and the
predictor tables. The batched accuracy kernel and the timing model fuse
its operations into their replay loops; the object API below is the
same machine one event at a time, as the frozen reference loops
(``tests/reference_kernel.py``, ``tests/reference_timing.py``) drive it,
mirroring the hardware events of §3 and §5:

``predict(pc)``
    Prophet predicts at fetch; the prediction is speculatively inserted
    into the BHR (and the critic's BOR) and an in-flight handle is
    returned carrying the checkpoints (§3.2, §3.3).
``critique(handle)``
    Critic re-predicts once the required future bits are in the BOR. The
    handle records the BOR value used — including any wrong-path bits —
    because commit-time training must reuse exactly that value (§3.3).
``apply_redirect(handle, final)``
    Critic disagreed: repair BHR/BOR to the branch's checkpoint and insert
    the final prediction; the front end re-fetches down the other edge (§5).
``resolve(handle, taken)`` / ``recover(handle, taken)``
    Commit-time, in program order: train the pattern tables
    non-speculatively; on a resolved mispredict restore the checkpoints
    and insert the actual outcome (§3.2, §3.3).

Prophets and unfiltered critics are driven through their packed calls,
``predict_packed``/``update_packed`` (pure index/hash state carried on
the handle from fetch to commit; the base predictor's defaults carry
none), and filtered critics through ``lookup``/``train``. Packed and
classic calls are bit-for-bit identical; the differential kernel tests
enforce that.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.core.critiques import CritiqueKind
from repro.core.history import HistoryRegister
from repro.predictors.base import DirectionPredictor


@dataclass(slots=True)
class InflightBranch:
    """Everything a dynamic branch carries between fetch and commit."""

    pc: int
    prophet_pred: bool
    bhr_before: int
    bor_before: int
    #: Sequence number of this branch's BOR insertion (caller-managed).
    seq: int = 0
    #: BTB miss: no dynamic prediction was made (implicit not-taken).
    is_static: bool = False
    #: Filled in by critique().
    critiqued: bool = False
    final_pred: bool = False
    critic_hit: bool = False
    critic_pred: bool | None = None
    bor_at_critique: int = 0
    #: Opaque walker snapshot; only the frozen reference loops
    #: (tests/reference_kernel.py, tests/reference_timing.py) set it.
    walker_snapshot: object = None
    #: Prophet packed state (pure hash/index data from predict time).
    prophet_state: object = None
    #: Unfiltered-critic packed state (pure, from critique time).
    critic_state: object = None
    #: uops fetched with this branch's block (the frozen timing loop in
    #: tests/reference_timing.py keeps it; TimedMachine has no handles).
    uops_hint: int = 1

    def critique_kind(self, taken: bool) -> CritiqueKind:
        """Classify this branch for the §7.3 census (after resolution)."""
        prophet_correct = self.prophet_pred == taken
        agreed = self.critic_pred == self.prophet_pred if self.critic_hit else True
        return CritiqueKind.classify(prophet_correct, self.critic_hit, agreed)


class PredictionSystem(abc.ABC):
    """Driver-facing interface shared by baselines and hybrids."""

    #: Future bits the critic waits for (0 = conventional-hybrid timing).
    future_bits: int = 0

    @abc.abstractmethod
    def predict(self, pc: int) -> InflightBranch:
        """Prophet prediction at fetch (speculative register update)."""

    @abc.abstractmethod
    def predict_static(self, pc: int) -> InflightBranch:
        """BTB miss: implicit not-taken, no register update, no training."""

    @abc.abstractmethod
    def critique(self, handle: InflightBranch) -> bool:
        """Produce the final prediction for the handle (sets handle fields)."""

    @abc.abstractmethod
    def apply_redirect(self, handle: InflightBranch, final: bool) -> None:
        """Critic disagreement: repair registers to the handle's checkpoint."""

    @abc.abstractmethod
    def resolve(self, handle: InflightBranch, taken: bool) -> None:
        """Commit: train tables non-speculatively, in program order."""

    @abc.abstractmethod
    def recover(self, handle: InflightBranch, taken: bool) -> None:
        """Resolved mispredict: restore checkpoints, insert actual outcome."""

    @abc.abstractmethod
    def storage_bits(self) -> int:
        """Total modelled hardware budget."""

    def set_stats_enabled(self, enabled: bool) -> None:
        """Toggle per-prediction PredictorStats accounting (default on)."""

    def reset(self) -> None:
        """Clear learned and speculative state."""


class SinglePredictorSystem(PredictionSystem):
    """A conventional predictor with a speculatively-updated BHR.

    This is the paper's "prophet alone" baseline: same fetch-time
    speculative history insertion, same commit-time training, same
    checkpoint repair — just no critic.
    """

    future_bits = 0

    def __init__(self, predictor: DirectionPredictor) -> None:
        self.predictor = predictor
        self.bhr = HistoryRegister(max(predictor.history_length, 1))
        self._predict_packed = predictor.predict_packed
        self._update_packed = predictor.update_packed

    def predict(self, pc: int) -> InflightBranch:
        bhr = self.bhr
        bhr_before = bhr._value
        pred, state = self._predict_packed(pc, bhr_before)
        bhr._value = ((bhr_before << 1) | pred) & bhr._mask
        return InflightBranch(pc, pred, bhr_before, 0, prophet_state=state)

    def predict_static(self, pc: int) -> InflightBranch:
        return InflightBranch(pc, False, self.bhr._value, 0, is_static=True)

    def critique(self, handle: InflightBranch) -> bool:
        handle.critiqued = True
        handle.final_pred = handle.prophet_pred
        handle.critic_hit = False
        return handle.final_pred

    def apply_redirect(self, handle: InflightBranch, final: bool) -> None:  # pragma: no cover
        raise RuntimeError("single-predictor systems never disagree with themselves")

    def resolve(self, handle: InflightBranch, taken: bool) -> None:
        if handle.is_static:
            return
        self._update_packed(
            handle.pc, handle.bhr_before, taken, handle.prophet_pred, handle.prophet_state
        )

    def recover(self, handle: InflightBranch, taken: bool) -> None:
        self.bhr.restore(handle.bhr_before)
        self.bhr.insert(taken)

    def storage_bits(self) -> int:
        return self.predictor.storage_bits()

    def set_stats_enabled(self, enabled: bool) -> None:
        self.predictor.stats_enabled = enabled

    def reset(self) -> None:
        self.predictor.reset()
        self.bhr.clear()


class ProphetCriticSystem(PredictionSystem):
    """The paper's hybrid: prophet + BOR-fed critic with future bits.

    ``future_bits`` counts the branch's own prophet prediction as the
    first future bit (§7.1: "The first future bit is the prophet's
    prediction for the branch"), so a critique with F future bits is
    generated once the prophet has predicted this branch and the F-1 that
    follow it. ``future_bits=0`` reproduces the conventional-hybrid
    baseline of Figure 5 where the critic sees only history.

    Critics come in two shapes:

    * **filtered** (exposes ``lookup``/``train``: tagged gshare, filtered
      perceptron) — a tag miss is an implicit agree; training inserts on
      final-mispredict (§4);
    * **unfiltered** (plain :class:`DirectionPredictor`) — critiques every
      branch and trains on every branch (§7.2, Figure 6a).
    """

    def __init__(
        self,
        prophet: DirectionPredictor,
        critic: DirectionPredictor,
        future_bits: int = 8,
        insert_on: str = "final",
    ) -> None:
        if future_bits < 0:
            raise ValueError("future_bits must be non-negative")
        if insert_on not in ("final", "prophet"):
            raise ValueError("insert_on must be 'final' or 'prophet'")
        self.prophet = prophet
        self.critic = critic
        self.future_bits = future_bits
        #: Filter allocation trigger: the paper inserts on a (final)
        #: mispredict with a tag miss (§4); "prophet" is the ablation that
        #: inserts whenever the *prophet* was wrong even if the critic
        #: already fixed it.
        self.insert_on = insert_on
        self._insert_on_final = insert_on == "final"
        self.bhr = HistoryRegister(max(prophet.history_length, 1))
        self.bor = HistoryRegister(max(critic.history_length, future_bits, 1))
        self._critic_is_filtered = hasattr(critic, "lookup") and hasattr(critic, "train")
        self._prophet_predict_packed = prophet.predict_packed
        self._prophet_update_packed = prophet.update_packed
        self._critic_predict_packed = critic.predict_packed
        self._critic_update_packed = critic.update_packed

    # -- fetch ------------------------------------------------------------------

    def predict(self, pc: int) -> InflightBranch:
        bhr = self.bhr
        bor = self.bor
        bhr_before = bhr._value
        bor_before = bor._value
        pred, state = self._prophet_predict_packed(pc, bhr_before)
        # Speculative insertion: the prophet's prediction enters both its
        # own history and the critic's BOR (never the critic's output, §3.2).
        bit = 1 if pred else 0
        bhr._value = ((bhr_before << 1) | bit) & bhr._mask
        bor._value = ((bor_before << 1) | bit) & bor._mask
        return InflightBranch(pc, pred, bhr_before, bor_before, prophet_state=state)

    def predict_static(self, pc: int) -> InflightBranch:
        return InflightBranch(
            pc, False, self.bhr._value, self.bor._value, is_static=True
        )

    # -- critique ------------------------------------------------------------------

    def critique(self, handle: InflightBranch) -> bool:
        handle.critiqued = True
        if handle.is_static:
            handle.final_pred = False
            handle.critic_hit = False
            return False
        # With F >= 1 the BOR now holds this branch's own prediction plus
        # the F-1 that followed; with F == 0 the critic sees exactly what
        # the prophet saw (conventional-hybrid information timing).
        bor_value = self.bor._value if self.future_bits >= 1 else handle.bor_before
        handle.bor_at_critique = bor_value
        if self._critic_is_filtered:
            result = self.critic.lookup(handle.pc, bor_value)
            handle.critic_hit = result.hit
            handle.critic_pred = result.prediction
            final = result.prediction if result.hit else handle.prophet_pred
        else:
            pred, handle.critic_state = self._critic_predict_packed(handle.pc, bor_value)
            handle.critic_hit = True
            handle.critic_pred = pred
            final = pred
        handle.final_pred = final
        return final

    def apply_redirect(self, handle: InflightBranch, final: bool) -> None:
        """Critic override: repair both registers to the critique point.

        The final prediction is inserted as the branch's speculative
        outcome and the prophet is redirected down that path (§5). The
        handle keeps its original ``bor_at_critique`` — commit-time
        training must see the wrong-path future bits (§3.3).
        """
        bhr = self.bhr
        bor = self.bor
        bit = 1 if final else 0
        bhr._value = ((handle.bhr_before << 1) | bit) & bhr._mask
        bor._value = ((handle.bor_before << 1) | bit) & bor._mask

    # -- commit ------------------------------------------------------------------

    def resolve(self, handle: InflightBranch, taken: bool) -> None:
        if handle.is_static:
            return
        self._prophet_update_packed(
            handle.pc, handle.bhr_before, taken, handle.prophet_pred, handle.prophet_state
        )
        if not handle.critiqued:
            # Flushed before critique would mean never resolved; reaching
            # here implies a caller sequencing bug.
            raise RuntimeError("resolving a branch that was never critiqued")
        if self._insert_on_final:
            final_mispredict = handle.final_pred != taken
        else:
            final_mispredict = handle.prophet_pred != taken
        if self._critic_is_filtered:
            self.critic.train(handle.pc, handle.bor_at_critique, taken, final_mispredict)
        else:
            self._critic_update_packed(
                handle.pc, handle.bor_at_critique, taken,
                bool(handle.critic_pred), handle.critic_state,
            )

    def recover(self, handle: InflightBranch, taken: bool) -> None:
        bhr = self.bhr
        bor = self.bor
        bit = 1 if taken else 0
        bhr._value = ((handle.bhr_before << 1) | bit) & bhr._mask
        bor._value = ((handle.bor_before << 1) | bit) & bor._mask

    def storage_bits(self) -> int:
        return self.prophet.storage_bits() + self.critic.storage_bits()

    def set_stats_enabled(self, enabled: bool) -> None:
        self.prophet.stats_enabled = enabled
        self.critic.stats_enabled = enabled

    def reset(self) -> None:
        self.prophet.reset()
        self.critic.reset()
        self.bhr.clear()
        self.bor.clear()
