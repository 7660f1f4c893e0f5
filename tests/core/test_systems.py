"""Tests for the prediction systems (single and prophet/critic)."""

import pytest

from repro.core import ProphetCriticSystem, SinglePredictorSystem
from repro.core.critiques import CritiqueKind
from repro.predictors import GsharePredictor, PerceptronPredictor, TaggedGsharePredictor


def make_hybrid(future_bits=4, critic=None):
    prophet = GsharePredictor(1024, 10)
    critic = critic or TaggedGsharePredictor(sets=64, ways=4, history_length=12)
    return ProphetCriticSystem(prophet, critic, future_bits=future_bits)


class TestSinglePredictorSystem:
    def test_speculative_bhr_update(self):
        system = SinglePredictorSystem(GsharePredictor(256, 8))
        handle = system.predict(0x4000)
        assert system.bhr.bit(0) == int(handle.prophet_pred)

    def test_critique_is_identity(self):
        system = SinglePredictorSystem(GsharePredictor(256, 8))
        handle = system.predict(0x4000)
        final = system.critique(handle)
        assert final == handle.prophet_pred
        assert handle.critiqued

    def test_recover_restores_and_inserts_actual(self):
        system = SinglePredictorSystem(GsharePredictor(256, 8))
        handle = system.predict(0x4000)
        system.predict(0x4004)
        system.recover(handle, taken=not handle.prophet_pred)
        expected = ((handle.bhr_before << 1) | int(not handle.prophet_pred)) & 0xFF
        assert system.bhr.value == expected

    def test_resolve_trains_predictor(self):
        system = SinglePredictorSystem(GsharePredictor(256, 8))
        handle = system.predict(0x4000)
        system.critique(handle)
        system.resolve(handle, taken=True)
        assert system.predictor.stats.predictions == 1

    def test_static_handles_do_not_train(self):
        system = SinglePredictorSystem(GsharePredictor(256, 8))
        handle = system.predict_static(0x4000)
        system.critique(handle)
        system.resolve(handle, taken=True)
        assert system.predictor.stats.predictions == 0

    def test_redirect_forbidden(self):
        system = SinglePredictorSystem(GsharePredictor(256, 8))
        handle = system.predict(0x4000)
        with pytest.raises(RuntimeError):
            system.apply_redirect(handle, True)

    def test_reset(self):
        system = SinglePredictorSystem(GsharePredictor(256, 8))
        system.predict(0x4000)
        system.reset()
        assert system.bhr.value == 0


class TestProphetCriticSystem:
    def test_prediction_enters_both_registers(self):
        system = make_hybrid()
        handle = system.predict(0x4000)
        assert system.bhr.bit(0) == int(handle.prophet_pred)
        assert system.bor.bit(0) == int(handle.prophet_pred)

    def test_bor_never_sees_critic_output(self):
        """§3.2: critic predictions are not inserted into the BOR."""
        system = make_hybrid(future_bits=1)
        handle = system.predict(0x4000)
        bor_after_predict = system.bor.value
        system.critique(handle)
        assert system.bor.value == bor_after_predict

    def test_critique_uses_future_bits(self):
        system = make_hybrid(future_bits=3)
        handle = system.predict(0x4000)
        system.predict(0x4010)
        system.predict(0x4020)
        system.critique(handle)
        assert handle.bor_at_critique == system.bor.value

    def test_zero_future_bits_uses_pre_insert_bor(self):
        """fb=0 reproduces conventional-hybrid information timing."""
        system = make_hybrid(future_bits=0)
        handle = system.predict(0x4000)
        system.critique(handle)
        assert handle.bor_at_critique == handle.bor_before

    def test_filter_miss_agrees_implicitly(self):
        system = make_hybrid(future_bits=1)
        handle = system.predict(0x4000)
        final = system.critique(handle)
        assert not handle.critic_hit
        assert final == handle.prophet_pred

    def test_redirect_repairs_registers(self):
        system = make_hybrid(future_bits=1)
        handle = system.predict(0x4000)
        system.predict(0x4010)
        system.apply_redirect(handle, final=not handle.prophet_pred)
        width_mask = (1 << system.bhr.width) - 1
        expected = ((handle.bhr_before << 1) | int(not handle.prophet_pred)) & width_mask
        assert system.bhr.value == expected

    def test_recover_inserts_actual(self):
        system = make_hybrid(future_bits=1)
        handle = system.predict(0x4000)
        system.recover(handle, taken=True)
        assert system.bor.bit(0) == 1

    def test_resolving_uncritiqued_handle_raises(self):
        system = make_hybrid()
        handle = system.predict(0x4000)
        with pytest.raises(RuntimeError):
            system.resolve(handle, taken=True)

    def test_critic_trained_with_captured_bor(self):
        """§3.3: training must reuse the wrong-path BOR from critique time."""
        system = make_hybrid(future_bits=2)
        handle = system.predict(0x4000)
        system.predict(0x4010)
        system.critique(handle)
        captured = handle.bor_at_critique
        # Mispredict: registers repaired, BOR moves on...
        system.recover(handle, taken=not handle.prophet_pred)
        system.predict(0x4020)
        # ...but training still uses the captured value.
        system.resolve(handle, taken=not handle.prophet_pred)
        critic = system.critic
        result = critic.lookup(0x4000, captured)
        assert result.hit  # insert-on-mispredict used the captured context

    def test_unfiltered_critic_always_has_opinion(self):
        critic = PerceptronPredictor(32, 12)
        system = ProphetCriticSystem(GsharePredictor(256, 8), critic, future_bits=1)
        handle = system.predict(0x4000)
        system.critique(handle)
        assert handle.critic_hit
        assert handle.critic_pred is not None

    def test_insert_on_policies(self):
        assert make_hybrid().insert_on == "final"
        with pytest.raises(ValueError):
            ProphetCriticSystem(
                GsharePredictor(256, 8),
                TaggedGsharePredictor(sets=16, ways=2),
                insert_on="sometimes",
            )

    def test_negative_future_bits_rejected(self):
        with pytest.raises(ValueError):
            make_hybrid(future_bits=-1)

    def test_storage_is_sum(self):
        system = make_hybrid()
        assert system.storage_bits() == (
            system.prophet.storage_bits() + system.critic.storage_bits()
        )

    def test_critique_kind_classification(self):
        system = make_hybrid(future_bits=1)
        handle = system.predict(0x4000)
        system.critique(handle)
        kind = handle.critique_kind(taken=handle.prophet_pred)
        assert kind in (CritiqueKind.CORRECT_NONE, CritiqueKind.CORRECT_AGREE)

    def test_reset_clears_everything(self):
        system = make_hybrid(future_bits=1)
        handle = system.predict(0x4000)
        system.critique(handle)
        system.resolve(handle, taken=not handle.prophet_pred)
        system.reset()
        assert system.bor.value == 0
        assert not system.critic.lookup(0x4000, 0).hit
