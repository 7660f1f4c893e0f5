"""Behavioural tests shared across the table-based predictors.

Each predictor should (a) learn simple biases, (b) learn history-correlated
patterns when given history, and (c) report plausible storage budgets.
"""

import pytest

from repro.predictors import (
    AlwaysNotTakenPredictor,
    AlwaysTakenPredictor,
    BimodalPredictor,
    GAsPredictor,
    GsharePredictor,
    LocalHistoryPredictor,
    TournamentPredictor,
    TwoBcGskewPredictor,
    YagsPredictor,
)

HIST_MASK = (1 << 63) - 1


def drive(predictor, outcome_fn, n=3000, pcs=(0x4000,), warmup_frac=0.25):
    """Run a predictor over a synthetic stream; return post-warmup accuracy."""
    hist = 0
    correct = 0
    counted = 0
    warmup = int(n * warmup_frac)
    for i in range(n):
        pc = pcs[i % len(pcs)]
        taken = outcome_fn(i, hist)
        pred = predictor.predict(pc, hist)
        if i >= warmup:
            correct += int(pred == taken)
            counted += 1
        predictor.update(pc, hist, taken, pred)
        hist = ((hist << 1) | int(taken)) & HIST_MASK
    return correct / counted


class TestStaticPredictors:
    def test_always_taken(self):
        p = AlwaysTakenPredictor()
        acc = drive(p, lambda i, h: True, n=100)
        assert acc == 1.0
        assert p.storage_bits() == 0

    def test_always_not_taken(self):
        p = AlwaysNotTakenPredictor()
        acc = drive(p, lambda i, h: i % 2 == 0, n=1000)
        assert 0.4 < acc < 0.6

    def test_stats_accumulate(self):
        p = AlwaysTakenPredictor()
        drive(p, lambda i, h: i % 4 != 0, n=400)
        assert p.stats.predictions == 400
        assert 0.7 < p.stats.accuracy < 0.8


class TestBimodal:
    def test_learns_bias(self):
        p = BimodalPredictor(1024)
        assert drive(p, lambda i, h: True) > 0.99

    def test_cannot_learn_alternation_pattern(self):
        """Bimodal has no history: a 50/50 alternating branch stays ~50%."""
        p = BimodalPredictor(1024)
        acc = drive(p, lambda i, h: i % 2 == 0)
        assert acc < 0.7

    def test_distinguishes_pcs(self):
        p = BimodalPredictor(1024)
        hist = 0
        for _ in range(500):
            for pc, taken in ((0x4000, True), (0x4004, False)):
                pred = p.predict(pc, hist)
                p.update(pc, hist, taken, pred)
        assert p.predict(0x4000, 0)
        assert not p.predict(0x4004, 0)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            BimodalPredictor(1000)

    def test_storage(self):
        assert BimodalPredictor(8192).storage_bits() == 16384


class TestGshare:
    def test_learns_periodic_pattern(self):
        p = GsharePredictor(4096, 12)
        assert drive(p, lambda i, h: i % 5 != 0) > 0.95

    def test_learns_history_correlation(self):
        # Outcome equals the outcome 3 branches ago.
        p = GsharePredictor(4096, 12)
        acc = drive(p, lambda i, h: bool((h >> 2) & 1))
        assert acc > 0.95

    def test_history_length_capped_by_index(self):
        with pytest.raises(ValueError):
            GsharePredictor(1024, 20)

    def test_storage_matches_table3(self):
        assert GsharePredictor(8 * 1024, 13).storage_bytes() == 2048

    def test_multiple_branches_share_table(self):
        p = GsharePredictor(256, 8)
        acc = drive(p, lambda i, h: i % 3 == 0, pcs=tuple(0x4000 + 4 * k for k in range(16)))
        assert acc > 0.8


class TestGAs:
    def test_learns_pattern(self):
        p = GAsPredictor(history_length=8, set_bits=4)
        assert drive(p, lambda i, h: i % 4 != 0) > 0.95

    def test_learns_mixed_stream_with_few_sets(self):
        """Even with only 4 PC sets, history carries the pattern."""
        n_pcs = 64
        pcs = tuple(0x4000 + 4 * k for k in range(n_pcs))

        def outcome(i, h):
            return (i + (i // n_pcs)) % 3 != 0

        gas = GAsPredictor(history_length=8, set_bits=2)
        assert drive(gas, outcome, n=6000, pcs=pcs) > 0.9

    def test_rejects_zero_index(self):
        with pytest.raises(ValueError):
            GAsPredictor(history_length=0, set_bits=0)


class TestLocal:
    def test_learns_per_branch_period(self):
        p = LocalHistoryPredictor(256, 10)
        assert drive(p, lambda i, h: i % 7 != 0) > 0.95

    def test_local_history_tracks_each_pc(self):
        p = LocalHistoryPredictor(256, 4)
        for _ in range(8):
            p.update(0x4000, 0, True, True)
            p.update(0x4004, 0, False, False)
        assert p.local_history(0x4000) == 0b1111
        assert p.local_history(0x4004) == 0

    def test_storage_includes_first_level(self):
        p = LocalHistoryPredictor(256, 10)
        assert p.storage_bits() == 256 * 10 + (1 << 10) * 2


class TestTournament:
    def _make(self):
        return TournamentPredictor(
            BimodalPredictor(1024),
            GsharePredictor(1024, 10),
            chooser_entries=1024,
        )

    def test_learns_simple_bias(self):
        assert drive(self._make(), lambda i, h: True, n=1000) > 0.99

    def test_chooser_picks_history_component_for_patterns(self):
        p = self._make()
        acc = drive(p, lambda i, h: bool((h >> 1) & 1))
        assert acc > 0.9

    def test_storage_sums_components(self):
        p = self._make()
        expected = (
            p.component_a.storage_bits() + p.component_b.storage_bits() + p.chooser.storage_bits()
        )
        assert p.storage_bits() == expected

    def test_rejects_bad_chooser_size(self):
        with pytest.raises(ValueError):
            TournamentPredictor(BimodalPredictor(64), BimodalPredictor(64), chooser_entries=100)


class TestTwoBcGskew:
    def test_learns_bias(self):
        p = TwoBcGskewPredictor(1024, 10)
        assert drive(p, lambda i, h: True, n=1000) > 0.99

    def test_learns_history_pattern(self):
        p = TwoBcGskewPredictor(2048, 11)
        assert drive(p, lambda i, h: bool((h >> 3) & 1)) > 0.9

    def test_beats_gshare_under_aliasing_pressure(self):
        """The de-aliased design should beat same-size gshare when many
        noisy-but-biased branches pollute the shared table (§6 claim).

        With 10% random flips the global history is noise, so gshare
        scatters each branch across its whole table while 2Bc-gskew's
        PC-indexed BIM bank (selected by META) captures the per-branch
        bias cleanly.
        """
        from repro.utils.rng import site_hash_outcome

        pcs = tuple(0x8000 + 64 * k for k in range(96))

        def outcome(i, h):
            slot = i % len(pcs)
            base = slot % 2 == 0
            flip = site_hash_outcome(7, slot, i // len(pcs), 0.10)
            return base != flip

        gskew = TwoBcGskewPredictor(256, 8)   # 4 × 256 × 2 bits = 2Kbit
        gsh = GsharePredictor(1024, 10)       # same total 2Kbit budget
        acc_gskew = drive(gskew, outcome, n=10000, pcs=pcs)
        acc_gsh = drive(gsh, outcome, n=10000, pcs=pcs)
        assert acc_gskew > acc_gsh

    def test_table3_budget(self):
        assert TwoBcGskewPredictor(2 * 1024, 11).storage_bytes() == 2048

    def test_meta_selects_bimodal_for_stable_branches(self):
        p = TwoBcGskewPredictor(512, 9)
        hist = 0
        pc = 0x4000
        for _ in range(2000):
            taken = True
            pred = p.predict(pc, hist)
            p.update(pc, hist, taken, pred)
            hist = ((hist << 1) | 1) & HIST_MASK
        assert p.bim.taken(p._bim_index(pc))


class TestYags:
    def test_learns_bias(self):
        p = YagsPredictor(1024, 256, 8)
        assert drive(p, lambda i, h: True, n=1000) > 0.99

    def test_exception_cache_learns_outliers(self):
        """A branch mostly taken but with a history-determined exception."""
        p = YagsPredictor(1024, 1024, 10)
        acc = drive(p, lambda i, h: (i % 8) != 0)
        assert acc > 0.9

    def test_storage_counts_caches(self):
        p = YagsPredictor(1024, 256, 8, tag_bits=8)
        assert p.storage_bits() == 1024 * 2 + 2 * 256 * (8 + 2)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            YagsPredictor(1000, 256, 8)


class TestGeometryRejections:
    """A geometry a predictor cannot run is a ValueError naming the field
    at construction, so a sweep config carrying it is refused at submit:
    a negative history used to run as if it were zero under another
    content hash, and an empty local history table failed inside the
    kernel with an IndexError."""

    @pytest.mark.parametrize(
        ("kind", "params", "field"),
        [
            ("gshare", {"entries": 1024, "history_length": -1}, "history_length"),
            ("gshare", {"entries": 1024, "history_length": -5}, "history_length"),
            ("2bc-gskew", {"entries_per_table": 1024, "history_length": -1},
             "history_length"),
            ("tagged-gshare", {"sets": 64, "history_length": -1}, "history_length"),
            ("yags", {"history_length": -1}, "history_length"),
            ("yags", {"tag_bits": -1}, "tag_bits"),
            ("filtered-perceptron", {"filter_history_length": -1},
             "filter_history_length"),
            ("local", {"history_entries": 0, "local_history_length": 4},
             "history_entries"),
        ],
    )
    def test_rejects_bad_geometry_naming_the_field(self, kind, params, field):
        from repro.sim.specs import PredictorSpec

        with pytest.raises(ValueError, match=field):
            PredictorSpec(kind, params=params).build()

    @pytest.mark.parametrize(
        ("kind", "params"),
        [
            ("gshare", {"entries": 1024, "history_length": 0}),
            ("2bc-gskew", {"entries_per_table": 1024, "history_length": 0}),
            ("tagged-gshare", {"sets": 64, "history_length": 0}),
            ("yags", {"history_length": 0, "tag_bits": 0}),
            ("filtered-perceptron", {"filter_history_length": 0}),
            ("local", {"history_entries": 1, "local_history_length": 4}),
        ],
    )
    def test_accepts_the_boundary(self, kind, params):
        from repro.sim.specs import PredictorSpec

        predictor = PredictorSpec(kind, params=params).build()
        pred = predictor.predict(0x4000, 0b101)
        predictor.update(0x4000, 0b101, taken=not pred, predicted=pred)
