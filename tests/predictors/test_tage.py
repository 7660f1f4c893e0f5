"""Tests for the TAGE extension predictor."""

import pytest

from repro.predictors import TagePredictor
from repro.predictors.tage import INVALID
from tests.predictors.test_table_predictors import drive


class TestTage:
    def test_learns_bias(self):
        assert drive(TagePredictor(), lambda i, h: True, n=1000) > 0.99

    def test_learns_short_history_pattern(self):
        assert drive(TagePredictor(), lambda i, h: bool((h >> 2) & 1)) > 0.9

    def test_learns_long_history_pattern(self):
        """Correlation at distance ~60 needs a long-history component."""
        p = TagePredictor(n_components=6, min_history=5, max_history=130)
        acc = drive(p, lambda i, h: bool((h >> 60) & 1), n=12000)
        assert acc > 0.85

    def test_geometric_history_series(self):
        p = TagePredictor(n_components=5, min_history=4, max_history=64)
        lengths = [c.history_length for c in p.components]
        assert lengths == sorted(lengths)
        assert lengths[0] == 4
        assert lengths[-1] == 64

    def test_single_component(self):
        p = TagePredictor(n_components=1, min_history=8)
        assert p.components[0].history_length == 8

    def test_rejects_zero_components(self):
        with pytest.raises(ValueError):
            TagePredictor(n_components=0)

    def test_allocation_on_mispredict(self):
        p = TagePredictor(n_components=3, component_entries=64)
        # Before any training no component hits.
        provider, _ = p._find(0x4000, 0b1010)
        assert provider is None
        # A mispredict should allocate a tagged entry.
        pred = p.predict(0x4000, 0b1010)
        p.update(0x4000, 0b1010, taken=not pred, predicted=pred)
        provider, _ = p._find(0x4000, 0b1010)
        assert provider is not None

    def test_reset(self):
        p = TagePredictor(n_components=2, component_entries=64)
        pred = p.predict(0x4000, 0b1)
        p.update(0x4000, 0b1, taken=not pred, predicted=pred)
        p.reset()
        provider, _ = p._find(0x4000, 0b1)
        assert provider is None

    def test_storage_scales_with_components(self):
        small = TagePredictor(n_components=2, component_entries=128)
        large = TagePredictor(n_components=6, component_entries=128)
        assert large.storage_bits() > small.storage_bits()

    def test_usefulness_protects_entries(self):
        p = TagePredictor(n_components=2, component_entries=16)
        comp = p.components[0]
        comp.tags[0] = entry_tag = 0  # valid
        comp.useful[0] = 3
        # Allocation pressure: many mispredicts elsewhere should not
        # instantly evict a maximally-useful entry at a different index.
        for i in range(20):
            pc = 0x8000 + 64 * i
            pred = p.predict(pc, 0)
            p.update(pc, 0, taken=not pred, predicted=pred)
        assert comp.tags[0] != INVALID
        assert comp.tags[0] == entry_tag or comp.useful[0] == 0

    @pytest.mark.parametrize(
        ("params", "field"),
        [
            ({"min_history": 0}, "min_history"),
            ({"min_history": -3}, "min_history"),
            ({"min_history": 40, "max_history": 20}, "max_history"),
            ({"n_components": 1, "min_history": 8, "max_history": 4}, "max_history"),
            ({"tag_bits": 0}, "tag_bits"),
            ({"tag_bits": -1}, "tag_bits"),
            ({"component_entries": 0}, "component_entries"),
            ({"base_entries": 3}, "base_entries"),
        ],
    )
    def test_rejects_bad_geometry_naming_the_field(self, params, field):
        """A geometry the predictor cannot run is a ValueError naming the
        field, not a ZeroDivisionError or a silently odd history series."""
        with pytest.raises(ValueError, match=field):
            TagePredictor(**params)

    def test_accepts_the_smallest_geometry(self):
        p = TagePredictor(
            n_components=2, base_entries=1, component_entries=1,
            min_history=1, max_history=1, tag_bits=1,
        )
        assert [c.history_length for c in p.components] == [1, 1]
        pred = p.predict(0x4000, 0b1)
        p.update(0x4000, 0b1, taken=not pred, predicted=pred)
