"""Tests for statistics helpers."""

import math

from repro.utils.statistics import percent_reduction, speedup_percent


class TestPercentMetrics:
    def test_percent_reduction(self):
        assert math.isclose(percent_reduction(2.0, 1.0), 50.0)

    def test_percent_reduction_zero_baseline(self):
        assert percent_reduction(0.0, 1.0) == 0.0

    def test_percent_reduction_negative_when_worse(self):
        assert percent_reduction(1.0, 2.0) == -100.0

    def test_speedup(self):
        assert math.isclose(speedup_percent(1.0, 1.078), 7.8)

    def test_speedup_zero_baseline(self):
        assert speedup_percent(0.0, 5.0) == 0.0
