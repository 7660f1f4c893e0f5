"""Small statistics helpers shared by metrics and experiment reporting."""

from __future__ import annotations


def percent_reduction(baseline: float, improved: float) -> float:
    """Return the percent reduction from ``baseline`` to ``improved``.

    Positive values mean ``improved`` is lower (better, for mispredict
    rates). Returns 0.0 when the baseline is zero.
    """
    if baseline == 0:
        return 0.0
    return 100.0 * (baseline - improved) / baseline


def speedup_percent(baseline: float, improved: float) -> float:
    """Return the percent speedup of ``improved`` over ``baseline``."""
    if baseline == 0:
        return 0.0
    return 100.0 * (improved - baseline) / baseline
