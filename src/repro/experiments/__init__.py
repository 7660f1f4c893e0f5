"""Experiment modules — one per table/figure of the paper's evaluation.

Each module exposes a ``run(...)`` returning an
:class:`~repro.experiments.base.ExperimentResult` whose rows/series mirror
what the paper plots. The registry in :mod:`repro.experiments.runner`
maps experiment ids ("figure5", "table4", …) to these functions; the
benchmark harness under ``benchmarks/`` calls them with a laptop-scale
default and honours ``REPRO_SCALE`` for longer runs.
"""

from repro.experiments.base import (
    BASE_BRANCHES,
    BASE_WARMUP,
    ExperimentResult,
    scaled_config,
)
from repro.experiments.runner import EXPERIMENTS, run_experiment

__all__ = [
    "BASE_BRANCHES",
    "BASE_WARMUP",
    "EXPERIMENTS",
    "ExperimentResult",
    "run_experiment",
    "scaled_config",
]
