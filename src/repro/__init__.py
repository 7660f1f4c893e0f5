"""repro — reproduction of "Prophet/Critic Hybrid Branch Prediction" (ISCA 2004).

Public API highlights
---------------------

* :mod:`repro.predictors` — the conventional predictor zoo (gshare,
  2Bc-gskew, perceptron, tagged gshare, filtered perceptron, TAGE, …) and
  the paper's Table-3 hardware-budget configurations.
* :mod:`repro.core` — the prophet/critic hybrid itself.
* :mod:`repro.workloads` — synthetic-program substrate standing in for the
  paper's proprietary LIT traces.
* :mod:`repro.engine` — BTB/RAS and the architectural executor.
* :mod:`repro.sim` — functional accuracy simulation and metrics.
* :mod:`repro.pipeline` — Table-2 machine timing model (uPC), FTQ included.
* :mod:`repro.experiments` — one module per paper table/figure.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
