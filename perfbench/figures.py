"""The paper-figure workloads: ``run_experiment`` over trimmed figure grids.

One *pass* runs the workload's experiment list the way ``repro run
--backend batched`` does in a fresh process: a new serial engine (so
every program build and every trace memo starts cold), no result cache,
and the batched kernel. Each experiment's ``render()`` text is checked
against its pinned digest. A run makes a fixed number of passes, set by
``--seconds`` and the nominal pass time below, so the parent and a
change always measure the same work.
"""

from __future__ import annotations

import random
import subprocess
import sys

from common import (
    ROOT,
    HostSpeed,
    clock,
    median,
    metric,
    own_peak_rss_mb,
    repro_env,
    run_limit,
    tail,
    text_digest,
)

#: The smallest window the experiments accept: 2 000 branches per cell.
SCALE = 0.125

#: Experiment id -> keyword arguments that trim its grid to fit a run.
#: The ids and arguments are the digest keys in digests.json.
EXPERIMENTS: dict[str, dict[str, dict]] = {
    # Replay kernels and program build dominate; figure5 keeps all six
    # of its programs, figure6a keeps cells the batched kernel declines
    # (unfiltered perceptron critic), ablation-tage a scalar-only prophet.
    "figures-accuracy": {
        "figure5": {"future_bits": (0, 8)},
        "figure6a": {"prophet_kbs": (4,), "critic_kbs": (8,), "future_bits": (None, 4, 12)},
        "ablation-filtering": {},
        "ablation-tage": {},
    },
    # TimedMachine.run dominates; the batched kernel and cache are idle.
    "figures-timing": {
        "figure9": {"benchmarks": ("gcc",), "prophets": ("2bc-gskew",), "future_bits": (4, 12)},
        "figure10": {"future_bits": (8,), "suites": ("INT00", "WEB", "SERV")},
        "headline": {},
    },
}

#: Host seconds budgeted for one pass, calibration included (a pass takes
#: 3.5 to 6 s on the reference machine, a 2-core x86 VM with CPython 3.11,
#: depending on how much other tenants slow it down); a run makes
#: ``round(seconds / NOMINAL_PASS_S)`` passes.
NOMINAL_PASS_S = {"figures-accuracy": 5.0, "figures-timing": 5.5}

#: Interpreter launches timed for ``setup_s``.
SETUP_SAMPLES = 5


def passes_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_PASS_S[workload]))


def measure_setup() -> float:
    """Median reference seconds for a fresh interpreter to import the stack."""
    code = "import repro.experiments, repro.sim.batched"
    speed = HostSpeed()
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = clock()
        subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=repro_env(), check=True,
        )
        samples.append((clock() - start) * speed.scale())
    return median(samples)


class PassMeter:
    """Counts one pass's cells and times their delivery.

    The engine reports each delivered cell through its ``progress``
    hook; the executor sees only the cells that are actually simulated
    (cache hits and in-grid duplicates never reach it). With a
    ``HostSpeed``, each delivery is followed by a calibration and the
    cell latencies are in reference seconds.
    """

    def __init__(self, speed: HostSpeed | None = None) -> None:
        self.delivered = 0
        self.simulated = 0
        self.sim_branches = 0
        self.cell_latencies: list[float] = []
        self.host_cells_s = 0.0
        self.speed = speed
        self.mark = clock()

    def engine(self):
        from repro.sim.execution import SerialExecutor, SweepEngine

        meter = self

        class MeteredExecutor(SerialExecutor):
            def map_cells(self, cells, *args, **kwargs):
                meter.simulated += len(cells)
                meter.sim_branches += sum(cell.config.n_branches for cell in cells)
                return super().map_cells(cells, *args, **kwargs)

        class MeteredEngine(SweepEngine):
            def run_cells(self, cells, progress=None):
                meter.mark = clock()
                return super().run_cells(cells, progress)

        def progress(_done, _total, _cell):
            host = clock() - self.mark
            scale = self.speed.scale() if self.speed is not None else 1.0
            self.cell_latencies.append(host * scale)
            self.host_cells_s += host
            self.delivered += 1
            self.mark = clock()

        return MeteredEngine(executor=MeteredExecutor(), progress=progress)

    def reference_seconds(self, host_seconds: float) -> float:
        """A calibrated pass in reference seconds: each cell at its own
        scale, the rest (grid assembly, render) at the pass's median."""
        between = host_seconds - self.speed.overhead_s - self.host_cells_s
        return sum(self.cell_latencies) + between * median(self.speed.scales)


def run_pass(workload: str, rng: random.Random, digests: dict, experiment=None, speed=None):
    """One cold pass in a seeded experiment order; returns
    ``(seconds, meter, attempted, failed)``.

    ``experiment(experiment_id, call)`` runs one experiment (the traced
    run passes a span-wrapped caller); ``speed`` calibrates each cell.
    """
    from repro.experiments import run_experiment

    calls = list(EXPERIMENTS[workload].items())
    rng.shuffle(calls)
    meter = PassMeter(speed)
    engine = meter.engine()
    attempted = failed = 0
    start = clock()
    for experiment_id, kwargs in calls:
        attempted += 1

        def call(experiment_id=experiment_id, kwargs=kwargs):
            return run_experiment(experiment_id, scale=SCALE, engine=engine, **kwargs).render()

        try:
            text = experiment(experiment_id, call) if experiment else call()
        except Exception as exc:  # a failed experiment is a failed operation
            print(f"{experiment_id}: {type(exc).__name__}: {exc}", file=sys.stderr)
            failed += 1
            continue
        if text_digest(text) != digests.get(experiment_id):
            print(f"{experiment_id}: render() differs from its pinned digest", file=sys.stderr)
            failed += 1
    seconds = clock() - start
    engine.close()
    return seconds, meter, attempted, failed


def timed_run(workload: str, seconds: float, seed: int, digests: dict):
    """The untraced run: set-up samples, then the passes, timed in
    reference seconds (see ``HostSpeed``)."""
    from repro.sim.driver import set_default_backend

    setup_s = measure_setup()
    set_default_backend("batched")
    rng = random.Random(seed)
    pass_seconds: list[float] = []
    host_seconds: list[float] = []
    scales: list[float] = []
    latencies: list[float] = []
    attempted = failed = 0
    meter = None
    deadline = clock() + run_limit(seconds)
    for _ in range(passes_for(workload, seconds)):
        elapsed, meter, tried, bad = run_pass(workload, rng, digests, speed=HostSpeed())
        pass_seconds.append(meter.reference_seconds(elapsed))
        host_seconds.append(elapsed - meter.speed.overhead_s)
        scales += meter.speed.scales
        latencies += meter.cell_latencies
        attempted += tried
        failed += bad
        if clock() > deadline:
            break
    wall = median(pass_seconds)
    tail_value, tail_pct, n_cells = tail(latencies)
    metrics = {
        "wall_s": metric(wall, "s"),
        "setup_s": metric(setup_s, "s"),
        "sim_branches_per_s": metric(meter.sim_branches / wall, "1/s"),
        "cells_per_s": metric(meter.delivered / wall, "1/s"),
        "job_latency_p50_s": metric(median(latencies), "s"),
        "job_latency_tail_s": metric(tail_value, "s"),
        "peak_rss_mb": metric(own_peak_rss_mb(), "MB"),
    }
    details = {
        "workload": workload,
        "host_speed_scale_median": median(scales),
        "host_pass_seconds": host_seconds,
        "passes": len(pass_seconds),
        "pass_seconds": pass_seconds,
        "cells_per_pass": meter.delivered,
        "simulated_cells_per_pass": meter.simulated,
        "job": "cell",
        "job_latency_tail_percentile": tail_pct,
        "job_latency_samples": n_cells,
    }
    return attempted, failed, metrics, details


def traced_run(workload: str, seconds: float, seed: int, digests: dict):
    """Untraced and traced passes of the same work, alternating."""
    from layers import Tracer, coverage, install, layer_self_s, per_layer_metrics, summarize
    from repro.sim.driver import set_default_backend
    from serve_sweep import serve_layer_metrics

    set_default_backend("batched")
    rng = random.Random(seed)
    tracer = Tracer()
    experiment = tracer.span("experiments.run", lambda _id, call: call())
    plain: list[float] = []
    traced: list[float] = []
    attempted = failed = 0
    # Alternate untraced and traced passes, so drift in host speed
    # does not land in the overhead estimate.
    for index in range(max(2, passes_for(workload, seconds))):
        if index % 2:
            install(tracer)
            try:
                elapsed, _meter, tried, bad = run_pass(
                    workload, rng, digests, experiment=experiment
                )
            finally:
                tracer.uninstall()
            traced.append(elapsed)
        else:
            elapsed, _meter, tried, bad = run_pass(workload, rng, digests)
            plain.append(elapsed)
        attempted += tried
        failed += bad
    summary = summarize(tracer)
    layers = layer_self_s(summary)
    traced_wall = sum(traced)
    covered = coverage(layers, "experiments", traced_wall)
    metrics = per_layer_metrics(summary)
    metrics.update(serve_layer_metrics([]))  # no daemon in this workload
    metrics.update({
        "trace.wall_s": (traced_wall, "s"),
        "trace.overhead_s": (median(traced) - median(plain), "s"),
        "trace.self_coverage": (covered, "ratio"),
    })
    return attempted, failed, summary, metrics, {
        "workload": workload,
        "untraced_pass_seconds": plain,
        "traced_pass_seconds": traced,
        "layer_self_s": layers,
        "unattributed_s": traced_wall * (1.0 - covered),
    }
