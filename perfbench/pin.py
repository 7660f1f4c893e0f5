#!/usr/bin/env python3
"""Regenerate perfbench/digests.json, the outputs the benchmark checks.

    python3 perfbench/pin.py

Experiments are rendered with the scalar kernel (the reference the
batched kernel must match bit for bit); serve-sweep cells are computed
exactly as the daemon computes them, from the same job payloads, and
pinned by the digest of their ``encode_result`` document. Re-pin only
when a change is meant to alter results, and say so in its description.
"""

from __future__ import annotations

import json
import sys

from common import DIGESTS, SRC, document_digest, text_digest

sys.path.insert(0, str(SRC))


def experiment_digests() -> dict[str, str]:
    from figures import EXPERIMENTS, SCALE
    from repro.experiments import run_experiment
    from repro.sim.driver import set_default_backend
    from repro.sim.execution import SweepEngine

    set_default_backend("scalar")
    digests = {}
    for calls in EXPERIMENTS.values():
        for experiment_id, kwargs in calls.items():
            result = run_experiment(experiment_id, scale=SCALE, engine=SweepEngine(), **kwargs)
            digests[experiment_id] = text_digest(result.render())
            print(f"pinned {experiment_id}", file=sys.stderr)
    return digests


def serve_cell_digests() -> dict[str, str]:
    from repro.sim.cache import encode_result
    from repro.sim.execution import make_engine
    from repro.sim.sweepconfig import cells_from_job
    from serve_sweep import BENCHMARKS, BRANCHES, DAEMON_JOBS, SYSTEMS, Job, cell_key

    digests = {}
    with make_engine(jobs=DAEMON_JOBS) as engine:
        for branches in BRANCHES:
            cells, _meta = cells_from_job(Job(tuple(SYSTEMS), BENCHMARKS, branches).payload())
            for cell, result in zip(cells, engine.run_cells(cells)):
                key = cell_key(cell.system_label, cell.bench_name, branches)
                digests[key] = document_digest(encode_result(result))
            print(f"pinned serve cells at {branches} branches", file=sys.stderr)
    return digests


def main() -> int:
    document = {
        "experiments": experiment_digests(),
        "serve_cells": serve_cell_digests(),
    }
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
