#!/usr/bin/env python3
"""Run one benchmark workload against this checkout and print its metrics.

    python3 perfbench/run.py --workload figures-accuracy --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` makes the traced run that splits the time by layer. The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it carries details (sample counts, the fallback census, build time per
benchmark). Workloads, metrics and bounds are listed in BENCHMARK.json
at the root of the checkout; perfbench/README.md says why.
"""

from __future__ import annotations

import argparse
import sys

from common import SRC, emit, load_digests, metric

WORKLOADS = ("figures-accuracy", "figures-timing", "serve-sweep")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    digests = load_digests()
    if args.workload == "serve-sweep":
        import serve_sweep as workload

        run_args = (args.seconds, args.seed, digests["serve_cells"])
    else:
        import figures as workload

        run_args = (args.workload, args.seconds, args.seed, digests["experiments"])
    if not args.trace:
        attempted, failed, metrics, details = workload.timed_run(*run_args)
    else:
        attempted, failed, summary, layers, details = workload.traced_run(*run_args)
        metrics = {name: metric(value, unit) for name, (value, unit) in layers.items()}
        details.update(
            fallback_cells_by_pair=summary["fallback_cells_by_pair"],
            batched_cells_by_pair=summary["batched_cells_by_pair"],
            build_s_by_benchmark=summary["build_s_by_benchmark"],
        )
    details["failed_frac"] = failed / attempted if attempted else 1.0
    emit(failed == 0 and attempted > 0, attempted, failed, metrics, details)
    return 0


if __name__ == "__main__":
    sys.exit(main())
