"""Command-line entry point: run any reproduced experiment.

Usage::

    python -m repro list
    python -m repro run figure5 --scale 2
    python -m repro run headline --jobs 8
    python -m repro --jobs 4 --cache-dir .repro-cache run figure6c
    python -m repro bench gcc --system hybrid --branches 100000
    python -m repro bench gcc --config sys.json
    python -m repro sweep --systems systems.json --benchmarks gcc,perl --jobs 4
    python -m repro trace record gcc --out traces/gcc.trace
    python -m repro trace replay traces/gcc.trace --jobs 2 --cache-dir .repro-cache
    python -m repro trace info traces/gcc.trace --verify

``run`` executes one registered experiment (see ``list``) and prints the
paper-style rows/series. ``bench`` runs a single benchmark under either
the 16KB 2Bc-gskew baseline, the 8+8 prophet/critic hybrid, or any
system described by a JSON config (``--config``) — the quickest way to
poke at a configuration. ``sweep`` runs an arbitrary grid: every system
in a JSON config file × every named benchmark, through the parallel
engine and result cache — the config-file door into the predictor
registry (see ``docs/CONFIG.md``). ``trace`` records a workload's
committed branch stream to a portable file, replays recorded traces
through any system (bit-for-bit identical to the live run), and
inspects/verifies trace files; see ``docs/CLI.md`` for the full
record → sweep → replay walkthrough.

Sweep execution knobs for ``run``, ``sweep`` and ``trace replay``
(accepted before or after the subcommand; ``bench`` simulates a single
cell, so they do not apply):

``--jobs N``
    Fan the sweep cells out over an N-process pool (results are
    bit-for-bit identical to ``--jobs 1``; see
    :mod:`repro.sim.execution`).
``--cache-dir PATH``
    Cache per-cell results on disk, keyed by a content hash of the cell
    spec; re-runs only simulate cells whose configuration changed.
``--no-cache``
    Ignore ``--cache-dir`` (useful when the dir comes from a wrapper
    script but a fresh run is wanted).
``--progress``
    Print one line per finished sweep cell to stderr (``[done/total]
    system × benchmark``) — cells stream in as they complete, so this is
    live feedback even for long pooled sweeps.
``--backend {scalar,batched}``
    Kernel backend for every cell (``bench`` accepts it too). The
    default, the batched structure-of-arrays kernel, is proven
    bit-identical to the scalar loop on every system and several times
    faster on most, so results and cache keys are unchanged either way.
    For ``serve`` it is the default of jobs that name no backend.

With ``--jobs N`` the worker pool is persistent: it spawns once and is
reused by every grid the invocation runs, and each worker memoizes
program builds, so a (many systems × few benchmarks) sweep compiles each
benchmark once per worker instead of once per cell. Combined with
``--cache-dir``, results are written to the cache as each cell finishes;
a killed sweep re-run with the same cache resumes from everything
already computed (see ``examples/sweep_resume.py``).
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from pathlib import Path

from repro.experiments import EXPERIMENTS, run_experiment
from repro.predictors import registered_predictors
from repro.sim import SimulationConfig, make_engine, oracle_replay, simulate
from repro.sim.execution import CellExecutionError, WorkerPoolError
from repro.sim.results import format_table, render_mapping
from repro.sim.specs import (
    SPEC_FORMAT_VERSION,
    ProgramSpec,
    SweepCell,
    SystemSpec,
)
from repro.sim.sweepconfig import (
    SweepConfigError,
    benchmarks_from_config,
    systems_from_config,
)
from repro.workloads import benchmark, benchmark_names
from repro.workloads.suites import SUITES
from repro.workloads.trace import record_trace
from repro.workloads.trace_io import (
    TraceFormatError,
    TraceReader,
    read_trace_header,
    verify_trace,
)


class _ConfigError(Exception):
    """A user-facing configuration problem (file, JSON or spec schema)."""


def _load_json(path: str, what: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise _ConfigError(f"{what}: cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _ConfigError(f"{what}: {path} is not valid JSON: {exc}") from exc


def _system_from_config_file(path: str) -> SystemSpec:
    payload = _load_json(path, "system config")
    try:
        spec = SystemSpec.from_config(payload)
        # Schema validation is eager, but geometry *values* (power-of-two
        # table sizes, history vs. index width, …) are checked by the
        # predictor constructors — exercise them once now so a bad config
        # is a clean error here, not a traceback mid-run or in a worker.
        spec.build()
    except (TypeError, ValueError, KeyError) as exc:
        raise _ConfigError(f"system config {path}: {exc}") from exc
    return spec


def _cmd_lint(args: argparse.Namespace) -> int:
    # Deferred import: the analysis package is pure stdlib, but every
    # other verb should not pay for loading the rule pack.
    from repro.analysis.cli import run_lint

    return run_lint(args)


def _cmd_list(_args: argparse.Namespace) -> int:
    print("experiments:")
    for name in sorted(EXPERIMENTS):
        print(f"  {name}")
    print("\nbenchmarks:")
    for name in benchmark_names():
        print(f"  {name}")
    print("\npredictor kinds (see docs/CONFIG.md):")
    for info in registered_predictors():
        role = "prophet+critic" if info.critic_capable else "prophet-only"
        print(f"  {info.kind:<21} {role:<15} {info.summary}")
    return 0


def _print_progress(done: int, total: int, cell) -> None:
    print(
        f"[{done}/{total}] {cell.system_label} × {cell.bench_name}",
        file=sys.stderr,
        flush=True,
    )


def _engine_from_args(args: argparse.Namespace):
    cache_dir = None if args.no_cache else args.cache_dir
    progress = _print_progress if getattr(args, "progress", False) else None
    return make_engine(jobs=args.jobs, cache_dir=cache_dir, progress=progress)


def _print_cache_stats(engine) -> None:
    if engine.cache is not None:
        print(
            f"cache: {engine.cache.hits} hit(s), {engine.cache.misses} miss(es) "
            f"under {engine.cache.root}",
            file=sys.stderr,
        )


def _cmd_run(args: argparse.Namespace) -> int:
    engine = _engine_from_args(args)
    try:
        result = run_experiment(args.experiment, scale=args.scale, engine=engine)
    except (CellExecutionError, WorkerPoolError) as exc:
        print(f"run: {exc}", file=sys.stderr)
        return 1
    print(result.render())
    _print_cache_stats(engine)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    try:
        spec = _system_spec_from_args(args)
    except _ConfigError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    config = SimulationConfig(n_branches=args.branches, warmup=args.branches // 5)
    stats = simulate(benchmark(args.benchmark), spec.build(), config)
    label = spec.default_label() if args.config else args.system
    print(render_mapping(f"{args.benchmark} / {label}", stats.summary()))
    if spec.kind == "hybrid":
        print(render_mapping("critique census", stats.census.as_dict()))
    return 0


def _system_spec_from_args(args: argparse.Namespace) -> SystemSpec:
    """The system spec the ``bench`` and ``trace replay`` verbs share.

    ``--config FILE`` (a JSON :meth:`SystemSpec.to_config` document, see
    docs/CONFIG.md) overrides the ``--system``/``--prophet``/``--critic``
    flag vocabulary and reaches every registered predictor at any
    geometry.
    """
    if getattr(args, "config", None):
        return _system_from_config_file(args.config)
    if args.system == "baseline":
        return SystemSpec.single("2bc-gskew", 16)
    return SystemSpec.hybrid(
        args.prophet, args.prophet_kb, args.critic, args.critic_kb, args.future_bits
    )


def _cmd_trace_record(args: argparse.Namespace) -> int:
    if (args.benchmark is None) == (args.suite is None):
        print("trace record: name exactly one benchmark or pass --suite", file=sys.stderr)
        return 2
    if args.branches < 1:
        print("trace record: --branches must be positive", file=sys.stderr)
        return 2
    names = [args.benchmark] if args.benchmark else list(SUITES[args.suite])
    out = Path(args.out)
    if len(names) > 1 or out.is_dir() or str(args.out).endswith(("/", ".")):
        paths = [out / f"{name}.trace" for name in names]
    else:
        paths = [out]
    for name, path in zip(names, paths):
        source = {"benchmark": name, "branches": args.branches}
        try:
            header = record_trace(benchmark(name), args.branches, path, source=source)
        except OSError as exc:
            print(f"trace record: cannot write {path}: {exc}", file=sys.stderr)
            return 1
        print(
            f"{path}: {header.record_count} branches, {header.total_uops} uops, "
            f"taken rate {header.taken_rate:.3f}, digest {header.digest[:12]}…"
        )
    return 0


def _cmd_trace_info(args: argparse.Namespace) -> int:
    status = 0
    for path in args.paths:
        try:
            header = verify_trace(path) if args.verify else read_trace_header(path)
        except (OSError, TraceFormatError) as exc:
            print(f"{path}: INVALID — {exc}", file=sys.stderr)
            status = 1
            continue
        payload = header.describe()
        if args.verify:
            payload["verified"] = "ok (digest and record count match)"
        print(render_mapping(str(path), payload))
    return status


def _cmd_trace_replay(args: argparse.Namespace) -> int:
    try:
        spec = _system_spec_from_args(args)
    except _ConfigError as exc:
        print(f"trace replay: {exc}", file=sys.stderr)
        return 2
    if args.oracle and spec.kind != "hybrid":
        print(
            "trace replay: --oracle evaluates a prophet/critic hybrid by "
            "construction; a single-predictor system (--system baseline, or "
            "a 'single' --config) is not applicable",
            file=sys.stderr,
        )
        return 2
    if args.oracle and (args.jobs > 1 or (args.cache_dir and not args.no_cache)):
        print(
            "trace replay: --oracle streams in-process; --jobs/--cache-dir "
            "are ignored",
            file=sys.stderr,
        )
    cells = []
    for path in args.paths:
        try:
            header = read_trace_header(path)
        except (OSError, TraceFormatError) as exc:
            print(f"{path}: {exc}", file=sys.stderr)
            return 2
        n_branches = header.record_count if args.branches is None else args.branches
        if n_branches < 1:
            print("trace replay: --branches must be positive", file=sys.stderr)
            return 2
        if n_branches > header.record_count:
            print(
                f"{path}: trace holds {header.record_count} branches; "
                f"cannot replay {n_branches}",
                file=sys.stderr,
            )
            return 2
        warmup = args.warmup if args.warmup is not None else n_branches // 5
        if warmup < 0 or warmup >= n_branches:
            print(
                f"trace replay: --warmup must be in [0, {n_branches}) to leave "
                "a measurement window",
                file=sys.stderr,
            )
            return 2
        config = SimulationConfig(n_branches=n_branches, warmup=warmup)
        if args.oracle:
            try:
                with TraceReader(path) as reader:
                    stats = oracle_replay(
                        itertools.islice(reader.records(), n_branches),
                        prophet=spec.prophet.build("prophet"),
                        critic=spec.critic.build("critic"),
                        future_bits=spec.future_bits,
                        warmup=warmup,
                    )
            except (OSError, TraceFormatError) as exc:
                print(f"{path}: INVALID — {exc}", file=sys.stderr)
                return 1
            print(render_mapping(f"{header.name} / oracle replay (§6 leak)", stats.summary()))
            continue
        cells.append(
            SweepCell(
                system_label=spec.default_label() if args.config else args.system,
                bench_name=header.name,
                system=spec,
                program=ProgramSpec(trace=path),
                config=config,
            )
        )
    if cells:
        engine = _engine_from_args(args)
        try:
            results = engine.run_cells(cells)
        except CellExecutionError as exc:
            # A valid header over a truncated/corrupt body surfaces from
            # inside a worker as a cell failure wrapping the trace error.
            if exc.caused_by("TraceFormatError", "OSError"):
                print(f"trace replay: INVALID trace — {exc.cause}", file=sys.stderr)
                return 1
            print(f"trace replay: {exc}", file=sys.stderr)
            return 1
        except WorkerPoolError as exc:
            print(f"trace replay: {exc}", file=sys.stderr)
            return 1
        except (OSError, TraceFormatError) as exc:
            print(f"trace replay: INVALID trace — {exc}", file=sys.stderr)
            return 1
        for cell, stats in zip(cells, results):
            print(render_mapping(f"{cell.bench_name} / {cell.system_label} (replayed)", stats.summary()))
        _print_cache_stats(engine)
    return 0


def _load_sweep_systems(path: str) -> dict[str, SystemSpec]:
    """Parse a ``--systems`` JSON file into labelled system specs.

    Three shapes are accepted: one system config object, a list of
    configs (labelled by :meth:`SystemSpec.default_label`), or a
    ``{label: config}`` mapping — the parsing itself lives in
    :mod:`repro.sim.sweepconfig`, shared with the sweep daemon's
    ``POST /jobs``.
    """
    payload = _load_json(path, "sweep systems")
    try:
        return systems_from_config(payload)
    except SweepConfigError as exc:
        raise _ConfigError(f"sweep systems: {path}: {exc}") from exc


def _sweep_benchmarks(arg: str, branches: int) -> list[tuple[str, ProgramSpec]]:
    """Parse ``--benchmarks``: comma-separated names and/or trace paths."""
    try:
        return benchmarks_from_config(arg, branches)
    except SweepConfigError as exc:
        raise _ConfigError(f"benchmarks: {exc}") from exc


def _render_sweep_table(labels, bench_names, result) -> str:
    """The ``sweep``/``submit`` verbs' shared misp/Kuops grid rendering."""
    headers = ["system (misp/Kuops)"] + list(bench_names) + ["AVG"]
    rows = []
    for label in labels:
        values = [result.get(label, name).misp_per_kuops for name in bench_names]
        rows.append(
            [label]
            + [f"{value:.3f}" for value in values]
            + [f"{sum(values) / len(values):.3f}"]
        )
    return format_table(headers, rows)


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.branches < 1:
        print("sweep: --branches must be positive", file=sys.stderr)
        return 2
    try:
        systems = _load_sweep_systems(args.systems)
        benchmarks = _sweep_benchmarks(args.benchmarks, args.branches)
    except _ConfigError as exc:
        print(f"sweep: {exc}", file=sys.stderr)
        return 2
    warmup = args.warmup if args.warmup is not None else args.branches // 5
    if warmup < 0 or warmup >= args.branches:
        print(
            f"sweep: --warmup must be in [0, {args.branches}) to leave a "
            "measurement window",
            file=sys.stderr,
        )
        return 2
    config = SimulationConfig(n_branches=args.branches, warmup=warmup)
    cells = [
        SweepCell(
            system_label=label,
            bench_name=bench_name,
            system=spec,
            program=program,
            config=config,
        )
        for bench_name, program in benchmarks
        for label, spec in systems.items()
    ]
    engine = _engine_from_args(args)
    try:
        result = engine.run(cells)
    except (CellExecutionError, WorkerPoolError) as exc:
        print(f"sweep: {exc}", file=sys.stderr)
        return 1
    bench_names = [name for name, _ in benchmarks]
    print(_render_sweep_table(list(systems), bench_names, result))
    if args.out:
        payload = {
            "format": SPEC_FORMAT_VERSION,
            "branches": args.branches,
            "warmup": warmup,
            "cells": [
                {
                    "system": cell.system_label,
                    "benchmark": cell.bench_name,
                    "system_config": cell.system.to_config(),
                    "content_hash": cell.content_hash(),
                    "summary": result.get(cell.system_label, cell.bench_name).summary(),
                }
                for cell in cells
            ],
        }
        with open(args.out, "w", encoding="utf-8") as fh:
            # allow_nan=False: fail loudly if any non-finite float sneaks
            # into a summary instead of silently emitting invalid JSON.
            json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")
        print(f"wrote {len(cells)} cell result(s) to {args.out}", file=sys.stderr)
    _print_cache_stats(engine)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve.daemon import ServeConfig, SweepDaemon

    if args.jobs < 1:
        print("serve: --jobs must be at least 1", file=sys.stderr)
        return 2
    if args.max_queue < 1:
        print("serve: --max-queue must be at least 1", file=sys.stderr)
        return 2
    cache_url = None if args.no_cache else args.cache_url
    if args.faults is not None:
        from repro.faults.plan import FaultPlanError, load_plan

        try:
            load_plan(args.faults)  # validate up front: fail fast, not mid-job
        except FaultPlanError as exc:
            print(f"serve: invalid fault plan: {exc}", file=sys.stderr)
            return 2
        print(
            f"serve: CHAOS MODE — injecting faults from {args.faults}",
            file=sys.stderr,
            flush=True,
        )
    config = ServeConfig(
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        cache_url=cache_url,
        max_queue=args.max_queue,
        job_timeout=args.job_timeout,
        fault_plan=args.faults,
    )
    daemon = SweepDaemon(config)

    def ready(d: SweepDaemon) -> None:
        # Parsed by the SIGTERM tests and by shell wrappers; printed to
        # stdout (and flushed) the instant the port is bound.
        print(f"serving on http://{config.host}:{d.port}", flush=True)
        cache = d.cache.root if d.cache is not None else "disabled (no dedup)"
        print(
            f"serve: engine jobs={config.jobs}, cache={cache}, "
            f"max queue={config.max_queue}",
            file=sys.stderr,
            flush=True,
        )

    try:
        asyncio.run(daemon.run(ready=ready))
    except OSError as exc:
        print(f"serve: cannot bind {config.host}:{config.port}: {exc}", file=sys.stderr)
        return 1
    print("serve: drained, exiting", file=sys.stderr)
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.serve.client import ServeError, SweepClient

    if args.branches < 1:
        print("submit: --branches must be positive", file=sys.stderr)
        return 2
    try:
        systems_payload = _load_json(args.systems, "sweep systems")
    except _ConfigError as exc:
        print(f"submit: {exc}", file=sys.stderr)
        return 2
    payload = {
        "systems": systems_payload,
        "benchmarks": args.benchmarks,
        "branches": args.branches,
    }
    if args.warmup is not None:
        payload["warmup"] = args.warmup
    if args.backend is not None:
        payload["backend"] = args.backend
    if args.priority:
        payload["priority"] = args.priority
    client = SweepClient(args.url)
    try:
        job_id = client.submit_payload(
            payload, retry_after_budget=args.retry_after_budget
        )
    except ServeError as exc:
        if exc.status == 429:
            print(
                f"submit: daemon queue is full ({exc.payload.get('queue_depth')}"
                f"/{exc.payload.get('max_queue')}); retry later",
                file=sys.stderr,
            )
        elif exc.status == 400:
            print(f"submit: rejected config — {exc.payload.get('error')}", file=sys.stderr)
        else:
            print(f"submit: {exc}", file=sys.stderr)
        return 2 if exc.status == 400 else 1
    except (OSError, ValueError) as exc:
        print(f"submit: cannot reach {args.url}: {exc}", file=sys.stderr)
        return 1
    print(f"submitted {job_id} to {args.url}", file=sys.stderr)
    if args.no_wait:
        print(job_id)
        return 0
    try:
        for event in client.events(job_id):
            if args.progress and event.get("event") == "cell":
                print(
                    f"[{event['done']}/{event['total']}] "
                    f"{event['system']} × {event['benchmark']}",
                    file=sys.stderr,
                    flush=True,
                )
        document = client.status(job_id)
    except (OSError, ServeError) as exc:
        print(f"submit: lost the daemon mid-job: {exc}", file=sys.stderr)
        return 1
    if document["state"] != "done":
        error = document.get("error") or {}
        print(
            f"submit: job {job_id} {document['state']}: "
            f"{error.get('error', 'unknown failure')}",
            file=sys.stderr,
        )
        if error.get("cause"):
            print(f"  cause: {error['cause']}", file=sys.stderr)
        return 1
    result = client.sweep_result(job_id)
    print(_render_sweep_table(document["labels"], document["benchmarks"], result))
    print(
        f"job {job_id}: {document['cells_executed']} simulated, "
        f"{document['cells_from_cache']} from cache, "
        f"{document['cells_deduped']} deduped",
        file=sys.stderr,
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(document, fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")
        print(f"wrote job document to {args.out}", file=sys.stderr)
    return 0


def _chaos_smoke_cells(branches: int) -> list[SweepCell]:
    """The canned ``chaos run`` grid: small, mixed, worker-crashable."""
    config = SimulationConfig(n_branches=branches, warmup=branches // 5)
    systems = {
        "baseline-4": SystemSpec.single("2bc-gskew", 4),
        "gshare-2": SystemSpec.single("gshare", 2),
    }
    return [
        SweepCell(label, bench, spec, ProgramSpec(benchmark=bench), config)
        for bench in ("swim", "gcc")
        for label, spec in systems.items()
    ]


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.faults.chaos import run_chaos_sweep
    from repro.faults.plan import FaultPlanError, load_plan

    try:
        plan = load_plan(args.faults)
    except FaultPlanError as exc:
        print(f"chaos: invalid fault plan: {exc}", file=sys.stderr)
        return 2
    if args.jobs < 1:
        print("chaos: --jobs must be at least 1", file=sys.stderr)
        return 2
    if args.chaos_command == "run":
        cells = _chaos_smoke_cells(args.branches)
    else:
        try:
            systems = _load_sweep_systems(args.systems)
            benchmarks = _sweep_benchmarks(args.benchmarks, args.branches)
        except _ConfigError as exc:
            print(f"chaos: {exc}", file=sys.stderr)
            return 2
        warmup = args.warmup if args.warmup is not None else args.branches // 5
        config = SimulationConfig(n_branches=args.branches, warmup=warmup)
        cells = [
            SweepCell(label, bench_name, spec, program, config)
            for bench_name, program in benchmarks
            for label, spec in systems.items()
        ]

    def progress(done: int, total: int, cell) -> None:
        print(
            f"[{done}/{total}] {cell.system_label} × {cell.bench_name}",
            file=sys.stderr,
            flush=True,
        )

    try:
        report = run_chaos_sweep(
            cells,
            plan,
            jobs=args.jobs,
            cache_dir=args.cache_dir,
            progress=progress if args.progress else None,
        )
    except ValueError as exc:
        print(f"chaos: {exc}", file=sys.stderr)
        return 2
    except (CellExecutionError, WorkerPoolError) as exc:
        print(f"chaos: sweep did not survive the plan: {exc}", file=sys.stderr)
        return 1
    print(f"chaos: {report.summary()}", file=sys.stderr)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report.to_config(), fh, indent=2, sort_keys=True,
                      allow_nan=False)
            fh.write("\n")
        print(f"wrote chaos report to {args.out}", file=sys.stderr)
    if not report.identical:
        print(
            f"chaos: {len(report.mismatches)} cell(s) diverged from the "
            "fault-free reference — recovery is NOT lossless",
            file=sys.stderr,
        )
        return 1
    return 0


def _add_system_options(parser: argparse.ArgumentParser) -> None:
    """Prediction-system selection shared by ``bench`` and ``trace replay``."""
    parser.add_argument("--system", choices=("baseline", "hybrid"), default="hybrid")
    parser.add_argument("--prophet", default="2bc-gskew")
    parser.add_argument("--prophet-kb", type=int, default=8)
    parser.add_argument("--critic", default="tagged-gshare")
    parser.add_argument("--critic-kb", type=int, default=8)
    parser.add_argument("--future-bits", type=int, default=8)
    parser.add_argument(
        "--config", metavar="FILE",
        help="JSON system config (docs/CONFIG.md); overrides the flags above "
             "and reaches every registered predictor kind at any geometry",
    )


def _add_engine_options(parser: argparse.ArgumentParser, top_level: bool) -> None:
    """Sweep-engine flags, valid both before and after the subcommand.

    The top-level copy owns the defaults; the subcommand copy uses
    SUPPRESS so an absent flag never clobbers a value parsed up front.
    """
    parser.add_argument(
        "--jobs", type=int, metavar="N",
        default=1 if top_level else argparse.SUPPRESS,
        help="worker processes for sweep cells (default 1 = in-process)",
    )
    parser.add_argument(
        "--cache-dir", metavar="PATH",
        default=None if top_level else argparse.SUPPRESS,
        help="cache per-cell sweep results under PATH (off by default)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        default=False if top_level else argparse.SUPPRESS,
        help="disable the result cache even if --cache-dir is given",
    )
    parser.add_argument(
        "--progress", action="store_true",
        default=False if top_level else argparse.SUPPRESS,
        help="print one stderr line per finished sweep cell (streamed)",
    )
    _add_backend_option(parser, top_level=top_level)


def _add_backend_option(parser: argparse.ArgumentParser, top_level: bool = False) -> None:
    """The ``--backend`` flag, uniform across every simulating verb.

    Selects the kernel (scalar reference loop vs. the batched
    structure-of-arrays kernel); results are bit-identical, so this is
    purely a throughput knob and never changes cache keys.
    """
    parser.add_argument(
        "--backend", choices=("scalar", "batched"),
        default=None if top_level else argparse.SUPPRESS,
        help="kernel backend (default batched: bit-identical to 'scalar' "
             "and several times faster on supported system shapes)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Prophet/Critic hybrid branch prediction (ISCA 2004) reproduction",
    )
    _add_engine_options(parser, top_level=True)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiments and benchmarks").set_defaults(
        func=_cmd_list
    )

    run_parser = sub.add_parser("run", help="run one experiment")
    run_parser.add_argument("experiment", choices=sorted(EXPERIMENTS))
    run_parser.add_argument("--scale", type=float, default=1.0,
                            help="simulation length multiplier (default 1.0)")
    _add_engine_options(run_parser, top_level=False)
    run_parser.set_defaults(func=_cmd_run)

    bench_parser = sub.add_parser("bench", help="run one benchmark/system pair")
    bench_parser.add_argument("benchmark", choices=benchmark_names())
    _add_system_options(bench_parser)
    bench_parser.add_argument("--branches", type=int, default=50_000)
    _add_backend_option(bench_parser)
    bench_parser.set_defaults(func=_cmd_bench)

    sweep_parser = sub.add_parser(
        "sweep",
        help="run every system in a JSON config file on every named "
             "benchmark (parallel + cached via --jobs/--cache-dir)",
    )
    sweep_parser.add_argument(
        "--systems", required=True, metavar="FILE",
        help="JSON file: one system config, a list of configs, or a "
             "{label: config} mapping (see docs/CONFIG.md)",
    )
    sweep_parser.add_argument(
        "--benchmarks", required=True, metavar="LIST",
        help="comma-separated benchmark names and/or recorded trace paths",
    )
    sweep_parser.add_argument(
        "--branches", type=int, default=16_000,
        help="committed branches per cell (default 16000)",
    )
    sweep_parser.add_argument(
        "--warmup", type=int, default=None,
        help="warmup branches per cell (default: branches / 5)",
    )
    sweep_parser.add_argument(
        "--out", metavar="FILE",
        help="also write per-cell summaries (plus configs and content "
             "hashes) as JSON",
    )
    _add_engine_options(sweep_parser, top_level=False)
    sweep_parser.set_defaults(func=_cmd_sweep)

    trace_parser = sub.add_parser(
        "trace", help="record, replay and inspect on-disk branch traces"
    )
    trace_sub = trace_parser.add_subparsers(dest="trace_command", required=True)

    record_parser = trace_sub.add_parser(
        "record", help="record a workload's committed branch stream to a file"
    )
    record_parser.add_argument(
        "benchmark", nargs="?", choices=benchmark_names(),
        help="benchmark to record (or use --suite)",
    )
    record_parser.add_argument(
        "--suite", choices=sorted(SUITES),
        help="record every member of a Table-1 suite (--out names a directory)",
    )
    record_parser.add_argument(
        "--out", "-o", required=True, metavar="PATH",
        help="output trace file (or directory for --suite / multi recordings)",
    )
    record_parser.add_argument(
        "--branches", type=int, default=50_000,
        help="committed branches to record (default 50000)",
    )
    record_parser.set_defaults(func=_cmd_trace_record)

    replay_parser = trace_sub.add_parser(
        "replay",
        help="replay recorded traces through a prediction system "
             "(bit-for-bit identical to the live run)",
    )
    replay_parser.add_argument("paths", nargs="+", metavar="TRACE")
    _add_system_options(replay_parser)
    replay_parser.add_argument(
        "--branches", type=int, default=None,
        help="branches to replay (default: the whole trace)",
    )
    replay_parser.add_argument(
        "--warmup", type=int, default=None,
        help="warmup branches (default: branches / 5)",
    )
    replay_parser.add_argument(
        "--oracle", action="store_true",
        help="replay with oracle future bits instead (the §6 information "
             "leak; prints inflated accuracy for comparison)",
    )
    _add_engine_options(replay_parser, top_level=False)
    replay_parser.set_defaults(func=_cmd_trace_replay)

    info_parser = trace_sub.add_parser(
        "info", help="print a trace file's header (O(1), no decompression)"
    )
    info_parser.add_argument("paths", nargs="+", metavar="TRACE")
    info_parser.add_argument(
        "--verify", action="store_true",
        help="stream the whole file, checking record count and content digest",
    )
    info_parser.set_defaults(func=_cmd_trace_info)

    serve_parser = sub.add_parser(
        "serve",
        help="run the sweep daemon: one persistent engine + cache behind "
             "an HTTP job queue (see docs/SERVE.md)",
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default 127.0.0.1)",
    )
    serve_parser.add_argument(
        "--port", type=int, default=8642,
        help="bind port, 0 for an ephemeral one (default 8642)",
    )
    serve_parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes in the persistent pool (default 1 = in-process)",
    )
    serve_parser.add_argument(
        "--cache-url", default=".repro-cache", metavar="URL",
        help="result cache backend: a directory, http://host:port of "
             "another daemon, or tiered:<dir>|<url> (default .repro-cache)",
    )
    serve_parser.add_argument(
        "--no-cache", action="store_true",
        help="run without a result cache (every cell simulates, no dedup)",
    )
    serve_parser.add_argument(
        "--max-queue", type=int, default=64, metavar="N",
        help="queued-job limit before POST /jobs returns 429 (default 64)",
    )
    serve_parser.add_argument(
        "--job-timeout", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget per job; on expiry the job fails, the "
             "worker pool is terminated and respawned (default: unbounded)",
    )
    serve_parser.add_argument(
        "--faults", metavar="PLAN", default=None,
        help="run under a fault-injection plan JSON (chaos testing only; "
             "see docs/ROBUSTNESS.md)",
    )
    serve_parser.set_defaults(func=_cmd_serve)

    chaos_parser = sub.add_parser(
        "chaos",
        help="run a sweep under a seeded fault-injection plan and prove "
             "recovery is bit-identical (see docs/ROBUSTNESS.md)",
    )
    chaos_sub = chaos_parser.add_subparsers(dest="chaos_command", required=True)

    def _add_chaos_options(parser: argparse.ArgumentParser) -> None:
        parser.add_argument(
            "--faults", required=True, metavar="PLAN",
            help="fault-plan JSON (seed + cache/worker/peer sections)",
        )
        parser.add_argument(
            "--jobs", type=int, default=2, metavar="N",
            help="pool workers for the chaos pass (default 2; worker-crash "
                 "plans need at least 2)",
        )
        parser.add_argument(
            "--cache-dir", metavar="PATH", default=None,
            help="cache dir for the chaos pass (default: a fresh temp dir)",
        )
        parser.add_argument(
            "--progress", action="store_true",
            help="print one stderr line per finished chaos-pass cell",
        )
        parser.add_argument(
            "--out", metavar="FILE",
            help="write the chaos report (injections, recovery counters, "
                 "differential verdict) as JSON",
        )

    chaos_run = chaos_sub.add_parser(
        "run", help="chaos-test the canned smoke grid (2 systems × 2 benchmarks)"
    )
    chaos_run.add_argument(
        "--branches", type=int, default=2_000,
        help="committed branches per smoke cell (default 2000)",
    )
    _add_chaos_options(chaos_run)
    chaos_run.set_defaults(func=_cmd_chaos)

    chaos_sweep = chaos_sub.add_parser(
        "sweep", help="chaos-test an arbitrary grid (the `sweep` vocabulary)"
    )
    chaos_sweep.add_argument(
        "--systems", required=True, metavar="FILE",
        help="JSON file in the same shapes `sweep --systems` accepts",
    )
    chaos_sweep.add_argument(
        "--benchmarks", required=True, metavar="LIST",
        help="comma-separated benchmark names and/or trace paths",
    )
    chaos_sweep.add_argument(
        "--branches", type=int, default=16_000,
        help="committed branches per cell (default 16000)",
    )
    chaos_sweep.add_argument(
        "--warmup", type=int, default=None,
        help="warmup branches per cell (default: branches / 5)",
    )
    _add_chaos_options(chaos_sweep)
    chaos_sweep.set_defaults(func=_cmd_chaos)

    submit_parser = sub.add_parser(
        "submit",
        help="submit a sweep to a running daemon and stream its progress",
    )
    submit_parser.add_argument(
        "--url", default="http://127.0.0.1:8642",
        help="daemon address (default http://127.0.0.1:8642)",
    )
    submit_parser.add_argument(
        "--systems", required=True, metavar="FILE",
        help="JSON file in the same shapes `sweep --systems` accepts",
    )
    submit_parser.add_argument(
        "--benchmarks", required=True, metavar="LIST",
        help="comma-separated benchmark names and/or trace paths "
             "(paths must exist on the daemon's host)",
    )
    submit_parser.add_argument(
        "--branches", type=int, default=16_000,
        help="committed branches per cell (default 16000)",
    )
    submit_parser.add_argument(
        "--warmup", type=int, default=None,
        help="warmup branches per cell (default: branches / 5)",
    )
    submit_parser.add_argument(
        "--backend", choices=("scalar", "batched"), default=None,
        help="kernel backend for the job's cells (default: the daemon's, "
             "batched unless it runs with --backend scalar)",
    )
    submit_parser.add_argument(
        "--priority", type=int, default=0,
        help="queue priority; higher runs first (default 0)",
    )
    submit_parser.add_argument(
        "--retry-after-budget", type=float, default=0.0, metavar="SECONDS",
        help="on a 429 (queue full), honor the daemon's Retry-After hint "
             "and resubmit, waiting at most this long in total (default 0 "
             "= surface the 429 immediately)",
    )
    submit_parser.add_argument(
        "--progress", action="store_true",
        help="print one stderr line per finished cell (streamed)",
    )
    submit_parser.add_argument(
        "--no-wait", action="store_true",
        help="print the job id and exit instead of waiting for results",
    )
    submit_parser.add_argument(
        "--out", metavar="FILE",
        help="also write the final job document (results included) as JSON",
    )
    submit_parser.set_defaults(func=_cmd_submit)

    lint_parser = sub.add_parser(
        "lint",
        help="run the repro-lint invariant checker (docs/LINTING.md)",
        description="AST-based invariant checker: determinism (REP001), "
        "pickle hygiene (REP002), hash schema (REP003), async safety "
        "(REP005), exception hygiene (REP006). "
        "Exits 0 when every finding is baselined or suppressed inline, "
        "1 otherwise.",
    )
    from repro.analysis.cli import add_lint_arguments

    add_lint_arguments(lint_parser)
    lint_parser.set_defaults(func=_cmd_lint)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # Install the kernel backend before any command builds a
    # SimulationConfig: new configs default to the process-wide
    # selection, so one flag reaches every cell an experiment or sweep
    # constructs internally. (`submit` keeps its own --backend — there
    # it names the backend the *daemon* should run the job with.)
    if args.func is not _cmd_submit and getattr(args, "backend", None):
        from repro.sim.driver import set_default_backend

        set_default_backend(args.backend)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
