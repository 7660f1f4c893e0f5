"""Traced runs: spans around calls into each layer, and the per-layer split.

The tracer rebinds public functions *where callers look them up*. A
function imported by name into another module is wrapped there as well:
``repro.sim.execution`` does ``from repro.sim.driver import simulate``,
so both ``repro.sim.execution.simulate`` and ``repro.sim.driver.simulate``
get a wrapper. Methods are wrapped on their class, so every instance
sees the wrapper. Nothing under ``src/`` changes.

Each call becomes one span: name, start, end and parent (the innermost
open span on the same thread). Spans stay in memory until the run ends.
A span's self time is its duration minus the time its child spans
cover; a layer's self time is the sum over the spans named after it
(the prefix before the first dot). The outermost spans (``experiments``
on the figure workloads) keep whatever no inner layer claims, so their
self time is the unattributed residual.
"""

from __future__ import annotations

import threading
from collections import Counter, defaultdict

from common import clock

# Span record fields (a list per span keeps the wrapper cheap).
_NAME, _START, _END, _PARENT, _CHILD_TIME, _INFO = range(6)


class Tracer:
    """Collects spans from every thread of the process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, *, before=None, after=None):
        """``fn`` wrapped in a span. ``before(args)`` runs ahead of the
        call and ``after(args, result, early)`` after it; the value
        returned by the last of them becomes the span's ``info``."""
        spans = self.spans
        local = self._local

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            record = [name, 0.0, 0.0, parent, 0.0, None]
            spans.append(record)
            early = before(args) if before is not None else None
            stack.append(record)
            record[_START] = start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[_END] = end = clock()
                stack.pop()
                if parent is not None:
                    parent[_CHILD_TIME] += end - start
            record[_INFO] = after(args, result, early) if after is not None else early
            return result

        return traced

    def patch(self, owner, attr: str, name: str, **hooks) -> None:
        original = getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self.span(name, original, **hooks))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    import repro.pipeline.machine as machine
    import repro.serve.client as client
    import repro.serve.daemon as daemon
    import repro.sim.batched as batched
    import repro.sim.cache as cache
    import repro.sim.driver as driver
    import repro.sim.execution as execution
    import repro.sim.specs as specs

    # workloads: the program build.
    tracer.patch(specs.ProgramSpec, "build", "workloads.build",
                 before=lambda args: args[0].name)

    # execution: the engine, its build memo and the cell hashes.
    tracer.patch(execution.SweepEngine, "run_cells", "execution.run_cells")
    tracer.patch(execution.ProgramBuildCache, "program_for", "execution.program_for")
    tracer.patch(specs.SweepCell, "content_hash", "execution.content_hash")
    systems: dict[int, str] = {}

    def remember_system(args, result, _early):
        spec = args[0]
        critic = spec.critic.kind if spec.critic is not None else "none"
        systems[id(result)] = f"{spec.prophet.kind}+{critic}"

    tracer.patch(specs.SystemSpec, "build", "execution.system_build", after=remember_system)

    # batched: dispatch (None = declined, the scalar fallback), trace walk
    # and per-program precompute; what is left of the dispatch is replay.
    tracer.patch(batched, "simulate_batched", "batched.simulate",
                 after=lambda args, result, _e: (systems.get(id(args[1]), "?"), result is None))

    def walks(args):
        cached = getattr(args[0], "_trace_cache", None)
        return cached is None or cached[0] < args[1]

    tracer.patch(batched, "_architectural_trace", "batched.trace", before=walks)
    tracer.patch(batched, "_ctx_get", "batched.precompute")
    tracer.patch(batched, "_make_pc_consts", "batched.precompute")

    # driver: scalar simulate, imported by name into the engine.
    for module in (driver, execution):
        tracer.patch(module, "simulate", "driver.simulate")

    # pipeline: the timing model.
    tracer.patch(machine.TimedMachine, "run", "pipeline.run",
                 before=lambda args: args[1])

    # cache: entry I/O and the result codec, wherever it is imported.
    tracer.patch(cache.ResultCache, "get", "cache.get",
                 after=lambda _a, result, _e: result is not None)
    tracer.patch(cache.ResultCache, "put", "cache.put")
    for module, names in (
        (cache, ("encode_result", "decode_result", "clone_result")),
        (execution, ("clone_result",)),
        (daemon, ("encode_result",)),
        (client, ("decode_result",)),
    ):
        for attr in names:
            tracer.patch(module, attr, "cache.codec")


def _self_time(record) -> float:
    return record[_END] - record[_START] - record[_CHILD_TIME]


def summarize(tracer: Tracer) -> dict:
    """Self time and count per span name, plus the censuses."""
    self_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    build_by_benchmark: dict[str, float] = defaultdict(float)
    fallback_by_pair: Counter = Counter()
    batched_by_pair: Counter = Counter()
    builds_in_memo = 0
    trace_walks = 0
    scalar_cells = 0
    cache_hits = 0
    timed_branches = 0
    for record in tracer.spans:
        name = record[_NAME]
        own = _self_time(record)
        self_s[name] += own
        calls[name] += 1
        info = record[_INFO]
        if name == "workloads.build":
            build_by_benchmark[info] += own
            parent = record[_PARENT]
            if parent is not None and parent[_NAME] == "execution.program_for":
                builds_in_memo += 1
        elif name == "batched.simulate":
            pair, declined = info
            (fallback_by_pair if declined else batched_by_pair)[pair] += 1
        elif name == "batched.trace":
            trace_walks += bool(info)
        elif name == "driver.simulate":
            # A simulate call whose batched child did not decline ran the
            # batched kernel; every other call ran the scalar loop.
            scalar_cells += 1
        elif name == "cache.get":
            cache_hits += bool(info)
        elif name == "pipeline.run":
            timed_branches += info
    scalar_cells -= sum(batched_by_pair.values())
    return {
        "self_s": dict(self_s),
        "calls": dict(calls),
        "build_s_by_benchmark": dict(build_by_benchmark),
        "fallback_cells_by_pair": dict(fallback_by_pair),
        "batched_cells_by_pair": dict(batched_by_pair),
        "builds_in_memo": builds_in_memo,
        "trace_walks": trace_walks,
        "scalar_cells": scalar_cells,
        "cache_hits": cache_hits,
        "timed_branches": timed_branches,
    }


def layer_self_s(summary: dict) -> dict[str, float]:
    """Self time per layer (the span-name prefix)."""
    layers: dict[str, float] = defaultdict(float)
    for name, seconds in summary["self_s"].items():
        layers[name.split(".", 1)[0]] += seconds
    return dict(layers)


def coverage(layers: dict[str, float], root: str, wall: float) -> float:
    """Share of ``wall`` the layers below ``root`` account for.

    ``root`` is the layer of the outermost spans. Self times within a
    span tree add up to the root span's duration, so whatever no named
    layer claims lands in the root's self time; leaving the root out
    makes the coverage a real check.
    """
    return sum(seconds for layer, seconds in layers.items() if layer != root) / wall


def per_layer_metrics(summary: dict) -> dict[str, tuple[float, str]]:
    """The ``per_layer`` metrics of BENCHMARK.json that spans provide."""
    s = summary["self_s"]
    n = summary["calls"]

    def sec(*names):
        return sum(s.get(name, 0.0) for name in names)

    def ratio(part, whole):
        return part / whole if whole else 0.0

    memo_calls = n.get("execution.program_for", 0)
    batched_cells = sum(summary["batched_cells_by_pair"].values())
    fallback_cells = sum(summary["fallback_cells_by_pair"].values())
    get_calls = n.get("cache.get", 0)
    timed_s = sec("pipeline.run")
    return {
        "workloads.build_s": (sec("workloads.build"), "s"),
        "workloads.builds": (n.get("workloads.build", 0), "count"),
        "execution.engine_self_s": (
            sec("execution.run_cells", "execution.program_for", "execution.system_build"), "s"),
        "execution.content_hash_s": (sec("execution.content_hash"), "s"),
        "execution.build_reuse_ratio": (
            ratio(memo_calls - summary["builds_in_memo"], memo_calls), "ratio"),
        "batched.trace_s": (sec("batched.trace"), "s"),
        "batched.trace_walks": (summary["trace_walks"], "count"),
        "batched.precompute_s": (sec("batched.precompute"), "s"),
        "batched.replay_s": (sec("batched.simulate"), "s"),
        "batched.cells": (batched_cells, "count"),
        "batched.fallback_cells": (fallback_cells, "count"),
        "batched.fallback_ratio": (ratio(fallback_cells, batched_cells + fallback_cells), "ratio"),
        "driver.scalar_s": (sec("driver.simulate"), "s"),
        "driver.scalar_cells": (summary["scalar_cells"], "count"),
        "pipeline.timed_s": (timed_s, "s"),
        "pipeline.timed_cells": (n.get("pipeline.run", 0), "count"),
        "pipeline.branches_per_s": (ratio(summary["timed_branches"], timed_s), "1/s"),
        "cache.get_s": (sec("cache.get"), "s"),
        "cache.put_s": (sec("cache.put"), "s"),
        "cache.codec_s": (sec("cache.codec"), "s"),
        "cache.hits": (summary["cache_hits"], "count"),
        "cache.misses": (get_calls - summary["cache_hits"], "count"),
        "cache.hit_ratio": (ratio(summary["cache_hits"], get_calls), "ratio"),
        "experiments.self_s": (sec("experiments.run"), "s"),
    }
