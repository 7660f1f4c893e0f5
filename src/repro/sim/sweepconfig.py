"""Shared parsing of sweep-grid configurations.

One grid description, two doors: the CLI's ``sweep`` verb reads it from
``--systems``/``--benchmarks`` flags and files, and the sweep daemon
(:mod:`repro.serve`) accepts the same shapes as the JSON body of
``POST /jobs``. Both route through this module so a config that works
from the shell works over HTTP unchanged, and both fail with the same
eager, sentence-shaped diagnostics (``SweepConfigError``) instead of a
traceback from inside a worker.

The payload vocabulary is PR 4's (see ``docs/CONFIG.md``):

* **systems** — one :meth:`~repro.sim.specs.SystemSpec.to_config`
  object, a list of them (labelled by
  :meth:`~repro.sim.specs.SystemSpec.default_label`), or a
  ``{label: config}`` mapping;
* **benchmarks** — a comma-separated string or a list of tokens, each a
  registered benchmark name or a recorded trace path;
* **branches / warmup** — the per-cell
  :class:`~repro.sim.driver.SimulationConfig` knobs.

:func:`cells_from_job` is the one-call form the daemon uses: a full job
payload in, the bench-major cell list plus display metadata out.
"""

from __future__ import annotations

import os
from typing import Any, Mapping, Sequence

from repro.sim.driver import SimulationConfig
from repro.sim.specs import ProgramSpec, SweepCell, SystemSpec
from repro.workloads import benchmark_names
from repro.workloads.trace_io import TraceFormatError, read_trace_header

#: Default committed branches per cell (the ``sweep`` verb's default).
DEFAULT_BRANCHES = 16_000

#: Top-level keys a job payload may carry.
JOB_KEYS = ("systems", "benchmarks", "branches", "warmup", "priority")


class SweepConfigError(ValueError):
    """A user-facing grid-configuration problem.

    ``section`` names the part of the payload at fault (``"systems"``,
    ``"benchmarks"``, ``"branches"``, …) so HTTP callers get structured
    detail, not just prose.
    """

    def __init__(self, message: str, *, section: str | None = None) -> None:
        super().__init__(message)
        self.section = section


def systems_from_config(payload: Any) -> dict[str, SystemSpec]:
    """Parse the ``systems`` value into labelled, *buildable* specs.

    Accepts the three PR-4 shapes (single config, list, mapping). Every
    spec is built once here so geometry-value errors (non-power-of-two
    tables, history wider than index, …) surface now with the label
    attached, not later inside a worker process.
    """
    if isinstance(payload, Mapping) and "kind" in payload:
        payload = [payload]
    try:
        if isinstance(payload, Mapping):
            systems = {
                str(label): SystemSpec.from_config(config)
                for label, config in payload.items()
            }
        elif isinstance(payload, list):
            systems = {}
            for config in payload:
                spec = SystemSpec.from_config(config)
                label = spec.default_label()
                if label in systems:
                    raise SweepConfigError(
                        f"two systems share the derived label {label!r}; use a "
                        "{label: config} mapping to name them explicitly",
                        section="systems",
                    )
                systems[label] = spec
        else:
            raise SweepConfigError(
                "expected a system config object, a list of configs, or a "
                "{label: config} mapping",
                section="systems",
            )
        if not systems:
            raise SweepConfigError("no systems to sweep", section="systems")
        for label, spec in systems.items():
            try:
                spec.build()  # surface geometry-value errors now, not in a worker
            except (TypeError, ValueError, KeyError) as exc:
                raise SweepConfigError(
                    f"system {label!r}: {exc}", section="systems"
                ) from exc
        return systems
    except SweepConfigError:
        raise
    except (TypeError, ValueError, KeyError) as exc:
        raise SweepConfigError(str(exc), section="systems") from exc


def benchmarks_from_config(
    value: Any, branches: int
) -> list[tuple[str, ProgramSpec]]:
    """Parse the ``benchmarks`` value: names and/or trace paths.

    Accepts a comma-separated string (the CLI spelling) or a list of
    tokens (the JSON spelling). Results are filed under the
    benchmark/trace display name, so names must be unique; trace-backed
    entries must hold at least ``branches`` records (the same guard
    ``trace replay`` applies).
    """
    if isinstance(value, str):
        tokens: Sequence[Any] = [t.strip() for t in value.split(",")]
    elif isinstance(value, list):
        tokens = value
    else:
        raise SweepConfigError(
            "expected a comma-separated string or a list of benchmark "
            "names / trace paths",
            section="benchmarks",
        )
    names = benchmark_names()
    pairs: list[tuple[str, ProgramSpec]] = []
    for token in tokens:
        if not isinstance(token, str):
            raise SweepConfigError(
                f"benchmark entries must be strings, got {token!r}",
                section="benchmarks",
            )
        if not token:
            continue
        if token in names:
            pairs.append((token, ProgramSpec(benchmark=token)))
        elif os.path.exists(token):
            try:
                header = read_trace_header(token)
            except (OSError, TraceFormatError) as exc:
                raise SweepConfigError(
                    f"{token}: {exc}", section="benchmarks"
                ) from exc
            if branches > header.record_count:
                raise SweepConfigError(
                    f"{token} holds {header.record_count} branches; cannot "
                    f"sweep {branches} (lower branches or record a longer "
                    "trace)",
                    section="benchmarks",
                )
            pairs.append((header.name, ProgramSpec(trace=token)))
        else:
            raise SweepConfigError(
                f"unknown benchmark {token!r} (and no such trace file); "
                f"known benchmarks: {names}",
                section="benchmarks",
            )
    if not pairs:
        raise SweepConfigError("nothing to run", section="benchmarks")
    seen: set[str] = set()
    for name, _ in pairs:
        if name in seen:
            raise SweepConfigError(
                f"{name!r} appears twice (results are filed by name, so "
                "duplicates would overwrite each other)",
                section="benchmarks",
            )
        seen.add(name)
    return pairs


def window_from_config(payload: Mapping) -> tuple[int, int]:
    """Validate (branches, warmup) out of a job payload."""
    branches = payload.get("branches", DEFAULT_BRANCHES)
    if not isinstance(branches, int) or isinstance(branches, bool) or branches < 1:
        raise SweepConfigError(
            f"branches must be a positive integer, got {branches!r}",
            section="branches",
        )
    warmup = payload.get("warmup")
    if warmup is None:
        warmup = branches // 5
    if not isinstance(warmup, int) or isinstance(warmup, bool):
        raise SweepConfigError(
            f"warmup must be an integer, got {warmup!r}", section="warmup"
        )
    if warmup < 0 or warmup >= branches:
        raise SweepConfigError(
            f"warmup must be in [0, {branches}) to leave a measurement window",
            section="warmup",
        )
    return branches, warmup


def cells_from_job(payload: Any) -> tuple[list[SweepCell], dict]:
    """Turn one job payload into its bench-major cell list plus metadata.

    The returned metadata dict carries the display vocabulary callers
    need to file and render results: ``labels`` (system label order),
    ``benchmarks`` (bench name order), and the validated ``branches`` /
    ``warmup`` values.
    """
    if not isinstance(payload, Mapping):
        raise SweepConfigError(
            f"job payload must be a JSON object, got {type(payload).__name__}"
        )
    unknown = sorted(set(payload) - set(JOB_KEYS))
    if unknown:
        raise SweepConfigError(
            f"unknown job key(s) {unknown}; valid keys: {list(JOB_KEYS)}"
        )
    for required in ("systems", "benchmarks"):
        if required not in payload:
            raise SweepConfigError(
                f"job payload needs {required!r}", section=required
            )
    branches, warmup = window_from_config(payload)
    config = SimulationConfig(n_branches=branches, warmup=warmup)
    systems = systems_from_config(payload["systems"])
    benchmarks = benchmarks_from_config(payload["benchmarks"], branches)
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
    meta = {
        "labels": list(systems),
        "benchmarks": [name for name, _ in benchmarks],
        "branches": branches,
        "warmup": warmup,
    }
    return cells, meta
