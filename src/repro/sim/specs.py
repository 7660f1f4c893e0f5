"""Self-describing sweep-cell specifications.

The parallel execution engine (:mod:`repro.sim.execution`) cannot ship
closures to worker processes, and the result cache cannot key on object
identity. Both need every sweep cell to be *data*: a picklable,
content-hashable description from which the worker rebuilds the program
and the prediction system from scratch. This module defines that data
model:

* :class:`PredictorSpec` — one predictor as (registry kind + explicit
  geometry params), or as a Table-3 budget shorthand that expands to the
  preset geometry in :mod:`repro.predictors.budget`;
* :class:`SystemSpec` — a prediction system: a single prophet, or a
  prophet/critic hybrid with future bits and an insert policy;
* :class:`ProgramSpec` — a workload as either a named benchmark from
  :data:`repro.workloads.suites.BENCHMARKS`, an explicit
  :class:`~repro.workloads.generator.WorkloadProfile`, or a recorded
  trace file, with an optional seed override for decorrelated replicas;
* :class:`SweepCell` — one grid cell: (system spec, program spec,
  :class:`~repro.sim.driver.SimulationConfig`) plus display labels and a
  mode ("accuracy" for the functional simulator, "timing" for the
  Table-2 machine model).

Every spec also round-trips through plain dicts — ``to_config()`` /
``from_config()`` — so whole systems and sweep grids live in JSON files
(see ``docs/CONFIG.md`` and the CLI's ``sweep`` verb):

>>> spec = SystemSpec.hybrid("2bc-gskew", 8, "tagged-gshare", 8, future_bits=8)
>>> SystemSpec.from_config(spec.to_config()) == spec
True
>>> custom = SystemSpec.from_config({
...     "kind": "single",
...     "prophet": {"kind": "yags", "params": {"choice_entries": 8192}},
... })
>>> custom.prophet.kind
'yags'

Determinism contract: building a spec twice yields behaviourally
identical objects, and every source of randomness in a cell is derived
from the spec itself (profile seeds, site hashes), never from process
identity or execution order. :meth:`SweepCell.content_hash` is therefore
a stable cache key: equal hash ⇒ bit-for-bit equal results. Budget
shorthands hash by their *expanded* geometry, so a Table-3 preset and
the equivalent explicit params share one cache entry.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from typing import Any, Mapping, Sequence

from repro.core.hybrid import (
    PredictionSystem,
    ProphetCriticSystem,
    SinglePredictorSystem,
)
from repro.predictors.budget import params_for
from repro.predictors.registry import (
    ROLE_CRITIC,
    ROLE_PROPHET,
    build_predictor,
    coerce_params,
    predictor_info,
    require_critic_capable,
)
from repro.sim.driver import SimulationConfig
from repro.workloads.generator import WorkloadProfile, generate_program
from repro.workloads.program import Program

#: Bumped whenever the meaning of a spec or the result schema changes;
#: part of every content hash, so stale cache entries can never be
#: mistaken for current ones. Version 2: predictors are described by
#: (registry kind, expanded geometry params) instead of (kind, budget KB)
#: pairs — every version-1 cache entry is invalidated.
SPEC_FORMAT_VERSION = 2


def canonical_json(payload: Any) -> str:
    """Serialise ``payload`` to a canonical (sorted, compact) JSON string.

    The canonical form is what gets hashed, so key order and whitespace
    must never influence the digest.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def content_digest(payload: Any) -> str:
    """SHA-256 hex digest of the canonical JSON form of ``payload``."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def _check_config_keys(config: Mapping, allowed: Sequence[str], what: str) -> None:
    """Reject unknown keys so config typos fail loudly, naming the schema."""
    unknown = sorted(set(config) - set(allowed))
    if unknown:
        raise ValueError(
            f"unknown key(s) {unknown} in {what} config; valid keys: {list(allowed)}"
        )


def _check_format(config: Mapping, what: str) -> None:
    """Validate an optional ``format`` stamp against this module's version."""
    version = config.get("format", SPEC_FORMAT_VERSION)
    if version != SPEC_FORMAT_VERSION:
        raise ValueError(
            f"{what} config has format {version!r}; this build reads format "
            f"{SPEC_FORMAT_VERSION} (see SPEC_FORMAT_VERSION in repro.sim.specs)"
        )


@dataclass(frozen=True)
class PredictorSpec:
    """One predictor as data: a registry kind plus its geometry.

    Exactly one construction style per spec:

    * **explicit params** — ``params`` is a mapping validated against the
      kind's registered geometry dataclass (omitted fields keep their
      schema defaults; ``params=None`` means all defaults);
    * **budget shorthand** — ``budget_kb`` names a Table-3 preset from
      :mod:`repro.predictors.budget`, which expands to the same params.

    Specs validate eagerly: unknown kinds, unknown parameter names and
    missing presets all raise at construction time, not inside a worker
    process half-way through a sweep.

    >>> PredictorSpec("gshare", budget_kb=8).resolved_params().entries
    32768
    >>> PredictorSpec("gshare", params={"entries": 1024}).describe()["params"]["entries"]
    1024
    """

    kind: str
    params: Any = None
    budget_kb: int | None = None

    def __post_init__(self) -> None:
        info = predictor_info(self.kind)  # unknown kinds rejected here
        if self.params is not None and self.budget_kb is not None:
            raise ValueError(
                f"predictor spec for {self.kind!r} sets both explicit params "
                "and a budget_kb shorthand; pick one"
            )
        if self.params is not None:
            if is_dataclass(self.params) and not isinstance(self.params, type):
                object.__setattr__(self, "params", asdict(self.params))
            elif isinstance(self.params, Mapping):
                object.__setattr__(self, "params", dict(self.params))
            else:
                raise TypeError(
                    f"params for {self.kind!r} must be a mapping or a "
                    f"{info.params_type.__name__}, got {type(self.params).__name__}"
                )
        # Expand/validate now: typos should fail at spec construction.
        self.resolved_params()

    def __hash__(self) -> int:
        return hash((self.kind, self.budget_kb, canonical_json(self.params)))

    def resolved_params(self) -> Any:
        """The kind's geometry dataclass this spec denotes."""
        if self.budget_kb is not None:
            return params_for(self.kind, self.budget_kb)
        return coerce_params(self.kind, self.params)

    def build(self, role: str = ROLE_PROPHET):
        """Instantiate a fresh predictor for ``role`` from this spec."""
        return build_predictor(self.kind, self.resolved_params(), role=role)

    def label(self) -> str:
        """A compact display label (kind, plus budget or a params digest)."""
        if self.budget_kb is not None:
            return f"{self.kind}@{self.budget_kb}KB"
        if not self.params:
            return self.kind
        return f"{self.kind}[{content_digest(self.describe())[:6]}]"

    def describe(self) -> dict:
        """Hashed identity: kind plus the *expanded* geometry params.

        Budget shorthands and explicit params that denote the same
        geometry produce identical descriptions, so they share result
        cache entries.
        """
        return {"kind": self.kind, "params": asdict(self.resolved_params())}

    def to_config(self) -> dict:
        """JSON-ready dict, minimal form (shorthand stays shorthand)."""
        payload: dict[str, Any] = {"kind": self.kind}
        if self.budget_kb is not None:
            payload["budget_kb"] = self.budget_kb
        if self.params:
            payload["params"] = dict(self.params)
        return payload

    @staticmethod
    def from_config(config: Any) -> "PredictorSpec":
        """Parse a predictor config: a kind string, a legacy ``(kind,
        budget_kb)`` pair, or a ``{"kind", "params" | "budget_kb"}`` mapping.

        >>> PredictorSpec.from_config("tage").kind
        'tage'
        >>> PredictorSpec.from_config(("gshare", 8)) == PredictorSpec.from_config(
        ...     {"kind": "gshare", "budget_kb": 8})
        True
        """
        if isinstance(config, PredictorSpec):
            return config
        if isinstance(config, str):
            return PredictorSpec(kind=config)
        if isinstance(config, Mapping):
            _check_config_keys(config, ("kind", "params", "budget_kb"), "predictor")
            if "kind" not in config:
                raise ValueError("predictor config needs a 'kind'")
            return PredictorSpec(
                kind=config["kind"],
                params=config.get("params"),
                budget_kb=config.get("budget_kb"),
            )
        if isinstance(config, Sequence) and len(config) == 2:
            kind, budget_kb = config
            return PredictorSpec(kind=kind, budget_kb=budget_kb)
        raise TypeError(f"cannot parse predictor config {config!r}")


def _as_predictor_spec(value: Any, what: str) -> PredictorSpec:
    try:
        return PredictorSpec.from_config(value)
    except TypeError:
        raise TypeError(f"cannot parse {what} spec {value!r}") from None


@dataclass(frozen=True)
class SystemSpec:
    """A prediction system described as data.

    ``kind`` is ``"single"`` (prophet alone) or ``"hybrid"``
    (prophet/critic). ``prophet`` and ``critic`` are
    :class:`PredictorSpec` values; anything
    :meth:`PredictorSpec.from_config` understands — including the legacy
    ``(kind, budget_kb)`` tuples — is coerced on construction, so
    pre-redesign call sites keep working unchanged. Hybrid critics are
    validated against the registry's role capabilities at construction.
    """

    kind: str
    prophet: PredictorSpec
    critic: PredictorSpec | None = None
    future_bits: int = 0
    insert_on: str = "final"

    def __post_init__(self) -> None:
        if self.kind not in ("single", "hybrid"):
            raise ValueError(f"kind must be 'single' or 'hybrid', got {self.kind!r}")
        if self.kind == "hybrid" and self.critic is None:
            raise ValueError("hybrid systems need a critic spec")
        if self.kind == "single" and self.critic is not None:
            raise ValueError("single systems take no critic spec")
        if self.kind == "single" and (self.future_bits != 0 or self.insert_on != "final"):
            raise ValueError(
                "future_bits/insert_on are hybrid settings; a single system "
                "would silently ignore them"
            )
        object.__setattr__(self, "prophet", _as_predictor_spec(self.prophet, "prophet"))
        if self.critic is not None:
            object.__setattr__(
                self, "critic", _as_predictor_spec(self.critic, "critic")
            )
            require_critic_capable(self.critic.kind)

    @staticmethod
    def single(prophet_kind: str, budget_kb: int) -> "SystemSpec":
        """Spec for a prophet-alone baseline at a Table-3 budget."""
        return SystemSpec(
            kind="single", prophet=PredictorSpec(prophet_kind, budget_kb=budget_kb)
        )

    @staticmethod
    def hybrid(
        prophet_kind: str,
        prophet_kb: int,
        critic_kind: str,
        critic_kb: int,
        future_bits: int,
        insert_on: str = "final",
    ) -> "SystemSpec":
        """Spec for a prophet/critic hybrid at Table-3 budgets."""
        return SystemSpec(
            kind="hybrid",
            prophet=PredictorSpec(prophet_kind, budget_kb=prophet_kb),
            critic=PredictorSpec(critic_kind, budget_kb=critic_kb),
            future_bits=future_bits,
            insert_on=insert_on,
        )

    def build(self) -> PredictionSystem:
        """Instantiate a *fresh* prediction system from this spec."""
        if self.kind == "single":
            return SinglePredictorSystem(self.prophet.build(ROLE_PROPHET))
        assert self.critic is not None
        return ProphetCriticSystem(
            self.prophet.build(ROLE_PROPHET),
            self.critic.build(ROLE_CRITIC),
            future_bits=self.future_bits,
            insert_on=self.insert_on,
        )

    def default_label(self) -> str:
        """A display label derived from the spec (used by the sweep CLI)."""
        if self.kind == "single":
            return self.prophet.label()
        assert self.critic is not None
        label = f"{self.prophet.label()}+{self.critic.label()}@f{self.future_bits}"
        if self.insert_on != "final":
            label += f",{self.insert_on}"
        return label

    def describe(self) -> dict:
        """JSON-serialisable description (input to the content hash)."""
        payload: dict[str, Any] = {
            "kind": self.kind,
            "prophet": self.prophet.describe(),
        }
        if self.kind == "hybrid":
            assert self.critic is not None
            payload["critic"] = self.critic.describe()
            payload["future_bits"] = self.future_bits
            payload["insert_on"] = self.insert_on
        return payload

    def to_config(self) -> dict:
        """JSON-ready dict; :meth:`from_config` restores an equal spec."""
        payload: dict[str, Any] = {
            "format": SPEC_FORMAT_VERSION,
            "kind": self.kind,
            "prophet": self.prophet.to_config(),
        }
        if self.kind == "hybrid":
            assert self.critic is not None
            payload["critic"] = self.critic.to_config()
            payload["future_bits"] = self.future_bits
            payload["insert_on"] = self.insert_on
        return payload

    @staticmethod
    def from_config(config: Mapping) -> "SystemSpec":
        """Restore a spec from :meth:`to_config` output (or hand-written JSON).

        Unknown keys, unknown predictor kinds, bad params and role
        violations are all rejected with messages naming the valid
        vocabulary.
        """
        if not isinstance(config, Mapping):
            raise TypeError(f"system config must be a mapping, got {type(config).__name__}")
        _check_format(config, "system")
        _check_config_keys(
            config,
            ("format", "kind", "prophet", "critic", "future_bits", "insert_on"),
            "system",
        )
        if "kind" not in config or "prophet" not in config:
            raise ValueError("system config needs 'kind' and 'prophet'")
        critic = config.get("critic")
        return SystemSpec(
            kind=config["kind"],
            prophet=PredictorSpec.from_config(config["prophet"]),
            critic=None if critic is None else PredictorSpec.from_config(critic),
            future_bits=config.get("future_bits", 0),
            insert_on=config.get("insert_on", "final"),
        )


@dataclass(frozen=True)
class ProgramSpec:
    """A workload described as data (frozen: specs are cache-key inputs).

    Exactly one of three sources must be set:

    * ``benchmark`` — a name from
      :data:`repro.workloads.suites.BENCHMARKS`, or a trace workload
      registered via :func:`repro.workloads.suites.register_trace` (the
      registered path is captured eagerly, so the spec stays valid in
      worker processes that never saw the registration);
    * ``profile`` — an explicit :class:`WorkloadProfile`;
    * ``trace`` — a path to a recorded trace file (see
      :mod:`repro.workloads.trace_io`).

    ``seed`` overrides the profile's seed when not None — the hook for
    deterministic per-cell seeding of replicated cells (see
    :meth:`SweepCell.cell_seed`). Recorded traces replay verbatim, so a
    seed override on a trace-backed spec is rejected.

    Trace-backed specs hash by the trace's **content digest** (stored in
    its O(1)-readable header), never its path — a trace can be renamed,
    moved between machines or registered under a different name and
    still hit the same cache entries.

    >>> ProgramSpec(benchmark="gcc").name
    'gcc'
    >>> ProgramSpec(benchmark="gcc", profile=WorkloadProfile())
    Traceback (most recent call last):
        ...
    ValueError: set exactly one of benchmark, profile or trace
    """

    benchmark: str | None = None
    profile: WorkloadProfile | None = None
    trace: str | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        populated = sum(
            value is not None for value in (self.benchmark, self.profile, self.trace)
        )
        if populated != 1:
            raise ValueError("set exactly one of benchmark, profile or trace")
        if self.benchmark is not None:
            # A benchmark name may denote a registered trace; resolve it to
            # a pure trace spec now, so pickled or field-reconstructed
            # specs work in processes whose registry was never populated
            # (the cell label, not this spec, carries the display name).
            from repro.workloads.suites import TRACES

            if self.benchmark in TRACES:
                object.__setattr__(self, "trace", os.fspath(TRACES[self.benchmark]))
                object.__setattr__(self, "benchmark", None)
        if self.trace is not None:
            object.__setattr__(self, "trace", os.fspath(self.trace))
            if self.seed is not None:
                raise ValueError(
                    "recorded traces replay verbatim; a seed override is "
                    "meaningless on a trace-backed spec"
                )

    def _trace_header(self):
        """The backing trace's header (memoised; O(1) per read)."""
        assert self.trace is not None
        header = getattr(self, "_header_cache", None)
        if header is None:
            from repro.workloads.trace_io import read_trace_header

            header = read_trace_header(self.trace)
            object.__setattr__(self, "_header_cache", header)
        return header

    def resolved_profile(self) -> WorkloadProfile:
        """The profile this spec denotes, seed override applied."""
        if self.trace is not None:
            raise ValueError(
                "trace-backed specs replay a recorded stream; they have no "
                "generator profile"
            )
        if self.benchmark is not None:
            from repro.workloads.suites import BENCHMARKS

            if self.benchmark not in BENCHMARKS:
                raise KeyError(
                    f"unknown benchmark {self.benchmark!r}; known: {sorted(BENCHMARKS)}"
                )
            profile = BENCHMARKS[self.benchmark]
        else:
            assert self.profile is not None
            profile = self.profile
        if self.seed is not None:
            profile = replace(profile, seed=self.seed)
        return profile

    @staticmethod
    def from_trace(path: str | os.PathLike) -> "ProgramSpec":
        """Spec for a recorded trace file."""
        return ProgramSpec(trace=os.fspath(path))

    def build_key(self) -> str:
        """Stable identity of the *built* program (the build-memo key).

        Two specs with equal ``build_key()`` build behaviourally
        identical :class:`~repro.workloads.program.Program` objects, so
        the execution engine's per-process build caches
        (:class:`~repro.sim.execution.ProgramBuildCache`) reuse one built
        instance — reset between runs — instead of rebuilding per sweep
        cell. Trace-backed specs key by the trace's content digest;
        generated specs by the resolved profile (seed override applied),
        so a benchmark name and the explicit profile it denotes share one
        build.

        >>> ProgramSpec(benchmark="gcc").build_key() == ProgramSpec(
        ...     benchmark="gcc").build_key()
        True
        >>> ProgramSpec(benchmark="gcc").build_key() != ProgramSpec(
        ...     benchmark="gcc", seed=7).build_key()
        True
        """
        cached = getattr(self, "_build_key_cache", None)
        if cached is None:
            if self.trace is not None:
                cached = f"trace:{self._trace_header().digest}"
            else:
                cached = f"profile:{content_digest(asdict(self.resolved_profile()))}"
            object.__setattr__(self, "_build_key_cache", cached)
        return cached

    def build(self) -> Program:
        """Build a fresh program (deterministic in the spec alone)."""
        if self.trace is not None:
            from repro.workloads.trace import replay_program

            return replay_program(self.trace)
        return generate_program(self.resolved_profile())

    @property
    def name(self) -> str:
        if self.benchmark is not None:
            return self.benchmark
        if self.trace is not None:
            return self._trace_header().name
        return self.profile.name

    def describe(self) -> dict:
        payload: dict[str, Any] = {}
        if self.trace is not None:
            # The digest covers the CFG structure and every record, so it
            # *is* the workload's content; paths and display names stay
            # out of the hash (same trace ⇒ same cache entry, anywhere).
            header = self._trace_header()
            payload["trace"] = {
                "digest": header.digest,
                "records": header.record_count,
            }
            return payload
        if self.benchmark is not None:
            # Hash the *resolved* profile, not just the name: renaming or
            # retuning a benchmark in suites.py must invalidate old entries.
            payload["benchmark"] = self.benchmark
            payload["profile"] = asdict(self.resolved_profile())
        else:
            payload["profile"] = asdict(self.resolved_profile())
        return payload

    def to_config(self) -> dict:
        """JSON-ready dict; :meth:`from_config` restores an equal spec.

        Unlike :meth:`describe`, this is the *portable* form: benchmarks
        stay names (not resolved profiles) and traces stay paths.
        """
        payload: dict[str, Any] = {}
        if self.benchmark is not None:
            payload["benchmark"] = self.benchmark
        elif self.trace is not None:
            payload["trace"] = self.trace
        else:
            payload["profile"] = asdict(self.profile)
        if self.seed is not None:
            payload["seed"] = self.seed
        return payload

    @staticmethod
    def from_config(config: Any) -> "ProgramSpec":
        """Parse a program config: a benchmark name or a one-source mapping.

        >>> ProgramSpec.from_config("gcc") == ProgramSpec(benchmark="gcc")
        True
        """
        if isinstance(config, ProgramSpec):
            return config
        if isinstance(config, str):
            return ProgramSpec(benchmark=config)
        if not isinstance(config, Mapping):
            raise TypeError(f"cannot parse program config {config!r}")
        _check_config_keys(
            config, ("benchmark", "profile", "trace", "seed"), "program"
        )
        profile = config.get("profile")
        if profile is not None and not isinstance(profile, WorkloadProfile):
            profile = WorkloadProfile.from_dict(profile)
        return ProgramSpec(
            benchmark=config.get("benchmark"),
            profile=profile,
            trace=config.get("trace"),
            seed=config.get("seed"),
        )


#: Cell modes: the functional accuracy simulator vs the Table-2 timing model.
MODE_ACCURACY = "accuracy"
MODE_TIMING = "timing"


def _simulation_config_from_dict(config: Mapping) -> SimulationConfig:
    allowed = tuple(f.name for f in fields(SimulationConfig))
    _check_config_keys(config, allowed, "simulation")
    return SimulationConfig(**config)


@dataclass
class SweepCell:
    """One self-contained unit of sweep work.

    Carries everything a worker process needs to produce the cell's
    result from scratch, plus the (system label, benchmark name) under
    which the result is filed. Labels are presentation only — they are
    *excluded* from the content hash, so two cells that differ only in
    label share a cache entry.
    """

    system_label: str
    bench_name: str
    system: SystemSpec
    program: ProgramSpec
    config: SimulationConfig = field(default_factory=SimulationConfig)
    mode: str = MODE_ACCURACY

    def __post_init__(self) -> None:
        if self.mode not in (MODE_ACCURACY, MODE_TIMING):
            raise ValueError(f"unknown cell mode {self.mode!r}")

    def describe(self) -> dict:
        """The hashed identity of this cell (labels excluded)."""
        return {
            "format": SPEC_FORMAT_VERSION,
            "mode": self.mode,
            "system": self.system.describe(),
            "program": self.program.describe(),
            "config": asdict(self.config),
        }

    def content_hash(self) -> str:
        """Stable cache key: equal hash ⇒ identical results."""
        return content_digest(self.describe())

    def cell_seed(self) -> int:
        """A deterministic 63-bit seed derived from the cell's identity.

        Useful for building decorrelated replicas: feed it back through
        ``ProgramSpec(seed=...)`` and the replica's stream depends only on
        the spec, never on scheduling or process identity.
        """
        return int(self.content_hash()[:16], 16) & (2**63 - 1)

    def to_config(self) -> dict:
        """JSON-ready dict (labels included; they are display metadata)."""
        return {
            "format": SPEC_FORMAT_VERSION,
            "system_label": self.system_label,
            "bench_name": self.bench_name,
            "system": self.system.to_config(),
            "program": self.program.to_config(),
            "config": asdict(self.config),
            "mode": self.mode,
        }

    @staticmethod
    def from_config(config: Mapping) -> "SweepCell":
        """Restore a cell from :meth:`to_config` output."""
        _check_format(config, "sweep-cell")
        _check_config_keys(
            config,
            ("format", "system_label", "bench_name", "system", "program",
             "config", "mode"),
            "sweep-cell",
        )
        sim_config = config.get("config")
        return SweepCell(
            system_label=config["system_label"],
            bench_name=config["bench_name"],
            system=SystemSpec.from_config(config["system"]),
            program=ProgramSpec.from_config(config["program"]),
            config=(
                SimulationConfig()
                if sim_config is None
                else _simulation_config_from_dict(sim_config)
            ),
            mode=config.get("mode", MODE_ACCURACY),
        )
