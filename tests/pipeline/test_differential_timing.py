"""Differential proof that the timing model matches its frozen reference.

``TimedMachine.run`` is one flat loop over pooled in-flight handles that
reads the committed stream from the shared architectural-trace columns.
It is only admissible because it is **bit-for-bit identical** to the
loop it replaced, frozen in ``tests/reference_timing.py``. These tests
run the same (program, system, machine, memory) cell through both and
require every ``PipelineResult`` field to be exactly equal over:

* programs from four suites, plus one trace-backed ``ProgramSpec``;
* every registered predictor kind as a prophet alone (``tage``
  included), and a hybrid with every critic-capable kind at 0, 4 and 12
  future bits;
* warmup 0 and warmup > 0;
* a machine with a tiny BTB and a short FTQ, where BTB misses (static
  predictions) and critiques forced before their future bits arrive are
  frequent;
* a memory model that never stalls;
* a cold and a warm ``REPRO_TRACE_CACHE`` trace-column store.

Any intentional semantic change to the timing model must be applied to
``tests/reference_timing.py`` as well; these tests then pin the new
semantics.
"""

from __future__ import annotations

import dataclasses
from dataclasses import replace
from functools import lru_cache

import pytest

from reference_timing import ReferenceTimedMachine
from repro.pipeline import MachineConfig, MemoryModel, PipelineResult, TABLE2_MACHINE
from repro.pipeline.machine import TimedMachine
from repro.predictors.registry import critic_capable_kinds, registered_kinds
from repro.sim import batched
from repro.sim.driver import SimulationDesyncError
from repro.sim.specs import PredictorSpec, ProgramSpec, SystemSpec
from repro.workloads.generator import generate_program
from repro.workloads.suites import BENCHMARKS

N_BRANCHES = 500
WARMUP = 100

#: One benchmark per suite, shrunk for test runtime.
_SUITES = ("INT00", "FP00", "MM", "SERV")
_BENCHMARKS = {"INT00": "gcc", "FP00": "swim", "MM": "flash", "SERV": "tpcc"}

#: Tiny BTB (16 entries) and a 4-entry FTQ.
_CRAMPED = MachineConfig(btb_entries=16, btb_ways=4, ftq_entries=4)

_FIELDS = tuple(field.name for field in dataclasses.fields(PipelineResult))


@lru_cache(maxsize=None)
def _program(suite: str):
    """A shared program per suite; both machines reset it before use."""
    profile = replace(
        BENCHMARKS[_BENCHMARKS[suite]],
        name=f"timing-{suite}",
        seed=41,
        static_branch_target=150,
        n_functions=5,
    )
    return generate_program(profile)


def _hybrid(critic: str, future_bits: int) -> SystemSpec:
    return SystemSpec(
        kind="hybrid",
        prophet=PredictorSpec("2bc-gskew", budget_kb=2),
        critic=PredictorSpec(critic),
        future_bits=future_bits,
    )


def _run_both(
    program,
    spec: SystemSpec,
    *,
    machine: MachineConfig = TABLE2_MACHINE,
    memory: dict | None = None,
    warmup: int = WARMUP,
    reference_program=None,
) -> PipelineResult:
    """Run one cell through both loops; assert equality; return it."""
    memory = memory or {}
    new = TimedMachine(
        program, spec.build(), machine, MemoryModel(machine, **memory)
    ).run(N_BRANCHES, warmup=warmup)
    ref = ReferenceTimedMachine(
        reference_program if reference_program is not None else program,
        spec.build(), machine, MemoryModel(machine, **memory),
    ).run(N_BRANCHES, warmup=warmup)
    assert_bit_identical(new, ref)
    return new


def assert_bit_identical(new: PipelineResult, ref: PipelineResult) -> None:
    for field in _FIELDS:
        assert getattr(new, field) == getattr(ref, field), field


class TestProphetsAlone:
    @pytest.mark.parametrize("kind", registered_kinds())
    def test_prophet_matches_reference(self, kind):
        suite = _SUITES[registered_kinds().index(kind) % len(_SUITES)]
        spec = SystemSpec(kind="single", prophet=PredictorSpec(kind))
        result = _run_both(_program(suite), spec)
        assert result.branches == N_BRANCHES - WARMUP
        if kind not in ("always-taken", "always-not-taken"):
            assert result.mispredicts > 0  # a trivial run would prove nothing


class TestHybrids:
    @pytest.mark.parametrize("future_bits", [0, 4, 12])
    @pytest.mark.parametrize("critic", critic_capable_kinds())
    def test_hybrid_matches_reference(self, critic, future_bits):
        suite = _SUITES[critic_capable_kinds().index(critic) % len(_SUITES)]
        result = _run_both(_program(suite), _hybrid(critic, future_bits))
        assert result.mispredicts > 0


class TestMachineShapes:
    @pytest.mark.parametrize("suite", _SUITES)
    def test_warmup_zero(self, suite):
        result = _run_both(
            _program(suite), _hybrid("tagged-gshare", 8), warmup=0
        )
        assert result.branches == N_BRANCHES

    @pytest.mark.parametrize("future_bits", [0, 12])
    @pytest.mark.parametrize("suite", ["INT00", "SERV"])
    def test_tiny_btb_short_ftq(self, suite, future_bits):
        """BTB misses and forced critiques dominate a cramped front end."""
        spec = _hybrid("filtered-perceptron", future_bits)
        system = spec.build()
        statics = []
        predict_static_into = system.predict_static_into

        def counting(handle, pc):
            statics.append(pc)
            predict_static_into(handle, pc)

        system.predict_static_into = counting
        TimedMachine(_program(suite), system, _CRAMPED).run(N_BRANCHES, WARMUP)
        assert statics  # the static-prediction arm ran
        _run_both(_program(suite), spec, machine=_CRAMPED)

    def test_single_predictor_on_cramped_machine(self):
        _run_both(_program("MM"), SystemSpec.single("tage", 8), machine=_CRAMPED)

    @pytest.mark.parametrize("suite", ["FP00", "MM"])
    def test_zero_rate_memory_model(self, suite):
        zero = {"l1_miss_per_uop": 0.0, "l2_miss_per_uop": 0.0}
        _run_both(_program(suite), _hybrid("tagged-gshare", 4), memory=zero)

    def test_repeated_runs_continue_the_stream(self):
        """A second run on one machine picks up the committed stream where
        the first stopped, as the reference's private executor did. Its
        front end still holds the first run's in-flight fetches, so both
        usually report the same desync rather than a result."""

        def outcome(machine):
            try:
                return dataclasses.astuple(machine.run(300, warmup=50))
            except SimulationDesyncError as exc:
                return str(exc)

        spec = _hybrid("tagged-gshare", 4)
        program = _program("INT00")
        new_machine = TimedMachine(program, spec.build())
        new = [outcome(new_machine), outcome(new_machine)]
        ref_machine = ReferenceTimedMachine(program, spec.build())
        assert new == [outcome(ref_machine), outcome(ref_machine)]


class TestCommittedStream:
    @pytest.fixture(scope="class")
    def swim_trace(self, tmp_path_factory):
        from repro.workloads.trace import record_trace

        path = tmp_path_factory.mktemp("traces") / "swim.trace"
        record_trace(_program("FP00"), N_BRANCHES + 200, path, source={})
        return str(path)

    def test_trace_backed_program(self, swim_trace):
        spec = ProgramSpec(trace=swim_trace)
        _run_both(
            spec.build(), _hybrid("tagged-gshare", 8),
            reference_program=spec.build(),
        )

    def test_cold_and_warm_trace_store(self, tmp_path, monkeypatch):
        """Columns spilled by one program object serve a fresh one, and
        both runs match the reference."""
        from repro.sim import execution

        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "traces"))
        monkeypatch.setattr(execution, "_trace_store_ready", False)
        try:
            program_spec = ProgramSpec(benchmark="facerec")
            cold = execution.ProgramBuildCache().program_for(program_spec)
            store = batched.get_trace_store()
            assert store is not None
            reference = program_spec.build()
            spec = _hybrid("tagged-gshare", 4)
            _run_both(cold, spec, reference_program=reference)
            assert store.hits == 0 and store.misses == 1
            warm = execution.ProgramBuildCache().program_for(program_spec)
            _run_both(warm, spec, reference_program=reference)
            assert store.hits == 1
        finally:
            batched.set_trace_store(None)

    def test_desync_against_ftq_head_is_detected(self):
        """A committed stream that disagrees with the fetched branches
        raises instead of producing numbers."""
        program = _program("SERV")
        spec = _hybrid("tagged-gshare", 4)
        t_pc, *rest = batched._architectural_trace(program, N_BRANCHES)
        bad_pc = list(t_pc)
        bad_pc[N_BRANCHES // 2] += 4
        program._trace_cache = (N_BRANCHES, (bad_pc, *rest))
        try:
            with pytest.raises(SimulationDesyncError, match="desync"):
                TimedMachine(program, spec.build()).run(N_BRANCHES, WARMUP)
        finally:
            program._trace_cache = None
