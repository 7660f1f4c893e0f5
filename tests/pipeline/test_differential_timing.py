"""Differential proof that the timing model matches its frozen reference.

``TimedMachine.run`` is one fused cycle loop over the batched kernel's
per-program precompute that reads the committed stream from the shared
architectural-trace columns. It is only admissible because it is
**bit-for-bit identical** to the loop it replaced, frozen in
``tests/reference_timing.py``. These tests run the same (program,
system, machine, memory) cell through both and require every
``PipelineResult`` field to be exactly equal, and the state the run
leaves behind (BTB sets, BHR/BOR, every predictor table, filter and
statistics counter) to be equal too, over:

* programs from four suites, plus one trace-backed ``ProgramSpec``;
* every registered predictor kind as a prophet alone (``tage``
  included), and a hybrid with every critic-capable kind at 0, 4 and 12
  future bits;
* warmup 0 and warmup > 0;
* a machine with a tiny BTB and a short FTQ, where BTB misses (static
  predictions) and critiques forced before their future bits arrive are
  frequent, and one whose retire port is slower than fetch, so the
  resolve queue outgrows the in-flight ring;
* a memory model that never stalls;
* the critic shapes outside the fused arms' fast paths: a filtered
  critic of another type, and zero-history and wide tagged critics;
* the ``figures-timing`` cells at their real window (gcc, 2 000
  branches, warmup 500);
* a cold and a warm ``REPRO_TRACE_CACHE`` trace-column store.

Any intentional semantic change to the timing model must be applied to
``tests/reference_timing.py`` as well; these tests then pin the new
semantics.
"""

from __future__ import annotations

import dataclasses
import pickle
from dataclasses import replace
from functools import lru_cache

import pytest

from reference_timing import ReferenceTimedMachine
from repro.core.hybrid import ProphetCriticSystem, SinglePredictorSystem
from repro.pipeline import MachineConfig, MemoryModel, PipelineResult, TABLE2_MACHINE
from repro.pipeline.machine import TimedMachine
from repro.predictors.gskew import TwoBcGskewPredictor
from repro.predictors.tagged_gshare import TaggedGsharePredictor
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
#: Fetch twice as wide as the machine, retire one uop a cycle.
_SLOW_RETIRE = MachineConfig(fetch_width_uops=12, retire_width_uops=1)

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
    n_branches: int = N_BRANCHES,
    warmup: int = WARMUP,
    reference_program=None,
    reference_system=None,
) -> PipelineResult:
    """Run one cell through both loops; assert equality of the results
    and of the state each run leaves behind; return the result.

    ``spec`` may also be a zero-argument callable returning a system.
    """
    build = spec.build if isinstance(spec, SystemSpec) else spec
    memory = memory or {}
    new_machine = TimedMachine(program, build(), machine, MemoryModel(machine, **memory))
    new = new_machine.run(n_branches, warmup=warmup)
    ref_machine = ReferenceTimedMachine(
        reference_program if reference_program is not None else program,
        reference_system if reference_system is not None else build(),
        machine, MemoryModel(machine, **memory),
    )
    ref = ref_machine.run(n_branches, warmup=warmup)
    assert_bit_identical(new, ref)
    new_state, ref_state = end_state(new_machine), end_state(ref_machine)
    assert new_state.keys() == ref_state.keys()
    assert [key for key in new_state if new_state[key] != ref_state[key]] == []
    return new


def assert_bit_identical(new: PipelineResult, ref: PipelineResult) -> None:
    for field in _FIELDS:
        assert getattr(new, field) == getattr(ref, field), field


def end_state(machine) -> dict:
    """What a run leaves behind for the next one: the BTB's tag sets, the
    history registers, and every attribute of every predictor (counter
    tables, filter tags and LRU order, perceptron weights, statistics),
    pickled so that arrays compare by value."""
    system = machine.system
    state = {"btb": machine.btb._sets, "bhr": system.bhr._value}
    if isinstance(system, ProphetCriticSystem):
        state["bor"] = system.bor._value
        predictors = {"prophet": system.prophet, "critic": system.critic}
    else:
        predictors = {"predictor": system.predictor}
    for role, predictor in predictors.items():
        for name, value in predictor.__getstate__().items():
            state[f"{role}.{name}"] = pickle.dumps(value)
    return state


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
        """BTB misses and forced critiques dominate a cramped front end.

        The static predictions are counted on the reference run of the
        cell, which calls ``predict_static`` per BTB miss; the fused loop
        makes no such call, and ``_run_both`` holds the two runs
        bit-identical."""
        spec = _hybrid("filtered-perceptron", future_bits)
        reference_system = spec.build()
        statics = []
        predict_static = reference_system.predict_static

        def counting(pc):
            statics.append(pc)
            return predict_static(pc)

        reference_system.predict_static = counting
        _run_both(
            _program(suite), spec, machine=_CRAMPED,
            reference_system=reference_system,
        )
        assert statics  # the static-prediction arm ran

    @pytest.mark.parametrize("spec", [
        SystemSpec.single("gshare", 8), SystemSpec.single("2bc-gskew", 8),
        _hybrid("tagged-gshare", 8),
    ], ids=["gshare", "2bc-gskew", "hybrid"])
    def test_retire_slower_than_fetch(self, spec, monkeypatch):
        """The resolve queue backs up past the in-flight ring's first
        capacity (32 FTQ entries + 30 + 16, rounded up to 128)."""
        from repro.pipeline import machine

        grown = []
        real = machine._grown

        def counting(rings, cmask, head, tail):
            grown.append(cmask + 1)
            return real(rings, cmask, head, tail)

        monkeypatch.setattr(machine, "_grown", counting)
        _run_both(_program("INT00"), spec, machine=_SLOW_RETIRE)
        assert grown[0] == 128

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


class TestCriticShapes:
    """Critics off the fused arms' fast paths."""

    def test_filtered_critic_of_another_type(self):
        """A filtered critic the loop does not fuse goes through its own
        ``lookup``/``train``."""

        class OtherTaggedGshare(TaggedGsharePredictor):
            pass

        def build():
            return ProphetCriticSystem(
                TwoBcGskewPredictor(4096), OtherTaggedGshare(sets=256, ways=4),
                future_bits=4,
            )

        assert _run_both(_program("INT00"), build).critic_redirects > 0

    @pytest.mark.parametrize("history_length", [0, 24])
    def test_critic_outside_the_fold_image_gate(self, history_length):
        """Zero-history and wide critics hash with ``_fold_hash``."""
        spec = SystemSpec(
            kind="hybrid",
            prophet=PredictorSpec("2bc-gskew", budget_kb=2),
            critic=PredictorSpec(
                "tagged-gshare", params={"sets": 256, "history_length": history_length},
            ),
            future_bits=4,
        )
        _run_both(_program("SERV"), spec)


class TestFiguresTimingCells:
    """The ``figures-timing`` workload's cells at their real window."""

    @pytest.mark.parametrize("spec", [
        SystemSpec.single("2bc-gskew", 16),
        *(SystemSpec.hybrid("2bc-gskew", 8, "tagged-gshare", 8, fb) for fb in (4, 8, 12)),
    ], ids=["2bc-gskew-16", "8+8-fb4", "8+8-fb8", "8+8-fb12"])
    def test_gcc_cell(self, spec):
        program = ProgramSpec(benchmark="gcc").build()
        result = _run_both(
            program, spec, n_branches=2_000, warmup=500,
            reference_program=ProgramSpec(benchmark="gcc").build(),
        )
        assert result.branches == 1_500 and result.mispredicts > 0


class TestSystemTypes:
    @pytest.mark.parametrize("base", [SinglePredictorSystem, ProphetCriticSystem])
    def test_other_systems_are_refused(self, base):
        """The loop inlines the two concrete systems' events, so another
        system type is refused by name instead of silently misbehaving."""
        other = type(f"Custom{base.__name__}", (base,), {})
        if base is SinglePredictorSystem:
            system = other(TwoBcGskewPredictor(1024))
        else:
            system = other(TwoBcGskewPredictor(1024), TaggedGsharePredictor(sets=64))
        with pytest.raises(TypeError, match=f"Custom{base.__name__}"):
            TimedMachine(_program("INT00"), system)


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
