"""The functional accuracy simulator.

:func:`simulate` is the entry point to the one accuracy kernel,
:func:`repro.sim.batched.simulate_batched`. The kernel couples three
machines and keeps them honest with each other:

* a **speculative front end** that fetches down *predicted* paths
  (producing the wrong-path future bits the critic needs, §6);
* the **prediction system** (prophet alone, or prophet/critic hybrid)
  owning BHR/BOR speculation and checkpoints;
* the **architectural executor** resolving branch outcomes in committed
  order (ground truth).

Event order per dynamic branch (matching §3 and §5):

1. *fetch* — the front end reaches the branch, the BTB identifies it,
   the prophet predicts, the prediction speculatively enters BHR + BOR,
   and fetch follows the prediction (possibly onto the wrong path);
2. *critique* — once the branch's ``future_bits`` prophet predictions are
   in the BOR, the critic produces the final prediction; a disagreement
   flushes the younger (uncritiqued) in-flight branches, repairs the
   registers to this branch's checkpoint and redirects fetch — an
   FTQ-confined flush, invisible to the back end;
3. *resolve* — in program order, after a configurable in-flight delay
   (modelling commit): tables train non-speculatively with the histories
   captured at prediction/critique time; a final-prediction mispredict
   flushes everything younger, restores the checkpoint, inserts the
   actual outcome and redirects fetch to the correct path.

Training the critic with the BOR captured at critique time — wrong-path
bits included — is what the whole paper hinges on (§3.3): a branch can be
mispredicted yet on the correct path, and it must train the critic with
the wrong-path future the prophet actually produced.

The frozen pre-optimization kernel is kept in
``tests/reference_kernel.py``, and differential tests pin the kernel to
it bit for bit.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.sim.metrics import RunStats

if TYPE_CHECKING:
    from repro.core.hybrid import PredictionSystem
    from repro.predictors.base import DirectionPredictor
    from repro.workloads.program import Program
    from repro.workloads.trace import BranchRecord


class SimulationDesyncError(RuntimeError):
    """Front end and architectural executor disagreed about the branch
    stream — an engine bug, never a predictor property."""


def set_default_backend(backend: str) -> None:
    """Accept the one kernel, ``"batched"``; refuse anything else.

    A stateless guard kept for ``perfbench/figures.py``, which still
    selects the batched kernel by name; there is nothing to install.
    """
    if backend != "batched":
        raise ValueError(
            f"kernel backend {backend!r} is not available: the scalar "
            "kernel was retired, and 'batched' is the only kernel"
        )


@dataclass
class SimulationConfig:
    """Knobs for one simulation run."""

    #: Conditional branches to resolve (measurement window + warmup).
    n_branches: int = 50_000
    #: Branches resolved before statistics start accumulating.
    warmup: int = 5_000
    #: Minimum in-flight branches between fetch and resolve, modelling
    #: commit delay (tables train this many branches late).
    inflight_depth: int = 24
    #: Model the Table-2 BTB (misses fall through as static not-taken).
    use_btb: bool = True
    btb_entries: int = 4096
    btb_ways: int = 4
    #: Keep per-site (pc) mispredict attribution in the result.
    collect_per_site: bool = False
    #: Keep per-predictor lifetime accuracy counters (PredictorStats).
    #: Pure telemetry — RunStats is identical either way; throughput
    #: harnesses switch it off to shave per-update accounting.
    collect_predictor_stats: bool = True

    def __post_init__(self) -> None:
        # Reject values no kernel can run, naming the field, before they
        # reach a content hash or a pool worker.
        for name in ("warmup", "inflight_depth"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        for name in ("btb_entries", "btb_ways"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        sets, rem = divmod(self.btb_entries, self.btb_ways)
        if rem or sets & (sets - 1):
            raise ValueError(
                f"btb_entries ({self.btb_entries}) must be btb_ways "
                f"({self.btb_ways}) times a power of two"
            )

    def effective_depth(self, future_bits: int) -> int:
        """In-flight depth, never smaller than the critique window."""
        return max(self.inflight_depth, future_bits + 2)


def simulate(
    program: "Program",
    system: "PredictionSystem",
    config: SimulationConfig | None = None,
) -> RunStats:
    """Run ``system`` over ``program`` and return measured statistics."""
    config = config or SimulationConfig()
    if config.warmup >= config.n_branches:
        raise ValueError("warmup must leave a measurement window")
    # Looked up at call time, so a wrapper installed on
    # repro.sim.batched sees the request.
    from repro.sim.batched import simulate_batched

    return simulate_batched(program, system, config)


def oracle_replay(
    records: "Iterable[BranchRecord]",
    *,
    prophet: "DirectionPredictor",
    critic: "DirectionPredictor",
    future_bits: int,
    warmup: int,
) -> RunStats:
    """Trace-driven hybrid evaluation with **oracle** future bits (§6).

    The methodological foil to :func:`simulate`: instead of fetching down
    the predicted (possibly wrong) path, the critic's BOR is assembled
    from the trace's *actual* outcomes — including the branch's own, the
    exact information leak the paper warns a correct-path trace-driven
    evaluation commits. The returned accuracy is therefore inflated and
    unreal; the ``ablations`` experiment quantifies the gap.

    ``records`` may be any iterable of committed
    :class:`~repro.workloads.trace.BranchRecord`\\ s — an in-memory
    :class:`~repro.workloads.trace.BranchTrace` or a streaming
    :class:`~repro.workloads.trace_io.TraceReader`; only a
    ``future_bits``-deep lookahead window is ever held in memory.

    The oracle future mask is maintained incrementally: sliding the
    window shifts the previous mask up one and inserts the newly buffered
    outcome at bit 0, rather than rebuilding the mask from the deque —
    O(1) per branch instead of O(future_bits).
    """
    from repro.core.history import HistoryRegister

    if future_bits < 0:
        raise ValueError("future_bits must be non-negative")
    mask = (1 << 64) - 1
    future_mask = (1 << future_bits) - 1
    bhr = HistoryRegister(max(prophet.history_length, 1))
    stats = RunStats(system="oracle-replay")
    window: deque[BranchRecord] = deque()
    iterator = iter(records)
    exhausted = False
    past = 0
    #: Bit i of `future` is window[future_bits - 1 - i]'s outcome — the
    #: branch under evaluation occupies the top bit, successors below it,
    #: zeros beyond the end of a draining window (same layout the old
    #: per-branch rescan produced).
    future = 0
    index = 0
    while True:
        # Keep the branch under evaluation plus its future_bits - 1
        # successors buffered (the branch's own outcome is bit
        # future_bits - 1 of the oracle BOR, mirroring
        # BranchTrace.future_bits).
        while not exhausted and len(window) < max(1, future_bits):
            try:
                record = next(iterator)
            except StopIteration:
                exhausted = True
                break
            window.append(record)
            if future_bits:
                # The newcomer sits `len(window) - 1` slots ahead of the
                # window head, i.e. at bit future_bits - len(window).
                future |= int(record.taken) << (future_bits - len(window))
        if not window:
            break
        record = window[0]
        prophet_pred = prophet.predict(record.pc, bhr.value)
        oracle_bor = ((past << future_bits) | future) & mask
        lookup = critic.lookup(record.pc, oracle_bor)
        final = lookup.prediction if lookup.hit else prophet_pred
        if index >= warmup:
            stats.branches += 1
            stats.committed_uops += record.uops
            stats.taken_branches += int(record.taken)
            if prophet_pred != record.taken:
                stats.prophet_mispredicts += 1
            if final != record.taken:
                stats.mispredicts += 1
        prophet.update(record.pc, bhr.value, record.taken, prophet_pred)
        critic.train(record.pc, oracle_bor, record.taken, final != record.taken)
        bhr.insert(record.taken)
        past = ((past << 1) | int(record.taken)) & mask
        window.popleft()
        # Slide the oracle mask: drop the evaluated branch's (top) bit,
        # promote every successor one slot; the refill loop above inserts
        # the next buffered outcome at the vacated low end.
        future = (future << 1) & future_mask
        index += 1
    return stats
