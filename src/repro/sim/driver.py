"""The functional accuracy simulator.

Couples three machines and keeps them honest with each other:

* a **speculative walker** that fetches down *predicted* paths (producing
  the wrong-path future bits the critic needs, §6);
* the **prediction system** (prophet alone, or prophet/critic hybrid)
  owning BHR/BOR speculation and checkpoints;
* the **architectural executor** resolving branch outcomes in committed
  order (ground truth).

Event order per dynamic branch (matching §3 and §5):

1. *fetch* — walker reaches the branch, BTB identifies it, prophet
   predicts, prediction speculatively enters BHR + BOR, walker follows
   the prediction (possibly onto the wrong path);
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

Hot-path shape
--------------

``simulate`` is the innermost loop of every experiment grid, so it is
written as one flat loop over a **ring of pooled in-flight handles**
sized to the fetch window: no per-branch allocation, no closure calls,
attribute lookups hoisted into locals. The in-flight window lives in the
ring as ``slots[head % cap] .. slots[(tail-1) % cap]`` with monotonically
increasing ``head``/``tail`` counters; a flush simply moves ``tail``
back. The frozen pre-optimization kernel is kept in
``tests/reference_kernel.py`` and differential tests pin this loop to it
bit for bit.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from repro.core.hybrid import InflightBranch, PredictionSystem
from repro.engine.btb import BranchTargetBuffer
from repro.engine.executor import ArchitecturalExecutor
from repro.engine.frontend import SpeculativeWalker
from repro.sim.metrics import RunStats
from repro.workloads.program import Program

if TYPE_CHECKING:
    from repro.predictors.base import DirectionPredictor
    from repro.workloads.trace import BranchRecord


class SimulationDesyncError(RuntimeError):
    """Front end and architectural executor disagreed about the branch
    stream — an engine bug, never a predictor property."""


#: Process-wide default kernel backend. Configs that don't name a
#: backend explicitly pick this up at construction time, which is how
#: one CLI ``--backend scalar`` flag reaches every SimulationConfig an
#: experiment builds internally without threading a parameter through
#: each signature (mirrors execution.get_default_engine). The batched
#: kernel is bit-identical and returns None (the scalar loop runs) for
#: shapes it does not specialize.
_DEFAULT_BACKEND = "batched"

_KNOWN_BACKENDS = ("scalar", "batched")


def set_default_backend(backend: str) -> None:
    """Install the backend newly constructed configs default to."""
    if backend not in _KNOWN_BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {_KNOWN_BACKENDS}"
        )
    global _DEFAULT_BACKEND
    _DEFAULT_BACKEND = backend


def get_default_backend() -> str:
    return _DEFAULT_BACKEND


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
    #: Kernel backend: "scalar" is the reference loop below; "batched" is
    #: the structure-of-arrays kernel in :mod:`repro.sim.batched`, proven
    #: bit-identical by the differential tests and falling back to the
    #: scalar loop for system shapes it does not specialize. A pure
    #: execution detail: results are identical, so the field is excluded
    #: from SweepCell content hashes (see specs._described_config).
    #: Defaults to the process-wide selection (:func:`set_default_backend`).
    backend: str = field(default_factory=lambda: _DEFAULT_BACKEND)

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
    program: Program,
    system: PredictionSystem,
    config: SimulationConfig | None = None,
) -> RunStats:
    """Run ``system`` over ``program`` and return measured statistics."""
    config = config or SimulationConfig()
    if config.warmup >= config.n_branches:
        raise ValueError("warmup must leave a measurement window")
    if config.backend == "batched":
        from repro.sim.batched import simulate_batched

        stats = simulate_batched(program, system, config)
        if stats is not None:
            return stats
        # Unsupported system shape: the batched kernel declined; run the
        # scalar loop (documented fallback, results identical by design).
    elif config.backend != "scalar":
        raise ValueError(
            f"unknown backend {config.backend!r}; expected 'scalar' or 'batched'"
        )

    program.reset()
    executor = ArchitecturalExecutor(program)
    walker = SpeculativeWalker(program)
    btb = BranchTargetBuffer(config.btb_entries, config.btb_ways) if config.use_btb else None

    stats = RunStats(benchmark=program.name, system=type(system).__name__)
    required_bits = max(system.future_bits, 0)
    depth = config.effective_depth(required_bits)
    hard_cap = depth + 8
    n_branches = config.n_branches
    warmup = config.warmup
    collect_per_site = config.collect_per_site

    # Pooled in-flight window: a ring of reusable handles. Monotonic
    # head/tail counters; occupancy = tail - head, never above hard_cap.
    cap = hard_cap
    slots = [
        InflightBranch(pc=0, prophet_pred=False, bhr_before=0, bor_before=0)
        for _ in range(cap)
    ]
    head = 0
    tail = 0
    critiqued = 0  # handles [head, head+critiqued) are critiqued, in order
    next_seq = 0   # BOR-insertion sequence number
    resolved = 0
    warmup_fetched = 0

    # Hoisted bound methods and fields (the loop body runs per event; a
    # dotted lookup per event is measurable at sweep scale).
    sys_predict_into = system.predict_into
    sys_predict_static_into = system.predict_static_into
    sys_critique = system.critique
    sys_apply_redirect = system.apply_redirect
    sys_resolve = system.resolve
    sys_recover = system.recover
    walker_next_block = walker.next_branch_block
    walker_restore = walker.restore_state
    ras_snapshot = walker.ras.snapshot
    executor_resolve = executor.resolve_next
    btb_lookup = btb.lookup if btb is not None else None
    btb_allocate = btb.allocate if btb is not None else None
    census_record = stats.census.record
    record_site = stats.record_site

    if not config.collect_predictor_stats:
        system.set_stats_enabled(False)
    try:
        while resolved < n_branches:
            pending = tail - head
            # 1) Critique in order as soon as the future bits are
            #    available. 4) When the fetch window is exhausted before
            #    the bits arrived (BTB-miss branches can occupy slots),
            #    critique with the bits available, as the paper's
            #    implementation does (§5). Both arms share this block;
            #    `forced` distinguishes them for accounting.
            forced = False
            if critiqued < pending:
                handle = slots[(head + critiqued) % cap]
                if handle.is_static or next_seq - handle.seq >= required_bits:
                    pass  # bits available: ordinary critique
                elif pending >= hard_cap and not (critiqued > 0 and pending > depth):
                    # Window exhausted, nothing to fetch *or* resolve:
                    # critique anyway (a resolvable head always drains
                    # first, exactly as the phase order prescribes).
                    forced = True
                else:
                    handle = None
            else:
                handle = None
            if handle is not None:
                if forced and resolved >= warmup:
                    stats.forced_critiques += 1
                final = sys_critique(handle)
                critiqued += 1
                if not handle.is_static and final != handle.prophet_pred:
                    # Critic override: drop the younger, uncritiqued tail
                    # and steer fetch down the critic's path
                    # (FTQ-confined flush).
                    tail = head + critiqued
                    sys_apply_redirect(handle, final)
                    walker_restore(handle.snap_block, handle.snap_ras)
                    walker.advance(final)
                    next_seq = handle.seq + 1
                    if resolved >= warmup:
                        stats.critic_redirects += 1
                continue

            # 3) Fetch while the window has room (and nothing above ran).
            #    Runs as a burst: nothing older can become actionable
            #    until the oldest uncritiqued branch has its future bits,
            #    the head becomes resolvable, or the window fills —
            #    conditions only the fetches themselves advance.
            if pending < hard_cap and not (critiqued > 0 and pending > depth):
                if critiqued < pending:
                    candidate = slots[(head + critiqued) % cap]
                    target_seq = candidate.seq + required_bits
                else:
                    candidate = None
                    target_seq = 0
                while True:
                    branch = walker_next_block()
                    pc = branch.pc
                    handle = slots[tail % cap]
                    tail += 1
                    if btb_lookup is None or btb_lookup(pc):
                        sys_predict_into(handle, pc)
                        handle.seq = next_seq
                        next_seq += 1  # one BOR bit inserted
                    else:
                        sys_predict_static_into(handle, pc)
                        handle.seq = next_seq  # no BOR bit: no increment
                    handle.snap_block = branch.block_id
                    handle.snap_ras = ras_snapshot()
                    # Inlined walker.advance(handle.prophet_pred).
                    walker.block_id = (
                        branch.taken_target if handle.prophet_pred
                        else branch.fallthrough
                    )
                    walker._at_branch = False
                    pending = tail - head
                    if pending >= hard_cap:
                        break
                    if critiqued > 0 and pending > depth:
                        break
                    if candidate is None:
                        candidate = handle
                        if handle.is_static:
                            break  # immediately critique-eligible
                        target_seq = handle.seq + required_bits
                    if next_seq >= target_seq:
                        break  # oldest uncritiqued branch has its bits
                continue

            # 2) Resolve once the head is critiqued and the window is deep
            #    enough (committing earlier would under-model update
            #    delay); also the drain path when everything is critiqued
            #    but the window is shallow. Runs as a burst: resolves
            #    never make an older critique newly eligible, so drain
            #    until a mispredict flushes or the window gets shallow.
            while True:
                head_handle = slots[head % cap]
                pc, taken, uops = executor_resolve()
                if pc != head_handle.pc:
                    raise SimulationDesyncError(
                        f"committed branch {pc:#x} but front end fetched "
                        f"{head_handle.pc:#x} (branch #{resolved})"
                    )
                if resolved >= warmup:
                    stats.branches += 1
                    stats.committed_uops += uops
                    if taken:
                        stats.taken_branches += 1
                    if head_handle.is_static:
                        stats.static_branches += 1
                        if taken:  # implicit not-taken was wrong
                            stats.mispredicts += 1
                            stats.prophet_mispredicts += 1
                    else:
                        census_record(head_handle.critique_kind(taken))
                        prophet_misp = head_handle.prophet_pred != taken
                        final_misp = head_handle.final_pred != taken
                        if prophet_misp:
                            stats.prophet_mispredicts += 1
                        if final_misp:
                            stats.mispredicts += 1
                        if collect_per_site:
                            record_site(head_handle.pc, prophet_misp, final_misp)
                sys_resolve(head_handle, taken)
                if head_handle.is_static:
                    if btb_allocate is not None:
                        btb_allocate(head_handle.pc)
                    mispredicted = taken
                else:
                    mispredicted = head_handle.final_pred != taken
                head += 1
                resolved += 1
                if resolved == warmup:
                    # Warmup boundary: everything fetched up to this
                    # commit is excluded from the measured fetch traffic.
                    warmup_fetched = walker.fetched_uops
                if mispredicted:
                    # Resolved mispredict: flush everything younger,
                    # repair, redirect down the actual outcome.
                    sys_recover(head_handle, taken)
                    walker_restore(head_handle.snap_block, head_handle.snap_ras)
                    walker.advance(taken)
                    tail = head
                    critiqued = 0
                    next_seq = head_handle.seq + 1
                    break
                critiqued -= 1
                if resolved >= n_branches:
                    break
                if not (critiqued > 0 and tail - head > depth):
                    break
    finally:
        if not config.collect_predictor_stats:
            system.set_stats_enabled(True)

    stats.fetched_uops = max(0, walker.fetched_uops - warmup_fetched)
    return stats


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
