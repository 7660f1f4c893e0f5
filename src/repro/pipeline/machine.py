"""Cycle-stepped decoupled front end + interval back end → uPC.

The front end models §5's implementation faithfully in timing terms:

* the prophet produces up to 2 predictions per cycle into the FTQ;
* the critic criticises up to 1 prediction per cycle, in order, once the
  required future bits are present; a disagreement flushes only the
  uncriticised FTQ tail and redirects the prophet (no back-end cost);
* the instruction cache consumes up to ``fetch_width_uops`` per cycle
  from the FTQ head;
* consumed branches resolve ``mispredict_penalty_cycles`` later (the
  paper's 30-cycle pipeline); a resolved final-prediction mispredict
  flushes everything and restarts fetch after the penalty;
* committed uops are charged issue-width cycles plus the
  :class:`~repro.pipeline.caches.MemoryModel`'s data-side stalls.

This captures the terms that differentiate predictors — flush frequency,
front-end refill, wasted wrong-path fetch — which is what Figures 9/10
measure. Absolute uPC is calibrated only loosely (documented
substitution: no data-address stream exists in the workload substrate).

Hot-path shape
--------------

Each mispredict flushes the FTQ and the pipe, so the loop fetches about
17 branches for each one it resolves, and a critique runs on most
cycles. :meth:`TimedMachine.run` is therefore one fused cycle loop on
the batched kernel's per-program precompute (:mod:`repro.sim.batched`),
kept in the program's replay context and shared with the accuracy cells
on the same program:

* **Front end.** Fetch walks the flat CFG table (``_make_flattener``)
  with a cons-list RAS: one dict hit per fetch on call-free stretches.
  Each table entry also carries the branch's BTB set and tag and the
  prophet's and critic's pc constants (``_make_pc_consts``), so the BTB
  probe runs inline on ``self.btb._sets``.
* **Prophet.** 2Bc-gskew predicts inline from those constants and the
  ``_gskew_xor_tables`` images. A prophet with an op bundle (the
  batched kernel's ``_BUNDLES``: the perceptron and TAGE) goes through
  it: ``predict(pc >> 2, bhr)`` at fetch and ``train(pc >> 2, bhr,
  taken)`` at resolve over the ring's fetch-time BHR. Any other prophet
  is called through its own ``predict_packed``/``update_packed``: the
  system's calls without the system hop.
* **Critic.** The tagged-gshare and filtered-perceptron critics share an
  inline hash (the ``_critic_fold_tables`` images, or ``_fold_hash``
  outside their width gate) and filter probe; the opinion is a counter
  read or a ``PerceptronOps`` ``predict`` over the BOR. An unfiltered
  critic goes through its op bundle if it has one and its packed calls
  otherwise; any other filtered critic through its ``lookup``/``train``.
  Training runs at resolve, once per committed branch, over the
  critique-time BOR. Every bundle is written back when ``run`` returns.
* **In-flight ring.** Fetched branches are tuples in one power-of-two
  ring, indexed by three running counters, oldest first: ``head`` (the
  resolve queue), ``cons`` (the FTQ head, the first entry the cache has
  not consumed) and ``tail``. Consuming, retiring and both flushes move
  counters; the ring is reused, so no entry outlives its slot.
* **Memory stalls.** :meth:`MemoryModel.stall_column` charges each
  committed branch from one precomputed column, cached per memory model.

The committed stream — pc, outcome and uops per branch — comes from the
memoized architectural-trace columns, and each retired branch is checked
against the fetched entry it resolves. The front end's position and
RAS, the BTB and the system's BHR/BOR persist on the machine across
``run`` calls, so a second call continues the stream. The BTB keeps its
tag sets and LRU order but not its ``BtbStats`` counters. The loop this
replaced is frozen in ``tests/reference_timing.py``, and differential
tests pin this one to it bit for bit, end-of-run predictor state
included.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.hybrid import PredictionSystem, ProphetCriticSystem, SinglePredictorSystem
from repro.engine.btb import BranchTargetBuffer
from repro.pipeline.caches import MemoryModel
from repro.pipeline.uarch import MachineConfig, TABLE2_MACHINE
from repro.sim.driver import SimulationDesyncError
from repro.workloads.program import Program


@dataclass
class PipelineResult:
    """Timing outcome of one run."""

    benchmark: str = ""
    system: str = ""
    cycles: int = 0
    committed_uops: int = 0
    fetched_uops: int = 0
    branches: int = 0
    mispredicts: int = 0
    critic_redirects: int = 0
    ftq_empty_cycles: int = 0

    @property
    def upc(self) -> float:
        """Uops per cycle — the paper's performance metric (Figs. 9/10)."""
        if self.cycles == 0:
            return 0.0
        return self.committed_uops / self.cycles

    @property
    def uops_per_flush(self) -> float:
        if self.mispredicts == 0:
            return float("inf")
        return self.committed_uops / self.mispredicts

    @property
    def wrong_path_fetch_fraction(self) -> float:
        """Share of fetched uops that were wrong-path (headline: −8.6%
        total fetch for the hybrid comes from shrinking this)."""
        if self.fetched_uops == 0:
            return 0.0
        return max(0.0, 1.0 - self.committed_uops / self.fetched_uops)


def _grown(rings: tuple, cmask: int, head: int, tail: int) -> tuple:
    """The in-flight rings at twice the capacity, entries ``head`` to
    ``tail`` kept at the same running indices; returns them and the new
    mask. A resolve queue only outgrows the ring when retire is slower
    than fetch."""
    size = 2 * (cmask + 1)
    grown = tuple([None] * size for _ in rings)
    for old, new in zip(rings, grown):
        for i in range(head, tail):
            new[i & (size - 1)] = old[i & cmask]
    return grown, size - 1


class TimedMachine:
    """Runs a prediction system under the Table-2 timing model."""

    def __init__(
        self,
        program: Program,
        system: PredictionSystem,
        machine: MachineConfig = TABLE2_MACHINE,
        memory: MemoryModel | None = None,
    ) -> None:
        # Exact types: the loop inlines these systems' events, which a
        # subclass could override.
        if type(system) not in (SinglePredictorSystem, ProphetCriticSystem):
            raise TypeError(
                "TimedMachine runs a SinglePredictorSystem or a "
                f"ProphetCriticSystem, not {type(system).__name__}"
            )
        self.program = program
        self.system = system
        self.machine = machine
        self.memory = memory if memory is not None else MemoryModel(machine)
        program.reset()
        self.btb = BranchTargetBuffer(machine.btb_entries, machine.btb_ways)
        #: Committed branches resolved by earlier ``run`` calls: a second
        #: call continues the committed stream where the first stopped.
        self._committed_branches = 0
        #: Front end between runs: the block fetch resumes at, the RAS as
        #: a (cons list, depth) pair, and the uops fetched so far.
        self._front = (program.entry, (None, 0))
        self._fetched_uops = 0

    def _stall_column(self, batched, ctx, t_uops, base: int) -> list[float]:
        """Each committed branch's memory stall, from trace index ``base``.

        A run numbers its committed uops from 0, so a first run's column
        is prefix-stable and cached in the replay context, keyed by the
        model's parameters; a continued run builds its own.
        """
        memory = self.memory
        if base:
            return memory.stall_column(t_uops[base:])
        machine = memory.machine
        key = (
            "stall", type(memory), memory.l1_miss_per_uop, memory.l2_miss_per_uop,
            memory.mlp, memory.seed, machine.l1d.hit_cycles + machine.l2.hit_cycles,
            machine.memory_latency_cycles,
        )
        return batched._ctx_get(ctx, key, lambda: memory.stall_column(t_uops))

    # Patched by name by perfbench/layers.py, the layer tracer.
    def run(self, n_branches: int, warmup: int = 0) -> PipelineResult:
        """Simulate until ``n_branches`` resolve; measure after ``warmup``."""
        if warmup >= n_branches:
            raise ValueError("warmup must leave a measurement window")
        # Looked up on the module at call time, so a wrapper installed on
        # repro.sim.batched also sees the timing model's requests.
        from repro.sim import batched

        program = self.program
        system = self.system
        machine = self.machine
        base = self._committed_branches
        t_pc, t_tk, t_uops = batched._architectural_trace(
            program, base + n_branches
        )[:3]
        self._committed_branches = base + n_branches
        ctx = batched._program_ctx(program)
        ctx.fit(t_pc)
        stall = self._stall_column(batched, ctx, t_uops, base)

        # ---- per-system arms --------------------------------------------
        if type(system) is SinglePredictorSystem:
            prophet, critic = system.predictor, None
            ckind = batched._CR_NONE
        else:
            prophet, critic = system.prophet, system.critic
            ckind = batched._critic_kind(system)
        kind = batched._PROPHET_KINDS.get(type(prophet), batched._PACKED)
        gskew = kind == batched._GSKEW
        bundled = kind == batched._OPS
        tagged = ckind == batched._CR_TAGGED
        fperc = ckind == batched._CR_FPERC
        fused = tagged or fperc
        plain = ckind == batched._CR_PLAIN

        # The flat CFG table: block -> (uops, RAS ops, pc, taken target,
        # fallthrough, _, BTB set, BTB tag, prophet constants x4, critic
        # pc constants x2). A prophet without an inline arm reads none of
        # its constants, so it shares the gshare-shaped table.
        btb = self.btb
        b_sets = btb._sets
        b_ways = btb.ways
        pc_consts = batched._make_pc_consts(prophet, kind, critic if fused else None)
        flat, flatten = batched._ctx_get(
            ctx,
            ("flat", batched._prophet_geometry(prophet, kind), True,
             btb._set_mask, btb._set_bits, 5 + critic.tag_bits if fused else 5),
            lambda: batched._make_flattener(
                program.compiled(pair_limit=batched._RAS_CAPACITY), True,
                btb._set_mask, btb._set_bits, pc_consts,
            ),
        )
        if gskew:
            gk_imask = prophet._index_mask
            gk_hmask = prophet._history_mask
            gk_bim = prophet._bim_raw
            gk_g0 = prophet._g0_raw
            gk_g1 = prophet._g1_raw
            gk_meta = prophet._meta_raw
            gk_hx, gk_hv = batched._gskew_xor_tables(prophet)
        # Op bundles (prophet, critic or its perceptron), written back in
        # the ``finally`` below.
        bundles: dict = {}
        if bundled:
            p_ops = batched._bundle(bundles, prophet)
            p_predict, p_train = p_ops.predict, p_ops.train
        elif not gskew:
            p_predict, p_update = prophet.predict_packed, prophet.update_packed
        c_ops = None
        if fused:
            filt = critic.filter
            f_tags = filt._tags
            f_lru = filt._lru
            geometry = batched._critic_fold_geometry(critic)
            c_hmask, c_set_mask, c_tag_mask = geometry[0], geometry[4], geometry[5]
            if 0 < c_hmask.bit_length() <= 19:
                f_lo, f_hi, f_k = batched._critic_fold_tables(geometry)
                f_kmask = (1 << f_k) - 1
                f_sb = c_set_mask.bit_length()
                vmask = (c_hmask << 1) | 1
            else:
                f_lo = None
                fold_hash = batched._fold_hash(geometry)
            if tagged:
                c_counters = critic._counters_raw
                c_ways = critic.ways
                c_train = critic.train_hashed
            else:
                fp = critic.perceptron
                fp_ops = batched._bundle(bundles, fp)
                fp_predict, fp_train = fp_ops.predict, fp_ops.train
        elif plain:
            if type(critic) in batched._BUNDLES:
                c_ops = batched._bundle(bundles, critic)
                c_predict, c_train = c_ops.predict, c_ops.train
            else:
                c_predict, c_update = critic.predict_packed, critic.update_packed

        # ---- machine state -----------------------------------------------
        required_bits = max(system.future_bits, 0)
        live_bor = system.future_bits >= 1
        insert_final = system._insert_on_final if critic is not None else True
        prophet_slots = range(machine.prophet_rate)
        critic_rate = machine.critic_rate
        ftq_entries = machine.ftq_entries
        fetch_width = machine.fetch_width_uops
        retire_width = machine.retire_width_uops
        penalty = machine.mispredict_penalty_cycles
        entry = program.entry
        ras_cap = batched._RAS_CAPACITY

        bhr = system.bhr
        bhr_val = bhr._value
        bhr_mask = bhr._mask
        if critic is not None:
            bor = system.bor
            bor_val = bor._value
            bor_mask = bor._mask
        else:
            bor_val = bor_mask = 0
        w_block, snap = self._front  # snap: the live RAS, (cons list, depth)

        # In-flight ring, running indices head <= cons <= tail. Each fetch
        # stores one record, and each critique of a dynamic branch one
        # more (the critique-time fields); ``r_due`` holds the resolve
        # cycle of the consumed entries.
        #
        #   r_fe[s] = (flat entry, uops, prophet pred, bhr, bor, seq,
        #              static, packed prophet state, RAS snapshot)
        #   r_cq[s] = (final, set index | critic state, tag, bor)
        cmask = (1 << (ftq_entries + penalty + 16).bit_length()) - 1
        r_fe = [None] * (cmask + 1)
        r_cq = [None] * (cmask + 1)
        r_due = [0] * (cmask + 1)
        head = cons = tail = 0
        criticised = 0  # FTQ entries from cons on that have a critique
        next_seq = 0
        resolved = 0
        trace_index = base
        cycle = 0
        fetch_blocked_until = 0
        backend_stall = 0.0
        committed = 0
        fetched_uops = self._fetched_uops
        branches = mispredicts = critic_redirects = ftq_empty_cycles = 0
        f_lookups = f_hits = 0
        measure_pending = warmup > 0
        measure_start_uops = measure_start_fetched = measure_start_cycle = 0
        head_fetch_remaining = 0  # uops left to fetch of the FTQ head
        retire_left = 0  # uops left to retire of a partly retired head

        try:
            while resolved < n_branches:
                cycle += 1
                if measure_pending and resolved >= warmup:
                    measure_pending = False
                    measure_start_cycle = cycle
                    measure_start_uops = committed
                    measure_start_fetched = fetched_uops

                # --- prophet: up to prophet_rate predictions/cycle --------
                if cycle >= fetch_blocked_until:
                    for _ in prophet_slots:
                        if tail - cons >= ftq_entries:
                            break
                        try:
                            fs = flat[w_block]
                        except KeyError:
                            fs = flatten(w_block)
                        if fs[1] is None and fs[2] is not None:
                            uops = fs[0]  # straight to a branch, no RAS traffic
                        else:
                            ras_c, ras_n = snap
                            uops = 0
                            while True:
                                uops += fs[0]
                                ops = fs[1]
                                if ops is not None:
                                    for op in ops:
                                        if op >= 0:
                                            ras_c = (op, ras_c)
                                            if ras_n < ras_cap:
                                                ras_n += 1
                                        else:
                                            ras_c = ras_c[1]
                                            ras_n -= 1
                                if fs[2] is not None:
                                    break
                                # Dynamic return: off the RAS, or the entry
                                # on a (wrong-path) underflow.
                                if ras_n:
                                    bid, ras_c = ras_c
                                    ras_n -= 1
                                else:
                                    bid = entry
                                try:
                                    fs = flat[bid]
                                except KeyError:
                                    fs = flatten(bid)
                            snap = (ras_c, ras_n)
                        fetched_uops += uops
                        if tail - head > cmask:
                            (r_fe, r_cq, r_due), cmask = _grown(
                                (r_fe, r_cq, r_due), cmask, head, tail
                            )
                        brow = b_sets[fs[6]]
                        btag = fs[7]
                        if brow and brow[-1] == btag:
                            dynamic = True
                        elif btag in brow:
                            brow.remove(btag)
                            brow.append(btag)
                            dynamic = True
                        else:
                            dynamic = False
                        if dynamic:
                            if gskew:
                                v1 = fs[8]
                                v2 = ((bhr_val & gk_hmask) ^ fs[9]) & gk_imask
                                bim = gk_bim[v1] > 1
                                if gk_meta[fs[11] ^ gk_hv[v2]] > 1:
                                    g0 = fs[10] ^ gk_hx[v2]
                                    pred = (
                                        bim + (gk_g0[g0] > 1) + (gk_g1[g0 ^ v2 ^ v1] > 1)
                                    ) >= 2
                                else:
                                    pred = bim
                                pstate = None  # trained through update
                            elif bundled:
                                pstate = None  # trained over the ring's bhr
                                pred = p_predict(fs[8], bhr_val)
                            else:
                                pred, pstate = p_predict(fs[2], bhr_val)
                            r_fe[tail & cmask] = (
                                fs, uops, pred, bhr_val, bor_val, next_seq,
                                False, pstate, snap,
                            )
                            bhr_val = ((bhr_val << 1) | pred) & bhr_mask
                            bor_val = ((bor_val << 1) | pred) & bor_mask
                            next_seq += 1
                            w_block = fs[3] if pred else fs[4]
                        else:
                            # BTB miss: static not-taken, no history bit.
                            r_fe[tail & cmask] = (
                                fs, uops, False, bhr_val, bor_val, next_seq,
                                True, None, snap,
                            )
                            w_block = fs[4]
                        tail += 1

                # --- critic: up to critic_rate critiques/cycle, then the
                # forced critique of an uncritiqued FTQ head: the cache
                # needs its prediction now, so it is critiqued with the
                # future bits available (§5) -- stalling fetch on the
                # critic would starve the machine after every flush.
                n_crit = critic_rate
                while criticised < tail - cons:
                    s = (cons + criticised) & cmask
                    fe = r_fe[s]
                    if n_crit and (
                        fe[6] or next_seq - fe[5] >= required_bits
                        or tail - cons >= ftq_entries
                    ):
                        n_crit -= 1
                    elif criticised:
                        break  # wait for more future bits
                    else:
                        n_crit = 0  # forced: nothing else this cycle
                    criticised += 1
                    if fe[6] or not ckind:
                        continue  # static, or no critic: final = prophet's
                    fs, _, ppred, bhrb, borb, seq, _, _, fsnap = fe
                    bor_value = bor_val if live_bor else borb
                    if fused:
                        k0 = fs[12]
                        if f_lo is not None:
                            w = bor_value & vmask
                            x = f_lo[w & f_kmask] ^ f_hi[((w >> f_k) << 1) | (w & 1)]
                            si = (k0 ^ x) & c_set_mask
                            tg = (fs[13] ^ (x >> f_sb)) & c_tag_mask
                        else:
                            si, tg = fold_hash(k0, fs[13], bor_value)
                        f_lookups += 1
                        frow = f_tags[si]
                        if tg in frow:
                            way = frow.index(tg)
                            f_hits += 1
                            order = f_lru[si]
                            if order[-1] != way:
                                order.remove(way)
                                order.append(way)
                            if tagged:
                                final = c_counters[si * c_ways + way] > 1
                            else:
                                final = fp_predict(k0, bor_value)
                        else:
                            final = ppred  # filter miss: implicit agree
                        r_cq[s] = (final, si, tg, bor_value)
                    elif c_ops is not None:
                        final = c_predict(fs[12], bor_value)
                        r_cq[s] = (final, None, None, bor_value)
                    elif plain:
                        final, cstate = c_predict(fs[2], bor_value)
                        r_cq[s] = (final, cstate, None, bor_value)
                    else:
                        found = critic.lookup(fs[2], bor_value)
                        final = found.prediction if found.hit else ppred
                        r_cq[s] = (final, None, None, bor_value)
                    if final != ppred:
                        # Override: flush the uncritiqued FTQ tail, repair
                        # both registers and refetch down the final edge.
                        tail = cons + criticised
                        bhr_val = ((bhrb << 1) | final) & bhr_mask
                        bor_val = ((borb << 1) | final) & bor_mask
                        snap = fsnap
                        w_block = fs[3] if final else fs[4]
                        next_seq = seq + 1
                        critic_redirects += 1

                # --- fetch: the cache consumes uops from the FTQ head -----
                # A block of U uops occupies the fetch port for ceil(U/width)
                # cycles; the branch enters the pipeline when its last uop
                # is fetched and resolves a full pipeline depth later.
                if tail > cons:
                    if head_fetch_remaining == 0:
                        head_fetch_remaining = r_fe[cons & cmask][1]
                    head_fetch_remaining -= fetch_width
                    if head_fetch_remaining <= 0:
                        head_fetch_remaining = 0
                        r_due[cons & cmask] = cycle + penalty
                        cons += 1
                        criticised -= 1
                else:
                    ftq_empty_cycles += 1

                # --- retire/resolve: bounded by retire width ---------------
                # A branch commits once all its block's uops have drained
                # through the retire port, so blocks wider than the port
                # take several cycles.
                retire_budget = retire_width
                while head < cons and r_due[head & cmask] <= cycle and retire_budget > 0:
                    s = head & cmask
                    fs, fuops, ppred, bhrb, borb, seq, static, pstate, fsnap = r_fe[s]
                    uops_left = retire_left or fuops
                    if uops_left > retire_budget:
                        retire_left = uops_left - retire_budget
                        break
                    retire_budget -= uops_left
                    retire_left = 0
                    head += 1
                    pc = t_pc[trace_index]
                    taken = t_tk[trace_index]
                    uops = t_uops[trace_index]
                    trace_index += 1
                    if pc != fs[2]:
                        raise SimulationDesyncError(
                            f"timing model desync at branch {resolved}: "
                            f"{pc:#x} vs {fs[2]:#x}"
                        )
                    committed += uops
                    backend_stall += stall[resolved]
                    resolved += 1
                    if resolved > warmup:
                        branches += 1
                    if static:
                        # Commit-time BTB allocation, evicting LRU.
                        brow = b_sets[fs[6]]
                        btag = fs[7]
                        if btag in brow:
                            brow.remove(btag)
                        elif len(brow) >= b_ways:
                            brow.pop(0)
                        brow.append(btag)
                        mispredicted = taken
                    else:
                        if bundled:
                            # update_packed through the op bundle.
                            if prophet.stats_enabled:
                                prophet.stats.record(ppred == taken)
                            p_train(fs[8], bhrb, taken)
                        elif gskew:
                            prophet.update(pc, bhrb, taken, ppred)
                        else:
                            p_update(pc, bhrb, taken, ppred, pstate)
                        if ckind:
                            final, si, tg, borc = r_cq[s]
                            final_mispredict = (final if insert_final else ppred) != taken
                            if tagged:
                                c_train(pc, borc, taken, final_mispredict, si, tg)
                            elif fperc:
                                # The filtered perceptron's train, with the
                                # critique's hash pair, on the integer
                                # weight mirror.
                                frow = f_tags[si]
                                hit = tg in frow
                                if hit or final_mispredict:
                                    if hit:
                                        filt._touch(si, frow.index(tg))
                                    else:
                                        filt.insert(si, tg)
                                    y = fp_train(fs[12], borc, taken)
                                    if fp.stats_enabled:
                                        fp.stats.record((y >= 0) == taken)
                                        if hit:
                                            critic.stats.record((y >= 0) == taken)
                            elif c_ops is not None:
                                # update_packed through the op bundle.
                                if critic.stats_enabled:
                                    critic.stats.record(final == taken)
                                c_train(fs[12], borc, taken)
                            elif plain:
                                c_update(pc, borc, taken, bool(final), si)
                            else:
                                critic.train(pc, borc, taken, final_mispredict)
                        else:
                            final = ppred
                        mispredicted = final != taken
                    if mispredicted:
                        if resolved > warmup:
                            mispredicts += 1
                        # Restore the checkpoints, insert the outcome and
                        # flush everything younger; fetch resumes next
                        # cycle (the 30-cycle penalty is the fetch-to-
                        # resolve delay the flushed work already paid).
                        bhr_val = ((bhrb << 1) | taken) & bhr_mask
                        bor_val = ((borb << 1) | taken) & bor_mask
                        snap = fsnap
                        w_block = fs[3] if taken else fs[4]
                        cons = tail = head
                        criticised = 0
                        head_fetch_remaining = 0
                        next_seq = seq + 1
                        fetch_blocked_until = cycle + 1
                        break

                # --- memory stalls extend the run as skipped cycles ---------
                if backend_stall >= 1.0:
                    skip = int(backend_stall)
                    backend_stall -= skip
                    cycle += skip
        finally:
            bhr._value = bhr_val
            if critic is not None:
                system.bor._value = bor_val
            self._front = (w_block, snap)
            self._fetched_uops = fetched_uops
            for bundle in bundles.values():
                bundle.write_back()
            if fused:
                filt.stats.lookups += f_lookups
                filt.stats.hits += f_hits

        return PipelineResult(
            benchmark=program.name,
            system=type(system).__name__,
            cycles=max(1, cycle - measure_start_cycle),
            committed_uops=committed - measure_start_uops,
            fetched_uops=fetched_uops - measure_start_fetched,
            branches=branches,
            mispredicts=mispredicts,
            critic_redirects=critic_redirects,
            ftq_empty_cycles=ftq_empty_cycles,
        )
