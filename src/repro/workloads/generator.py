"""Random-program generator.

Builds closed CFG :class:`~repro.workloads.program.Program` instances from
a :class:`WorkloadProfile`. The construction is structured (functions made
of sequential segments: diamonds, loops, calls, straight-line code) so the
resulting control flow resembles compiled code: an outer driver loop in
``main`` calls leaf functions, loops nest one level, and conditional
branches carry behaviours drawn from the profile's mix.

The profile's knobs are the statistical levers the experiments rely on:

* ``behavior_mix`` controls the share of loops / patterns / random /
  correlated / path-correlated / modal branches — i.e. how much of the
  branch population is fundamentally predictable, and by what mechanism;
* ``static_branch_target`` scales table pressure (aliasing at small
  predictor budgets);
* ``correlation_distance`` stretches correlations beyond short history
  windows, creating the systematic mispredicts critics exploit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from repro.utils.rng import DeterministicRng
from repro.workloads.behaviors import (
    BiasedRandomBehavior,
    BranchBehavior,
    CallerCorrelatedBehavior,
    CorrelatedBehavior,
    LoopBehavior,
    ModalBehavior,
    PathCorrelatedBehavior,
    PatternBehavior,
)
from repro.workloads.program import BasicBlock, BlockKind, Program

#: Default behaviour mix, roughly integer-code-like.
DEFAULT_MIX: dict[str, float] = {
    "loop": 0.18,
    "pattern": 0.08,
    "random": 0.10,
    "correlated": 0.26,
    "path": 0.16,
    "modal": 0.10,
    "caller": 0.12,
}


@dataclass
class WorkloadProfile:
    """Parameters controlling synthetic program generation."""

    name: str = "custom"
    seed: int = 1
    #: Approximate number of static conditional branches to generate.
    static_branch_target: int = 160
    #: Minimum number of callable leaf functions (main is extra). The
    #: actual count is sized so leaves stay small (see leaf_segments):
    #: real programs are many small functions, and small callees are what
    #: put the caller's post-return branches within future-bit reach.
    n_functions: int = 6
    #: Segments per leaf function (range). Long enough that the callee
    #: body (with its loops) pushes the caller out of a history window;
    #: short enough that leaves stay numerous.
    leaf_segments: tuple[int, int] = (4, 10)
    #: Range of uops per basic block (branch density lever; the paper
    #: quotes one conditional branch every ~13 uops for IA32).
    uops_per_block: tuple[int, int] = (3, 16)
    #: Behaviour mix weights (normalised internally).
    behavior_mix: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_MIX))
    #: Taken-bias range for random branches. Biases are sampled from the
    #: *edges* of this range (strongly biased branches dominate real code;
    #: mid-bias branches are the SERV suite's speciality).
    bias_range: tuple[float, float] = (0.05, 0.95)
    #: Fraction of random branches with mid-range (hard) bias.
    hard_random_fraction: float = 0.25
    #: Candidate loop trip counts. Small trips keep back-edges from
    #: dominating the dynamic branch mix (each back-edge fires trip times
    #: per loop visit).
    loop_trips: tuple[int, ...] = (2, 3, 4, 5, 8)
    #: Loop instances between trip-count changes for variable loops.
    loop_persistence: int = 64
    #: Fraction of loops whose trip count varies (phase-wise).
    variable_loop_fraction: float = 0.20
    #: Segment distance (≈ branches) back to correlation sources. Short
    #: distances land inside every predictor's history window; long ones
    #: are visible only to long-history components (perceptron critics,
    #: TAGE) — real code has both, dominated by short.
    correlation_distance: tuple[int, int] = (1, 8)
    #: Probability a correlated branch XORs two sources (non-linearly
    #: separable — the perceptron's blind spot, a tagged table's bread).
    correlation_two_source: float = 0.5
    #: Flip noise on correlated branches.
    correlation_noise: float = 0.03
    #: Flip noise on caller-correlated branches.
    caller_noise: float = 0.02
    #: Lengths of repeating patterns.
    pattern_lengths: tuple[int, ...] = (2, 3, 4, 5, 7)
    #: Window (in blocks) for path correlation.
    path_window: tuple[int, int] = (8, 48)
    #: Modal phase period (branch executions per phase).
    modal_period: tuple[int, int] = (96, 512)
    #: Probability a segment is a call to a leaf function.
    call_fraction: float = 0.18

    def normalised_mix(self) -> dict[str, float]:
        """Behaviour weights rescaled to sum to one (zero entries dropped).

        >>> mix = WorkloadProfile(behavior_mix={"loop": 3.0, "random": 1.0,
        ...                                     "pattern": 0.0}).normalised_mix()
        >>> (mix["loop"], mix["random"], "pattern" in mix)
        (0.75, 0.25, False)
        """
        total = sum(self.behavior_mix.values())
        if total <= 0:
            raise ValueError("behaviour mix must have positive total weight")
        return {k: v / total for k, v in self.behavior_mix.items() if v > 0}

    @classmethod
    def from_dict(cls, payload) -> "WorkloadProfile":
        """Rebuild a profile from its ``asdict`` form (e.g. a JSON config).

        JSON turns the tuple-valued fields (ranges, trip counts, pattern
        lengths) into lists; this constructor coerces them back so a
        round-tripped profile is *equal* to the original. Unknown keys
        are rejected, naming the valid field set.

        >>> from dataclasses import asdict
        >>> profile = WorkloadProfile(name="x", loop_trips=(2, 9))
        >>> WorkloadProfile.from_dict(asdict(profile)) == profile
        True
        """
        names = [f.name for f in fields(cls)]
        unknown = sorted(set(payload) - set(names))
        if unknown:
            raise ValueError(
                f"unknown key(s) {unknown} in workload profile; valid keys: {names}"
            )
        kwargs = {
            key: tuple(value) if isinstance(value, list) else value
            for key, value in payload.items()
        }
        return cls(**kwargs)


class ProgramGenerator:
    """Generates :class:`Program` instances from a :class:`WorkloadProfile`."""

    def __init__(self, profile: WorkloadProfile) -> None:
        self.profile = profile
        self._rng = DeterministicRng(profile.seed)
        self._blocks: list[BasicBlock] = []
        self._pc_cursor = 0x400000
        self._cond_sites: list[int] = []
        self._diamond_arms: list[int] = []
        self._watched: set[int] = set()
        # Position hints for behaviour placement (caller-correlated
        # branches want to sit late in leaf functions, near the return).
        self._building_leaf = False
        self._segment_fraction = 0.0
        # The behaviour mix, drawn from once per conditional: "caller"
        # apart (it is placed by position), the rest a weighted choice.
        mix = profile.normalised_mix()
        self._caller_weight = mix.pop("caller", 0.0)
        self._kinds = list(mix)
        self._weights = list(mix.values())

    # -- low-level builders ---------------------------------------------------

    def _new_block(
        self,
        kind: BlockKind,
        taken_target: int | None = None,
        fallthrough: int | None = None,
        behavior: BranchBehavior | None = None,
    ) -> BasicBlock:
        uops = self._rng.randint(*self.profile.uops_per_block)
        pc = self._pc_cursor
        blocks = self._blocks
        block = BasicBlock(len(blocks), pc, uops, kind, taken_target, fallthrough, behavior)
        blocks.append(block)
        self._pc_cursor = pc + uops * 4 + 4
        return block

    def _pick_behavior(self) -> BranchBehavior:
        profile = self.profile
        caller_weight = self._caller_weight
        # Caller-correlated behaviour only makes sense inside callees, and
        # its *future-bit* signature requires sitting just before the
        # return: the caller's identity is then many dynamic branches
        # behind (across the callee body, loops included) but only one or
        # two predictions ahead. Restrict it to the tail of leaf functions.
        if caller_weight > 0.0 and self._building_leaf and self._segment_fraction >= 0.7:
            boosted = min(0.9, caller_weight * 6.0)
            if self._rng.random() < boosted:
                depth = 2 if self._rng.random() < 0.5 else 1
                return CallerCorrelatedBehavior(
                    noise=profile.caller_noise, salt=self.profile.seed, depth=depth
                )
        if not self._kinds:
            return CallerCorrelatedBehavior(noise=profile.caller_noise, salt=self.profile.seed)
        kind = self._rng.weighted_choice(self._kinds, self._weights)
        if kind == "loop":
            return self._make_loop_behavior()
        if kind == "pattern":
            length = self._rng.choice(profile.pattern_lengths)
            pattern = "".join(self._rng.choice("TN") for _ in range(length))
            if set(pattern) == {"T"} or set(pattern) == {"N"}:
                pattern = "T" + pattern[1:-1] + "N" if length > 1 else "T"
            return PatternBehavior(pattern)
        if kind == "random":
            low, high = profile.bias_range
            if self._rng.random() < profile.hard_random_fraction:
                # Mid-range bias: genuinely hard, bounded-accuracy branch.
                bias = 0.35 + 0.3 * self._rng.random()
            elif self._rng.random() < 0.5:
                bias = low + 0.10 * self._rng.random()
            else:
                bias = high - 0.10 * self._rng.random()
            return BiasedRandomBehavior(min(1.0, max(0.0, bias)))
        if kind == "correlated":
            return self._make_correlated_behavior()
        if kind == "path":
            return self._make_path_behavior()
        if kind == "modal":
            low, high = profile.modal_period
            children = (
                self._make_correlated_behavior()
                if self._cond_sites and self._rng.random() < 0.5
                else PatternBehavior("TTN"),
                BiasedRandomBehavior(0.2 + 0.6 * self._rng.random()),
            )
            return ModalBehavior(children, period=self._rng.randint(low, high))
        raise ValueError(f"unknown behaviour kind {kind!r}")

    def _make_loop_behavior(self) -> LoopBehavior:
        profile = self.profile
        if self._rng.random() < profile.variable_loop_fraction and len(profile.loop_trips) >= 2:
            choices = tuple(
                self._rng.choice(profile.loop_trips) for _ in range(self._rng.randint(2, 3))
            )
            deduped = tuple(dict.fromkeys(choices))  # order-stable dedupe
            return LoopBehavior(
                trip_choices=deduped if len(deduped) >= 2 else (3, 5),
                persistence=profile.loop_persistence,
            )
        return LoopBehavior(trip_count=self._rng.choice(profile.loop_trips))

    def _make_correlated_behavior(self) -> BranchBehavior:
        if not self._cond_sites:
            return BiasedRandomBehavior(0.5)
        low, high = self.profile.correlation_distance
        # Short distances dominate (as in real code); the tail stays long.
        if self._rng.random() < 0.70:
            high = max(low, min(high, low + 2))
        distance = self._rng.randint(low, high)
        index = max(0, len(self._cond_sites) - distance)
        sources = [self._cond_sites[index]]
        if len(self._cond_sites) > 4 and self._rng.random() < self.profile.correlation_two_source:
            second = self._rng.choice(self._cond_sites[max(0, index - 3) : index + 3])
            if second != sources[0]:
                sources.append(second)
        return CorrelatedBehavior(
            tuple(sources),
            invert=self._rng.random() < 0.5,
            noise=self.profile.correlation_noise,
        )

    def _make_path_behavior(self) -> BranchBehavior:
        if not self._diamond_arms:
            return self._make_correlated_behavior()
        watched = self._rng.choice(self._diamond_arms[-12:])
        self._watched.add(watched)
        low, high = self.profile.path_window
        return PathCorrelatedBehavior(
            watched,
            window=self._rng.randint(low, high),
            invert=self._rng.random() < 0.5,
        )

    # -- segment builders -------------------------------------------------------
    #
    # Each builder creates blocks for one segment and returns (head_id,
    # tail_block) where tail_block's successor is patched to the next
    # segment's head by the caller.

    def _build_diamond(self) -> tuple[int, list[BasicBlock]]:
        cond = self._new_block(BlockKind.COND, behavior=self._pick_behavior())
        then_arm = self._new_block(BlockKind.JUMP)
        else_arm = self._new_block(BlockKind.JUMP)
        cond.taken_target = then_arm.block_id
        cond.fallthrough = else_arm.block_id
        self._cond_sites.append(cond.pc)
        self._diamond_arms.append(then_arm.block_id)
        # Both arms need their targets patched to the join (next segment).
        return cond.block_id, [then_arm, else_arm]

    def _build_loop(self) -> tuple[int, list[BasicBlock]]:
        body = self._new_block(BlockKind.JUMP)
        back_edge = self._new_block(BlockKind.COND, behavior=self._make_loop_behavior())
        body.taken_target = back_edge.block_id
        back_edge.taken_target = body.block_id  # loop while taken
        self._cond_sites.append(back_edge.pc)
        # Fallthrough (loop exit) patched to next segment.
        return body.block_id, [back_edge]

    def _build_call(self, callee_entry: int) -> tuple[int, list[BasicBlock]]:
        call = self._new_block(BlockKind.CALL, taken_target=callee_entry)
        # The call's fallthrough (return point) is patched to next segment.
        return call.block_id, [call]

    def _build_straight(self) -> tuple[int, list[BasicBlock]]:
        block = self._new_block(BlockKind.JUMP)
        return block.block_id, [block]

    def _patch(self, tails: list[BasicBlock], target: int) -> None:
        for block in tails:
            if block.kind is BlockKind.COND:
                block.fallthrough = target
            elif block.kind is BlockKind.CALL:
                block.fallthrough = target
            else:
                block.taken_target = target

    def _build_function(
        self, n_segments: int, callee_entries: list[int], is_main: bool
    ) -> int:
        """Build one function; return its entry block id."""
        entry_head: int | None = None
        pending_tails: list[BasicBlock] = []
        self._building_leaf = not is_main
        for segment_index in range(n_segments):
            self._segment_fraction = segment_index / max(1, n_segments - 1)
            roll = self._rng.random()
            if callee_entries and roll < self.profile.call_fraction:
                head, tails = self._build_call(self._rng.choice(callee_entries))
            elif roll < self.profile.call_fraction + 0.45:
                head, tails = self._build_diamond()
            elif roll < self.profile.call_fraction + 0.70:
                head, tails = self._build_loop()
            else:
                head, tails = self._build_straight()
            if entry_head is None:
                entry_head = head
            else:
                self._patch(pending_tails, head)
            pending_tails = tails
        if is_main:
            closer = self._new_block(BlockKind.JUMP, taken_target=entry_head)
        else:
            closer = self._new_block(BlockKind.RETURN)
        self._patch(pending_tails, closer.block_id)
        assert entry_head is not None
        return entry_head

    # -- public API ---------------------------------------------------------------

    def generate(self) -> Program:
        """Build the program described by the profile."""
        profile = self.profile
        # Budget segments so conditional branches land near the target:
        # diamonds and loops contribute one cond each; with the segment
        # type odds above, ~0.70 of non-call segments carry a cond.
        conds_per_segment = 0.70 * (1 - profile.call_fraction)
        total_segments = max(4, int(profile.static_branch_target / conds_per_segment))
        # main gets a third of the segments; small leaves share the rest.
        main_segments = max(4, total_segments // 3)
        leaf_budget = total_segments - main_segments
        mean_leaf = (profile.leaf_segments[0] + profile.leaf_segments[1]) / 2
        leaf_count = max(profile.n_functions, int(leaf_budget / mean_leaf))

        callee_entries: list[int] = []
        for _ in range(leaf_count):
            # Leaves may call any previously created leaf (acyclic call
            # graph, many call sites per callee).
            n_segments = self._rng.randint(*profile.leaf_segments)
            entry = self._build_function(n_segments, callee_entries, is_main=False)
            callee_entries.append(entry)
        main_entry = self._build_function(main_segments, callee_entries, is_main=True)

        program = Program(
            name=profile.name,
            blocks=self._blocks,
            entry=main_entry,
            seed=profile.seed,
            watched_blocks=self._watched,
        )
        program.validate()
        return program


def generate_program(profile: WorkloadProfile) -> Program:
    """One-shot convenience wrapper around :class:`ProgramGenerator`.

    Generation is deterministic in the profile — equal profiles yield
    structurally identical programs:

    >>> profile = WorkloadProfile(name="tiny", seed=42, static_branch_target=40)
    >>> first, second = generate_program(profile), generate_program(profile)
    >>> first.structure() == second.structure()
    True
    """
    return ProgramGenerator(profile).generate()
