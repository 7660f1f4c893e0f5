"""Branch behaviour models.

Every conditional branch in a synthetic program owns a
:class:`BranchBehavior` that decides its architectural outcome. Behaviours
read an :class:`ExecutionContext` maintained by the architectural executor
and — by contract — are resolved **exactly once per architectural
execution, in program order, on the correct path only**. Wrong-path fetch
never resolves behaviours, which is what makes speculative traversal
side-effect free (the wrong path sees *predictions*, never outcomes,
exactly as in hardware).

The behaviour classes map to the branch populations real workloads exhibit
(and that the paper's benchmarks must have contained):

* :class:`LoopBehavior` — loop back-edges: taken for N-1 trips, then exit.
* :class:`PatternBehavior` — short repeating outcome sequences.
* :class:`BiasedRandomBehavior` — data-dependent branches; fundamentally
  unpredictable beyond their bias (tpcc/SERV are dominated by these).
* :class:`CorrelatedBehavior` — outcome is a boolean function of earlier
  branches' outcomes, at configurable lag; with a lag beyond a predictor's
  history reach these are the branches history-based prophets
  systematically miss.
* :class:`PathCorrelatedBehavior` — outcome depends on *which CFG path*
  executed recently (classic if-guard correlation).
* :class:`ModalBehavior` — phase-switching behaviour; mispredict bursts at
  phase changes.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

from repro.utils.rng import site_hash_outcome


@dataclass
class ExecutionContext:
    """Architectural state visible to behaviours.

    Maintained by the executor; one instance per program run.
    """

    seed: int = 0
    #: Monotonic count of blocks executed (a coarse "time" axis).
    step: int = 0
    #: Global outcome history (bit 0 = most recent), architectural.
    global_history: int = 0
    #: Per-site architectural execution counts.
    occurrences: dict[int, int] = field(default_factory=dict)
    #: Per-site most recent architectural outcome.
    last_outcome: dict[int, bool] = field(default_factory=dict)
    #: Per-block step of most recent execution (only watched blocks).
    last_block_step: dict[int, int] = field(default_factory=dict)
    #: Blocks whose executions must be recorded in ``last_block_step``.
    watched_blocks: set[int] = field(default_factory=set)
    #: Call-site block ids of the active call chain (architectural).
    caller_stack: list[int] = field(default_factory=list)

    def occurrence_of(self, site: int) -> int:
        """Architectural executions of ``site`` so far."""
        return self.occurrences.get(site, 0)

    def record_block(self, block_id: int) -> None:
        """Advance time; remember execution of watched blocks."""
        self.step += 1
        if block_id in self.watched_blocks:
            self.last_block_step[block_id] = self.step

    def current_caller(self) -> int:
        """Call-site block id of the innermost active call (0 at top level)."""
        return self.caller_stack[-1] if self.caller_stack else 0

    def push_caller(self, call_block: int) -> None:
        self.caller_stack.append(call_block)

    def pop_caller(self) -> None:
        if self.caller_stack:
            self.caller_stack.pop()

    def record_outcome(self, site: int, taken: bool) -> None:
        """Commit a branch outcome into architectural state."""
        self.occurrences[site] = self.occurrences.get(site, 0) + 1
        self.last_outcome[site] = taken
        self.global_history = ((self.global_history << 1) | int(taken)) & 0xFFFFFFFFFFFFFFFF


class BranchBehavior(abc.ABC):
    """Decides the architectural outcome of one branch site."""

    __slots__ = ()

    #: Short identifier used in program statistics and tests.
    kind: str = "behavior"

    @abc.abstractmethod
    def resolve(self, site: int, ctx: ExecutionContext) -> bool:
        """Return the outcome for the current architectural execution.

        Called exactly once per execution, in program order. Stateful
        implementations may mutate their own counters here.
        """

    def reset(self) -> None:
        """Forget per-run state (default: stateless)."""

    def has_state(self) -> bool:
        """Whether :meth:`reset` does anything (``Program.reset`` skips
        behaviours that answer False)."""
        return type(self).reset is not BranchBehavior.reset


class LoopBehavior(BranchBehavior):
    """A loop back-edge: taken ``trip_count - 1`` times, then not-taken.

    With ``trip_choices`` the trip count of each loop *instance* is drawn
    deterministically from the given set, modelling data-dependent loop
    bounds — the classic source of end-of-loop mispredicts.
    """

    __slots__ = (
        "_current_trip",
        "_instance",
        "_iteration",
        "_trip0",
        "persistence",
        "trip_choices",
        "trip_count",
    )

    kind = "loop"

    def __init__(
        self,
        trip_count: int = 4,
        trip_choices: tuple[int, ...] | None = None,
        persistence: int = 64,
    ) -> None:
        if trip_count < 2 and not trip_choices:
            raise ValueError("loops need a trip count of at least 2")
        if trip_choices and any(t < 2 for t in trip_choices):
            raise ValueError("all trip choices must be at least 2")
        if persistence < 1:
            raise ValueError("persistence must be positive")
        self.trip_count = trip_count
        self.trip_choices = tuple(trip_choices) if trip_choices else ()
        #: Loop instances between trip-count changes. Real loop bounds are
        #: phase-stable (the same buffer size for a while, then another),
        #: not white noise; persistence makes the bound learnable within a
        #: phase with a systematic mispredict burst at each change.
        self.persistence = persistence
        self._iteration = 0
        self._instance = 0
        #: Instance 0's trip count, which every reset restores.
        self._trip0 = self._current_trip = self._trip_for_instance(0)

    def _trip_for_instance(self, instance: int) -> int:
        if not self.trip_choices:
            return self.trip_count
        # Deterministic per-phase draw; independent of simulator order.
        phase = instance // self.persistence
        pick = site_hash_outcome(0xC0FFEE, phase, len(self.trip_choices), 0.5)
        index = (phase * 2654435761 + int(pick)) % len(self.trip_choices)
        return self.trip_choices[index]

    def resolve(self, site: int, ctx: ExecutionContext) -> bool:
        self._iteration += 1
        if self._iteration >= self._current_trip:
            self._iteration = 0
            self._instance += 1
            self._current_trip = self._trip_for_instance(self._instance)
            return False  # exit the loop
        return True  # keep looping

    def reset(self) -> None:
        self._iteration = 0
        self._instance = 0
        self._current_trip = self._trip0


class PatternBehavior(BranchBehavior):
    """Cyclic outcome pattern, e.g. ``"TTN"`` → taken, taken, not-taken.

    The cycle is indexed by the site's architectural occurrence count:

    >>> behavior, ctx = PatternBehavior("TTN"), ExecutionContext()
    >>> outcomes = []
    >>> for _ in range(4):
    ...     outcomes.append(behavior.resolve(0x40, ctx))
    ...     ctx.record_outcome(0x40, outcomes[-1])
    >>> outcomes
    [True, True, False, True]
    """

    __slots__ = ("pattern",)

    kind = "pattern"

    def __init__(self, pattern: str) -> None:
        if not pattern or set(pattern.upper()) - {"T", "N"}:
            raise ValueError("pattern must be a non-empty string of T and N")
        self.pattern = tuple(ch == "T" for ch in pattern.upper())

    def resolve(self, site: int, ctx: ExecutionContext) -> bool:
        return self.pattern[ctx.occurrence_of(site) % len(self.pattern)]


class BiasedRandomBehavior(BranchBehavior):
    """Bernoulli outcome with probability ``bias`` of being taken.

    Uses a stateless hash of (seed, site, occurrence) so outcomes are
    reproducible and independent of traversal order.
    """

    __slots__ = ("bias",)

    kind = "random"

    def __init__(self, bias: float = 0.5) -> None:
        if not 0.0 <= bias <= 1.0:
            raise ValueError("bias must be a probability")
        self.bias = bias

    def resolve(self, site: int, ctx: ExecutionContext) -> bool:
        return site_hash_outcome(ctx.seed, site, ctx.occurrence_of(site), self.bias)


class CorrelatedBehavior(BranchBehavior):
    """Outcome = XOR of the latest outcomes of ``source_sites`` (± noise).

    ``invert`` flips the result. ``noise`` is the probability of a random
    flip, bounding achievable accuracy even for a perfect correlator.
    Sources whose outcomes haven't been recorded yet default to not-taken.
    """

    __slots__ = ("invert", "noise", "source_sites")

    kind = "correlated"

    def __init__(self, source_sites: tuple[int, ...], invert: bool = False, noise: float = 0.0) -> None:
        if not source_sites:
            raise ValueError("need at least one source site")
        if not 0.0 <= noise <= 1.0:
            raise ValueError("noise must be a probability")
        self.source_sites = tuple(source_sites)
        self.invert = invert
        self.noise = noise

    def resolve(self, site: int, ctx: ExecutionContext) -> bool:
        value = self.invert
        for source in self.source_sites:
            value ^= ctx.last_outcome.get(source, False)
        if self.noise > 0.0 and site_hash_outcome(ctx.seed ^ 0x5EED, site, ctx.occurrence_of(site), self.noise):
            value = not value
        return value


class PathCorrelatedBehavior(BranchBehavior):
    """Taken iff ``watched_block`` executed within the last ``window`` blocks.

    Encodes if-guard correlation: the direction of this branch reveals (and
    is revealed by) which side of an earlier hammock executed. Programs
    must register ``watched_block`` in the context's watch set.
    """

    __slots__ = ("invert", "watched_block", "window")

    kind = "path"

    def __init__(self, watched_block: int, window: int = 32, invert: bool = False) -> None:
        if window < 1:
            raise ValueError("window must be positive")
        self.watched_block = watched_block
        self.window = window
        self.invert = invert

    def resolve(self, site: int, ctx: ExecutionContext) -> bool:
        last = ctx.last_block_step.get(self.watched_block)
        recent = last is not None and (ctx.step - last) <= self.window
        return recent != self.invert


class CallerCorrelatedBehavior(BranchBehavior):
    """Outcome fixed per (branch, call site): context-sensitive callees.

    A branch inside a shared function whose direction depends on *who
    called* — argument-dependent guards, the bread and butter of
    integer code. Each (site, caller) pair maps to one deterministic
    direction (via a hash), optionally flipped with probability ``noise``.

    This is the behaviour class where future bits genuinely beat history:
    for a branch near the end of a callee, the caller's identity lies many
    branches back (across the whole function body) — outside a history
    register — but the *post-return* branches of the caller are only a few
    predictions ahead, so the critic's future bits reveal the caller
    (the paper's taxi analogy: recognise the intersection by the streets
    that follow it).
    """

    __slots__ = ("depth", "noise", "salt")

    kind = "caller"

    def __init__(self, noise: float = 0.0, salt: int = 0, depth: int = 1) -> None:
        if not 0.0 <= noise <= 1.0:
            raise ValueError("noise must be a probability")
        if depth < 1:
            raise ValueError("depth must be at least 1")
        self.noise = noise
        self.salt = salt
        #: How much of the call chain the outcome depends on. depth=2
        #: (grand-caller sensitivity) rewards *deep* future windows: the
        #: grand-caller's code only shows up in the prediction stream
        #: after the immediate caller has also returned.
        self.depth = depth

    def resolve(self, site: int, ctx: ExecutionContext) -> bool:
        token = 0
        stack = ctx.caller_stack
        for level in range(1, self.depth + 1):
            caller = stack[-level] if len(stack) >= level else 0
            token = (token * 0x9E37) ^ caller
        value = site_hash_outcome(ctx.seed ^ self.salt, site ^ (token * 0x9E37), 0, 0.5)
        if self.noise > 0.0 and site_hash_outcome(
            ctx.seed ^ 0xCA11E4, site, ctx.occurrence_of(site), self.noise
        ):
            value = not value
        return value


class ModalBehavior(BranchBehavior):
    """Switches between child behaviours every ``period`` executions.

    Models program phases: within a phase the branch follows one child's
    law; at phase boundaries history-trained state goes stale, producing
    the systematic mispredict bursts critics learn to catch.
    """

    __slots__ = ("children", "period")

    kind = "modal"

    def __init__(self, children: tuple[BranchBehavior, ...], period: int = 256) -> None:
        if len(children) < 2:
            raise ValueError("modal behaviour needs at least two children")
        if period < 1:
            raise ValueError("period must be positive")
        self.children = tuple(children)
        self.period = period

    def resolve(self, site: int, ctx: ExecutionContext) -> bool:
        phase = (ctx.occurrence_of(site) // self.period) % len(self.children)
        return self.children[phase].resolve(site, ctx)

    def reset(self) -> None:
        for child in self.children:
            child.reset()

    def has_state(self) -> bool:
        return any(child.has_state() for child in self.children)
