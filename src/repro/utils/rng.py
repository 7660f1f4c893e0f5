"""Deterministic random-number utilities.

Branch behaviours must be **pure functions of architectural state** so that
(a) wrong-path fetch never perturbs ground truth and (b) a run is exactly
reproducible from its seed. Two tools provide this:

* :class:`DeterministicRng` — a small, fast splitmix64-based generator with
  explicit state, used by the workload *generator* (structure of programs).
* :func:`site_hash_outcome` — a stateless hash of (seed, branch site,
  architectural execution count) used by biased-random branch *behaviours*,
  so the i-th architectural execution of a branch always resolves the same
  way regardless of simulator internals.
"""

from __future__ import annotations

import operator

from repro.utils.hashing import _GOLDEN64, _MASK64, mix64

_TWO64 = float(1 << 64)

#: Draws computed per refill of a :class:`DeterministicRng` block.
_BLOCK = 1024


class DeterministicRng:
    """Seeded splitmix64 generator with a tiny, explicit API.

    ``random.Random`` would also work, but an explicit implementation keeps
    the stream stable across Python versions and documents exactly how much
    randomness the simulator consumes.

    splitmix64 is counter-based: draw ``k`` (from 0) of a stream whose
    state starts at ``s0`` is ``mix64(s0 + (k + 1) * gamma)``. So the
    stream is computed ``_BLOCK`` draws at a time in one vectorised pass
    and served from a list; it is the same stream the one-at-a-time
    recurrence gives, across block boundaries too:

    >>> rng = DeterministicRng(2024)
    >>> s0 = rng._state
    >>> drawn = [rng.next_u64() for _ in range(_BLOCK + 3)]
    >>> drawn == [mix64((s0 + (k + 1) * _GOLDEN64) & _MASK64)
    ...           for k in range(_BLOCK + 3)]
    True
    >>> rng._state == (s0 + (_BLOCK + 3) * _GOLDEN64) & _MASK64
    True
    """

    __slots__ = ("_block", "_filled", "_origin")

    def __init__(self, seed: int) -> None:
        #: The state before the first draw.
        self._origin = mix64(seed & _MASK64)
        #: Draws computed so far (served or waiting in ``_block``).
        self._filled = 0
        #: Iterator over the computed draws not served yet.
        self._block = iter(())

    @property
    def _state(self) -> int:
        """The splitmix64 state after the draws served so far."""
        served = self._filled - operator.length_hint(self._block)
        return (self._origin + served * _GOLDEN64) & _MASK64

    def _refill(self) -> int:
        """Compute the next ``_BLOCK`` draws; serve and return the first."""
        # numpy only here: importing this module must stay cheap.
        import numpy as np

        u64 = np.uint64
        start = self._filled + 2  # mix64 adds gamma once more
        value = u64(self._origin) + np.arange(
            start, start + _BLOCK, dtype=u64
        ) * u64(_GOLDEN64)
        value = (value ^ (value >> u64(30))) * u64(0xBF58476D1CE4E5B9)
        value = (value ^ (value >> u64(27))) * u64(0x94D049BB133111EB)
        self._block = block = iter((value ^ (value >> u64(31))).tolist())
        self._filled += _BLOCK
        return next(block)

    def next_u64(self) -> int:
        """Return the next 64-bit value in the stream."""
        value = next(self._block, None)
        return self._refill() if value is None else value

    def random(self) -> float:
        """Return a float uniform in [0, 1)."""
        value = next(self._block, None)
        if value is None:
            value = self._refill()
        return value / _TWO64

    def randint(self, low: int, high: int) -> int:
        """Return an integer uniform in [low, high] (inclusive)."""
        if high < low:
            raise ValueError("empty range")
        value = next(self._block, None)
        if value is None:
            value = self._refill()
        return low + value % (high - low + 1)

    def choice(self, items):
        """Return a uniformly chosen element of a non-empty sequence."""
        if not items:
            raise ValueError("cannot choose from an empty sequence")
        return items[self.randint(0, len(items) - 1)]

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(0, i)
            items[i], items[j] = items[j], items[i]

    def weighted_choice(self, items, weights):
        """Return an element of ``items`` with probability ∝ ``weights``."""
        total = float(sum(weights))
        if total <= 0:
            raise ValueError("weights must sum to a positive value")
        point = self.random() * total
        acc = 0.0
        for item, weight in zip(items, weights):
            acc += weight
            if point < acc:
                return item
        return items[-1]

    def fork(self, label: int) -> "DeterministicRng":
        """Return an independent child stream derived from this seed."""
        return DeterministicRng(mix64(self._state ^ mix64(label)))


def site_hash_outcome(seed: int, site: int, occurrence: int, bias: float) -> bool:
    """Stateless Bernoulli draw for a branch site's i-th execution.

    Returns True (taken) with probability ``bias``. The draw depends only
    on (seed, site, occurrence), never on simulator traversal order, which
    keeps wrong-path fetch side-effect free.
    """
    word = mix64(mix64(seed ^ (site * 0x9E3779B97F4A7C15)) ^ occurrence)
    return (word / _TWO64) < bias
