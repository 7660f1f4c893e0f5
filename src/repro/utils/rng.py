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

from repro.utils.hashing import _GOLDEN64, _MASK64, mix64

_TWO64 = float(1 << 64)


class DeterministicRng:
    """Seeded splitmix64 generator with a tiny, explicit API.

    ``random.Random`` would also work, but an explicit implementation keeps
    the stream stable across Python versions and documents exactly how much
    randomness the simulator consumes.
    """

    def __init__(self, seed: int) -> None:
        self._state = mix64(seed & _MASK64)

    def next_u64(self) -> int:
        """Return the next 64-bit value in the stream: the state advanced
        by the golden gamma, then :func:`mix64` of it (inlined, as this
        is the program generator's innermost call)."""
        self._state = value = (self._state + _GOLDEN64) & _MASK64
        value = (value + _GOLDEN64) & _MASK64
        value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
        return value ^ (value >> 31)

    def random(self) -> float:
        """Return a float uniform in [0, 1)."""
        return self.next_u64() / _TWO64

    def randint(self, low: int, high: int) -> int:
        """Return an integer uniform in [low, high] (inclusive)."""
        if high < low:
            raise ValueError("empty range")
        span = high - low + 1
        return low + self.next_u64() % span

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
