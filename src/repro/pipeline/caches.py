"""Cache and memory stall model.

The paper runs a full cache hierarchy; we cannot model data addresses (the
workload substrate has no data side), so memory behaviour is substituted
by a *stall-rate* model (documented in DESIGN.md): each committed uop has
a deterministic, seeded probability of being a load that misses L1/L2,
charging the pipeline the corresponding latency amortised by a
memory-level-parallelism factor. The substitution preserves what the uPC
experiments measure — the *relative* effect of branch mispredicts —
while keeping absolute uPC in a realistic range (the paper's Figure 9
sits between 1.5 and 2.1 uPC; this model lands in the same band).

:class:`CacheModel` is a real set-associative LRU tag store used for the
instruction cache (addresses exist for code) and exercised in unit tests.
"""

from __future__ import annotations

from itertools import accumulate

from repro.utils.hashing import mix64
from repro.utils.bitops import mask
from repro.pipeline.uarch import CacheConfig, MachineConfig


class CacheModel:
    """Set-associative LRU cache over addresses (tags only)."""

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        total_lines = (config.size_kb * 1024) // config.line_bytes
        self.sets = max(1, total_lines // config.ways)
        if self.sets & (self.sets - 1):
            raise ValueError("cache sets must be a power of two")
        self._set_bits = self.sets.bit_length() - 1
        self._line_bits = config.line_bytes.bit_length() - 1
        self._sets: list[list[int]] = [[] for _ in range(self.sets)]
        self.accesses = 0
        self.misses = 0

    def access(self, address: int) -> bool:
        """Touch ``address``; returns True on hit, installs on miss."""
        self.accesses += 1
        line = address >> self._line_bits
        index = line & mask(self._set_bits)
        tag = line >> self._set_bits
        entries = self._sets[index]
        if tag in entries:
            entries.remove(tag)
            entries.append(tag)
            return True
        self.misses += 1
        if len(entries) >= self.config.ways:
            entries.pop(0)
        entries.append(tag)
        return False

    @property
    def miss_rate(self) -> float:
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses

    def reset(self) -> None:
        self._sets = [[] for _ in range(self.sets)]
        self.accesses = 0
        self.misses = 0


class MemoryModel:
    """Deterministic per-uop data-side stall generator.

    ``l1_miss_per_uop`` and ``l2_miss_per_uop`` are the probabilities that
    a committed uop triggers an L1 (resp. L2) data miss; ``mlp`` divides
    the charged latency (overlapping misses). Draws hash the uop sequence
    number, so runs are exactly reproducible and independent of simulator
    scheduling.
    """

    def __init__(
        self,
        machine: MachineConfig,
        l1_miss_per_uop: float = 0.010,
        l2_miss_per_uop: float = 0.0012,
        mlp: float = 2.5,
        seed: int = 0xD47A,
    ) -> None:
        if not 0 <= l1_miss_per_uop <= 1 or not 0 <= l2_miss_per_uop <= 1:
            raise ValueError("miss rates are probabilities")
        if mlp <= 0:
            raise ValueError("mlp must be positive")
        self.machine = machine
        self.l1_miss_per_uop = l1_miss_per_uop
        self.l2_miss_per_uop = l2_miss_per_uop
        self.mlp = mlp
        self.seed = seed

    def stall_cycles(self, uop_seq: int, uops: int) -> float:
        """Data-side stall charged for a block of ``uops`` committed uops."""
        stall = 0.0
        word = mix64(self.seed ^ uop_seq)
        # Expected-value charging with deterministic jitter: the integer
        # part of expected misses always charges; the fractional part
        # charges when the hash falls below it.
        for rate, latency in (
            (self.l1_miss_per_uop, self.machine.l1d.hit_cycles + self.machine.l2.hit_cycles),
            (self.l2_miss_per_uop, self.machine.memory_latency_cycles),
        ):
            expected = rate * uops
            misses = int(expected)
            frac = expected - misses
            threshold = int(frac * (1 << 32))
            if (word & 0xFFFFFFFF) < threshold:
                misses += 1
            word = mix64(word)
            if misses:
                stall += misses * latency / self.mlp
        return stall

    def stall_column(self, uops) -> list[float]:
        """:meth:`stall_cycles` for each block of a committed stream.

        ``uops`` lists the blocks' uop counts in commit order, numbered
        from uop 0: entry ``i`` is ``stall_cycles(uops[0] + ... +
        uops[i], uops[i])``, the charge for block ``i``. A longer stream's
        column therefore starts with a shorter one's.
        """
        return list(map(self.stall_cycles, accumulate(uops), uops))
