"""Return address stack with snapshot/restore.

Both traversers need call/return handling; the speculative walker also
needs cheap checkpointing (tuple snapshots) so wrong-path excursions can
be unwound. A fixed capacity with overflow-drops-oldest mirrors hardware;
underflow returns None and the caller falls back to the program entry —
a well-defined (if wrong) target, which is all a wrong path requires.

Snapshots are memoised by a mutation version: the driver snapshots the
walker at **every** fetched branch, but the stack only changes on the
(much rarer) call/return blocks, so the same tuple is handed out until
the next push/pop. Restoring installs the restored tuple as the cached
snapshot, so the rewind-then-refetch pattern allocates nothing either.
"""

from __future__ import annotations


class ReturnAddressStack:
    """Bounded stack of return targets (block ids)."""

    __slots__ = ("_snap", "_snap_version", "_stack", "_version", "capacity",
                 "overflows", "underflows")

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 1:
            raise ValueError("RAS capacity must be positive")
        self.capacity = capacity
        self._stack: list[int] = []
        self.overflows = 0
        self.underflows = 0
        self._version = 0
        self._snap: tuple[int, ...] = ()
        self._snap_version = 0

    def push(self, block_id: int) -> None:
        """Push a return target, dropping the oldest entry when full."""
        stack = self._stack
        if len(stack) >= self.capacity:
            del stack[0]
            self.overflows += 1
        stack.append(block_id)
        self._version += 1

    def pop(self) -> int | None:
        """Pop the most recent return target; None when empty."""
        stack = self._stack
        if not stack:
            self.underflows += 1
            return None
        self._version += 1
        return stack.pop()

    def apply_ops(self, ops: tuple[int, ...]) -> None:
        """Replay a precompiled op script: ``op >= 0`` pushes that block
        id, ``op < 0`` pops (and discards) the top entry.

        Used by the compiled-CFG traversers to apply a whole straight-line
        run's worth of call/return traffic in one call. Script pops are
        always matched by an earlier script push (the compiler ends a
        segment at any return it cannot pair), so they never underflow.
        """
        stack = self._stack
        capacity = self.capacity
        for op in ops:
            if op >= 0:
                if len(stack) >= capacity:
                    del stack[0]
                    self.overflows += 1
                stack.append(op)
            else:
                stack.pop()
        self._version += 1

    def __len__(self) -> int:
        return len(self._stack)

    def snapshot(self) -> tuple[int, ...]:
        """Immutable copy of the stack contents (memoised per version)."""
        if self._snap_version != self._version:
            self._snap = tuple(self._stack)
            self._snap_version = self._version
        return self._snap

    def restore(self, snapshot: tuple[int, ...]) -> None:
        """Reinstate a previously captured snapshot."""
        self._stack[:] = snapshot
        self._version += 1
        self._snap = snapshot
        self._snap_version = self._version

    def clear(self) -> None:
        self._stack.clear()
        self._version += 1
