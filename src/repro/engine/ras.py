"""Return address stack of the architectural executor.

A fixed capacity with overflow-drops-oldest mirrors hardware; underflow
returns None and the caller falls back to the program entry — a
well-defined (if wrong) target.

Snapshots are memoised until the next mutation: the batched kernel's
trace walk snapshots the stack at **every** resolved branch, but the
stack only changes on the (much rarer) call/return blocks, so the same
tuple is handed out until then and repeated snapshots share storage.
"""

from __future__ import annotations


class ReturnAddressStack:
    """Bounded stack of return targets (block ids)."""

    __slots__ = ("_snap", "_stack", "capacity")

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 1:
            raise ValueError("RAS capacity must be positive")
        self.capacity = capacity
        self._stack: list[int] = []
        self._snap: tuple[int, ...] | None = ()

    def pop(self) -> int | None:
        """Pop the most recent return target; None when empty."""
        stack = self._stack
        if not stack:
            return None
        self._snap = None
        return stack.pop()

    def apply_ops(self, ops: tuple[int, ...]) -> None:
        """Replay a precompiled op script: ``op >= 0`` pushes that block
        id, dropping the oldest entry when full; ``op < 0`` pops (and
        discards) the top entry.

        Used by the compiled-CFG executor to apply a whole straight-line
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
                stack.append(op)
            else:
                stack.pop()
        self._snap = None

    def snapshot(self) -> tuple[int, ...]:
        """Immutable copy of the stack contents (memoised until the next
        mutation)."""
        snap = self._snap
        if snap is None:
            snap = self._snap = tuple(self._stack)
        return snap
