"""Execution engine: ground-truth executor and speculative fetch walker.

The two traversers share the program's CFG but differ in what drives them:

* :class:`~repro.engine.executor.ArchitecturalExecutor` follows **actual
  outcomes** (resolving behaviour models) — it defines the committed path
  and is the single source of truth.
* :class:`~repro.engine.frontend.SpeculativeWalker` follows **predictions**
  — it goes down wrong paths exactly as a real front end does, which is
  what generates genuine (non-oracle) future bits for the critic (§6).

Support hardware: :class:`~repro.engine.btb.BranchTargetBuffer` (4096×4,
Table 2) and :class:`~repro.engine.ras.ReturnAddressStack`. The FTQ is
modelled inside the timing loop (:mod:`repro.pipeline.machine`).
"""

from repro.engine.btb import BranchTargetBuffer
from repro.engine.executor import ArchitecturalExecutor
from repro.engine.frontend import SpeculativeWalker
from repro.engine.ras import ReturnAddressStack

__all__ = [
    "ArchitecturalExecutor",
    "BranchTargetBuffer",
    "ReturnAddressStack",
    "SpeculativeWalker",
]
