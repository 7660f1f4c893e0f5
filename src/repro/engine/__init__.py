"""Execution engine: the ground-truth executor and its support hardware.

:class:`~repro.engine.executor.ArchitecturalExecutor` follows **actual
outcomes** (resolving behaviour models) — it defines the committed path
and is the single source of truth. The speculative front end, which
follows **predictions** down wrong paths to generate genuine (non-oracle)
future bits for the critic (§6), is fused into the accuracy kernel
(:mod:`repro.sim.batched`) and the timing model
(:mod:`repro.pipeline.machine`).

Support hardware: :class:`~repro.engine.btb.BranchTargetBuffer` (4096×4,
Table 2) and :class:`~repro.engine.ras.ReturnAddressStack`. The FTQ is
modelled inside the timing loop (:mod:`repro.pipeline.machine`).
"""

from repro.engine.btb import BranchTargetBuffer
from repro.engine.executor import ArchitecturalExecutor
from repro.engine.ras import ReturnAddressStack

__all__ = [
    "ArchitecturalExecutor",
    "BranchTargetBuffer",
    "ReturnAddressStack",
]
