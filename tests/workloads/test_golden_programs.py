"""Golden pin: every named benchmark's generated program, as one digest.

The digest covers each of the 19 named benchmarks' ``structure()`` (block
ids, pcs, uop counts, kinds, edges, entry and ``watched_blocks``) and
every conditional block's behaviour class and parameters, children of
modal behaviours included. Any change to a generator draw (its order,
its count or its arithmetic) moves some pc, uop count, edge or parameter
and fails this test. A change meant to alter generated programs
re-pins the digest and says so in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json

from repro.workloads.behaviors import (
    BiasedRandomBehavior,
    CallerCorrelatedBehavior,
    CorrelatedBehavior,
    LoopBehavior,
    ModalBehavior,
    PathCorrelatedBehavior,
    PatternBehavior,
)
from repro.workloads.suites import BENCHMARKS, benchmark

#: The parameters that define each behaviour class (its constructor's
#: arguments, as stored).
_PARAMETERS = {
    LoopBehavior: ("trip_count", "trip_choices", "persistence"),
    PatternBehavior: ("pattern",),
    BiasedRandomBehavior: ("bias",),
    CorrelatedBehavior: ("source_sites", "invert", "noise"),
    PathCorrelatedBehavior: ("watched_block", "window", "invert"),
    CallerCorrelatedBehavior: ("noise", "salt", "depth"),
}

GOLDEN_DIGEST = "29a0e2a3c93e52d1167346d1ddf36b8420fa00da1d5fa8a78ddba1f9651e55af"


def describe_behavior(behavior) -> list:
    """Class name and parameters; floats as ``repr`` so every bit counts."""
    if type(behavior) is ModalBehavior:
        return ["ModalBehavior", behavior.period,
                [describe_behavior(child) for child in behavior.children]]
    values = [getattr(behavior, name) for name in _PARAMETERS[type(behavior)]]
    return [type(behavior).__name__,
            [repr(v) if isinstance(v, float) else v for v in values]]


def program_digest(names) -> str:
    digest = hashlib.sha256()
    for name in names:
        program = benchmark(name, fresh=False)
        record = {
            "structure": program.structure(),
            "watched_blocks": sorted(program.watched_blocks),
            "behaviors": [
                [block.block_id, describe_behavior(block.behavior)]
                for block in program.blocks
                if block.behavior is not None
            ],
        }
        digest.update(json.dumps(record, sort_keys=True).encode())
    return digest.hexdigest()


def test_nineteen_named_benchmarks():
    assert len(BENCHMARKS) == 19


def test_generated_programs_match_golden_digest():
    assert program_digest(list(BENCHMARKS)) == GOLDEN_DIGEST
