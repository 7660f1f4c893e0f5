"""Test-suite configuration: make `tests/` itself importable.

Shared test-support modules (notably :mod:`reference_kernel`, the frozen
pre-optimization simulation kernel used by the differential tests and by
``tools/profile_kernel.py --compare-reference``) live directly under
``tests/``; nested test packages need that directory on ``sys.path``.

Hypothesis profiles: tier-1 runs under ``tier1`` (derandomized, so every
run replays the same examples; tests pin their own example counts or
take hypothesis's 100). ``--hypothesis-profile=deep`` selects ``deep``:
randomized, 1 000 examples for every test that does not pin its own
count (the kernel property tests in ``tests/sim/test_property_kernel.py``
do not), for a separate long-running CI job.
"""

from __future__ import annotations

import os
import sys

from hypothesis import settings

sys.path.insert(0, os.path.dirname(__file__))

settings.register_profile("tier1", derandomize=True)
settings.register_profile("deep", max_examples=1000)
# The hypothesis plugin loads ``--hypothesis-profile`` after this module
# is imported, so an explicit profile overrides this default.
settings.load_profile("tier1")

