"""The repro-lint rule pack, one module per ``REPxxx`` invariant.

Each rule is grounded in a failure class this repo has actually shipped
(see the module docstrings and ``docs/LINTING.md``). Adding a rule:
subclass :class:`repro.analysis.framework.Rule`, give it a fresh
``REPxxx`` code, a name and a rationale, and append an instance here —
:func:`repro.analysis.framework.validate_rule` enforces the metadata at
import time. A retired code is never reused: REP004 (backend parity)
went when the batched kernel stopped declining systems.
"""

from __future__ import annotations

from repro.analysis.framework import Rule, validate_rule
from repro.analysis.rules.async_safety import AsyncSafetyRule
from repro.analysis.rules.determinism import DeterminismRule
from repro.analysis.rules.exception_hygiene import ExceptionHygieneRule
from repro.analysis.rules.hash_schema import HashSchemaRule
from repro.analysis.rules.pickle_hygiene import PickleHygieneRule

ALL_RULES: tuple[Rule, ...] = (
    DeterminismRule(),
    PickleHygieneRule(),
    HashSchemaRule(),
    AsyncSafetyRule(),
    ExceptionHygieneRule(),
)

for _rule in ALL_RULES:
    validate_rule(_rule)

RULES_BY_CODE = {rule.code: rule for rule in ALL_RULES}
if len(RULES_BY_CODE) != len(ALL_RULES):
    raise ValueError("duplicate rule codes in ALL_RULES")

__all__ = ["ALL_RULES", "RULES_BY_CODE"]
