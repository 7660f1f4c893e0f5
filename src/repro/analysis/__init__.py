"""repro-lint: an AST-based invariant checker for this repository.

The repo's correctness story rests on invariants that used to be
enforced only by convention — spec determinism, pickle hygiene for
memoized caches, hash-schema stability, event-loop safety in the serve
layer, and exception hygiene. Each has a documented failure in
CHANGES.md; this package turns them into commit-time errors.

Entry points:

* ``python -m repro lint`` (the CLI verb; ``tools/run_lint.py`` is the
  standalone spelling) — see :mod:`repro.analysis.cli`;
* :func:`repro.analysis.runner.collect_project` +
  :func:`repro.analysis.runner.lint_project` — the programmatic API the
  self-tests drive;
* :data:`repro.analysis.rules.ALL_RULES` — the rule pack.

The rule catalog, suppression grammar and baseline workflow are
documented in ``docs/LINTING.md``.
"""

from repro.analysis.framework import Baseline, Finding, Project, Rule, SourceFile
from repro.analysis.runner import LintReport, collect_project, lint_project

__all__ = [
    "Baseline",
    "Finding",
    "LintReport",
    "Project",
    "Rule",
    "SourceFile",
    "collect_project",
    "lint_project",
]
