"""Collect a project, run the rule pack, report: the repro-lint engine.

The runner is deliberately side-effect free up to reporting: it parses
every scanned file once into a :class:`~repro.analysis.framework.Project`,
hands that to each rule, then filters the raw findings through inline
suppressions and the checked-in baseline. The CLI
(:mod:`repro.analysis.cli`) and the self-tests drive the same entry
points, so "what CI enforces" and "what the tests prove" cannot drift.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.analysis.framework import Baseline, Finding, Project, Rule, SourceFile

#: Directory trees scanned by default, relative to the project root.
#: Every rule checks src/repro only; CI's ``ruff check .`` and pytest
#: collection already parse tests/ and tools/.
DEFAULT_SCAN = ("src/repro",)

#: Default baseline location, relative to the project root.
BASELINE_REL = ".repro-lint-baseline.json"

#: Directories never scanned (caches, VCS internals).
_SKIP_DIR_NAMES = {"__pycache__", ".git", ".ruff_cache", ".pytest_cache"}


def collect_project(root: Path, scan: Sequence[str] = DEFAULT_SCAN) -> Project:
    """Parse every ``.py`` file under ``root``'s scan directories."""
    root = Path(root).resolve()
    files: list[SourceFile] = []
    for rel in scan:
        base = root / rel
        if base.is_file() and base.suffix == ".py":
            files.append(SourceFile(root, base))
            continue
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*.py")):
            if any(part in _SKIP_DIR_NAMES for part in path.parts):
                continue
            files.append(SourceFile(root, path))
    return Project(root, files)


@dataclass
class LintReport:
    """Everything one lint run produced, pre-sliced for reporting."""

    new: list[Finding] = field(default_factory=list)
    baselined: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)
    stale_baseline: list[tuple[str, str, str]] = field(default_factory=list)
    parse_errors: list[Finding] = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        return 1 if (self.new or self.parse_errors) else 0

    def to_json(self) -> dict:
        def bucket(findings: Iterable[Finding], status: str) -> list[dict]:
            return [{**f.to_json(), "status": status} for f in findings]

        return {
            "findings": sorted(
                bucket(self.new, "new")
                + bucket(self.baselined, "baselined")
                + bucket(self.suppressed, "suppressed")
                + bucket(self.parse_errors, "parse-error"),
                key=lambda f: (f["path"], f["line"], f["rule"]),
            ),
            "stale_baseline": [
                {"rule": rule, "path": path, "fingerprint": fp}
                for rule, path, fp in self.stale_baseline
            ],
            "summary": {
                "new": len(self.new),
                "baselined": len(self.baselined),
                "suppressed": len(self.suppressed),
                "parse_errors": len(self.parse_errors),
                "stale_baseline": len(self.stale_baseline),
            },
            "exit_code": self.exit_code,
        }

    def render_text(self) -> str:
        lines = []
        for finding in sorted(self.new, key=lambda f: (f.path, f.line, f.rule)):
            lines.append(finding.render())
        for finding in self.parse_errors:
            lines.append(finding.render())
        for rule, path, fp in self.stale_baseline:
            lines.append(
                f"warning: stale baseline entry {rule} {path} [{fp}] matches "
                "nothing — the finding was fixed; prune it with "
                "`repro lint --write-baseline`"
            )
        summary = (
            f"{len(self.new)} blocking finding(s); "
            f"{len(self.baselined)} baselined, "
            f"{len(self.suppressed)} suppressed inline"
        )
        if self.parse_errors:
            summary += f", {len(self.parse_errors)} unparseable file(s)"
        lines.append(summary)
        return "\n".join(lines)


def run_rules(project: Project, rules: Sequence[Rule]) -> list[Finding]:
    """Raw findings from every rule, inline suppressions *not* applied."""
    findings: list[Finding] = []
    for rule in rules:
        findings.extend(rule.check(project))
    return findings


def lint_project(
    project: Project,
    rules: Sequence[Rule],
    baseline: Baseline | None = None,
) -> LintReport:
    """Run ``rules`` and classify the findings."""
    report = LintReport()
    for sf in project.files:
        if sf.parse_error is not None:
            report.parse_errors.append(
                Finding(
                    rule="REP000",
                    path=sf.rel,
                    line=1,
                    message=f"file does not parse ({sf.parse_error}); no rule "
                    "can vouch for it",
                )
            )
    raw = run_rules(project, rules)
    unsuppressed: list[Finding] = []
    for finding in raw:
        sf = project.file(finding.path)
        if sf is not None and sf.is_suppressed(finding.rule, finding.line):
            report.suppressed.append(finding)
        else:
            unsuppressed.append(finding)
    if baseline is None:
        baseline = Baseline()
    report.new, report.baselined, report.stale_baseline = baseline.partition(
        unsuppressed
    )
    return report


def parseable(text: str) -> bool:
    """Quick syntax probe used by the self-tests' fixture helper."""
    try:
        ast.parse(text)
    except SyntaxError:
        return False
    return True
