"""The ``repro lint`` CLI verb (also reachable as ``tools/run_lint.py``).

Exit codes: 0 — clean (every finding baselined or suppressed inline);
1 — blocking findings (or unparseable files); 2 — usage errors (from
argparse).

Typical invocations::

    python -m repro lint                      # lint the repo, text report
    python -m repro lint --check              # CI spelling of the same
    python -m repro lint --format json        # machine-readable findings
    python -m repro lint --out lint.json      # text to stdout + JSON artifact
    python -m repro lint --write-baseline     # grandfather current findings
    python -m repro lint --update-schema      # re-pin the REP003 manifest
    python -m repro lint --list-rules         # the rule catalog
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.analysis.framework import Baseline
from repro.analysis.rules import ALL_RULES
from repro.analysis.runner import (
    BASELINE_REL,
    collect_project,
    lint_project,
)


def _find_root(start: Path) -> Path:
    """The enclosing project root (the directory holding src/repro)."""
    for candidate in (start, *start.parents):
        if (candidate / "src" / "repro").is_dir():
            return candidate
    raise SystemExit(
        f"error: no src/repro tree at or above {start}; pass --root explicitly"
    )


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--root", metavar="DIR", default=None,
        help="project root to lint (default: auto-detected from the cwd)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format on stdout (default: text)",
    )
    parser.add_argument(
        "--out", metavar="FILE", default=None,
        help="also write the JSON findings document to FILE (the CI artifact)",
    )
    parser.add_argument(
        "--baseline", metavar="FILE", default=None,
        help=f"baseline file (default: <root>/{BASELINE_REL})",
    )
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="ignore the baseline: report every finding as blocking",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="explicit CI spelling: fail on any non-baselined finding "
        "(this is also the default behaviour)",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="rewrite the baseline to cover every current unsuppressed "
        "finding, then exit 0",
    )
    parser.add_argument(
        "--update-schema", action="store_true",
        help="regenerate the REP003 hash-schema manifest from the current "
        "tree (after an intentional SPEC_FORMAT_VERSION bump)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )


def run_lint(args: argparse.Namespace) -> int:
    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.code}  {rule.name}")
            print(f"       {rule.rationale}")
        return 0

    root = _find_root(Path(args.root) if args.root else Path.cwd())
    project = collect_project(root)

    if args.update_schema:
        from repro.analysis.rules.hash_schema import MANIFEST_REL, generate_manifest

        manifest = generate_manifest(project)
        path = root / MANIFEST_REL
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
        print(
            f"pinned hash schema for format {manifest['spec_format_version']} "
            f"({len(manifest['classes'])} dataclasses) -> {path}"
        )
        return 0

    baseline_path = Path(args.baseline) if args.baseline else root / BASELINE_REL
    baseline = None if args.no_baseline else Baseline.load(baseline_path)
    report = lint_project(project, ALL_RULES, baseline)

    if args.write_baseline:
        Baseline.save(baseline_path, report.new + report.baselined)
        count = len(report.new) + len(report.baselined)
        print(f"baselined {count} finding(s) -> {baseline_path}")
        return 0

    if args.out:
        Path(args.out).write_text(
            json.dumps(report.to_json(), indent=2) + "\n", encoding="utf-8"
        )
    if args.format == "json":
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(report.render_text())
    return report.exit_code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="AST-based invariant checker for the repro tree "
        "(determinism, pickle hygiene, hash schema, async safety, "
        "exception hygiene); see docs/LINTING.md",
    )
    add_lint_arguments(parser)
    return run_lint(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
