"""The repro-lint rule framework: files, findings, suppressions, baseline.

Every invariant this subsystem checks exists because our own changelog
shows it being violated: spec-schema drift silently re-keyed result
caches (PRs 3-4), memoized caches leaked through pickles until PR 8's
``__getstate__`` sweep, and PR 7's daemon shipped a runner-pause race
that only an end-to-end test caught. ``repro lint`` turns those bug
classes into commit-time errors (see ``docs/LINTING.md`` for the rule
catalog and the PR each rule is grounded in).

The moving parts:

* :class:`SourceFile` — one parsed Python file: text, AST, and the
  inline suppressions it declares (``# repro-lint: disable=REPxxx``).
* :class:`Project` — every scanned file plus cross-file indexes
  (class table, base-class walking) that project-wide rules need.
* :class:`Rule` — the per-rule base: a ``REPxxx`` code, a one-line
  name, a rationale, and ``check(project) -> findings``.
* :class:`Finding` — one violation at a file:line, with a content
  fingerprint that is stable across unrelated line-number drift.
* :class:`Baseline` — the checked-in ledger of grandfathered findings
  (``.repro-lint-baseline.json``): matched findings are reported but do
  not fail the run; entries that no longer match are flagged as stale
  so the ledger cannot rot silently.

Suppression grammar (both spellings are matched case-sensitively):

* ``# repro-lint: disable=REP001`` on the *reported line* silences the
  listed codes for that line (comma-separate several codes; a bare
  ``disable`` with no codes silences every rule on the line).
* ``# repro-lint: disable-file=REP002`` anywhere in the file silences
  the listed codes for the whole file.

Multi-line statements report at the line of the statement's first
token, so that is where the inline suppression belongs.
"""

from __future__ import annotations

import ast
import hashlib
import json
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

#: Matches one suppression comment; group 1 is the directive, group 2
#: the (optional) comma-separated code list.
_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*(disable-file|disable)\s*(?:=\s*([A-Z0-9,\s]+))?"
)

_CODE_RE = re.compile(r"^REP\d{3}$")

#: Sentinel meaning "every rule" in a suppression set.
ALL_RULES = "*"


def _parse_codes(raw: str | None) -> frozenset[str]:
    """The code set a suppression names; bare ``disable`` means all."""
    if raw is None:
        return frozenset({ALL_RULES})
    codes = frozenset(code.strip() for code in raw.split(",") if code.strip())
    return codes or frozenset({ALL_RULES})


@dataclass(frozen=True)
class Finding:
    """One rule violation, anchored to a file and line."""

    rule: str
    path: str  #: project-relative POSIX path
    line: int  #: 1-based
    message: str
    snippet: str = ""  #: the stripped source line (fingerprint input)

    def fingerprint(self) -> str:
        """Content identity for baseline matching.

        Hashes (rule, path, snippet) — *not* the line number — so a
        baselined finding keeps matching when unrelated edits shift the
        file, and stops matching the moment the offending line itself
        changes.
        """
        basis = "\x1f".join((self.rule, self.path, self.snippet))
        return hashlib.sha256(basis.encode("utf-8")).hexdigest()[:16]

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "snippet": self.snippet,
            "fingerprint": self.fingerprint(),
        }


class SourceFile:
    """One scanned file: source text, AST, and inline suppressions.

    Files that fail to parse keep ``tree is None`` and carry the error
    in ``parse_error``; the runner reports them as REP000 findings so a
    syntax error can never silently exempt a file from every rule.
    """

    def __init__(self, root: Path, path: Path) -> None:
        self.path = path
        self.rel = path.relative_to(root).as_posix()
        self.text = path.read_text(encoding="utf-8")
        self.lines = self.text.splitlines()
        self.parse_error: str | None = None
        try:
            self.tree: ast.Module | None = ast.parse(self.text, filename=self.rel)
        except SyntaxError as exc:
            self.tree = None
            self.parse_error = f"{exc.msg} (line {exc.lineno})"
        self.line_suppressions: dict[int, frozenset[str]] = {}
        self.file_suppressions: frozenset[str] = frozenset()
        self._scan_suppressions()

    @classmethod
    def from_text(cls, root: Path, rel: str, text: str) -> "SourceFile":
        """Build a file from in-memory text (mutation tests use this)."""
        obj = cls.__new__(cls)
        obj.path = root / rel
        obj.rel = Path(rel).as_posix()
        obj.text = text
        obj.lines = text.splitlines()
        obj.parse_error = None
        try:
            obj.tree = ast.parse(text, filename=obj.rel)
        except SyntaxError as exc:
            obj.tree = None
            obj.parse_error = f"{exc.msg} (line {exc.lineno})"
        obj.line_suppressions = {}
        obj.file_suppressions = frozenset()
        obj._scan_suppressions()
        return obj

    def _scan_suppressions(self) -> None:
        file_codes: set[str] = set()
        for lineno, line in enumerate(self.lines, start=1):
            match = _SUPPRESS_RE.search(line)
            if match is None:
                continue
            codes = _parse_codes(match.group(2))
            if match.group(1) == "disable-file":
                file_codes |= codes
            else:
                merged = self.line_suppressions.get(lineno, frozenset()) | codes
                self.line_suppressions[lineno] = frozenset(merged)
        self.file_suppressions = frozenset(file_codes)

    def is_suppressed(self, rule: str, line: int) -> bool:
        if ALL_RULES in self.file_suppressions or rule in self.file_suppressions:
            return True
        codes = self.line_suppressions.get(line)
        if codes is None:
            return False
        return ALL_RULES in codes or rule in codes

    def snippet(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""


def _decorator_name(node: ast.expr) -> str:
    """The trailing identifier of a decorator (``dataclass`` for both
    ``@dataclass`` and ``@dataclasses.dataclass(frozen=True)``)."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def is_dataclass_def(node: ast.ClassDef) -> bool:
    return any(_decorator_name(dec) == "dataclass" for dec in node.decorator_list)


def dataclass_fields(node: ast.ClassDef) -> list[tuple[str, ast.expr, int]]:
    """Declared fields of a dataclass body: (name, annotation, line).

    ``ClassVar`` annotations are skipped — they are not dataclass fields
    and never enter ``asdict``/hash payloads.
    """
    out: list[tuple[str, ast.expr, int]] = []
    for stmt in node.body:
        if not isinstance(stmt, ast.AnnAssign) or not isinstance(stmt.target, ast.Name):
            continue
        if "ClassVar" in ast.dump(stmt.annotation):
            continue
        out.append((stmt.target.id, stmt.annotation, stmt.lineno))
    return out


def base_names(node: ast.ClassDef) -> list[str]:
    """Base-class identifiers, by trailing name (``module.Cls`` -> ``Cls``)."""
    names = []
    for base in node.bases:
        if isinstance(base, ast.Attribute):
            names.append(base.attr)
        elif isinstance(base, ast.Name):
            names.append(base.id)
        elif isinstance(base, ast.Subscript):  # Generic[...] and friends
            names.append(_decorator_name(base.value))
    return names


def dotted_name(node: ast.expr) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def import_aliases(tree: ast.Module) -> dict[str, str]:
    """Map local names to the dotted import path they denote.

    ``import numpy as np`` -> ``{"np": "numpy"}``;
    ``from os import urandom`` -> ``{"urandom": "os.urandom"}``.
    Relative imports keep a leading ``.`` so callers can recognise them.
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    aliases[alias.asname] = alias.name
                else:
                    head = alias.name.split(".")[0]
                    aliases[head] = head
        elif isinstance(node, ast.ImportFrom):
            prefix = ("." * node.level) + (node.module or "")
            for alias in node.names:
                aliases[alias.asname or alias.name] = f"{prefix}.{alias.name}"
    return aliases


def resolve_call(node: ast.Call, aliases: dict[str, str]) -> str | None:
    """The dotted, import-resolved target of a call, when statically known.

    ``np.random.randint(...)`` resolves to ``numpy.random.randint`` under
    ``import numpy as np``. Calls through arbitrary objects (``self.rng``)
    resolve to None — determinism rules only judge module-level entropy.
    """
    dotted = dotted_name(node.func)
    if dotted is None:
        return None
    head, _, rest = dotted.partition(".")
    resolved_head = aliases.get(head, head)
    return f"{resolved_head}.{rest}" if rest else resolved_head


class Project:
    """Every scanned file plus the cross-file indexes rules share."""

    def __init__(self, root: Path, files: Iterable[SourceFile]) -> None:
        self.root = Path(root)
        self.files = sorted(files, key=lambda sf: sf.rel)
        self._by_rel = {sf.rel: sf for sf in self.files}
        self._classes: dict[str, list[tuple[SourceFile, ast.ClassDef]]] | None = None

    def file(self, rel: str) -> SourceFile | None:
        return self._by_rel.get(rel)

    def replace_file(self, rel: str, text: str) -> None:
        """Swap one file's contents in place (seeded-mutation tests)."""
        sf = SourceFile.from_text(self.root, rel, text)
        self._by_rel[rel] = sf
        self.files = [sf if f.rel == rel else f for f in self.files]
        self._classes = None

    def iter_files(self, prefix: str = "") -> Iterator[SourceFile]:
        for sf in self.files:
            if sf.tree is not None and sf.rel.startswith(prefix):
                yield sf

    @property
    def classes(self) -> dict[str, list[tuple[SourceFile, ast.ClassDef]]]:
        """Simple-name index of every class definition in the project."""
        if self._classes is None:
            index: dict[str, list[tuple[SourceFile, ast.ClassDef]]] = {}
            for sf in self.iter_files():
                for node in ast.walk(sf.tree):
                    if isinstance(node, ast.ClassDef):
                        index.setdefault(node.name, []).append((sf, node))
            self._classes = index
        return self._classes

    def class_defines(self, class_name: str, method: str) -> bool:
        """Does ``class_name`` (or any resolvable ancestor) define ``method``?

        Bases that cannot be resolved inside the project (stdlib,
        third-party) are treated as not defining it — rules stay
        conservative and the inline suppression is the escape hatch.
        """
        return self._class_defines(class_name, method, set())

    def _class_defines(self, class_name: str, method: str, seen: set[str]) -> bool:
        if class_name in seen:
            return False
        seen.add(class_name)
        for _sf, node in self.classes.get(class_name, ()):
            for stmt in node.body:
                if (
                    isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and stmt.name == method
                ):
                    return True
            for base in base_names(node):
                if self._class_defines(base, method, seen):
                    return True
        return False


class Rule:
    """Base class for one ``REPxxx`` invariant check."""

    code: str = "REP000"
    name: str = ""
    rationale: str = ""

    def check(self, project: Project) -> Iterable[Finding]:
        raise NotImplementedError

    def finding(self, sf: SourceFile, line: int, message: str) -> Finding:
        return Finding(
            rule=self.code,
            path=sf.rel,
            line=line,
            message=message,
            snippet=sf.snippet(line),
        )


BASELINE_VERSION = 1


class Baseline:
    """The checked-in ledger of grandfathered findings.

    Matching is by (rule, path, fingerprint) as a *multiset*: two
    identical offending lines in one file need two entries. Entries that
    match nothing are reported as stale rather than silently ignored.
    """

    def __init__(self, entries: Counter | None = None, path: Path | None = None):
        self.entries: Counter = entries if entries is not None else Counter()
        self.path = path

    @staticmethod
    def _key(finding: Finding) -> tuple[str, str, str]:
        return (finding.rule, finding.path, finding.fingerprint())

    @classmethod
    def load(cls, path: Path) -> "Baseline":
        if not path.exists():
            return cls(path=path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        if payload.get("version") != BASELINE_VERSION:
            raise ValueError(
                f"baseline {path} has version {payload.get('version')!r}; "
                f"this build reads version {BASELINE_VERSION}"
            )
        entries: Counter = Counter()
        for entry in payload.get("findings", []):
            entries[(entry["rule"], entry["path"], entry["fingerprint"])] += 1
        return cls(entries, path=path)

    @staticmethod
    def save(path: Path, findings: Iterable[Finding], notes: dict | None = None) -> None:
        """Write a baseline covering ``findings`` (sorted, line included
        for human readers; matching ignores it)."""
        notes = notes or {}
        entries = [
            {
                "rule": f.rule,
                "path": f.path,
                "line": f.line,
                "fingerprint": f.fingerprint(),
                "message": f.message,
                **({"note": notes[f.fingerprint()]} if f.fingerprint() in notes else {}),
            }
            for f in sorted(findings, key=lambda f: (f.path, f.line, f.rule))
        ]
        payload = {"version": BASELINE_VERSION, "findings": entries}
        path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    def partition(
        self, findings: Iterable[Finding]
    ) -> tuple[list[Finding], list[Finding], list[tuple[str, str, str]]]:
        """Split findings into (new, baselined); also return stale entries."""
        remaining = Counter(self.entries)
        new: list[Finding] = []
        baselined: list[Finding] = []
        for finding in findings:
            key = self._key(finding)
            if remaining.get(key, 0) > 0:
                remaining[key] -= 1
                baselined.append(finding)
            else:
                new.append(finding)
        stale = sorted(key for key, count in remaining.items() if count > 0)
        return new, baselined, stale


def validate_rule(rule: Rule) -> None:
    """Registry hygiene: codes must be well-formed and documented."""
    if not _CODE_RE.match(rule.code):
        raise ValueError(f"rule code {rule.code!r} does not match REPxxx")
    if not rule.name or not rule.rationale:
        raise ValueError(f"rule {rule.code} needs a name and a rationale")
