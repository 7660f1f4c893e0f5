"""REP003 — hash-schema guard: spec fields may not drift silently.

The scar tissue behind this rule: PR 3 added
``SimulationConfig.collect_predictor_stats`` and PR 4 re-described
predictors as expanded geometries — both changed
:meth:`SweepCell.content_hash` payloads, and both silently invalidated
every existing result cache (the PR 4 one at least bumped
``SPEC_FORMAT_VERSION``; the PR 3 one was discovered from re-filling
caches). A field *added* to any dataclass reachable from the hash
payload re-keys every cache entry on the next run — correct but
invisible, which is exactly how a fleet of daemons ends up recomputing
a warehouse of results nobody meant to throw away. A field added to the
payload *without* entering the hash is worse: two behaviourally
different cells could share an entry.

The machine-checked contract: every field of every dataclass reachable
from ``SweepCell.content_hash()`` / ``ProgramSpec.build_key()`` is
either **pinned** in the checked-in manifest
(``src/repro/analysis/hash_schema.json``) at the current
``SPEC_FORMAT_VERSION``, or listed there as **explicitly excluded**
from hashing (with the exclusion implemented in code, e.g.
``SweepCell.describe()`` leaving out the display labels). Any drift — a
new field, a removed field, a version/manifest mismatch — is a REP003
finding until the author either bumps ``SPEC_FORMAT_VERSION`` and
regenerates the manifest (``repro lint --update-schema``), or declares
the field excluded. Removing an *excluded* field needs no bump: it never
reached a hash, so only the manifest is regenerated.

Reachability is computed statically: starting from ``SweepCell`` and
``ProgramSpec`` in ``src/repro/sim/specs.py``, any project dataclass
named in a reachable dataclass's field annotations is itself reachable.
"""

from __future__ import annotations

import ast
import json
from typing import Iterable

from repro.analysis.framework import (
    Finding,
    Project,
    Rule,
    dataclass_fields,
    is_dataclass_def,
)

SPECS_REL = "src/repro/sim/specs.py"
MANIFEST_REL = "src/repro/analysis/hash_schema.json"
VERSION_NAME = "SPEC_FORMAT_VERSION"
ROOTS = ("SweepCell", "ProgramSpec")
UPDATE_HINT = "python -m repro lint --update-schema"


def _spec_format_version(project: Project) -> tuple[int | None, int]:
    """(value, line) of the SPEC_FORMAT_VERSION constant in specs.py."""
    sf = project.file(SPECS_REL)
    if sf is None or sf.tree is None:
        return None, 1
    for node in sf.tree.body:
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Name) and target.id == VERSION_NAME:
                value = node.value
                if isinstance(value, ast.Constant) and isinstance(value.value, int):
                    return value.value, node.lineno
    return None, 1


def reachable_dataclasses(project: Project) -> dict[str, tuple[str, int, list[str]]]:
    """name -> (file rel, line, field names) for every hash-reachable
    dataclass, walking field annotations from the ROOTS."""
    index: dict[str, tuple] = {}
    for sf in project.iter_files("src/repro/"):
        for node in ast.walk(sf.tree):
            if isinstance(node, ast.ClassDef) and is_dataclass_def(node):
                index.setdefault(node.name, (sf, node))
    reachable: dict[str, tuple[str, int, list[str]]] = {}
    queue = [name for name in ROOTS if name in index]
    while queue:
        name = queue.pop()
        if name in reachable:
            continue
        sf, node = index[name]
        fields = dataclass_fields(node)
        reachable[name] = (sf.rel, node.lineno, [f[0] for f in fields])
        for _fname, annotation, _line in fields:
            for sub in ast.walk(annotation):
                ref = None
                if isinstance(sub, ast.Name):
                    ref = sub.id
                elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    ref = sub.value  # string annotation
                if ref in index and ref not in reachable:
                    queue.append(ref)
    return reachable


def load_manifest(project: Project) -> dict | None:
    path = project.root / MANIFEST_REL
    if not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8"))


def generate_manifest(project: Project) -> dict:
    """The manifest matching the current tree.

    Exclusion lists are *declarations*, not derivable facts — an existing
    manifest's exclusions are preserved; first-time generation starts
    with none and authors add exclusions by hand (each one must have a
    matching implementation in the describe()/hash path).
    """
    previous = load_manifest(project) or {"classes": {}}
    version, _line = _spec_format_version(project)
    classes = {}
    for name, (rel, _lineno, fields) in sorted(reachable_dataclasses(project).items()):
        excluded = previous.get("classes", {}).get(name, {}).get("excluded", [])
        classes[name] = {
            "module": rel,
            "hashed": [f for f in fields if f not in excluded],
            "excluded": [f for f in excluded if f in fields],
        }
    return {
        "spec_format_version": version,
        "comment": (
            "Pinned hash schema for REP003. Every field of every dataclass "
            "reachable from SweepCell.content_hash()/ProgramSpec.build_key() "
            "must be listed: in 'hashed' (part of the content hash) or in "
            "'excluded' (deliberately outside it, with the exclusion "
            "implemented in the describe()/hash path). Regenerate with "
            f"`{UPDATE_HINT}` after bumping {VERSION_NAME}."
        ),
        "classes": classes,
    }


class HashSchemaRule(Rule):
    code = "REP003"
    name = "hash-schema"
    rationale = (
        "spec-schema changes silently invalidated result caches in PRs 3-4; "
        "every hash-reachable field must be pinned or explicitly excluded, "
        "and schema changes must bump SPEC_FORMAT_VERSION"
    )

    def check(self, project: Project) -> Iterable[Finding]:
        specs = project.file(SPECS_REL)
        if specs is None or specs.tree is None:
            return  # not a repro tree (fixture projects without a spec layer)
        manifest = load_manifest(project)
        if manifest is None:
            yield self.finding(
                specs, 1,
                f"no pinned hash-schema manifest at {MANIFEST_REL}; generate "
                f"one with `{UPDATE_HINT}`",
            )
            return
        version, version_line = _spec_format_version(project)
        pinned_version = manifest.get("spec_format_version")
        if version is None:
            yield self.finding(
                specs, 1,
                f"{VERSION_NAME} constant not found in {SPECS_REL}; the "
                "hash-schema guard cannot anchor cache compatibility",
            )
            return
        if version != pinned_version:
            yield self.finding(
                specs, version_line,
                f"{VERSION_NAME} is {version} but the pinned manifest was "
                f"generated at version {pinned_version}; regenerate it with "
                f"`{UPDATE_HINT}` (intentional bumps re-key every cache entry)",
            )
            # Field-level drift is expected mid-bump; stop here.
            return
        current = reachable_dataclasses(project)
        pinned_classes = manifest.get("classes", {})
        for name, (rel, lineno, fields) in sorted(current.items()):
            sf = project.file(rel)
            if name not in pinned_classes:
                yield self.finding(
                    sf, lineno,
                    f"dataclass `{name}` is newly reachable from the content-"
                    f"hash payload but absent from the pinned manifest; bump "
                    f"{VERSION_NAME} and regenerate (`{UPDATE_HINT}`)",
                )
                continue
            entry = pinned_classes[name]
            hashed = set(entry.get("hashed", []))
            excluded = set(entry.get("excluded", []))
            known = hashed | excluded
            for fname in fields:
                if fname not in known:
                    line = self._field_line(project, rel, name, fname, lineno)
                    yield self.finding(
                        sf, line,
                        f"field `{name}.{fname}` is not pinned in the hash-"
                        f"schema manifest — adding it re-keys every cache "
                        f"entry silently; bump {VERSION_NAME} and regenerate "
                        f"(`{UPDATE_HINT}`), or implement + declare an "
                        "explicit hash exclusion",
                    )
            for fname in sorted(known - set(fields)):
                if fname in excluded:
                    kind = "excluded"
                    fix = "regenerate (no bump: excluded fields never reached a hash)"
                else:
                    kind = "pinned"
                    fix = f"bump {VERSION_NAME} and regenerate"
                yield self.finding(
                    sf, lineno,
                    f"manifest lists {kind} field `{name}.{fname}` but the "
                    f"dataclass no longer declares it; {fix} (`{UPDATE_HINT}`)",
                )
        for name in sorted(set(pinned_classes) - set(current)):
            yield self.finding(
                specs, 1,
                f"manifest pins dataclass `{name}` which is no longer "
                f"reachable from the content-hash payload; regenerate the "
                f"manifest (`{UPDATE_HINT}`)",
            )

    @staticmethod
    def _field_line(
        project: Project, rel: str, class_name: str, field_name: str, default: int
    ) -> int:
        sf = project.file(rel)
        for node in ast.walk(sf.tree):
            if isinstance(node, ast.ClassDef) and node.name == class_name:
                for fname, _ann, line in dataclass_fields(node):
                    if fname == field_name:
                        return line
        return default
