"""REP003 self-tests: manifest drift detection on fixture spec trees."""

from __future__ import annotations

import json

from repro.analysis.rules import RULES_BY_CODE
from repro.analysis.rules.hash_schema import (
    MANIFEST_REL,
    generate_manifest,
    reachable_dataclasses,
)
from repro.analysis.runner import collect_project, lint_project

RULE = RULES_BY_CODE["REP003"]

SPECS = """\
from dataclasses import dataclass

SPEC_FORMAT_VERSION = 1


@dataclass(frozen=True)
class ProgramSpec:
    benchmark: str
    seed: int

    def build_key(self):
        return (self.benchmark, self.seed)


@dataclass(frozen=True)
class SweepCell:
    program: ProgramSpec
    mode: str

    def content_hash(self):
        return hash((self.program.build_key(), self.mode))
"""


def _project_with_manifest(tmp_path, specs_text=SPECS, mutate=None):
    """Build a fixture tree whose manifest matches ``SPECS``, then
    optionally swap in drifted spec text."""
    root = tmp_path / "tree"
    specs = root / "src/repro/sim/specs.py"
    specs.parent.mkdir(parents=True)
    specs.write_text(specs_text, encoding="utf-8")
    project = collect_project(root)
    manifest_path = root / MANIFEST_REL
    manifest_path.parent.mkdir(parents=True)
    manifest = generate_manifest(project)
    if mutate is not None:
        mutate(manifest)
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    return collect_project(root)


def _findings(project):
    return list(RULE.check(project))


class TestReachability:
    def test_walks_field_annotations_from_roots(self, tmp_path):
        project = _project_with_manifest(tmp_path)
        reachable = reachable_dataclasses(project)
        assert set(reachable) == {"SweepCell", "ProgramSpec"}
        assert reachable["SweepCell"][2] == ["program", "mode"]

    def test_real_tree_covers_known_spec_classes(self, repo_project):
        reachable = reachable_dataclasses(repo_project)
        assert {"SweepCell", "ProgramSpec", "SystemSpec", "PredictorSpec",
                "SimulationConfig", "WorkloadProfile"} <= set(reachable)


class TestFires:
    def test_missing_manifest(self, tmp_path):
        root = tmp_path / "tree"
        specs = root / "src/repro/sim/specs.py"
        specs.parent.mkdir(parents=True)
        specs.write_text(SPECS, encoding="utf-8")
        (f,) = _findings(collect_project(root))
        assert "no pinned hash-schema manifest" in f.message

    def test_new_field_without_version_bump(self, tmp_path):
        project = _project_with_manifest(tmp_path)
        drifted = SPECS.replace("    mode: str\n", "    mode: str\n    tier: int = 0\n")
        project.replace_file("src/repro/sim/specs.py", drifted)
        (f,) = _findings(project)
        assert "SweepCell.tier" in f.message and "not pinned" in f.message

    def test_version_bump_without_regeneration(self, tmp_path):
        project = _project_with_manifest(tmp_path)
        project.replace_file(
            "src/repro/sim/specs.py",
            SPECS.replace("SPEC_FORMAT_VERSION = 1", "SPEC_FORMAT_VERSION = 2"),
        )
        (f,) = _findings(project)
        assert "generated at version 1" in f.message

    def test_removed_field_flagged(self, tmp_path):
        project = _project_with_manifest(tmp_path)
        project.replace_file(
            "src/repro/sim/specs.py", SPECS.replace("    seed: int\n", "")
        )
        (f,) = _findings(project)
        assert "ProgramSpec.seed" in f.message
        assert "bump SPEC_FORMAT_VERSION" in f.message

    def test_removed_excluded_field_needs_no_bump(self, tmp_path):
        """An excluded field never reached a hash, so removing it only
        asks for the manifest to be regenerated: a bump would re-key
        every cache entry for nothing."""

        def exclude_mode(manifest):
            cell = manifest["classes"]["SweepCell"]
            cell["hashed"].remove("mode")
            cell["excluded"].append("mode")

        project = _project_with_manifest(tmp_path, mutate=exclude_mode)
        project.replace_file(
            "src/repro/sim/specs.py", SPECS.replace("    mode: str\n", "")
        )
        (f,) = _findings(project)
        assert "excluded field `SweepCell.mode`" in f.message
        assert "no bump" in f.message and "bump SPEC_FORMAT_VERSION" not in f.message

    def test_newly_reachable_dataclass_flagged(self, tmp_path):
        project = _project_with_manifest(tmp_path)
        drifted = SPECS + (
            "\n\n@dataclass(frozen=True)\n"
            "class ExtraKnob:\n"
            "    depth: int\n"
        )
        drifted = drifted.replace("    mode: str\n", "    mode: str\n    knob: ExtraKnob | None = None\n")
        project.replace_file("src/repro/sim/specs.py", drifted)
        findings = _findings(project)
        assert any("ExtraKnob" in f.message and "absent from" in f.message
                   for f in findings)


class TestPasses:
    def test_matching_manifest_is_clean(self, tmp_path):
        assert _findings(_project_with_manifest(tmp_path)) == []

    def test_declared_exclusion_is_clean(self, tmp_path):
        # A field moved from 'hashed' to 'excluded' stays pinned.
        def exclude_mode(manifest):
            cell = manifest["classes"]["SweepCell"]
            cell["hashed"].remove("mode")
            cell["excluded"].append("mode")

        project = _project_with_manifest(tmp_path, mutate=exclude_mode)
        assert _findings(project) == []

    def test_regenerate_preserves_exclusions(self, tmp_path):
        def exclude_mode(manifest):
            cell = manifest["classes"]["SweepCell"]
            cell["hashed"].remove("mode")
            cell["excluded"].append("mode")

        project = _project_with_manifest(tmp_path, mutate=exclude_mode)
        regenerated = generate_manifest(project)
        assert regenerated["classes"]["SweepCell"]["excluded"] == ["mode"]
        assert "mode" not in regenerated["classes"]["SweepCell"]["hashed"]

    def test_fixture_trees_without_spec_layer_skip(self, make_project):
        project = make_project({"src/repro/util.py": "x = 1\n"})
        assert _findings(project) == []


class TestSuppression:
    def test_inline_suppression_honored(self, tmp_path):
        project = _project_with_manifest(tmp_path)
        drifted = SPECS.replace(
            "    mode: str\n",
            "    mode: str\n    tier: int = 0  # repro-lint: disable=REP003\n",
        )
        project.replace_file("src/repro/sim/specs.py", drifted)
        report = lint_project(project, [RULE])
        assert report.new == [] and len(report.suppressed) == 1
