"""Framework-layer self-tests: suppressions, fingerprints, baseline."""

from __future__ import annotations

import ast

import pytest

from repro.analysis.framework import (
    Baseline,
    Finding,
    SourceFile,
    import_aliases,
    resolve_call,
    validate_rule,
)
from repro.analysis.rules import ALL_RULES, RULES_BY_CODE


class TestSuppressions:
    def test_line_suppression_single_code(self, tmp_path):
        sf = SourceFile.from_text(
            tmp_path, "m.py", "x = 1  # repro-lint: disable=REP001\n"
        )
        assert sf.is_suppressed("REP001", 1)
        assert not sf.is_suppressed("REP002", 1)
        assert not sf.is_suppressed("REP001", 2)

    def test_line_suppression_multiple_codes(self, tmp_path):
        sf = SourceFile.from_text(
            tmp_path, "m.py", "x = 1  # repro-lint: disable=REP001, REP005\n"
        )
        assert sf.is_suppressed("REP001", 1)
        assert sf.is_suppressed("REP005", 1)
        assert not sf.is_suppressed("REP003", 1)

    def test_bare_disable_silences_every_rule(self, tmp_path):
        sf = SourceFile.from_text(tmp_path, "m.py", "x = 1  # repro-lint: disable\n")
        assert sf.is_suppressed("REP001", 1)
        assert sf.is_suppressed("REP006", 1)

    def test_file_suppression(self, tmp_path):
        text = "# repro-lint: disable-file=REP002\nx = 1\ny = 2\n"
        sf = SourceFile.from_text(tmp_path, "m.py", text)
        assert sf.is_suppressed("REP002", 3)
        assert not sf.is_suppressed("REP001", 3)

    def test_unrelated_comments_do_not_suppress(self, tmp_path):
        sf = SourceFile.from_text(tmp_path, "m.py", "x = 1  # totally normal\n")
        assert not sf.is_suppressed("REP001", 1)


class TestFindingFingerprint:
    def test_stable_across_line_drift(self):
        a = Finding("REP001", "src/m.py", 10, "msg", snippet="random.random()")
        b = Finding("REP001", "src/m.py", 99, "msg", snippet="random.random()")
        assert a.fingerprint() == b.fingerprint()

    def test_changes_with_snippet_rule_or_path(self):
        base = Finding("REP001", "src/m.py", 1, "msg", snippet="x")
        assert base.fingerprint() != Finding(
            "REP002", "src/m.py", 1, "msg", snippet="x"
        ).fingerprint()
        assert base.fingerprint() != Finding(
            "REP001", "src/n.py", 1, "msg", snippet="x"
        ).fingerprint()
        assert base.fingerprint() != Finding(
            "REP001", "src/m.py", 1, "msg", snippet="y"
        ).fingerprint()


class TestBaseline:
    def _finding(self, snippet="x = 1", line=1):
        return Finding("REP001", "src/m.py", line, "msg", snippet=snippet)

    def test_round_trip(self, tmp_path):
        path = tmp_path / "baseline.json"
        findings = [self._finding(), self._finding("y = 2", line=5)]
        Baseline.save(path, findings)
        loaded = Baseline.load(path)
        new, baselined, stale = loaded.partition(findings)
        assert new == []
        assert len(baselined) == 2
        assert stale == []

    def test_multiset_matching(self, tmp_path):
        # Two identical offending lines need two baseline entries; a
        # third occurrence is new.
        path = tmp_path / "baseline.json"
        Baseline.save(path, [self._finding(), self._finding()])
        loaded = Baseline.load(path)
        new, baselined, _ = loaded.partition(
            [self._finding(line=1), self._finding(line=2), self._finding(line=3)]
        )
        assert len(baselined) == 2
        assert len(new) == 1

    def test_stale_entries_surface(self, tmp_path):
        path = tmp_path / "baseline.json"
        Baseline.save(path, [self._finding("gone()")])
        loaded = Baseline.load(path)
        new, baselined, stale = loaded.partition([])
        assert new == [] and baselined == []
        assert len(stale) == 1
        assert stale[0][0] == "REP001"

    def test_missing_file_is_empty(self, tmp_path):
        loaded = Baseline.load(tmp_path / "nope.json")
        new, baselined, stale = loaded.partition([self._finding()])
        assert len(new) == 1 and baselined == [] and stale == []

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text('{"version": 999, "findings": []}', encoding="utf-8")
        with pytest.raises(ValueError, match="version"):
            Baseline.load(path)


class TestImportResolution:
    def _aliases(self, src):
        return import_aliases(ast.parse(src))

    def test_plain_and_aliased_imports(self):
        aliases = self._aliases("import numpy as np\nimport time\n")
        assert aliases["np"] == "numpy"
        assert aliases["time"] == "time"

    def test_from_imports(self):
        aliases = self._aliases("from os import urandom\nfrom a.b import c as d\n")
        assert aliases["urandom"] == "os.urandom"
        assert aliases["d"] == "a.b.c"

    def test_resolve_call_through_alias(self):
        tree = ast.parse("import numpy as np\nnp.random.randint(3)\n")
        call = tree.body[1].value
        assert resolve_call(call, import_aliases(tree)) == "numpy.random.randint"

    def test_resolve_call_unresolvable_receiver(self):
        tree = ast.parse("f()[0].g()\n")
        call = tree.body[0].value
        assert resolve_call(call, {}) is None


class TestRulePack:
    def test_five_rules_registered_and_valid(self):
        # REP004 (backend parity) is retired; its code is not reused.
        assert sorted(RULES_BY_CODE) == [
            "REP001", "REP002", "REP003", "REP005", "REP006",
        ]
        for rule in ALL_RULES:
            validate_rule(rule)  # raises on malformed code / missing docs


class TestClassIndex:
    def test_getstate_found_through_project_local_base(self, make_project):
        project = make_project({
            "src/repro/a.py": (
                "class Base:\n"
                "    def __getstate__(self):\n"
                "        return {}\n"
            ),
            "src/repro/b.py": (
                "from repro.a import Base\n"
                "class Child(Base):\n"
                "    pass\n"
            ),
        })
        assert project.class_defines("Child", "__getstate__")
        assert not project.class_defines("Child", "__setstate__")

    def test_unresolvable_base_is_conservative(self, make_project):
        project = make_project({
            "src/repro/a.py": "class C(SomeLibBase):\n    pass\n",
        })
        assert not project.class_defines("C", "__getstate__")
