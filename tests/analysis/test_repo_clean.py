"""The acceptance tests: the real tree lints clean, and seeded
mutations of the real tree are caught.

These are the teeth of the subsystem. The clean test pins "``repro
lint`` exits 0 on this commit" as a regression test; the mutation tests
prove the two bug classes ISSUE history cares most about — a silent
hash-schema drift and a blocking call on the daemon's event loop —
would fail CI, not just in principle but against today's actual source.
"""

from __future__ import annotations

import copy
from pathlib import Path

from repro.analysis.framework import Baseline
from repro.analysis.rules import ALL_RULES, RULES_BY_CODE
from repro.analysis.runner import BASELINE_REL, lint_project

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestRepoIsClean:
    def test_lint_exits_zero_on_current_tree(self, repo_project):
        baseline = Baseline.load(REPO_ROOT / BASELINE_REL)
        report = lint_project(repo_project, ALL_RULES, baseline)
        assert report.parse_errors == []
        assert report.new == [], "\n".join(f.render() for f in report.new)
        assert report.exit_code == 0

    def test_no_stale_baseline_entries(self, repo_project):
        baseline = Baseline.load(REPO_ROOT / BASELINE_REL)
        report = lint_project(repo_project, ALL_RULES, baseline)
        assert report.stale_baseline == []


class TestSeededMutations:
    """Inject each historical bug into the real tree; the linter must
    catch it. ``Project.replace_file`` swaps file contents in memory, so
    nothing on disk is touched."""

    @staticmethod
    def _fork(repo_project):
        """An independent copy: mutations must not pollute the
        session-scoped project other tests share."""
        project = copy.copy(repo_project)
        project.files = list(repo_project.files)
        project._by_rel = dict(repo_project._by_rel)
        project._classes = None
        return project

    def _mutated(self, repo_project, rel, old, new):
        project = self._fork(repo_project)
        text = project.file(rel).text
        assert old in text, f"mutation anchor not found in {rel}"
        project.replace_file(rel, text.replace(old, new, 1))
        return project

    def test_hash_schema_field_injection_fails(self, repo_project):
        # PR 3's bug, replayed: add a spec field without bumping
        # SPEC_FORMAT_VERSION.
        project = self._mutated(
            repo_project,
            "src/repro/sim/specs.py",
            "    mode: str = MODE_ACCURACY\n",
            "    mode: str = MODE_ACCURACY\n    cache_tier: int = 0\n",
        )
        findings = list(RULES_BY_CODE["REP003"].check(project))
        assert any("SweepCell.cache_tier" in f.message for f in findings)
        report = lint_project(project, ALL_RULES,
                              Baseline.load(REPO_ROOT / BASELINE_REL))
        assert report.exit_code == 1

    def test_blocking_call_in_daemon_coroutine_fails(self, repo_project):
        # PR 7's bug class, replayed: synchronous sleep on the event loop.
        anchor = "async def _route(self, method: str, target: str, body: bytes, writer) -> None:"
        project = self._mutated(
            repo_project,
            "src/repro/serve/daemon.py",
            anchor,
            anchor + "\n        time.sleep(0.01)",
        )
        findings = list(RULES_BY_CODE["REP005"].check(project))
        assert any(
            "time.sleep" in f.message and "_route" in f.message for f in findings
        )
        report = lint_project(project, ALL_RULES,
                              Baseline.load(REPO_ROOT / BASELINE_REL))
        assert report.exit_code == 1

    def test_prefix_daemon_cache_handler_shape_fails(self, repo_project):
        # The actual pre-fix shape of this PR: a sync _handle_cache doing
        # backend byte I/O, called await-free from async _route.
        project = self._mutated(
            repo_project,
            "src/repro/serve/daemon.py",
            "    async def _handle_cache(",
            "    def _handle_cache(",
        )
        text = project.file("src/repro/serve/daemon.py").text
        # Undo the awaits and executor hops so the handler is sync again.
        text = text.replace(
            "await self._handle_cache(", "self._handle_cache(", 1
        )
        text = text.replace(
            "data = await loop.run_in_executor(None, backend.get_bytes, key)",
            "data = backend.get_bytes(key)",
        )
        text = text.replace(
            "await loop.run_in_executor(None, backend.put_bytes, key, body)",
            "backend.put_bytes(key, body)",
        )
        project.replace_file("src/repro/serve/daemon.py", text)
        findings = list(RULES_BY_CODE["REP005"].check(project))
        assert any("_handle_cache" in f.message for f in findings)
