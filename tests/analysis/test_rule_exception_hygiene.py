"""REP006 self-tests: broad catches must re-raise or degrade."""

from __future__ import annotations

from repro.analysis.rules import RULES_BY_CODE
from repro.analysis.runner import collect_project, lint_project

RULE = RULES_BY_CODE["REP006"]


def _findings(project):
    return list(RULE.check(project))


class TestFires:
    def test_silent_except_exception(self, make_project):
        project = make_project({
            "src/repro/workloads/t.py": (
                "def close(handle):\n"
                "    try:\n"
                "        handle.close()\n"
                "    except Exception:\n"
                "        pass\n"
            ),
        })
        (f,) = _findings(project)
        assert "`except Exception`" in f.message and f.line == 4

    def test_bare_except(self, make_project):
        project = make_project({
            "src/repro/sim/x.py": (
                "def f():\n"
                "    try:\n"
                "        g()\n"
                "    except:\n"
                "        return None\n"
            ),
        })
        (f,) = _findings(project)
        assert "bare `except:`" in f.message

    def test_base_exception_in_tuple(self, make_project):
        project = make_project({
            "src/repro/sim/x.py": (
                "def f():\n"
                "    try:\n"
                "        g()\n"
                "    except (ValueError, BaseException):\n"
                "        return None\n"
            ),
        })
        (f,) = _findings(project)
        assert "BaseException" in f.message

    def test_logging_alone_is_not_enough(self, make_project):
        # print/log without degrade() leaves no machine-readable record
        # and still swallows KeyboardInterrupt under BaseException.
        project = make_project({
            "src/repro/serve/x.py": (
                "def f():\n"
                "    try:\n"
                "        g()\n"
                "    except BaseException as exc:\n"
                "        print('oops', exc)\n"
            ),
        })
        assert len(_findings(project)) == 1

    def test_suppress_exception_flagged(self, make_project):
        project = make_project({
            "src/repro/sim/x.py": (
                "import contextlib\n"
                "def f():\n"
                "    with contextlib.suppress(Exception):\n"
                "        g()\n"
            ),
        })
        (f,) = _findings(project)
        assert "suppress(Exception)" in f.message

    def test_raise_in_nested_def_does_not_count(self, make_project):
        project = make_project({
            "src/repro/sim/x.py": (
                "def f():\n"
                "    try:\n"
                "        g()\n"
                "    except Exception:\n"
                "        def oops():\n"
                "            raise ValueError('later')\n"
                "        return oops\n"
            ),
        })
        assert len(_findings(project)) == 1


class TestPasses:
    def test_wrap_and_reraise(self, make_project):
        project = make_project({
            "src/repro/sim/x.py": (
                "def f(cell):\n"
                "    try:\n"
                "        g()\n"
                "    except Exception as exc:\n"
                "        raise RuntimeError(cell) from exc\n"
            ),
        })
        assert _findings(project) == []

    def test_cleanup_then_bare_reraise(self, make_project):
        project = make_project({
            "src/repro/sim/x.py": (
                "def f(tmp):\n"
                "    try:\n"
                "        g()\n"
                "    except BaseException:\n"
                "        cleanup(tmp)\n"
                "        raise\n"
            ),
        })
        assert _findings(project) == []

    def test_degrade_from_faults_handling(self, make_project):
        project = make_project({
            "src/repro/serve/x.py": (
                "from repro.faults.handling import degrade\n"
                "def f():\n"
                "    try:\n"
                "        g()\n"
                "    except Exception as exc:\n"
                "        degrade(exc, 'running g')\n"
            ),
        })
        assert _findings(project) == []

    def test_degrade_via_package_alias(self, make_project):
        project = make_project({
            "src/repro/serve/x.py": (
                "from repro.faults import degrade\n"
                "def f():\n"
                "    try:\n"
                "        g()\n"
                "    except BaseException as exc:\n"
                "        degrade(exc, 'daemon thread', reraise=())\n"
            ),
        })
        assert _findings(project) == []

    def test_narrow_handlers_ignored(self, make_project):
        project = make_project({
            "src/repro/sim/x.py": (
                "def f():\n"
                "    try:\n"
                "        g()\n"
                "    except (OSError, ValueError):\n"
                "        return None\n"
            ),
        })
        assert _findings(project) == []

    def test_suppress_narrow_type_ignored(self, make_project):
        project = make_project({
            "src/repro/sim/x.py": (
                "import contextlib\n"
                "def f():\n"
                "    with contextlib.suppress(FileNotFoundError):\n"
                "        g()\n"
            ),
        })
        assert _findings(project) == []

    def test_out_of_scope_files_ignored(self, tmp_path):
        # The default scan parses src/repro only, so scan tools/ on
        # purpose: the rule itself must leave it alone.
        path = tmp_path / "tools" / "x.py"
        path.parent.mkdir()
        path.write_text(
            "def f():\n"
            "    try:\n"
            "        g()\n"
            "    except Exception:\n"
            "        pass\n",
            encoding="utf-8",
        )
        project = collect_project(tmp_path, scan=("src/repro", "tools"))
        assert project.file("tools/x.py") is not None
        assert _findings(project) == []


class TestSuppression:
    def test_inline_suppression_honored(self, make_project):
        project = make_project({
            "src/repro/sim/x.py": (
                "def f():\n"
                "    try:\n"
                "        g()\n"
                "    except Exception:  # repro-lint: disable=REP006\n"
                "        pass\n"
            ),
        })
        report = lint_project(project, [RULE])
        assert report.new == [] and len(report.suppressed) == 1


class TestRepoIsClean:
    def test_no_findings_in_this_repo(self, repo_project):
        # The hardening sweep (PR 10) narrowed or degraded every broad
        # handler in src/repro; new ones must account for themselves.
        assert [f.message for f in _findings(repo_project)] == []
