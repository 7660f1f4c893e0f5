"""CLI-layer self-tests for ``repro lint`` / ``tools/run_lint.py``."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.cli import main

BAD_TREE = {
    "src/repro/workloads/gen.py": (
        "import random\n"
        "def pick():\n"
        "    return random.random()\n"
    ),
}

CLEAN_TREE = {
    "src/repro/workloads/gen.py": (
        "import random\n"
        "def pick(seed):\n"
        "    return random.Random(seed).random()\n"
    ),
}


def _write(tmp_path, files):
    root = tmp_path / "tree"
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return root


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        root = _write(tmp_path, CLEAN_TREE)
        assert main(["--root", str(root)]) == 0
        assert "0 blocking finding(s)" in capsys.readouterr().out

    def test_finding_exits_one(self, tmp_path, capsys):
        root = _write(tmp_path, BAD_TREE)
        assert main(["--root", str(root), "--check"]) == 1
        out = capsys.readouterr().out
        assert "REP001" in out and "gen.py:3" in out

    def test_unparseable_file_exits_one(self, tmp_path, capsys):
        root = _write(tmp_path, {"src/repro/bad.py": "def oops(:\n"})
        assert main(["--root", str(root)]) == 1
        assert "REP000" in capsys.readouterr().out

    def test_missing_root_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit, match="no src/repro tree"):
            main(["--root", str(tmp_path / "nowhere")])


class TestJsonOutput:
    def test_format_json_document(self, tmp_path, capsys):
        root = _write(tmp_path, BAD_TREE)
        assert main(["--root", str(root), "--format", "json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["exit_code"] == 1
        assert doc["summary"]["new"] == 1
        (finding,) = doc["findings"]
        assert finding["rule"] == "REP001"
        assert finding["status"] == "new"
        assert finding["fingerprint"]

    def test_out_artifact_alongside_text(self, tmp_path, capsys):
        root = _write(tmp_path, BAD_TREE)
        artifact = tmp_path / "lint.json"
        assert main(["--root", str(root), "--out", str(artifact)]) == 1
        doc = json.loads(artifact.read_text(encoding="utf-8"))
        assert doc["summary"]["new"] == 1
        assert "REP001" in capsys.readouterr().out  # text still on stdout


class TestBaselineWorkflow:
    def test_write_then_check_round_trip(self, tmp_path, capsys):
        root = _write(tmp_path, BAD_TREE)
        assert main(["--root", str(root), "--write-baseline"]) == 0
        assert (root / ".repro-lint-baseline.json").exists()
        # Grandfathered: same tree now passes.
        assert main(["--root", str(root)]) == 0
        out = capsys.readouterr().out
        assert "1 baselined" in out

    def test_no_baseline_reblocks(self, tmp_path):
        root = _write(tmp_path, BAD_TREE)
        assert main(["--root", str(root), "--write-baseline"]) == 0
        assert main(["--root", str(root), "--no-baseline"]) == 1

    def test_stale_entry_warns_but_passes(self, tmp_path, capsys):
        root = _write(tmp_path, BAD_TREE)
        assert main(["--root", str(root), "--write-baseline"]) == 0
        # Fix the violation; its baseline entry goes stale.
        gen = root / "src/repro/workloads/gen.py"
        gen.write_text(CLEAN_TREE["src/repro/workloads/gen.py"], encoding="utf-8")
        assert main(["--root", str(root)]) == 0
        assert "stale baseline entry" in capsys.readouterr().out


class TestListRules:
    def test_catalog_lists_all_codes(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("REP001", "REP002", "REP003", "REP005", "REP006"):
            assert code in out
        assert "REP004" not in out  # retired with its rule


class TestStdlibOnly:
    def test_check_runs_without_numpy(self):
        """CI's lint job installs nothing, so the analysis CLI must lint
        this repo with numpy unimportable."""
        repo = Path(__file__).resolve().parents[2]
        script = (
            "import sys\n"
            "sys.modules['numpy'] = None\n"
            "from repro.analysis.cli import main\n"
            "sys.exit(main(['--check']))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(repo / "src")}
        proc = subprocess.run(
            [sys.executable, "-c", script], cwd=repo, env=env,
            capture_output=True, text=True, timeout=300, check=False,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
