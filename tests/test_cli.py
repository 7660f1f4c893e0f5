"""Tests for the `python -m repro` command-line interface."""

import json

import pytest

from repro.__main__ import build_parser, main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "figure5" in out and "headline" in out
        assert "gcc" in out and "tpcc" in out

    def test_run_table3(self, capsys):
        assert main(["run", "table3"]) == 0
        out = capsys.readouterr().out
        assert "hardware budgets" in out

    def test_bench_baseline(self, capsys):
        assert main(["bench", "swim", "--system", "baseline", "--branches", "3000"]) == 0
        out = capsys.readouterr().out
        assert "misp_per_kuops" in out

    def test_bench_hybrid_prints_census(self, capsys):
        assert main(
            ["bench", "swim", "--system", "hybrid", "--branches", "3000",
             "--future-bits", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "critique census" in out

    def test_list_includes_predictor_registry(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "predictor kinds" in out
        assert "yags" in out and "prophet-only" in out and "prophet+critic" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "figure99"])

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "doom"])

    @pytest.mark.parametrize("argv", [
        ["run", "table3", "--backend", "batched"],
        ["--backend", "batched", "run", "table3"],
        ["bench", "swim", "--backend", "scalar"],
        ["submit", "--systems", "s.json", "--benchmarks", "gcc", "--backend", "batched"],
    ])
    def test_retired_backend_flag_rejected(self, argv):
        """There is one accuracy kernel, so no verb takes ``--backend``."""
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2


class TestConfigCli:
    """`bench --config` and the config-file driven `sweep` verb."""

    def write_config(self, tmp_path, name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    def test_bench_with_system_config(self, tmp_path, capsys):
        config = self.write_config(tmp_path, "sys.json", {
            "kind": "hybrid",
            "prophet": {"kind": "yags", "params": {"choice_entries": 2048}},
            "critic": {"kind": "tagged-gshare", "budget_kb": 2},
            "future_bits": 4,
        })
        assert main(["bench", "swim", "--config", config, "--branches", "3000"]) == 0
        out = capsys.readouterr().out
        assert "yags" in out and "critique census" in out

    def test_bench_config_equals_flag_vocabulary(self, tmp_path, capsys):
        """A config spelling the default hybrid reproduces its numbers."""
        config = self.write_config(tmp_path, "sys.json", {
            "kind": "hybrid",
            "prophet": {"kind": "2bc-gskew", "budget_kb": 8},
            "critic": {"kind": "tagged-gshare", "budget_kb": 8},
            "future_bits": 8,
        })
        assert main(["bench", "swim", "--branches", "3000"]) == 0
        via_flags = capsys.readouterr().out
        assert main(["bench", "swim", "--config", config, "--branches", "3000"]) == 0
        via_config = capsys.readouterr().out
        # Header lines differ (label vs. "hybrid"); metrics must not.
        assert via_flags.splitlines()[1:] == via_config.splitlines()[1:]

    def test_bench_rejects_missing_config(self, tmp_path, capsys):
        assert main(["bench", "swim", "--config", str(tmp_path / "no.json")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_bench_rejects_bad_spec(self, tmp_path, capsys):
        config = self.write_config(
            tmp_path, "sys.json", {"kind": "single", "prophet": "doom"}
        )
        assert main(["bench", "swim", "--config", config]) == 2
        assert "registered kinds" in capsys.readouterr().err

    def test_sweep_grid_with_labels_and_cache(self, tmp_path, capsys):
        systems = self.write_config(tmp_path, "systems.json", {
            "baseline": {"kind": "single", "prophet": ["2bc-gskew", 2]},
            "tage": {"kind": "single", "prophet": {"kind": "tage", "params":
                     {"base_entries": 1024, "component_entries": 128}}},
        })
        cache_dir = str(tmp_path / "cache")
        out_file = tmp_path / "results.json"
        args = ["sweep", "--systems", systems, "--benchmarks", "swim,ammp",
                "--branches", "2000", "--cache-dir", cache_dir,
                "--out", str(out_file)]
        assert main(args) == 0
        captured = capsys.readouterr()
        assert "baseline" in captured.out and "tage" in captured.out
        assert "AVG" in captured.out
        assert "4 miss" in captured.err
        payload = json.loads(out_file.read_text(encoding="utf-8"))
        assert len(payload["cells"]) == 4
        assert all("content_hash" in cell for cell in payload["cells"])
        # Second run: every cell served from the cache.
        assert main(args) == 0
        assert "4 hit" in capsys.readouterr().err

    def test_sweep_list_form_derives_labels(self, tmp_path, capsys):
        systems = self.write_config(tmp_path, "systems.json", [
            {"kind": "single", "prophet": ["gshare", 2]},
            {"kind": "hybrid", "prophet": ["gshare", 2],
             "critic": ["tagged-gshare", 2], "future_bits": 4},
        ])
        assert main(["sweep", "--systems", systems, "--benchmarks", "swim",
                     "--branches", "2000"]) == 0
        out = capsys.readouterr().out
        assert "gshare@2KB" in out
        assert "gshare@2KB+tagged-gshare@2KB@f4" in out

    def test_sweep_accepts_trace_paths_as_benchmarks(self, tmp_path, capsys):
        trace = tmp_path / "swim.trace"
        assert main(["trace", "record", "swim", "--out", str(trace),
                     "--branches", "2000"]) == 0
        systems = self.write_config(
            tmp_path, "systems.json", {"kind": "single", "prophet": ["gshare", 2]}
        )
        capsys.readouterr()
        assert main(["sweep", "--systems", systems, "--benchmarks", str(trace),
                     "--branches", "2000"]) == 0
        assert "swim" in capsys.readouterr().out

    def test_sweep_out_zero_mispredicts_is_strict_json(self, tmp_path, capsys):
        """Regression: a zero-mispredict cell used to serialize
        ``uops_per_flush`` as the invalid JSON token ``Infinity``. The
        payload must round-trip through a parser that rejects the
        non-standard constants."""
        from repro.workloads.behaviors import PatternBehavior
        from repro.workloads.program import BasicBlock, BlockKind, Program
        from repro.workloads.trace import record_trace

        # A single always-taken loop branch: after warmup the counter is
        # saturated and the branch BTB-resident, so mispredicts == 0.
        program = Program(
            name="alwaystaken",
            blocks=[
                BasicBlock(0, 0x1000, 4, BlockKind.COND, taken_target=0,
                           fallthrough=0, behavior=PatternBehavior("T")),
            ],
            entry=0,
        )
        trace = tmp_path / "alwaystaken.trace"
        record_trace(program, 600, trace)
        systems = self.write_config(
            tmp_path, "systems.json", {"kind": "single", "prophet": ["gshare", 2]}
        )
        out_file = tmp_path / "results.json"
        assert main(["sweep", "--systems", systems, "--benchmarks", str(trace),
                     "--branches", "600", "--out", str(out_file)]) == 0
        capsys.readouterr()
        payload = json.loads(
            out_file.read_text(encoding="utf-8"),
            parse_constant=lambda token: pytest.fail(
                f"non-standard JSON constant {token!r} in --out payload"
            ),
        )
        (cell,) = payload["cells"]
        assert cell["summary"]["mispredicts"] == 0
        assert cell["summary"]["uops_per_flush"] is None

    def test_sweep_rejects_unknown_benchmark(self, tmp_path, capsys):
        systems = self.write_config(
            tmp_path, "systems.json", {"kind": "single", "prophet": ["gshare", 2]}
        )
        assert main(["sweep", "--systems", systems, "--benchmarks", "doom"]) == 2
        assert "known benchmarks" in capsys.readouterr().err

    def test_sweep_rejects_invalid_json(self, tmp_path, capsys):
        bad = tmp_path / "systems.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["sweep", "--systems", str(bad), "--benchmarks", "swim"]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_sweep_rejects_prophet_only_critic(self, tmp_path, capsys):
        systems = self.write_config(tmp_path, "systems.json", {
            "bad": {"kind": "hybrid", "prophet": ["gshare", 2],
                    "critic": {"kind": "local"}, "future_bits": 4},
        })
        assert main(["sweep", "--systems", systems, "--benchmarks", "swim"]) == 2
        assert "critic-capable" in capsys.readouterr().err

    def test_bad_geometry_value_is_a_clean_error_not_a_traceback(self, tmp_path, capsys):
        """Geometry *values* are validated by predictor constructors at
        build time; the CLI must surface them as exit-2 config errors."""
        config = self.write_config(tmp_path, "sys.json", {
            "kind": "single",
            "prophet": {"kind": "gshare", "params": {"entries": 1000}},
        })
        assert main(["bench", "swim", "--config", config]) == 2
        assert "power of two" in capsys.readouterr().err
        assert main(["sweep", "--systems", config, "--benchmarks", "swim"]) == 2
        assert "power of two" in capsys.readouterr().err

    def test_sweep_rejects_overlong_window_for_trace(self, tmp_path, capsys):
        trace = tmp_path / "swim.trace"
        assert main(["trace", "record", "swim", "--out", str(trace),
                     "--branches", "1000"]) == 0
        systems = self.write_config(
            tmp_path, "systems.json", {"kind": "single", "prophet": ["gshare", 2]}
        )
        capsys.readouterr()
        assert main(["sweep", "--systems", systems, "--benchmarks", str(trace),
                     "--branches", "2000"]) == 2
        assert "cannot sweep" in capsys.readouterr().err

    def test_sweep_rejects_duplicate_bench_names(self, tmp_path, capsys):
        systems = self.write_config(
            tmp_path, "systems.json", {"kind": "single", "prophet": ["gshare", 2]}
        )
        assert main(["sweep", "--systems", systems, "--benchmarks", "swim,swim",
                     "--branches", "2000"]) == 2
        assert "appears twice" in capsys.readouterr().err


class TestTraceCli:
    def record(self, tmp_path, branches=2500):
        path = tmp_path / "swim.trace"
        assert main(
            ["trace", "record", "swim", "--out", str(path), "--branches", str(branches)]
        ) == 0
        return path

    def test_record_then_info(self, tmp_path, capsys):
        path = self.record(tmp_path)
        out = capsys.readouterr().out
        assert "2500 branches" in out
        assert main(["trace", "info", str(path), "--verify"]) == 0
        out = capsys.readouterr().out
        assert "records" in out and "digest" in out and "verified" in out

    def test_record_requires_one_source(self, tmp_path, capsys):
        assert main(["trace", "record", "--out", str(tmp_path / "x.trace")]) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_record_suite_fills_directory(self, tmp_path, capsys):
        out_dir = tmp_path / "traces"
        assert main(
            ["trace", "record", "--suite", "SERV", "--out", f"{out_dir}/",
             "--branches", "1500"]
        ) == 0
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "timesten.trace", "tpcc.trace",
        ]

    def test_replay_matches_bench_metrics(self, tmp_path, capsys):
        path = self.record(tmp_path)
        capsys.readouterr()
        assert main(["trace", "replay", str(path), "--branches", "2000"]) == 0
        replay_out = capsys.readouterr().out
        assert main(
            ["bench", "swim", "--system", "hybrid", "--branches", "2000"]
        ) == 0
        bench_out = capsys.readouterr().out

        def metric(text, key):
            (line,) = [x for x in text.splitlines() if x.strip().startswith(key)]
            return line.split(":")[1].strip()

        # The recorded-then-replayed run reproduces the live run's numbers.
        for key in ("branches", "committed_uops", "mispredicts", "misp_per_kuops"):
            assert metric(replay_out, key) == metric(bench_out, key), key

    def test_replay_uses_cache_across_invocations(self, tmp_path, capsys):
        path = self.record(tmp_path)
        cache_dir = str(tmp_path / "cache")
        args = ["trace", "replay", str(path), "--cache-dir", cache_dir]
        assert main(args) == 0
        assert "1 miss" in capsys.readouterr().err
        assert main(args) == 0  # fresh engine: cross-"process" warm hit
        assert "1 hit" in capsys.readouterr().err

    def test_replay_oracle(self, tmp_path, capsys):
        path = self.record(tmp_path)
        assert main(["trace", "replay", str(path), "--oracle"]) == 0
        assert "oracle replay" in capsys.readouterr().out

    def test_replay_rejects_overlong_window(self, tmp_path, capsys):
        path = self.record(tmp_path)
        capsys.readouterr()
        assert main(["trace", "replay", str(path), "--branches", "9999"]) == 2
        assert "cannot replay" in capsys.readouterr().err

    def test_replay_rejects_degenerate_windows(self, tmp_path, capsys):
        path = self.record(tmp_path)
        capsys.readouterr()
        assert main(["trace", "replay", str(path), "--branches", "0"]) == 2
        assert "positive" in capsys.readouterr().err
        assert main(["trace", "replay", str(path), "--warmup", "99999"]) == 2
        assert "measurement window" in capsys.readouterr().err

    def test_record_rejects_nonpositive_branches(self, tmp_path, capsys):
        assert main(
            ["trace", "record", "swim", "--out", str(tmp_path / "x.trace"),
             "--branches", "0"]
        ) == 2
        assert "positive" in capsys.readouterr().err

    def test_oracle_rejects_baseline_system(self, tmp_path, capsys):
        path = self.record(tmp_path)
        capsys.readouterr()
        assert main(
            ["trace", "replay", str(path), "--oracle", "--system", "baseline"]
        ) == 2
        assert "not applicable" in capsys.readouterr().err

    def test_replay_reports_truncated_body_cleanly(self, tmp_path, capsys):
        path = self.record(tmp_path)
        path.write_bytes(path.read_bytes()[:-80])  # valid header, cut body
        capsys.readouterr()
        assert main(["trace", "replay", str(path)]) == 1
        assert "INVALID" in capsys.readouterr().err
        assert main(["trace", "replay", str(path), "--oracle"]) == 1
        assert "INVALID" in capsys.readouterr().err

    def test_record_reports_unwritable_destination(self, tmp_path, capsys):
        occupied = tmp_path / "occupied.trace"
        occupied.write_bytes(b"a file, not a directory")
        assert main(
            ["trace", "record", "--suite", "SERV", "--out", str(occupied),
             "--branches", "1500"]
        ) == 1
        assert "cannot write" in capsys.readouterr().err

    def test_info_rejects_garbage(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.trace"
        bogus.write_bytes(b"not a trace\n")
        assert main(["trace", "info", str(bogus)]) == 1
        assert "INVALID" in capsys.readouterr().err
