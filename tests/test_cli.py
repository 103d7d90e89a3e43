"""CLI smoke/behaviour tests (direct main() invocation, captured output)."""

import pytest

from repro.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


class TestRun:
    def test_default_run(self, capsys):
        code, out = run_cli(capsys, "run", "-n", "64")
        assert code == 0
        assert "1R1W-SKSS-LB" in out
        assert "correct vs reference: True" in out

    def test_host_path(self, capsys):
        code, out = run_cli(capsys, "run", "-n", "64", "--engine", "serial")
        assert code == 0
        assert "host path" in out

    def test_algorithm_alias(self, capsys):
        code, out = run_cli(capsys, "run", "-n", "64", "-a", "nehab")
        assert code == 0
        assert "2R1W" in out

    def test_detect_uninitialized(self, capsys):
        code, out = run_cli(capsys, "run", "-n", "64",
                            "--detect-uninitialized")
        assert code == 0

    def test_tile_width(self, capsys):
        code, out = run_cli(capsys, "run", "-n", "128", "-W", "64")
        assert code == 0


class TestTables:
    def test_table1(self, capsys):
        code, out = run_cli(capsys, "table1")
        assert code == 0
        assert "1R1W-SKSS-LB" in out and "kernel calls" in out

    def test_table1_measured(self, capsys):
        code, out = run_cli(capsys, "table1", "--measure",
                            "--measure-size", "64")
        assert code == 0
        assert "measured on the simulator" in out
        assert "OK" in out

    def test_table3(self, capsys):
        code, out = run_cli(capsys, "table3")
        assert code == 0
        assert "matrix duplication" in out and "(paper)" in out

    def test_table3_no_paper(self, capsys):
        code, out = run_cli(capsys, "table3", "--no-paper")
        assert code == 0
        assert "(paper)" not in out


class TestSweeps:
    def test_sweep_w(self, capsys):
        code, out = run_cli(capsys, "sweep-w", "-n", "1024")
        assert code == 0
        assert "W=32" in out and "W=128" in out

    def test_sweep_w_skips_incompatible(self, capsys):
        code, out = run_cli(capsys, "sweep-w", "-n", "96")
        assert code == 0
        assert "skipped" in out

    def test_sweep_r(self, capsys):
        code, out = run_cli(capsys, "sweep-r", "-n", "1024")
        assert code == 0
        assert "best r:" in out


class TestExport:
    def test_export_writes_files(self, capsys, tmp_path):
        code, out = run_cli(capsys, "export", "-o", str(tmp_path), "-n", "256")
        assert code == 0
        assert (tmp_path / "table3.csv").exists()
        assert (tmp_path / "table1.json").exists()
        assert out.count("wrote") == 4


class TestSanitize:
    def test_sanitize_default_is_clean(self, capsys):
        code, out = run_cli(capsys, "sanitize", "-n", "32")
        assert code == 0
        assert "kernel lint: 0 finding(s)" in out
        assert "sanitize:" in out and "OK" in out
        assert "1R1W-SKSS-LB" in out  # all seven algorithms ran

    def test_sanitize_single_algorithm(self, capsys):
        code, out = run_cli(capsys, "sanitize", "-n", "32", "-a", "skss-lb",
                            "--consistency", "relaxed", "--policy", "lifo",
                            "--residency", "2")
        assert code == 0
        assert out.count("n=32") == 1 and "1 run(s) -> OK" in out

    def test_sanitize_lint_only(self, capsys):
        code, out = run_cli(capsys, "sanitize", "--no-dynamic")
        assert code == 0
        assert "kernel lint" in out and "sanitize:" not in out

    def test_fuzz_sanitize(self, capsys):
        code, out = run_cli(capsys, "fuzz", "--runs", "3", "--sanitize")
        assert code == 0
        assert "OK" in out

    def test_fuzz_replay_inline_and_file(self, capsys, tmp_path):
        from repro.analysis import FuzzConfig
        config = FuzzConfig(algorithm="2R2W", n=32, tile_width=32,
                            policy="lifo", sim_seed=1, data_seed=2,
                            residency=2, consistency="relaxed",
                            tiny_device=True)
        code, out = run_cli(capsys, "fuzz", "--replay", config.to_json(),
                            "--sanitize")
        assert code == 0
        assert "replay: OK" in out
        path = tmp_path / "c.json"
        path.write_text(config.to_json())
        code, out = run_cli(capsys, "fuzz", "--replay", str(path))
        assert code == 0
        assert "replay: OK" in out

    def test_fuzz_replay_bad_config_raises(self, capsys):
        from repro.errors import ConfigurationError
        with pytest.raises(ConfigurationError):
            run_cli(capsys, "fuzz", "--replay", '{"algorithm": "2R2W"}')

    def test_sanitize_includes_incremental_check(self, capsys):
        code, out = run_cli(capsys, "sanitize", "-n", "32", "-a", "skss-lb")
        assert code == 0
        assert "incremental state retention: 0 finding(s)" in out

    def test_sanitize_no_incremental_skips_check(self, capsys):
        code, out = run_cli(capsys, "sanitize", "-n", "32", "-a", "skss-lb",
                            "--no-incremental")
        assert code == 0
        assert "incremental state retention" not in out


class TestIncremental:
    def test_fuzz_incremental_mode(self, capsys):
        code, out = run_cli(capsys, "fuzz", "--runs", "5", "--mode",
                            "incremental")
        assert code == 0
        assert "OK" in out

    def test_fuzz_incremental_replay(self, capsys):
        import numpy as np

        from repro.analysis.fuzzing import sample_incremental_config
        config = sample_incremental_config(np.random.default_rng(9))
        code, out = run_cli(capsys, "fuzz", "--replay", config.to_json())
        assert code == 0
        assert "replay: OK" in out

    def test_incremental_bench(self, capsys, tmp_path):
        import json
        path = tmp_path / "bench.json"
        code, out = run_cli(capsys, "incremental-bench", "-n", "128",
                            "--edits", "2", "--json", str(path))
        assert code == 0
        assert "bit-identical to from-scratch: True" in out
        record = json.loads(path.read_text())
        assert record["bit_identical"] is True
        assert record["speedup_mean"] > 0

    def test_incremental_bench_recompute_strategy(self, capsys):
        code, out = run_cli(capsys, "incremental-bench", "-n", "128",
                            "--edits", "2", "--dtype", "float64",
                            "--strategy", "recompute")
        assert code == 0
        assert "strategy=recompute" in out


class TestDistributed:
    def test_run_engine_distributed(self, capsys):
        code, out = run_cli(capsys, "run", "-n", "48", "--engine",
                            "distributed", "--shards", "3")
        assert code == 0
        assert "correct vs reference: True" in out

    def test_run_shards_without_distributed_rejected(self, capsys):
        from repro.errors import ConfigurationError
        with pytest.raises(ConfigurationError,
                           match="use the distributed backend"):
            run_cli(capsys, "run", "-n", "48", "--shards", "3")
        with pytest.raises(ConfigurationError,
                           match="use the distributed backend"):
            run_cli(capsys, "run", "-n", "48", "--engine", "wavefront",
                    "--shards", "3")

    def test_fuzz_distsat_mode(self, capsys):
        code, out = run_cli(capsys, "fuzz", "--mode", "distsat",
                            "--runs", "6", "--seed", "1")
        assert code == 0
        assert "OK" in out

    def test_fuzz_distsat_replay(self, capsys, tmp_path):
        import numpy as np

        from repro.analysis.fuzzing import sample_distsat_config
        config = sample_distsat_config(np.random.default_rng(2))
        path = tmp_path / "distsat.json"
        path.write_text(config.to_json())
        code, out = run_cli(capsys, "fuzz", "--replay", str(path))
        assert code == 0
        assert "replay: OK" in out


class TestCostcheck:
    def test_static_only_passes(self, capsys):
        code, out = run_cli(capsys, "costcheck", "--no-crossval")
        assert code == 0
        assert "PASS" in out
        assert "planted-bug corpus" in out
        assert "1R1W-SKSS-LB" in out

    def test_algorithm_alias(self, capsys):
        code, out = run_cli(capsys, "costcheck", "-a", "skss-lb",
                            "--no-crossval")
        assert code == 0
        assert "[ok] 1R1W-SKSS-LB:" in out

    def test_crossval_single_algorithm(self, capsys):
        code, out = run_cli(capsys, "costcheck", "-a", "2R2W", "-n", "64",
                            "--no-corpus", "--no-overflow")
        assert code == 0
        assert "column_scan_kernel: ok (exact)" in out

    def test_json_export(self, capsys, tmp_path):
        import json
        path = tmp_path / "costcheck.json"
        code, out = run_cli(capsys, "costcheck", "--no-crossval",
                            "--json", str(path))
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["ok"] is True
        assert len(payload["algorithms"]) == 7

    def test_fuzz_cost_mode(self, capsys):
        code, out = run_cli(capsys, "fuzz", "--runs", "4", "--mode", "cost")
        assert code == 0
        assert "OK" in out


class TestNumcheck:
    def test_small_static_run_passes(self, capsys):
        code, out = run_cli(capsys, "numcheck", "-a", "1R1W-SKSS-LB",
                            "-n", "128", "--no-device")
        assert code == 0
        assert "PASS" in out
        assert "D = 6*t + 5*W + 3" in out
        assert "rounding-roundtrip" in out   # the planted corpus ran

    def test_algorithm_alias(self, capsys):
        code, out = run_cli(capsys, "numcheck", "-a", "skss-lb", "-n", "64",
                            "--no-device")
        assert code == 0
        assert "1R1W-SKSS-LB: D = 6*t + 5*W + 3" in out

    def test_json_export(self, capsys, tmp_path):
        import json
        path = tmp_path / "numcheck.json"
        code, out = run_cli(capsys, "numcheck", "-a", "2R1W", "-n", "128",
                            "--no-device", "--no-corpus",
                            "--json", str(path))
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["ok"] is True
        assert payload["algorithms"][0]["depth"] == "4*t + 5*W - 1"
        assert all(r["ok"] for r in payload["validation"])

    def test_fuzz_numeric_mode(self, capsys):
        code, out = run_cli(capsys, "fuzz", "--runs", "4",
                            "--mode", "numeric")
        assert code == 0
        assert "OK" in out


class TestMisc:
    def test_trace(self, capsys):
        code, out = run_cli(capsys, "trace", "-n", "64")
        assert code == 0
        assert "legend" in out and "correct=True" in out

    def test_list(self, capsys):
        code, out = run_cli(capsys, "list")
        assert code == 0
        for name in ("2R2W", "1R1W-SKSS-LB", "aliases"):
            assert name in out

    def test_list_json_carries_proven_error_bounds(self, capsys):
        """The machine-readable listing pins every algorithm's proven
        rounding bound; a kernel change that shifts a closed form must
        show up here (drift pin, numcheck is the source)."""
        import json
        code, out = run_cli(capsys, "list", "--json", "-")
        assert code == 0
        payload = json.loads(out)
        bounds = payload["error_bounds"]
        assert bounds["1R1W-SKSS-LB"] == \
            "|err| <= gamma_D * SAT(|a|), D = 6*t + 5*W + 3"
        assert bounds["1R1W"] == \
            "|err| <= gamma_D * SAT(|a|), D = 2*t*W + 3*t + 2*W"
        assert set(bounds) == {"2R2W", "2R2W-optimal", "2R1W", "1R1W",
                               "(1+r)R1W", "1R1W-SKSS", "1R1W-SKSS-LB"}

    def test_no_command_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
