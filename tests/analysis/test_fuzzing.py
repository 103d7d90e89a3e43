"""Differential fuzzer: sampling, replay, clean runs."""

import dataclasses
import json

import numpy as np
import pytest

from repro.analysis.fuzzing import (FUZZ_ALGORITHMS, INCREMENTAL_ALGORITHMS,
                                    INCREMENTAL_DTYPES, FuzzConfig, fuzz,
                                    run_one, sample_config,
                                    sample_distsat_config,
                                    sample_engine_config,
                                    sample_incremental_config)
from repro.errors import ConfigurationError


class TestSampling:
    def test_configs_are_valid(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            cfg = sample_config(rng)
            assert cfg.algorithm in FUZZ_ALGORITHMS
            assert cfg.n % cfg.tile_width == 0
            assert cfg.policy in ("round_robin", "random", "lifo")
            assert cfg.consistency in ("relaxed", "strong")

    def test_deterministic_given_rng(self):
        a = [sample_config(np.random.default_rng(7)) for _ in range(3)]
        b = [sample_config(np.random.default_rng(7)) for _ in range(3)]
        assert a[0] == b[0]

    def test_config_replayable(self):
        cfg = FuzzConfig(algorithm="1R1W-SKSS-LB", n=64, tile_width=32,
                         policy="lifo", sim_seed=5, data_seed=9, residency=2,
                         consistency="relaxed", tiny_device=True)
        assert np.array_equal(cfg.build_matrix(), cfg.build_matrix())
        assert run_one(cfg) is None


class TestFuzzing:
    def test_short_session_clean(self):
        report = fuzz(12, seed=42)
        assert report.ok, report.failures
        assert report.runs == 12
        assert "OK" in report.summary()

    @pytest.mark.slow
    def test_time_budget_respected(self):
        report = fuzz(10_000, seed=1, time_budget_s=2.0)
        assert report.runs < 10_000
        assert report.elapsed_s < 10.0

    def test_detects_a_planted_bug(self, monkeypatch):
        """If an algorithm returned garbage, the fuzzer must notice."""
        import repro.analysis.fuzzing as fuzz_mod

        def broken_run_one(config, **kwargs):
            return "wrong SAT (planted)"
        monkeypatch.setattr(fuzz_mod, "run_one", broken_run_one)
        report = fuzz_mod.fuzz(3, seed=0)
        assert not report.ok
        assert len(report.failures) == 3
        assert "FAILURES" in report.summary()


class TestIncrementalMode:
    def test_sampled_configs_are_valid(self):
        rng = np.random.default_rng(0)
        saw_float = saw_int = False
        for _ in range(30):
            cfg = sample_incremental_config(rng)
            assert cfg.mode == "incremental"
            assert cfg.algorithm in INCREMENTAL_ALGORITHMS
            assert cfg.dtype in INCREMENTAL_DTYPES
            assert cfg.rows >= cfg.tile_width and cfg.cols >= cfg.tile_width
            assert cfg.edits >= 1
            assert cfg.workers == 1     # not drawn; kept for replay
            if np.issubdtype(np.dtype(cfg.dtype), np.integer):
                saw_int = True
            else:
                saw_float = True
                assert cfg.strategy in ("auto", "recompute")
        assert saw_int and saw_float

    def test_short_session_clean(self):
        report = fuzz(10, seed=3, mode="incremental")
        assert report.ok, report.failures
        assert report.runs == 10

    def test_replay_round_trip(self):
        cfg = sample_incremental_config(np.random.default_rng(5))
        again = FuzzConfig.from_json(cfg.to_json())
        assert again == cfg
        assert run_one(again) is None

    def test_legacy_json_without_new_fields_still_loads(self):
        """Pre-incremental replay files must keep working (defaults)."""
        cfg = FuzzConfig(algorithm="1R1W", n=64, tile_width=32, policy="lifo",
                         sim_seed=5, data_seed=9, residency=2,
                         consistency="relaxed", tiny_device=True)
        legacy = {k: v for k, v in dataclasses.asdict(cfg).items()
                  if k in ("algorithm", "n", "tile_width", "policy",
                           "sim_seed", "data_seed", "residency",
                           "consistency", "tiny_device", "r")}
        loaded = FuzzConfig.from_json(json.dumps(legacy))
        assert loaded.mode == "simulate"
        assert loaded == cfg

    @pytest.mark.parametrize("text", [
        # A wavefront engine-mode config and an incremental-mode config as
        # the sampler wrote them while it still drew a worker count.
        '{"acquisition": "diagonal", "algorithm": "1R1W", "band_rows": null,'
        ' "cols": 33, "consistency": "strong", "data_seed": 1067107044,'
        ' "dtype": "float32", "edits": 0, "engine": "wavefront",'
        ' "fault": null, "kernel": null, "mode": "engine", "n": 49,'
        ' "policy": "round_robin", "r": 0.25, "residency": null,'
        ' "rows": 49, "shards": null, "sim_seed": 1562367687,'
        ' "spin_bound": null, "strategy": "auto", "tile_width": 32,'
        ' "tiny_device": false, "workers": 4}',
        '{"acquisition": "diagonal", "algorithm": "2R1W", "band_rows": null,'
        ' "cols": 44, "consistency": "strong", "data_seed": 874206857,'
        ' "dtype": "float32", "edits": 4, "engine": "wavefront",'
        ' "fault": null, "kernel": null, "mode": "incremental", "n": 44,'
        ' "policy": "round_robin", "r": 0.25, "residency": null,'
        ' "rows": 44, "shards": null, "sim_seed": 1087485219,'
        ' "spin_bound": null, "strategy": "recompute", "tile_width": 16,'
        ' "tiny_device": false, "workers": 4}',
    ], ids=["engine", "incremental"])
    def test_replay_with_a_worker_count_still_runs(self, text):
        """``workers`` is kept for replay: old files load, and the one
        worker the wavefront engine has replays them without a finding."""
        cfg = FuzzConfig.from_json(text)
        assert cfg.workers == 4
        assert run_one(cfg) is None

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            fuzz(1, mode="nope")
        cfg = dataclasses.replace(
            sample_incremental_config(np.random.default_rng(1)), mode="bogus")
        assert "unknown fuzz mode" in run_one(cfg)

    def test_detects_a_planted_repair_bug(self, monkeypatch):
        """If repair left the table stale, the edit-sequence check fires."""
        from repro.hostexec.incremental import IncrementalSAT

        real = IncrementalSAT.update

        def broken(self, top, left, values):
            result = real(self, top, left, values)
            state = self._required_state()
            state.out[0, 0] += 1  # corrupt the committed table
            return result
        monkeypatch.setattr(IncrementalSAT, "update", broken)
        rng = np.random.default_rng(0)
        failed = False
        for _ in range(20):
            cfg = sample_incremental_config(rng)
            if run_one(cfg) is not None:
                failed = True
                break
        assert failed

    def test_detects_a_planted_detection_bug(self, monkeypatch):
        """A detector blind to the last tile column leaves changed tiles
        stale, and the per-edit input and SAT checks catch it."""
        from repro.hostexec.incremental import IncrementalSAT

        real = IncrementalSAT.changed_tiles

        def blind(self, frame):
            mask = real(self, frame)
            mask[:, -1] = False
            return mask
        monkeypatch.setattr(IncrementalSAT, "changed_tiles", blind)
        rng = np.random.default_rng(0)
        assert any(run_one(sample_incremental_config(rng)) is not None
                   for _ in range(20))

    @pytest.mark.slow
    def test_long_session_clean(self):
        report = fuzz(150, seed=2018, mode="incremental")
        assert report.ok, report.failures


class TestSanitizeMode:
    """mode="sanitize": the replay harness for modelcheck counterexamples."""

    def test_clean_config_passes(self):
        cfg = FuzzConfig(algorithm="1R1W-SKSS-LB", n=64, tile_width=32,
                         policy="round_robin", sim_seed=0, data_seed=0,
                         residency=2, consistency="relaxed", tiny_device=False,
                         mode="sanitize", spin_bound=20_000)
        assert run_one(cfg) is None

    def test_swapped_acquisition_deadlocks_at_residency_one(self):
        """The modelcheck counterexample replay: pool-1 deadlock."""
        cfg = FuzzConfig(algorithm="1R1W-SKSS-LB", n=64, tile_width=32,
                         policy="round_robin", sim_seed=0, data_seed=0,
                         residency=1, consistency="relaxed", tiny_device=False,
                         mode="sanitize", acquisition="swapped",
                         spin_bound=20_000)
        error = run_one(cfg)
        assert error is not None and "Deadlock" in error

    def test_corpus_kernel_replay_finds_the_bug(self):
        cfg = FuzzConfig(algorithm="corpus", kernel="dropped-fence", n=32,
                         tile_width=32, policy="random", sim_seed=0,
                         data_seed=0, residency=2, consistency="relaxed",
                         tiny_device=True, mode="sanitize", spin_bound=20_000)
        error = run_one(cfg)
        assert error is not None and "dropped-fence" in error

    def test_corpus_control_is_clean(self):
        cfg = FuzzConfig(algorithm="corpus", kernel="correct", n=32,
                         tile_width=32, policy="random", sim_seed=0,
                         data_seed=0, residency=2, consistency="relaxed",
                         tiny_device=True, mode="sanitize", spin_bound=20_000)
        assert run_one(cfg) is None

    def test_round_trip_preserves_new_fields(self):
        cfg = FuzzConfig(algorithm="1R1W-SKSS-LB", n=64, tile_width=32,
                         policy="lifo", sim_seed=1, data_seed=2, residency=1,
                         consistency="relaxed", tiny_device=False,
                         mode="sanitize", acquisition="swapped",
                         spin_bound=12_345)
        again = FuzzConfig.from_json(cfg.to_json())
        assert again == cfg

    def test_legacy_json_defaults_are_inert(self):
        loaded = FuzzConfig.from_json(json.dumps(
            {"algorithm": "1R1W", "n": 64, "tile_width": 32,
             "policy": "lifo", "sim_seed": 5, "data_seed": 9,
             "residency": 2, "consistency": "relaxed", "tiny_device": True}))
        assert loaded.kernel is None
        assert loaded.acquisition == "diagonal"
        assert loaded.spin_bound is None

    def test_short_sanitize_session_clean(self):
        report = fuzz(3, seed=11, mode="sanitize")
        assert report.ok, report.failures
        assert report.runs == 3


class TestCostMode:
    """mode="cost": replay the planted traffic-regression corpus."""

    def test_sampled_configs_are_valid(self):
        from repro.analysis.bugcorpus import CONTROL, COST_CORPUS
        from repro.analysis.fuzzing import sample_cost_config
        names = {s.name for s in COST_CORPUS} | {CONTROL.name}
        rng = np.random.default_rng(0)
        seen = set()
        for _ in range(30):
            cfg = sample_cost_config(rng)
            assert cfg.mode == "cost"
            assert cfg.kernel in names
            seen.add(cfg.kernel)
        assert seen == names  # every corpus entry gets sampled

    def test_short_session_clean(self):
        report = fuzz(8, seed=5, mode="cost")
        assert report.ok, report.failures
        assert report.runs == 8

    def test_replay_round_trip(self):
        from repro.analysis.fuzzing import sample_cost_config
        cfg = sample_cost_config(np.random.default_rng(4))
        again = FuzzConfig.from_json(cfg.to_json())
        assert again == cfg
        assert run_one(again) is None

    def test_detects_a_broken_checker(self, monkeypatch):
        """If find_cost_bugs went blind, replaying the corpus must fail."""
        import repro.analysis.costcheck as costcheck
        monkeypatch.setattr(costcheck, "find_cost_bugs", lambda fn: [])
        cfg = FuzzConfig(algorithm="1R1W-SKSS-LB", n=32, tile_width=32,
                         policy="round_robin", sim_seed=0, data_seed=0,
                         residency=None, consistency="relaxed",
                         tiny_device=False, mode="cost",
                         kernel="store-in-spin")
        error = run_one(cfg)
        assert error is not None and "store-in-spin" in error

    def test_flagging_the_control_is_a_failure(self, monkeypatch):
        import repro.analysis.costcheck as costcheck
        monkeypatch.setattr(
            costcheck, "find_cost_bugs",
            lambda fn: [{"kind": "excess-read", "kernel": fn.__name__,
                         "file": "x.py", "line": 1, "detail": "bogus"}])
        cfg = FuzzConfig(algorithm="1R1W-SKSS-LB", n=32, tile_width=32,
                         policy="round_robin", sim_seed=0, data_seed=0,
                         residency=None, consistency="relaxed",
                         tiny_device=False, mode="cost", kernel="correct")
        error = run_one(cfg)
        assert error is not None and "clean" in error


class TestEngineMode:
    """mode="engine": registered backends differenced vs the serial oracle."""

    def test_sampled_configs_are_valid(self):
        from repro.backend.registry import get_spec, known_backends
        rng = np.random.default_rng(0)
        seen = set()
        for _ in range(60):
            cfg = sample_engine_config(rng)
            assert cfg.mode == "engine"
            assert cfg.engine in known_backends() and cfg.engine != "serial"
            assert cfg.dtype in INCREMENTAL_DTYPES
            assert cfg.workers == 1     # not drawn; kept for replay
            assert cfg.rows >= cfg.tile_width and cfg.cols >= cfg.tile_width
            spec = get_spec(cfg.engine)
            if spec.algorithms is not None:
                assert cfg.algorithm in spec.algorithms
            else:
                assert cfg.algorithm in FUZZ_ALGORITHMS
            if spec.kind == "device":
                # Simulator collectives need warp-aligned tiles; shapes stay
                # small because the simulator pays per instruction.
                assert cfg.tile_width == 32
                assert cfg.rows <= 2 * cfg.tile_width
            if spec.kind == "streaming":
                assert cfg.band_rows is not None
                assert 1 <= cfg.band_rows <= cfg.rows
            else:
                assert cfg.band_rows is None
            seen.add(cfg.engine)
        assert seen == set(known_backends()) - {"serial"}
        assert {"gpusim", "distributed"} <= seen

    def test_short_session_clean(self):
        report = fuzz(15, seed=6, mode="engine")
        assert report.ok, report.failures
        assert report.runs == 15

    def test_replay_round_trip(self):
        cfg = sample_engine_config(np.random.default_rng(8))
        again = FuzzConfig.from_json(cfg.to_json())
        assert again == cfg
        assert run_one(again) is None

    def test_legacy_json_defaults_to_wavefront(self):
        loaded = FuzzConfig.from_json(json.dumps(
            {"algorithm": "1R1W", "n": 64, "tile_width": 32,
             "policy": "lifo", "sim_seed": 5, "data_seed": 9,
             "residency": 2, "consistency": "relaxed", "tiny_device": True}))
        assert loaded.engine == "wavefront"

    def test_detects_a_planted_engine_bug(self, monkeypatch):
        """If a backend returned a wrong table, the differencer must fire."""
        from repro.backend.core import Backend

        real = Backend.execute

        def broken(self, plan, a, out=None):
            res = real(self, plan, a, out)
            res[0, 0] += 1
            return res
        # Every backend routes through Backend.execute; the serial oracle in
        # _run_engine does not (run_host / plain cumsum), so only the
        # backend-side result is corrupted.
        monkeypatch.setattr(Backend, "execute", broken)
        rng = np.random.default_rng(0)
        errors = [run_one(sample_engine_config(rng)) for _ in range(5)]
        assert any(e is not None and "diverged" in e for e in errors)

    @pytest.mark.slow
    def test_long_session_clean(self):
        report = fuzz(100, seed=2018, mode="engine")
        assert report.ok, report.failures


class TestDistsatMode:
    """mode="distsat": the sharded executor under random fault plans."""

    def test_sampled_configs_are_valid(self):
        from repro.distsat import FaultPlan
        rng = np.random.default_rng(0)
        saw_fault = saw_clean = saw_chunk = False
        for _ in range(60):
            cfg = sample_distsat_config(rng)
            assert cfg.mode == "distsat"
            assert cfg.algorithm in FUZZ_ALGORITHMS
            assert cfg.dtype in INCREMENTAL_DTYPES
            assert 1 <= cfg.shards <= 5
            assert cfg.rows >= cfg.tile_width and cfg.cols >= cfg.tile_width
            if cfg.band_rows is not None:
                saw_chunk = True
                assert 1 <= cfg.band_rows <= cfg.rows
            if cfg.fault is None:
                saw_clean = True
            else:
                saw_fault = True
                plan = FaultPlan.from_dict(cfg.fault)
                for action in plan.actions:
                    assert action.shard < cfg.shards
                    # sampled plans stay within _run_distsat's retry budget
                    assert plan.expected_attempts(action.shard,
                                                  action.phase) <= 4
        assert saw_fault and saw_clean and saw_chunk

    def test_short_session_clean(self):
        report = fuzz(20, seed=3, mode="distsat")
        assert report.ok, report.failures
        assert report.runs == 20

    def test_replay_round_trip(self):
        cfg = sample_distsat_config(np.random.default_rng(4))
        again = FuzzConfig.from_json(cfg.to_json())
        assert again == cfg
        assert run_one(again) is None

    @pytest.mark.parametrize("fault", [
        {"actions": [{"kind": "delay", "shard": 0, "attempt": 1,
                      "phase": "reduce", "seconds": -1.0}]},
        {"actions": [], "abort_after_shard": "1"}])
    def test_replay_rejects_an_invalid_fault_plan(self, fault):
        cfg = FuzzConfig(
            algorithm="1R1W", n=32, tile_width=16, policy="round_robin",
            sim_seed=1, data_seed=2, residency=None, consistency="strong",
            tiny_device=False, mode="distsat", dtype="int32",
            rows=32, cols=20, shards=2, fault=fault)
        error = run_one(FuzzConfig.from_json(cfg.to_json()))
        assert error is not None and "ConfigurationError" in error

    def test_legacy_json_has_no_shards_or_fault(self):
        loaded = FuzzConfig.from_json(json.dumps(
            {"algorithm": "1R1W", "n": 64, "tile_width": 32,
             "policy": "lifo", "sim_seed": 5, "data_seed": 9,
             "residency": 2, "consistency": "relaxed", "tiny_device": True}))
        assert loaded.shards is None and loaded.fault is None

    def test_detects_a_planted_stale_carry_bug(self, monkeypatch):
        """The canonical distributed-systems bug: recovery resumes from a
        stale carry instead of the persisted one.  A config whose fault
        plan kills an apply attempt forces the recovery seam
        (CheckpointStore.load_carry_before); with that seam returning a
        stale vector the stitched rows are wrong, and the differential
        check must say so."""
        from repro.distsat import FaultAction, FaultPlan
        from repro.distsat.checkpoint import CheckpointStore

        real = CheckpointStore.load_carry_before

        def stale(self, shard):
            carry = real(self, shard)
            return carry // 2        # a carry from "an earlier frame"
        monkeypatch.setattr(CheckpointStore, "load_carry_before", stale)
        plan = FaultPlan(actions=(
            FaultAction(kind="kill", shard=1, attempt=1, phase="apply"),))
        cfg = FuzzConfig(
            algorithm="1R1W-SKSS-LB", n=48, tile_width=16,
            policy="round_robin", sim_seed=1, data_seed=2, residency=None,
            consistency="strong", tiny_device=False, mode="distsat",
            dtype="int32", rows=48, cols=33, shards=3, fault=plan.to_dict())
        error = run_one(cfg)
        assert error is not None and "diverged" in error

    def test_detects_bookkeeping_drift(self, monkeypatch):
        """A retry the fault plan did not predict must fail the attempt
        ledger check even though the output is still correct."""
        import repro.distsat.coordinator as coordinator

        real = coordinator.CheckpointStore.record_attempt

        def double_counting(self, phase, shard):
            n = real(self, phase, shard)
            if phase == "apply" and shard == 0:
                n = real(self, phase, shard)
            return n
        monkeypatch.setattr(coordinator.CheckpointStore, "record_attempt",
                            double_counting)
        cfg = FuzzConfig(
            algorithm="1R1W", n=32, tile_width=16, policy="round_robin",
            sim_seed=1, data_seed=2, residency=None, consistency="strong",
            tiny_device=False, mode="distsat", dtype="int32",
            rows=32, cols=20, shards=2)
        error = run_one(cfg)
        assert error is not None and "bookkeeping drift" in error

    @pytest.mark.slow
    def test_long_session_clean(self):
        report = fuzz(120, seed=2018, mode="distsat")
        assert report.ok, report.failures


class TestNumericMode:
    """mode="numeric": rounding-bug corpus replay + error-bound spot checks."""

    def test_sampled_configs_are_valid(self):
        from repro.analysis.bugcorpus import CONTROL, NUMERIC_CORPUS
        from repro.analysis.fuzzing import sample_numeric_config
        names = {s.name for s in NUMERIC_CORPUS} | {CONTROL.name}
        rng = np.random.default_rng(0)
        seen_kernels, seen_spots = set(), set()
        for _ in range(60):
            cfg = sample_numeric_config(rng)
            assert cfg.mode == "numeric"
            if cfg.kernel is not None:
                assert cfg.kernel in names
                seen_kernels.add(cfg.kernel)
            else:
                assert cfg.algorithm in FUZZ_ALGORITHMS
                assert cfg.dtype in ("float32", "float64")
                seen_spots.add((cfg.algorithm, cfg.n, cfg.dtype))
        assert seen_kernels == names
        assert seen_spots

    def test_short_session_clean(self):
        report = fuzz(6, seed=11, mode="numeric")
        assert report.ok, report.failures
        assert report.runs == 6

    def test_replay_round_trip(self):
        from repro.analysis.fuzzing import sample_numeric_config
        cfg = sample_numeric_config(np.random.default_rng(4))
        again = FuzzConfig.from_json(cfg.to_json())
        assert again == cfg
        assert run_one(again) is None

    def test_spot_check_validates_a_bound(self):
        cfg = FuzzConfig(algorithm="1R1W-SKSS-LB", n=64, tile_width=32,
                         policy="round_robin", sim_seed=0, data_seed=0,
                         residency=None, consistency="relaxed",
                         tiny_device=False, mode="numeric",
                         dtype="float32", kernel=None)
        assert run_one(cfg) is None

    def test_detects_a_blind_detector(self, monkeypatch):
        """If find_numeric_bugs went blind, replaying the corpus must fail."""
        import repro.analysis.numcheck as numcheck
        monkeypatch.setattr(numcheck, "find_numeric_bugs", lambda fn: [])
        cfg = FuzzConfig(algorithm="1R1W-SKSS-LB", n=32, tile_width=32,
                         policy="round_robin", sim_seed=0, data_seed=0,
                         residency=None, consistency="relaxed",
                         tiny_device=False, mode="numeric",
                         dtype="float64", kernel="rounding-roundtrip")
        error = run_one(cfg)
        assert error is not None and "rounding-roundtrip" in error

    def test_flagging_the_control_is_a_failure(self, monkeypatch):
        import repro.analysis.numcheck as numcheck
        monkeypatch.setattr(
            numcheck, "find_numeric_bugs",
            lambda fn: [{"kind": "rounding-roundtrip", "kernel": fn.__name__,
                         "file": "x.py", "line": 1, "detail": "bogus"}])
        cfg = FuzzConfig(algorithm="1R1W-SKSS-LB", n=32, tile_width=32,
                         policy="round_robin", sim_seed=0, data_seed=0,
                         residency=None, consistency="relaxed",
                         tiny_device=False, mode="numeric",
                         dtype="float64", kernel="correct")
        error = run_one(cfg)
        assert error is not None and "clean" in error
