"""Engine routing through the public layers: registry, CLI and the
applications."""

import numpy as np
import pytest

from repro.apps.box_filter import box_filter
from repro.apps.template_match import ncc_match, window_stats
from repro.apps.variance_filter import local_moments
from repro.backend.registry import get_spec, known_backends
from repro.cli import main as cli_main
from repro.errors import ConfigurationError
from repro.hostexec import WavefrontEngine
from repro.sat.reference import sat_reference
from repro.sat.registry import compute_sat


def matrix(n, seed=3):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 50, size=(n, n)).astype(np.float64)


class TestHostSat:
    """Host routing through compute_sat (``engine=None`` is serial)."""

    @pytest.mark.parametrize("engine", [None, "serial", "wavefront"])
    def test_engines_agree(self, engine):
        a = matrix(96)
        sat = compute_sat(a, algorithm="skss-lb", engine=engine).sat
        assert np.array_equal(sat, sat_reference(a))

    def test_engine_instance_accepted(self):
        a = matrix(96)
        with WavefrontEngine() as eng:
            assert np.array_equal(compute_sat(a, engine=eng).sat,
                                  sat_reference(a))

    def test_reference_when_no_algorithm(self):
        a = matrix(100)  # not tile-aligned: only the plain scan handles it
        assert np.array_equal(
            compute_sat(a, algorithm=None, engine=None).sat,
            sat_reference(a))

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown backend"):
            compute_sat(matrix(96), engine="gpu")


class TestComputeSat:
    @pytest.mark.parametrize("engine", ["wavefront"])
    def test_engine_implies_host_path(self, engine):
        a = matrix(96)
        result = compute_sat(a, engine=engine)
        assert result.report is None  # no simulator launch report
        assert result.params["engine"] == engine
        assert np.array_equal(result.sat, sat_reference(a))

    def test_serial_engine_matches_default_host(self):
        a = matrix(96)
        viaengine = compute_sat(a, engine="serial")
        plain = compute_sat(a, engine=None)
        assert np.array_equal(viaengine.sat, plain.sat)

    def test_workers_forwarded(self, monkeypatch):
        import repro.distsat as distsat
        seen = []
        real = distsat.distributed_sat

        def recording(*args, **kwargs):
            seen.append((kwargs["workers"], kwargs["transport"]))
            return real(*args, **kwargs)
        monkeypatch.setattr(distsat, "distributed_sat", recording)
        a = matrix(96)
        result = compute_sat(a, engine="distributed", workers=2)
        assert np.array_equal(result.sat, sat_reference(a))
        assert seen == [(2, "process")]

    def test_engine_instance_recorded_as_wavefront(self):
        a = matrix(96)
        with WavefrontEngine(workers=1) as eng:
            result = compute_sat(a, engine=eng)
        assert result.params["engine"] == "wavefront"

    def test_algorithm_params_survive_engine_path(self):
        a = matrix(96)
        result = compute_sat(a, algorithm="hybrid", engine="wavefront")
        assert result.algorithm == "(1+r)R1W"

    def test_simulator_params_rejected_on_host_engines(self):
        """``compute_sat`` takes no algorithm parameters on any engine."""
        with pytest.raises(TypeError, match="'r'"):
            compute_sat(matrix(96), algorithm="hybrid", engine="wavefront",
                        r=0.5)


class TestCLI:
    def run_cli(self, capsys, *argv):
        code = cli_main(list(argv))
        return code, capsys.readouterr().out

    @pytest.mark.parametrize("engine", known_backends())
    def test_run_engine_flag(self, capsys, engine):
        code, out = self.run_cli(capsys, "run", "-n", "64",
                                 "--engine", engine)
        assert code == 0
        assert "correct vs reference: True" in out
        simulated = get_spec(engine).kind == "device"
        assert ("host path" in out) != simulated
        assert ("reads/element" in out) == simulated

    def test_run_engine_with_workers(self, capsys):
        code, out = self.run_cli(capsys, "run", "-n", "64",
                                 "--engine", "distributed", "--workers", "2")
        assert code == 0
        assert "correct vs reference: True" in out

    @pytest.mark.parametrize("engine", ["serial", "wavefront", "gpusim"])
    def test_run_rejects_workers_without_a_pool(self, engine):
        with pytest.raises(ConfigurationError, match="no worker pool"):
            cli_main(["run", "-n", "64", "--engine", engine,
                      "--workers", "2"])

    def test_run_rejects_unknown_engine(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["run", "-n", "64", "--engine", "warp"])


class TestApps:
    def test_box_filter_engines_agree(self):
        img = matrix(64, seed=11)
        base = box_filter(img, 3)
        assert np.allclose(box_filter(img, 3, engine="wavefront"), base)
        assert np.allclose(box_filter(img, 3, engine="distributed"), base)

    @pytest.mark.parametrize("app", [box_filter, local_moments])
    def test_gpu_without_algorithm_runs_the_simulator(self, app):
        """``engine=GPU(...)`` runs gpusim's default algorithm on that
        GPU."""
        from repro.gpusim import GPU

        class CountingGPU(GPU):
            allocs = 0

            def alloc(self, *args, **kwargs):
                self.allocs += 1
                return super().alloc(*args, **kwargs)
        img = matrix(64, seed=15)
        gpu = CountingGPU()
        got = np.asarray(app(img, 2, engine=gpu))
        assert gpu.allocs > 0
        assert np.array_equal(got, np.asarray(app(img, 2)))

    def test_local_moments_engine(self):
        img = matrix(64, seed=12)
        mean, var = local_moments(img, 2)
        mean_e, var_e = local_moments(img, 2, engine="wavefront")
        assert np.allclose(mean, mean_e)
        assert np.allclose(var, var_e)

    def test_window_stats_engine(self):
        img = matrix(64, seed=13)
        s_ref, sq_ref = window_stats(img, 8, 8)
        s, sq = window_stats(img, 8, 8, engine="wavefront")
        assert np.allclose(s, s_ref) and np.allclose(sq, sq_ref)

    def test_ncc_match_engine(self):
        img = matrix(64, seed=14)
        tpl = img[20:30, 24:34]
        base = ncc_match(img, tpl)
        assert np.allclose(ncc_match(img, tpl, engine="wavefront"), base)
        top, left = np.unravel_index(
            np.argmax(ncc_match(img, tpl, engine="distributed")), base.shape)
        assert (top, left) == (20, 24)
