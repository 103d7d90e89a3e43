"""check_result / check_counts helpers."""

import numpy as np
import pytest

from repro.analysis import check_counts, check_result
from repro.gpusim import GPU
from repro.sat import SKSSLB1R1W, compute_sat, sat_reference


class TestCheckResult:
    def test_accepts_correct(self, small_matrix):
        res = compute_sat(small_matrix, engine=GPU(seed=1))
        assert check_result(res, small_matrix)

    def test_rejects_corrupted(self, small_matrix):
        res = compute_sat(small_matrix, engine=GPU(seed=1))
        res.sat[3, 3] += 1
        assert not check_result(res, small_matrix)

    def test_float32_mixed_magnitude_at_scale(self):
        """The regression the derived tolerances exist for: a healthy
        float32 SAT of a large sign-mixed matrix.  The retired hardcoded
        constants (``rtol=1e-9, atol=1e-6``) misjudge this result — its
        legitimate rounding error dwarfs both — while the proven
        mass-relative budget accepts it and still rejects corruption."""
        from repro.apps.synthetic import sign_alternating
        a = sign_alternating(4096, seed=7).astype(np.float32)
        res = compute_sat(a, engine="serial")
        want = sat_reference(a.astype(np.float64)).astype(np.float32)
        diff = np.abs(res.sat.astype(np.float64)
                      - want.astype(np.float64))
        assert (diff > 1e-6 + 1e-9 * np.abs(want)).any()  # old gate fails
        assert check_result(res, a)
        res.sat[2048, 2048] += np.float32(
            64 * np.abs(a).astype(np.float64).sum())
        assert not check_result(res, a)


class TestCheckCounts:
    def test_ok_for_honest_run(self, small_matrix):
        res = SKSSLB1R1W().run(small_matrix, GPU(seed=1))
        assert check_counts(res).ok

    def test_host_result_rejected(self, small_matrix):
        res = compute_sat(small_matrix, engine="serial")
        with pytest.raises(AssertionError):
            check_counts(res)

    def test_fails_on_missing_traffic(self, small_matrix):
        """A run that claims fewer reads than n² must fail the lower bound."""
        res = SKSSLB1R1W().run(small_matrix, GPU(seed=1))
        res.report.kernels[0].traffic.global_read_requests = \
            small_matrix.size // 2
        assert not check_counts(res).ok

    def test_fails_on_excess_traffic(self, small_matrix):
        res = SKSSLB1R1W().run(small_matrix, GPU(seed=1))
        res.report.kernels[0].traffic.global_read_requests = \
            4 * small_matrix.size
        assert not check_counts(res).ok

    def test_string_rendering(self, small_matrix):
        res = SKSSLB1R1W().run(small_matrix, GPU(seed=1))
        text = str(check_counts(res))
        assert "1R1W-SKSS-LB" in text and "OK" in text
