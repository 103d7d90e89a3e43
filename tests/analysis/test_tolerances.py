"""Derived tolerances: the single source of every SAT comparison budget."""

import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.numcheck import concrete_depth
from repro.analysis.tolerances import (Tolerance, assert_sat_close,
                                       derived_tolerance, sat_close)
from repro.apps.synthetic import sign_alternating
from repro.errors import ConfigurationError
from repro.sat import sat_reference

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


class TestDerivedTolerance:
    def test_reference_oracle_adds_double_cumsum_depth(self):
        exact = derived_tolerance("2R1W", 256, np.float64, oracle="exact")
        ref = derived_tolerance("2R1W", 256, np.float64, oracle="reference")
        assert exact.depth == concrete_depth("2R1W", exact.n, 32)
        assert ref.depth == exact.depth + 2 * ref.n

    def test_host_oracle_doubles_the_depth(self):
        exact = derived_tolerance("2R1W", 256, np.float64, oracle="exact")
        host = derived_tolerance("2R1W", 256, np.float64, oracle="host")
        assert host.depth == 2 * exact.depth

    def test_extra_depth_charged(self):
        base = derived_tolerance("2R1W", 256, np.float64, oracle="exact")
        more = derived_tolerance("2R1W", 256, np.float64, oracle="exact",
                                 extra_depth=512)
        assert more.depth == base.depth + 512

    def test_none_is_worst_case_over_table1(self):
        tol = derived_tolerance(None, 256, np.float32, oracle="exact")
        assert tol.depth == max(
            concrete_depth(a, tol.n, 32)
            for a in ("2R2W", "2R2W-optimal", "2R1W", "1R1W", "(1+r)R1W",
                      "1R1W-SKSS", "1R1W-SKSS-LB"))

    def test_shape_padded_to_layout_grain(self):
        """Sides pad to lcm(tile_width, 256) so the worst-case path can
        always construct the 2R2W-optimal scan layouts concretely."""
        tol = derived_tolerance(None, (37, 11), np.float32, tile_width=16)
        assert tol.n == 256
        tol = derived_tolerance(None, 300, np.float32, tile_width=24)
        assert tol.n % 24 == 0 and tol.n % 256 == 0 and tol.n >= 300

    def test_integer_accumulator_is_exact(self):
        tol = derived_tolerance("2R2W", 512, np.int64)
        assert tol.exact and tol.gamma == 0.0 and tol.eps == 0.0
        assert "exact" in tol.describe()

    def test_float32_budget_exceeds_float64(self):
        t32 = derived_tolerance("2R2W", 512, np.float32)
        t64 = derived_tolerance("2R2W", 512, np.float64)
        assert t32.gamma > t64.gamma > 0.0

    def test_bad_oracle_rejected(self):
        with pytest.raises(ConfigurationError):
            derived_tolerance("2R2W", 256, np.float64, oracle="vibes")

    def test_bad_shape_rejected(self):
        with pytest.raises(ConfigurationError):
            derived_tolerance("2R2W", 0, np.float64)

    def test_algorithm_alias_resolves(self):
        tol = derived_tolerance("skss-lb", 256, "float32")
        assert tol.algorithm == "1R1W-SKSS-LB"
        assert tol.depth == derived_tolerance("1R1W-SKSS-LB", 256,
                                              "float32").depth

    def test_describe_names_the_budget(self):
        text = derived_tolerance("2R1W", 256, np.float32).describe()
        assert "2R1W" in text and "SAT(|a|)" in text and "float32" in text


class TestSatClose:
    def test_accepts_rounded_result(self):
        rng = np.random.default_rng(0)
        a = rng.random((64, 64)).astype(np.float32)
        got = np.cumsum(np.cumsum(a, axis=0, dtype=np.float32), axis=1,
                        dtype=np.float32)
        want = sat_reference(a).astype(np.float32)
        tol = derived_tolerance(None, a.shape, np.float32)
        assert sat_close(got, want, tol, abs_input=a)

    def test_rejects_real_corruption(self):
        rng = np.random.default_rng(1)
        a = rng.random((64, 64))
        want = sat_reference(a)
        got = want.copy()
        got[10, 10] += 1.0
        tol = derived_tolerance(None, a.shape, np.float64)
        assert not sat_close(got, want, tol, abs_input=a)

    def test_shape_mismatch_is_false(self):
        tol = derived_tolerance(None, 64, np.float64)
        assert not sat_close(np.zeros((4, 4)), np.zeros((4, 5)), tol)

    def test_integer_path_requires_exact_match(self):
        tol = derived_tolerance(None, 64, np.int64)
        a = np.arange(16, dtype=np.int64).reshape(4, 4)
        assert sat_close(a, a.copy(), tol)
        assert not sat_close(a, a + 1, tol)

    def test_mass_relative_survives_cancellation(self):
        """On sign-mixed input a SAT entry can be ~0 while legitimate
        rounding error is large relative to it; a result-relative check
        (the old ``rtol * |want|``) rejects healthy results there, while
        the mass-relative budget accepts them and still catches real
        corruption at the same entry."""
        a = sign_alternating(256, seed=5).astype(np.float32)
        want = sat_reference(a).astype(np.float32)
        tol = derived_tolerance(None, a.shape, np.float32)
        mass = np.abs(a.astype(np.float64)).cumsum(0).cumsum(1)
        # Perturb by a plausible rounding error: far above rtol*|want| at
        # a near-cancelled entry, far below the mass budget.
        i, j = np.unravel_index(
            int(np.argmin(np.abs(want) / mass.astype(np.float32))),
            want.shape)
        got = want.copy()
        got[i, j] += np.float32(0.1 * tol.gamma * mass[i, j])
        assert not np.allclose(got[i, j], want[i, j], rtol=1e-5)
        assert sat_close(got, want, tol, abs_input=a)
        got[i, j] = want[i, j] + np.float32(10 * tol.gamma * mass[i, j])
        assert not sat_close(got, want, tol, abs_input=a)

    def test_fallback_scale_without_input(self):
        want = np.full((8, 8), 100.0)
        tol = derived_tolerance(None, 8, np.float64)
        assert sat_close(want + 50 * tol.gamma, want, tol)
        assert not sat_close(want + 200.0, want, tol)


class TestAssertSatClose:
    def test_silent_on_success(self):
        tol = derived_tolerance(None, 8, np.float64)
        assert_sat_close(np.ones((4, 4)), np.ones((4, 4)), tol)

    def test_reports_worst_offender(self):
        tol = derived_tolerance(None, 8, np.float64)
        got = np.ones((4, 4))
        got[2, 3] = 5.0
        with pytest.raises(AssertionError) as err:
            assert_sat_close(got, np.ones((4, 4)), tol, context="unit")
        msg = str(err.value)
        assert "unit" in msg and "(2, 3)" in msg and "budget" in msg

    def test_integer_mismatch_names_exactness(self):
        tol = derived_tolerance(None, 8, np.int32)
        with pytest.raises(AssertionError, match="exact match"):
            assert_sat_close(np.zeros((2, 2), np.int32),
                             np.ones((2, 2), np.int32), tol)

    def test_shape_mismatch_raises(self):
        tol = derived_tolerance(None, 8, np.float64)
        with pytest.raises(AssertionError, match="shape"):
            assert_sat_close(np.zeros((2, 2)), np.zeros((3, 3)), tol)


class TestNonFinite:
    """A non-finite entry matches only the same value at the same position;
    finite entries keep the proven budget, and no comparison warns."""

    tol = derived_tolerance(None, 8, np.float64)

    @staticmethod
    def _sat():
        return np.arange(1.0, 17.0).reshape(4, 4).cumsum(0).cumsum(1)

    def test_nan_against_finite_raises(self):
        want = self._sat()
        got = want.copy()
        got[2, 3] = np.nan
        with pytest.raises(AssertionError, match=r"\(2, 3\) is nan"):
            assert_sat_close(got, want, self.tol)
        assert not sat_close(got, want, self.tol)

    def test_identical_nan_and_inf_sats_match(self):
        sat = self._sat()
        sat[1, 1], sat[3, 2], sat[0, 3] = np.nan, np.inf, -np.inf
        assert sat_close(sat, sat.copy(), self.tol)
        assert_sat_close(sat, sat.copy(), self.tol)

    def test_inf_sign_must_match(self):
        want = self._sat()
        want[3, 3] = np.inf
        got = want.copy()
        got[3, 3] = -np.inf
        assert not sat_close(got, want, self.tol)
        with pytest.raises(AssertionError, match="non-finite"):
            assert_sat_close(got, want, self.tol)

    def test_oracle_inf_keeps_the_finite_budget(self):
        """An inf in the oracle must not loosen the fallback scale."""
        want = self._sat()
        want[3, 3] = np.inf
        got = want.copy()
        got[0, 0] += 1.0
        assert not sat_close(got, want, self.tol)

    def test_no_runtime_warning(self):
        sat = self._sat()
        sat[1, 1], sat[3, 2] = np.nan, np.inf
        other = sat.copy()
        other[0, 0] = -np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert sat_close(sat, sat.copy(), self.tol)
            assert not sat_close(other, sat, self.tol)
            assert not sat_close(sat, other, self.tol,
                                 abs_input=np.full((4, 4), np.inf))
            with pytest.raises(AssertionError):
                assert_sat_close(other, sat, self.tol)


class TestSingleSourceInvariant:
    def test_no_allclose_outside_tolerances(self):
        """Every SAT comparison goes through the derived-tolerance module;
        ``np.allclose`` (whose ``atol + rtol*|want|`` shape cannot express
        the mass-relative bound) appears nowhere else in the package."""
        offenders = []
        for path in sorted(SRC.rglob("*.py")):
            if path.name == "tolerances.py":
                continue
            for lineno, line in enumerate(
                    path.read_text().splitlines(), start=1):
                if re.search(r"\ballclose\s*\(", line):
                    offenders.append(f"{path.relative_to(SRC)}:{lineno}")
        assert offenders == [], offenders

    def test_tolerance_is_frozen(self):
        tol = derived_tolerance(None, 8, np.float64)
        assert isinstance(tol, Tolerance)
        with pytest.raises(AttributeError):
            tol.gamma = 0.5
