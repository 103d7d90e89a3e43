"""Static numerical-accuracy verifier: proven depths, bounds, corpus.

The error-site parse and the KERNEL_HINTS drift gate are pinned in
test_kernelir.py."""

import numpy as np
import pytest

from repro.analysis.numcheck import (GENERATORS, TIGHTNESS_PROBES,
                                     check_numeric_corpus, concrete_depth,
                                     error_bound_strings, find_numeric_bugs,
                                     gamma, integer_exactness, run_numcheck,
                                     symbolic_depth, symbolic_host_depth,
                                     validate_bounds)
from repro.analysis.table1 import TABLE1_ORDER
from repro.errors import ConfigurationError, NumericModelError
from repro.sat.naive_2r2w import column_scan_kernel


class TestProvenDepths:
    #: The closed-form worst-path rounding depths — the headline proof.
    #: Changing a kernel's accumulation structure must change this pin.
    EXPECTED = {
        "2R2W": "2*t*W",
        "2R2W-optimal": "5/256*t*W + 387",
        "2R1W": "4*t + 5*W - 1",
        "1R1W": "2*t*W + 3*t + 2*W",
        "(1+r)R1W": "2*t*W + 11*t + 7*W + 1",
        "1R1W-SKSS": "2*t*W",
        "1R1W-SKSS-LB": "6*t + 5*W + 3",
    }

    @pytest.mark.parametrize("algorithm", TABLE1_ORDER)
    def test_closed_forms_pinned(self, algorithm):
        assert str(symbolic_depth(algorithm)) == self.EXPECTED[algorithm]

    def test_load_balanced_is_numerically_superior(self):
        """The paper's 1R1W-SKSS-LB is O(t + W) deep; plain 1R1W carries
        error through every tile prefix pass, O(t*W) — the load-balanced
        algorithm wins on accuracy as well as on memory traffic."""
        n, W = 4096, 32
        assert concrete_depth("1R1W-SKSS-LB", n, W) * 8 < \
            concrete_depth("1R1W", n, W)

    def test_host_leg_only_diverges_for_optimal(self):
        for algorithm in TABLE1_ORDER:
            device = str(symbolic_depth(algorithm))
            host = str(symbolic_host_depth(algorithm))
            if algorithm == "2R2W-optimal":
                assert host == "2*t*W"          # plain double cumsum, 2n
                assert host != device
            else:
                assert host == device

    def test_concrete_depth_monotone_in_n(self):
        for algorithm in TABLE1_ORDER:
            depths = [concrete_depth(algorithm, n, 32)
                      for n in (256, 512, 1024)]
            assert depths == sorted(depths)

    def test_concrete_depth_legs(self):
        n = 1024
        any_leg = concrete_depth("2R2W-optimal", n, 32, leg="any")
        assert any_leg == max(
            concrete_depth("2R2W-optimal", n, 32, leg="device"),
            concrete_depth("2R2W-optimal", n, 32, leg="host"))
        assert concrete_depth("2R2W-optimal", n, 32, leg="host") == 2 * n

    def test_bad_leg_rejected(self):
        with pytest.raises(ConfigurationError):
            concrete_depth("2R2W", 256, 32, leg="gpu")

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ConfigurationError):
            symbolic_depth("3R3W")

    def test_error_bound_strings_cover_table1(self):
        bounds = error_bound_strings()
        assert set(bounds) == set(TABLE1_ORDER)
        for algorithm, text in bounds.items():
            assert "gamma_D" in text and "SAT(|a|)" in text
            assert str(symbolic_depth(algorithm)) in text


class TestGamma:
    def test_value(self):
        eps = float(np.finfo(np.float32).eps)
        x = 100 * eps
        assert gamma(100, np.float32) == pytest.approx(x / (1 - x))

    def test_integer_dtypes_are_exact(self):
        assert gamma(10**9, np.int64) == 0.0

    def test_saturation_raises(self):
        with pytest.raises(NumericModelError, match="saturates"):
            gamma(2**25, np.float32)


class TestNumericBugDetector:
    def test_planted_roundtrip_caught(self):
        from repro.analysis.bugcorpus import rounding_roundtrip_kernel
        findings = find_numeric_bugs(rounding_roundtrip_kernel)
        assert [f["kind"] for f in findings] == ["rounding-roundtrip"]
        assert findings[0]["file"] == "bugcorpus.py"
        assert "re-rounds" in findings[0]["detail"]

    def test_clean_kernel_has_no_findings(self):
        assert find_numeric_bugs(column_scan_kernel) == []

    def test_corpus_check_passes(self):
        rows = check_numeric_corpus()
        assert rows and all(r["ok"] for r in rows), rows
        # Real kernels stay clean: no control rows are ever appended.
        assert not any(r["bug"].startswith("control:") for r in rows)


class TestValidation:
    def test_bounds_hold_at_small_n(self):
        rows = validate_bounds(["2R1W", "1R1W-SKSS-LB"], sizes=(128,),
                               dtypes=("float64",), device=False)
        assert rows and all(r["ok"] for r in rows), rows
        for row in rows:
            assert row["measured_depth"] <= row["proven_depth"]
            assert set(row["per_generator"]) == set(GENERATORS)

    def test_tightness_probes_are_generators(self):
        assert set(TIGHTNESS_PROBES) <= set(GENERATORS)

    def test_non_float_dtype_rejected(self):
        with pytest.raises(ConfigurationError):
            validate_bounds(["2R1W"], sizes=(128,), dtypes=("int32",),
                            device=False)

    def test_integer_exactness_cross_references_overflow(self):
        rows = {r["dtype"]: r for r in integer_exactness()}
        assert rows["uint8"]["error_free"] and rows["uint8"]["exact"]
        assert not rows["float32"]["exact"]
        assert all(r["ok"] for r in rows.values())

    def test_run_numcheck_payload(self):
        result = run_numcheck(["1R1W-SKSS-LB"], sizes=(128,),
                              dtypes=("float64",), device=False,
                              corpus=True)
        assert result["ok"]
        entry = result["algorithms"][0]
        assert entry["depth"] == "6*t + 5*W + 3"
        assert entry["bounds"]["float64"][0]["depth"] == \
            concrete_depth("1R1W-SKSS-LB", 128, 32)
        assert all(r["ok"] for r in result["validation"])
        assert all(c["ok"] for c in result["corpus"])

    def test_algorithm_alias_resolves(self):
        result = run_numcheck(["skss-lb"], sizes=(64,), dtypes=("float64",),
                              device=False, corpus=False)
        assert result["ok"]
        assert result["algorithms"][0]["algorithm"] == "1R1W-SKSS-LB"
        assert {r["algorithm"] for r in result["validation"]} == \
            {"1R1W-SKSS-LB"}
