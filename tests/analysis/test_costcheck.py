"""Static cost verifier: symbolic proofs, cross-validation, overflow."""

from fractions import Fraction

import pytest

from repro.analysis.complexity import TABLE1_ORDER
from repro.analysis.costcheck import (Poly, check_corpus, check_overflow,
                                      crossval_algorithm, device_max_n,
                                      find_cost_bugs, prove_table1,
                                      run_costcheck)


class TestPoly:
    def test_variables_and_coefficients(self):
        t, W = Poly.var("t"), Poly.var("W")
        p = 2 * t * t * W * W + t * W - 3
        assert p.coeff(2, 2) == 2
        assert p.coeff(1, 1) == 1
        assert p.coeff(0, 0) == -3
        assert p.coeff(5, 5) == 0

    def test_arithmetic_is_exact_rational(self):
        t = Poly.var("t")
        p = (t * t) / 4 + t / 4
        assert p.coeff(2, 0) == Fraction(1, 4)
        assert (p + p).coeff(1, 0) == Fraction(1, 2)
        assert (p - p).terms == {}

    def test_floordiv_matches_truediv(self):
        """Geometry formulas use // where the division is known exact; in
        symbolic mode it must behave as exact rational division."""
        t = Poly.var("t")
        assert (t * t) // 2 == (t * t) / 2

    def test_equality_and_str(self):
        t, W = Poly.var("t"), Poly.var("W")
        assert t * W == W * t
        assert str(Poly.const(0)) == "0"
        assert "t^2*W^2" in str(2 * t * t * W * W)

    def test_unknown_variable_rejected(self):
        from repro.errors import ConfigurationError
        with pytest.raises(ConfigurationError):
            Poly.var("n")


class TestProveTable1:
    """All seven Table I rows are proven from the kernel ASTs."""

    LEADS = {  # (read lead, write lead) as prove_table1 stringifies them
        "2R2W": ("2", "2"),
        "2R2W-optimal": ("4145/2048", "2097/1024"),
        "2R1W": ("2", "1"),
        "1R1W": ("1", "1"),
        "(1+r)R1W": ("5/4", "1"),
        "1R1W-SKSS": ("1", "1"),
        "1R1W-SKSS-LB": ("1", "1"),
    }

    @pytest.mark.parametrize("name", TABLE1_ORDER)
    def test_row_proven(self, name):
        proof = prove_table1(name)
        assert proof["ok"], proof["problems"]
        assert (proof["read_lead"], proof["write_lead"]) == self.LEADS[name]

    def test_every_row_covered(self):
        assert set(self.LEADS) == set(TABLE1_ORDER)

    def test_exact_2r2w_polynomials(self):
        proof = prove_table1("2R2W")
        assert proof["reads"] == "2*t^2*W^2"
        assert proof["writes"] == "2*t^2*W^2"

    def test_hybrid_read_lead_is_one_plus_r(self):
        """The (1+r)R1W row at the default r = 1/4."""
        proof = prove_table1("(1+r)R1W")
        assert Fraction(proof["read_lead"]) == 1 + Fraction(1, 4)


class TestCrossValidation:
    """Static transaction predictions vs gpusim counters (aligned shapes)."""

    @pytest.mark.parametrize("name", ("2R2W", "2R2W-optimal", "2R1W", "1R1W"))
    def test_exact_match(self, name):
        checks = crossval_algorithm(name, n=64)
        assert checks, name
        for check in checks:
            assert check["ok"], check["problems"]
            assert check["exact"]
            assert check["measured"]["read_tx"] == \
                check["predicted"]["read_tx_lo"]
            assert check["measured"]["write_tx"] == \
                check["predicted"]["write_tx"]

    def test_hybrid_with_empty_c_band(self):
        """At t = 2 the hybrid's C band is empty: its launches never happen
        and the combined prediction must still match the A-only traffic."""
        checks = crossval_algorithm("(1+r)R1W", n=64)
        assert all(c["ok"] for c in checks), \
            [c["problems"] for c in checks]
        local = next(c for c in checks
                     if c["kernel"] == "band_local_sums_kernel")
        assert "hybrid_C_local" in local["launches"]

    @pytest.mark.parametrize("name", ("1R1W-SKSS", "1R1W-SKSS-LB"))
    def test_lookback_algorithms_within_bounds(self, name):
        checks = crossval_algorithm(name, n=64)
        for check in checks:
            assert check["ok"], check["problems"]
            lo = check["predicted"]["reads_lo"]
            hi = check["predicted"]["reads_hi"]
            assert lo <= check["measured"]["reads"] <= hi


class TestOverflow:
    def test_small_ints_proven_safe(self):
        verdicts = {v["dtype"]: v for v in check_overflow()}
        for dtype in ("bool", "uint8", "int8", "uint16", "int16", "uint32",
                      "int32"):
            v = verdicts[dtype]
            assert v["ok"] and v["exact"]
            assert v["accumulator"] == "int64"
            assert v["site"] is None

    def test_int64_overflow_pinpointed(self):
        verdicts = {v["dtype"]: v for v in check_overflow()}
        for dtype in ("int64", "uint64"):
            v = verdicts[dtype]
            assert not v["ok"]
            assert v["site"]["file"] == "naive_2r2w.py"
            assert isinstance(v["site"]["line"], int)
            assert v["site"]["kernel"] == "column_scan_kernel"
            assert v["site"]["buffer"] == "dst"

    def test_floats_are_informational(self):
        verdicts = {v["dtype"]: v for v in check_overflow()}
        for dtype in ("float16", "float32", "float64"):
            v = verdicts[dtype]
            assert v["ok"] and not v["exact"]
            assert "exactness" in v["note"]

    def test_explicit_n_is_honored(self):
        verdicts = check_overflow(n=64)
        assert all(v["n"] == 64 for v in verdicts)
        # int64 input is already at the accumulator's limit, so even a tiny
        # matrix can overflow; every narrower int is provably safe at n=64.
        by_dtype = {v["dtype"]: v for v in verdicts}
        assert by_dtype["int32"]["ok"]
        assert not by_dtype["int64"]["ok"]

    def test_device_max_n(self):
        n = device_max_n()
        assert n * n * 2 * 8 <= 12 * 1024 ** 3  # two float64 buffers fit
        assert n > 1024


class TestCostBugDetectors:
    def test_corpus_bugs_rejected_with_locations(self):
        from repro.analysis.bugcorpus import COST_CORPUS
        for spec in COST_CORPUS:
            findings = find_cost_bugs(spec.kernel)
            kinds = {f["kind"] for f in findings}
            assert spec.expected_cost in kinds, spec.name
            for f in findings:
                assert f["file"] == "bugcorpus.py"
                assert f["line"] > 0
                assert f["kernel"] == spec.kernel.__name__

    def test_control_kernel_is_clean(self):
        from repro.analysis.bugcorpus import CONTROL
        assert find_cost_bugs(CONTROL.kernel) == []

    def test_check_corpus_all_ok(self):
        results = check_corpus()
        assert results, "corpus must not be empty"
        assert all(r["ok"] for r in results), \
            [r for r in results if not r["ok"]]


class TestRunCostcheck:
    def test_static_only_payload(self):
        result = run_costcheck(crossval=False, corpus=True, overflow=True)
        assert result["ok"]
        assert len(result["algorithms"]) == len(TABLE1_ORDER)
        assert "overflow" in result and "corpus" in result

    def test_payload_is_json_serializable(self):
        import json
        result = run_costcheck(crossval=False)
        json.dumps(result)  # Fractions must have been stringified

    def test_algorithm_alias_resolves(self):
        result = run_costcheck(["skss-lb"], crossval=False, corpus=False,
                               overflow=False)
        assert result["ok"]
        assert [e["algorithm"] for e in result["algorithms"]] == \
            ["1R1W-SKSS-LB"]

    def test_single_algorithm_with_crossval(self):
        result = run_costcheck(["2R2W"], n=64, corpus=False, overflow=False)
        assert result["ok"]
        (entry,) = result["algorithms"]
        assert entry["algorithm"] == "2R2W"
        assert all(k["ok"] for k in entry["kernels"])

    def test_render_report_mentions_verdict(self):
        from repro.analysis.costcheck import render_report
        result = run_costcheck(crossval=False)
        text = render_report(result)
        assert "PASS" in text
        assert "planted-bug corpus" in text
        for name in TABLE1_ORDER:
            assert name in text
