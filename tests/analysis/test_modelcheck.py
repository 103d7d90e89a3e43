"""Exhaustive model checking: clean proofs, planted bugs, replayable traces.

The headline property is *universality*: every block interleaving of every
algorithm's protocol is explored, so "deadlock-free" is proved, not sampled.
The ``swapped`` acquisition order is the witness that this matters — it
survives every random schedule at full residency but the checker finds its
single-resident deadlock immediately.
"""

import json

import numpy as np
import pytest

from repro.analysis.bugcorpus import CONTROL, CORPUS
from repro.analysis.fuzzing import FuzzConfig, run_one
from repro.analysis.modelcheck import (VIOLATION_KINDS, check,
                                       check_algorithm, check_corpus,
                                       check_model)
from repro.analysis.protomodel import build_model
from repro.analysis.table1 import TABLE1_ORDER
from repro.errors import ModelCheckError

#: (states, transitions) of each algorithm's t=2 check.
STATE_PINS = {"2R2W": (4, 0), "2R2W-optimal": (364, 832), "2R1W": (11, 0),
              "1R1W": (4, 0), "(1+r)R1W": (8, 0), "1R1W-SKSS": (11, 10),
              "1R1W-SKSS-LB": (2947, 8962)}


class TestCleanVerification:
    @pytest.mark.parametrize("name", TABLE1_ORDER)
    def test_verified_at_t2(self, name):
        result = check_algorithm(name, 2)
        assert result.ok, result.report()
        assert result.states > 0
        for launch in result.launches:
            assert launch.pools  # the sweep actually ran

    def test_pool_sweep_covers_1_through_4(self):
        result = check_algorithm("1R1W-SKSS-LB", 2)
        (launch,) = result.launches
        assert [p.pool for p in launch.pools] == [1, 2, 3, 4]

    @pytest.mark.parametrize("name", TABLE1_ORDER)
    def test_state_count_pinned(self, name):
        """The reduced t=2 state space; a change here means the model or the
        reduction changed — intentional changes update the pin."""
        result = check_algorithm(name, 2)
        assert (result.states, result.transitions) == STATE_PINS[name]

    def test_skss_at_t3(self):
        result = check_algorithm("1R1W-SKSS", 3)
        assert result.ok, result.report()

    @pytest.mark.slow
    def test_skss_lb_at_t3(self):
        result = check_algorithm("1R1W-SKSS-LB", 3)
        assert result.ok, result.report()
        assert result.states > 50_000

    def test_max_states_budget_enforced(self):
        with pytest.raises(ModelCheckError, match="state"):
            check_algorithm("1R1W-SKSS-LB", 2, max_states=100)


class TestAcquisitionOrders:
    def test_rowmajor_also_verified(self):
        assert check_algorithm("1R1W-SKSS-LB", 2,
                               acquisition="rowmajor").ok

    def test_reversed_deadlocks_below_full_residency(self):
        result = check_algorithm("1R1W-SKSS-LB", 2, acquisition="reversed")
        (launch,) = result.launches
        by_pool = {p.pool: p for p in launch.pools}
        for pool in (1, 2, 3):
            kinds = {v.kind for v in by_pool[pool].violations}
            assert "deadlock" in kinds, f"pool {pool} should deadlock"
        assert by_pool[4].ok  # full residency: every block resident

    def test_swapped_deadlocks_only_at_pool_one(self):
        """The planted bug exhaustive search exists for: invisible to any
        sampled schedule with >= 2 resident blocks."""
        result = check_algorithm("1R1W-SKSS-LB", 2, acquisition="swapped")
        (launch,) = result.launches
        by_pool = {p.pool: p for p in launch.pools}
        assert not by_pool[1].ok
        assert {v.kind for v in by_pool[1].violations} == {"deadlock"}
        for pool in (2, 3, 4):
            assert by_pool[pool].ok, f"pool {pool} must be clean"

    def test_swapped_counterexample_has_a_trace_and_replay(self):
        result = check_algorithm("1R1W-SKSS-LB", 2, acquisition="swapped")
        (violation,) = result.violations()
        assert violation.trace  # shortest path, human-readable steps
        assert any("dispatch" in step for step in violation.trace)
        assert violation.replay["residency"] == 1
        assert violation.replay["acquisition"] == "swapped"
        assert violation.replay["mode"] == "sanitize"

    def test_swapped_replay_deadlocks_dynamically(self):
        """Close the loop: the model's counterexample configuration drives
        the real simulator into the same deadlock."""
        result = check_algorithm("1R1W-SKSS-LB", 2, acquisition="swapped")
        (violation,) = result.violations()
        config = FuzzConfig.from_json(json.dumps(violation.replay))
        error = run_one(config)
        assert error is not None and "Deadlock" in error

    def test_swapped_survives_random_schedules_at_full_residency(self):
        """100 random schedules, zero failures: why sampling cannot find
        this bug (the model checker's pool-1 sweep does)."""
        from repro.gpusim import GPU
        from repro.sat import sat_reference
        from repro.sat.skss_lb import SKSSLB1R1W

        rng = np.random.default_rng(0)
        a = rng.integers(0, 10, size=(64, 64)).astype(np.float64)
        ref = sat_reference(a)
        for seed in range(100):
            gpu = GPU(seed=seed, scheduler_policy="random")
            res = SKSSLB1R1W(acquisition="swapped").run(a, gpu)
            assert np.array_equal(res.sat, ref), f"seed {seed}"


class TestCorpusExhaustive:
    @pytest.mark.parametrize("spec", CORPUS, ids=lambda s: s.name)
    def test_planted_bug_yields_expected_counterexample(self, spec):
        result = check_corpus(spec.name)
        assert not result.ok
        kinds = {v.kind for v in result.violations()}
        assert spec.expected_model in kinds

    def test_control_verifies_clean(self):
        result = check_corpus(CONTROL.name)
        assert result.ok, result.report()

    @pytest.mark.parametrize("spec", CORPUS, ids=lambda s: s.name)
    def test_counterexamples_replay_to_dynamic_findings(self, spec):
        result = check_corpus(spec.name)
        violation = result.violations()[0]
        config = FuzzConfig.from_json(json.dumps(violation.replay))
        error = run_one(config)
        assert error is not None and spec.name in error

    def test_check_dispatches_corpus_names(self):
        assert check("dropped-fence").algorithm == "corpus:dropped-fence"
        assert check("1R1W-SKSS").algorithm == "1R1W-SKSS"


class TestPORSoundness:
    """Partial-order reduction must change the state count, never the
    verdict."""

    def test_same_clean_verdict_fewer_states(self):
        reduced = check_algorithm("1R1W-SKSS-LB", 2, por=True)
        full = check_algorithm("1R1W-SKSS-LB", 2, por=False)
        assert reduced.ok and full.ok
        assert reduced.states < full.states

    def test_same_violation_without_por(self):
        result = check_algorithm("1R1W-SKSS-LB", 2, acquisition="swapped",
                                 por=False)
        kinds = {v.kind for v in result.violations()}
        assert kinds == {"deadlock"}

    def test_corpus_verdicts_match(self):
        for spec in CORPUS + (CONTROL,):
            reduced = check_corpus(spec.name, por=True)
            full = check_corpus(spec.name, por=False)
            assert reduced.ok == full.ok, spec.name


class TestReporting:
    def test_to_dict_is_json_stable(self):
        a = check_algorithm("1R1W-SKSS-LB", 2, acquisition="swapped")
        b = check_algorithm("1R1W-SKSS-LB", 2, acquisition="swapped")
        assert json.dumps(a.to_dict(), sort_keys=True) == \
            json.dumps(b.to_dict(), sort_keys=True)

    def test_violations_sorted_by_severity(self):
        d = check_corpus("dropped-fence").to_dict()
        for launch in d["launches"]:
            for pool in launch["pools"]:
                kinds = [v["kind"] for v in pool["violations"]]
                assert kinds == sorted(kinds, key=VIOLATION_KINDS.index)

    def test_report_mentions_replay_command(self):
        text = check_algorithm("1R1W-SKSS-LB", 2,
                               acquisition="swapped").report()
        assert "repro fuzz --replay" in text
        assert "deadlock" in text

    def test_every_kind_is_known(self):
        for spec in CORPUS:
            for v in check_corpus(spec.name).violations():
                assert v.kind in VIOLATION_KINDS


class TestDispatchAssumptionGuard:
    def test_refuses_if_dispatch_model_weakens(self, monkeypatch):
        """The dispatch normalization is only sound for the simulator's
        documented dispatcher; if that contract changes, refuse to verify."""
        import dataclasses

        import repro.gpusim as gpusim

        weakened = dataclasses.replace(gpusim.DispatchModel(), in_order=False)
        monkeypatch.setattr(gpusim, "DispatchModel", lambda: weakened)
        with pytest.raises(ModelCheckError, match="in_order"):
            check_model(build_model("1R1W-SKSS", 2))
