"""Registry, aliases and the compute_sat convenience API."""

import numpy as np
import pytest

from repro import ALGORITHMS, compute_sat, get_algorithm, sat_reference
from repro.errors import ConfigurationError
from repro.gpusim import GPU


class TestRegistry:
    def test_seven_algorithms(self):
        assert len(ALGORITHMS) == 7

    def test_canonical_names(self):
        assert set(ALGORITHMS) == {"2R2W", "2R2W-optimal", "2R1W", "1R1W",
                                   "(1+r)R1W", "1R1W-SKSS", "1R1W-SKSS-LB"}

    @pytest.mark.parametrize("alias,canonical", [
        ("skss-lb", "1R1W-SKSS-LB"),
        ("SKSS-LB", "1R1W-SKSS-LB"),
        ("1r1w-skss-lb", "1R1W-SKSS-LB"),
        ("naive", "2R2W"),
        ("nehab", "2R1W"),
        ("kasagi", "1R1W"),
        ("hybrid", "(1+r)R1W"),
        ("(1+r)R1W", "(1+r)R1W"),
        ("2R2W-optimal", "2R2W-optimal"),
    ])
    def test_aliases(self, alias, canonical):
        assert get_algorithm(alias).name == canonical

    def test_unknown_rejected(self):
        with pytest.raises(ConfigurationError):
            get_algorithm("3R3W")

    def test_params_forwarded(self):
        alg = get_algorithm("hybrid", r=0.4, tile_width=64)
        assert alg.r == 0.4
        assert alg.tile_width == 64


class TestComputeSat:
    def test_default_is_the_papers_algorithm(self, small_matrix):
        res = compute_sat(small_matrix, engine=GPU(seed=1))
        assert res.algorithm == "1R1W-SKSS-LB"
        assert np.array_equal(res.sat, sat_reference(small_matrix))

    def test_host_path(self, small_matrix):
        res = compute_sat(small_matrix, engine="serial")
        assert res.report is None
        assert np.array_equal(res.sat, sat_reference(small_matrix))

    def test_host_result_properties_raise(self, small_matrix):
        res = compute_sat(small_matrix, engine="serial")
        with pytest.raises(ConfigurationError):
            _ = res.kernel_calls
        with pytest.raises(ConfigurationError):
            _ = res.max_threads

    def test_summary_strings(self, small_matrix):
        sim = compute_sat(small_matrix, engine=GPU(seed=1))
        host = compute_sat(small_matrix, engine="serial")
        assert "kernels=1" in sim.summary()
        assert "host path" in host.summary()

    def test_algorithm_selection(self, small_matrix):
        res = compute_sat(small_matrix, algorithm="2r1w", engine=GPU(seed=1))
        assert res.algorithm == "2R1W"
        assert res.kernel_calls == 3

    def test_tile_width_forwarded(self, medium_matrix):
        res = compute_sat(medium_matrix, tile_width=64, engine="serial")
        assert res.params["tile_width"] == 64
