"""Box filter: equivalence with direct convolution, edge handling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import box_filter, box_filter_direct, window_areas
from repro.apps.synthetic import gaussian_blobs, gradient_image
from repro.errors import ConfigurationError
from repro.gpusim import GPU


class TestBoxFilter:
    def test_matches_direct_convolution(self):
        img = gaussian_blobs(40, seed=1)
        for radius in (0, 1, 3, 7):
            assert np.allclose(box_filter(img, radius),
                               box_filter_direct(img, radius)), radius

    def test_radius_zero_is_identity(self):
        img = gradient_image(16)
        assert np.allclose(box_filter(img, 0), img)

    def test_constant_image_unchanged(self):
        img = np.full((24, 24), 3.5)
        assert np.allclose(box_filter(img, 5), img)

    def test_huge_radius_gives_global_mean(self):
        img = gaussian_blobs(16, seed=2)
        out = box_filter(img, 100)
        assert np.allclose(out, img.mean())

    def test_smooths_variance(self):
        rng = np.random.default_rng(0)
        img = rng.normal(size=(64, 64))
        assert box_filter(img, 4).var() < img.var() / 4

    def test_negative_radius_rejected(self):
        with pytest.raises(ConfigurationError):
            box_filter(np.zeros((8, 8)), -1)

    def test_non_2d_rejected(self):
        with pytest.raises(ConfigurationError):
            box_filter(np.zeros(8), 1)

    def test_window_areas_corners(self):
        areas = window_areas(10, 10, 2)
        assert areas[0, 0] == 9      # 3x3 clamped corner
        assert areas[5, 5] == 25     # full 5x5 interior
        assert areas[0, 5] == 15     # 3x5 edge

    def test_with_simulated_sat_algorithm(self):
        """End-to-end: blur through the paper's algorithm on the simulator."""
        img = gaussian_blobs(64, seed=3)
        via_sim = box_filter(img, 2, algorithm="skss-lb", engine=GPU(seed=1))
        assert np.allclose(via_sim, box_filter_direct(img, 2))

    def test_with_host_algorithm(self):
        img = gaussian_blobs(64, seed=4)
        via_host = box_filter(img, 3, algorithm="2r1w")
        assert np.allclose(via_host, box_filter_direct(img, 3))

    @settings(deadline=None, max_examples=15)
    @given(n=st.integers(4, 24), radius=st.integers(0, 6),
           seed=st.integers(0, 1000))
    def test_property_mean_preserving_bounds(self, n, radius, seed):
        """A mean filter's output stays within [min, max] of the input."""
        rng = np.random.default_rng(seed)
        img = rng.normal(size=(n, n))
        out = box_filter(img, radius)
        assert out.min() >= img.min() - 1e-9
        assert out.max() <= img.max() + 1e-9
