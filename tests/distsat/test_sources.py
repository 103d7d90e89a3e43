"""The procedural band source: its bytes, and what producing a band costs."""

import tracemalloc
import zlib

import numpy as np
import pytest

from repro.distsat import SyntheticSource


def closed_form(source: SyntheticSource, top: int, left: int, bottom: int,
                right: int) -> np.ndarray:
    """The image's definition, evaluated directly in ``int64``."""
    i = np.arange(top, bottom + 1, dtype=np.int64)[:, None]
    j = np.arange(left, right + 1, dtype=np.int64)[None, :]
    return ((source.ci * i + source.cj * j + source.c0)
            % source.mod).astype(np.uint8)


COEFFICIENTS = [(3, 7, 11), (-5, 13, -2), (2**40, -(2**40) + 1, 65000),
                (-(2**40), 2**40 - 3, -(2**39)), (0, 1, 0), (251, 502, 0)]

#: Inclusive corners on a 70000 x 70000 image: single rows and columns,
#: offsets up to 65535, a column taller than one block of sums and a row
#: wider than one.
RECTS = [(0, 0, 0, 0), (5, 9, 5, 300), (40, 65535, 400, 65535),
         (65535, 65000, 65535, 65535), (0, 3, 69999, 3),
         (7, 0, 9, 69999), (1000, 2000, 1036, 4047)]


class TestRect:
    @pytest.mark.parametrize("mod", [2, 3, 251, 255, 256])
    @pytest.mark.parametrize("ci,cj,c0", COEFFICIENTS)
    def test_equals_the_int64_closed_form(self, ci, cj, c0, mod):
        source = SyntheticSource(70000, 70000, ci=ci, cj=cj, c0=c0, mod=mod)
        for corners in RECTS:
            got = source.rect(*corners)
            assert got.dtype == np.uint8
            np.testing.assert_array_equal(got, closed_form(source, *corners))

    def test_random_cases_equal_the_closed_form(self):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            ci, cj, c0 = (int(c) for c in rng.integers(-2**40, 2**40,
                                                       size=3))
            mod = int(rng.choice([2, 3, 7, 128, 251, 255, 256]))
            top, left = (int(x) for x in rng.integers(0, 65000, size=2))
            h, w = (int(x) for x in rng.integers(1, 90, size=2))
            source = SyntheticSource(top + h, left + w, ci=ci, cj=cj, c0=c0,
                                     mod=mod)
            corners = (top, left, top + h - 1, left + w - 1)
            np.testing.assert_array_equal(source.rect(*corners),
                                          closed_form(source, *corners))

    def test_coefficients_beyond_int64_follow_the_definition(self):
        ci, cj, c0, mod = 2**70 + 3, -(2**65) - 1, 2**64 + 11, 251
        source = SyntheticSource(70000, 70000, ci=ci, cj=cj, c0=c0, mod=mod)
        want = [[(ci * i + cj * j + c0) % mod for j in range(65530, 65536)]
                for i in range(69990, 70000)]
        np.testing.assert_array_equal(source.rect(69990, 65530, 69999, 65535),
                                      np.array(want, dtype=np.uint8))

    def test_band_is_the_full_width_rect(self):
        source = SyntheticSource(300, 77, ci=-9, cj=31, c0=4, mod=255)
        np.testing.assert_array_equal(source.band(100, 170),
                                      closed_form(source, 100, 0, 169, 76))


class TestGigapixelImage:
    def test_pinned_crc32(self):
        # The demo's 4-gigapixel image, one 128-row chunk of it: a change
        # to how bands are produced must not change a byte of them.
        band = SyntheticSource(65536, 65536).band(4096, 4224)
        assert band.shape == (128, 65536)
        assert zlib.crc32(band) == 303813503


class TestFootprint:
    def test_band_traces_at_most_five_bytes_per_element(self):
        # The uint8 result is one byte per element; the int64 closed form
        # traces sixteen.
        source = SyntheticSource(2048, 2048)
        tracemalloc.start()
        try:
            band = source.band(0, 512)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        per_element = peak / band.size
        assert per_element <= 5, per_element
