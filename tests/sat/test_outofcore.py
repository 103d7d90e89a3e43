"""Out-of-core banded SAT (extension)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.gpusim import GPU
from repro.sat import sat_reference
from repro.sat.outofcore import (OutOfCoreSAT, band_bounds, out_of_core_sat,
                                 stitch_band)


class TestBandBounds:
    def test_even_split(self):
        assert band_bounds(8, 4) == [(0, 4), (4, 8)]

    def test_ragged_split(self):
        assert band_bounds(10, 4) == [(0, 4), (4, 8), (8, 10)]

    def test_single_band(self):
        assert band_bounds(5, 100) == [(0, 5)]

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            band_bounds(8, 0)

    @pytest.mark.parametrize("bad", [True, 2.5])
    def test_band_rows_must_be_a_positive_integer(self, bad):
        with pytest.raises(ConfigurationError, match="band_rows"):
            out_of_core_sat(np.ones((4, 4)), band_rows=bad)


class TestOutOfCoreSat:
    def test_matches_reference(self, rng):
        a = rng.integers(0, 9, size=(64, 48)).astype(float)
        for band in (8, 16, 37, 64, 100):
            got = out_of_core_sat(a, band_rows=band)
            assert np.array_equal(got, sat_reference(a)), band

    def test_rectangular_matrix(self, rng):
        from repro.analysis.tolerances import (assert_sat_close,
                                               derived_tolerance)
        a = rng.normal(size=(30, 90))
        got = out_of_core_sat(a, band_rows=7)
        tol = derived_tolerance(None, a.shape, got.dtype,
                                extra_depth=sum(a.shape))
        assert_sat_close(got, sat_reference(a), tol, abs_input=a)

    def test_square_bands_through_algorithm_host(self, rng):
        a = rng.integers(0, 9, size=(128, 64)).astype(float)
        got = out_of_core_sat(a, band_rows=64, algorithm="1R1W-SKSS-LB")
        assert np.array_equal(got, sat_reference(a))

    def test_square_bands_through_simulator(self, rng):
        a = rng.integers(0, 9, size=(128, 64)).astype(float)
        got = out_of_core_sat(a, band_rows=64, algorithm="skss-lb",
                              gpu_factory=lambda: GPU(seed=3))
        assert np.array_equal(got, sat_reference(a))

    def test_non_square_bands_fall_back_to_reference(self, rng):
        a = rng.integers(0, 9, size=(96, 64)).astype(float)
        got = out_of_core_sat(a, band_rows=48, algorithm="skss-lb")
        assert np.array_equal(got, sat_reference(a))

    def test_non_2d_rejected(self):
        with pytest.raises(ConfigurationError):
            out_of_core_sat(np.zeros(8), band_rows=2)

    @settings(deadline=None, max_examples=25)
    @given(rows=st.integers(1, 40), cols=st.integers(1, 40),
           band=st.integers(1, 45), seed=st.integers(0, 10_000))
    def test_property_any_banding(self, rows, cols, band, seed):
        rng = np.random.default_rng(seed)
        a = rng.integers(-9, 9, size=(rows, cols)).astype(float)
        assert np.array_equal(out_of_core_sat(a, band_rows=band),
                              sat_reference(a))


class TestStreaming:
    def test_incremental_assembly(self, rng):
        a = rng.integers(0, 9, size=(40, 24)).astype(float)
        oos = OutOfCoreSAT(n_cols=24)
        for lo, hi in band_bounds(40, 12):
            oos.push_band(a[lo:hi])
        assert np.array_equal(oos.sat(), sat_reference(a))

    def test_queries_during_streaming(self, rng):
        a = rng.integers(0, 9, size=(32, 16)).astype(float)
        oos = OutOfCoreSAT(n_cols=16)
        oos.push_band(a[:16])
        assert oos.rect_sum(2, 3, 10, 12) == a[2:11, 3:13].sum()
        with pytest.raises(ConfigurationError):
            oos.rect_sum(0, 0, 20, 0)  # row 20 not pushed yet
        oos.push_band(a[16:])
        assert oos.rect_sum(5, 0, 25, 15) == a[5:26, :].sum()

    def test_low_memory_mode_band_aligned(self, rng):
        a = rng.integers(0, 9, size=(30, 10)).astype(float)
        oos = OutOfCoreSAT(n_cols=10, keep_sat=False)
        for lo, hi in band_bounds(30, 10):
            oos.push_band(a[lo:hi])
        # Band edges are rows 9, 19, 29: queries aligned to them work.
        assert oos.rect_sum(10, 0, 29, 9) == a[10:, :].sum()
        assert oos.rect_sum(0, 2, 19, 7) == a[:20, 2:8].sum()
        with pytest.raises(ConfigurationError):
            oos.rect_sum(0, 0, 15, 9)   # row 15 is not a retained edge
        with pytest.raises(ConfigurationError):
            oos.sat()

    def test_band_width_checked(self):
        oos = OutOfCoreSAT(n_cols=8)
        with pytest.raises(ConfigurationError):
            oos.push_band(np.zeros((4, 9)))

    def test_invalid_n_cols(self):
        with pytest.raises(ConfigurationError):
            OutOfCoreSAT(n_cols=0)


class TestBandBoundarySpanningQueries:
    """rect_sum rectangles that straddle one or several band boundaries."""

    def _streamed(self, a, band):
        oos = OutOfCoreSAT(n_cols=a.shape[1])
        for lo, hi in band_bounds(a.shape[0], band):
            oos.push_band(a[lo:hi])
        return oos

    def test_query_straddles_single_boundary(self, rng):
        a = rng.integers(0, 9, size=(40, 20)).astype(float)
        oos = self._streamed(a, band=16)  # boundaries after rows 15, 31
        for r0, r1 in ((10, 20), (15, 16), (14, 17), (0, 16)):
            assert oos.rect_sum(r0, 3, r1, 18) == a[r0:r1 + 1, 3:19].sum()

    def test_query_spans_multiple_boundaries(self, rng):
        a = rng.integers(0, 9, size=(50, 12)).astype(float)
        oos = self._streamed(a, band=8)  # six boundaries
        assert oos.rect_sum(2, 0, 47, 11) == a[2:48, :].sum()
        assert oos.rect_sum(7, 1, 41, 10) == a[7:42, 1:11].sum()

    def test_one_row_queries_on_each_side_of_a_boundary(self, rng):
        a = rng.integers(0, 9, size=(32, 8)).astype(float)
        oos = self._streamed(a, band=16)
        assert oos.rect_sum(15, 0, 15, 7) == a[15, :].sum()  # last of band 0
        assert oos.rect_sum(16, 0, 16, 7) == a[16, :].sum()  # first of band 1

    def test_every_band_straddling_query_exact(self, rng):
        """Exhaustive small case: all (r0, r1) pairs across the boundary."""
        a = rng.integers(-9, 9, size=(20, 6)).astype(float)
        oos = self._streamed(a, band=10)
        for r0 in range(10):
            for r1 in range(10, 20):
                assert oos.rect_sum(r0, 0, r1, 5) == a[r0:r1 + 1, :].sum()


class TestFinalShortBand:
    """push_band sequences whose last band is shorter than the rest."""

    def test_short_final_band_streaming_matches_reference(self, rng):
        a = rng.integers(0, 9, size=(37, 14)).astype(float)  # 16+16+5
        oos = OutOfCoreSAT(n_cols=14)
        for lo, hi in band_bounds(37, 16):
            oos.push_band(a[lo:hi])
        assert band_bounds(37, 16)[-1] == (32, 37)
        assert np.array_equal(oos.sat(), sat_reference(a))
        # queries confined to and straddling into the short band
        assert oos.rect_sum(33, 2, 36, 9) == a[33:37, 2:10].sum()
        assert oos.rect_sum(30, 0, 36, 13) == a[30:37, :].sum()

    def test_single_row_final_band(self, rng):
        a = rng.integers(0, 9, size=(9, 5)).astype(float)  # 4+4+1
        oos = OutOfCoreSAT(n_cols=5)
        for lo, hi in band_bounds(9, 4):
            oos.push_band(a[lo:hi])
        assert np.array_equal(oos.sat(), sat_reference(a))
        assert oos.rect_sum(8, 0, 8, 4) == a[8, :].sum()

    def test_short_final_band_low_memory_edges(self, rng):
        """keep_sat=False retains the short band's edge row too."""
        a = rng.integers(0, 9, size=(26, 7)).astype(float)  # 10+10+6
        oos = OutOfCoreSAT(n_cols=7, keep_sat=False)
        for lo, hi in band_bounds(26, 10):
            oos.push_band(a[lo:hi])
        # edges at rows 9, 19, 25: band-aligned queries including the short one
        assert oos.rect_sum(20, 0, 25, 6) == a[20:, :].sum()
        assert oos.rect_sum(10, 1, 25, 5) == a[10:, 1:6].sum()

    def test_empty_band_rejected(self):
        oos = OutOfCoreSAT(n_cols=4)
        with pytest.raises(ConfigurationError):
            oos.push_band(np.zeros((0, 4)))

    def test_out_of_core_helper_short_band_via_algorithm(self, rng):
        """Whole-matrix helper with a ragged final band through the host
        algorithm path (square bands except the last)."""
        a = rng.integers(0, 9, size=(150, 64)).astype(float)  # 64+64+22
        got = out_of_core_sat(a, band_rows=64, algorithm="skss-lb")
        assert np.array_equal(got, sat_reference(a))


class TestPushOrdering:
    """Out-of-order pushes must be rejected, not silently mis-stitched."""

    def test_overlapping_push_rejected(self, rng):
        a = rng.integers(0, 9, size=(24, 8)).astype(float)
        oos = OutOfCoreSAT(n_cols=8)
        oos.push_band(a[:12], row_start=0)
        with pytest.raises(ConfigurationError,
                           match="overlaps rows already pushed"):
            oos.push_band(a[6:18], row_start=6)
        with pytest.raises(ConfigurationError, match="next expected row"):
            oos.push_band(a[:12], row_start=0)  # exact duplicate band

    def test_gap_rejected(self, rng):
        a = rng.integers(0, 9, size=(24, 8)).astype(float)
        oos = OutOfCoreSAT(n_cols=8)
        oos.push_band(a[:8], row_start=0)
        with pytest.raises(ConfigurationError, match=r"rows 8\.\.15"):
            oos.push_band(a[16:], row_start=16)

    def test_rejected_push_leaves_state_intact(self, rng):
        """A refused band must not advance the carry: the correct band can
        still be pushed afterwards and the assembly stays exact."""
        a = rng.integers(0, 9, size=(20, 6)).astype(float)
        oos = OutOfCoreSAT(n_cols=6)
        oos.push_band(a[:10], row_start=0)
        with pytest.raises(ConfigurationError):
            oos.push_band(a[5:15], row_start=5)
        oos.push_band(a[10:], row_start=10)
        assert np.array_equal(oos.sat(), sat_reference(a))

    def test_correct_row_start_accepted(self, rng):
        a = rng.integers(0, 9, size=(30, 5)).astype(float)
        oos = OutOfCoreSAT(n_cols=5)
        for lo, hi in band_bounds(30, 7):
            oos.push_band(a[lo:hi], row_start=lo)
        assert np.array_equal(oos.sat(), sat_reference(a))

    def test_rect_sum_error_messages_distinguish_causes(self, rng):
        a = rng.integers(0, 9, size=(10, 6)).astype(float)
        oos = OutOfCoreSAT(n_cols=6)
        oos.push_band(a[:5])
        with pytest.raises(ConfigurationError, match="invalid rectangle"):
            oos.rect_sum(3, 0, 1, 2)            # malformed corners
        with pytest.raises(ConfigurationError,
                           match="has not been pushed yet"):
            oos.rect_sum(0, 0, 7, 2)            # well-formed, too early


class TestStitchBand:
    """The band identity, written once for every band loop."""

    @pytest.mark.parametrize("dtype", [np.int64, np.float64])
    def test_two_bands_equal_one_shot_sat(self, rng, dtype):
        a = rng.integers(-9, 9, size=(23, 17)).astype(dtype)
        carry = np.zeros(17, dtype=dtype)
        top, carry = stitch_band(sat_reference(a[:10]), a[:10], carry)
        bottom, carry = stitch_band(sat_reference(a[10:]), a[10:], carry)
        assert np.array_equal(np.vstack([top, bottom]), sat_reference(a))
        assert np.array_equal(carry, a.sum(axis=0))
        assert top.dtype == bottom.dtype == carry.dtype == dtype

    def test_rows_are_fresh_c_contiguous_and_inputs_untouched(self, rng):
        a = rng.integers(0, 9, size=(6, 5)).astype(np.float64)
        band_sat = np.asfortranarray(sat_reference(a))
        carry = np.arange(5, dtype=np.float64)
        rows, new_carry = stitch_band(band_sat, a, carry)
        assert rows.flags.c_contiguous
        assert np.array_equal(carry, np.arange(5))
        assert np.array_equal(band_sat, sat_reference(a))
        assert np.array_equal(new_carry, carry + a.sum(axis=0))


class TestRectSumExactness:
    """Queries answer in the table's dtype, from the band holding the row."""

    def _streamed(self, keep_sat):
        a = np.ones((4, 4), dtype=np.int64)
        a[0, 0] = 2**53
        oos = OutOfCoreSAT(n_cols=4, keep_sat=keep_sat, dtype=np.int64)
        oos.push_band(a[:2])
        oos.push_band(a[2:])
        return oos

    @pytest.mark.parametrize("keep_sat", [True, False])
    def test_int64_sum_beyond_float_precision_is_exact(self, keep_sat):
        total = self._streamed(keep_sat).rect_sum(0, 0, 3, 3)
        assert total == 2**53 + 15
        assert total.dtype == np.int64

    def test_keep_sat_query_does_not_assemble_the_table(self, rng,
                                                        monkeypatch):
        a = rng.integers(0, 9, size=(40, 12)).astype(float)
        oos = OutOfCoreSAT(n_cols=12)
        for lo, hi in band_bounds(40, 8):
            oos.push_band(a[lo:hi])

        def refuse(self):
            raise AssertionError("rect_sum assembled the whole table")
        monkeypatch.setattr(OutOfCoreSAT, "sat", refuse)
        assert oos.rect_sum(3, 2, 36, 9) == a[3:37, 2:10].sum()
        assert oos.rect_sum(0, 0, 39, 11) == a.sum()

    @pytest.mark.parametrize("dtype,value", [(np.uint8, 200),
                                             (np.int32, 2**30),
                                             (np.bool_, True)])
    @pytest.mark.parametrize("keep_sat", [True, False])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_narrow_dtype_carry_does_not_wrap(self, dtype, value, keep_sat):
        # Column sums pass the input dtype's range after the first band.
        a = np.full((6, 3), value, dtype=dtype)
        want = sat_reference(a)
        oos = OutOfCoreSAT(n_cols=3, keep_sat=keep_sat, dtype=dtype)
        bands = [oos.push_band(a[lo:hi]) for lo, hi in band_bounds(6, 2)]
        assert np.array_equal(np.vstack(bands), want)
        if keep_sat:
            assert np.array_equal(oos.sat(), want)
        assert oos.rect_sum(0, 0, 5, 2) == want[5, 2]
        assert oos.rect_sum(2, 1, 5, 2) == a[2:6, 1:3].sum(dtype=np.int64)
        # Row 3's prefix to column 2 exceeds row 5's strip at column 2: an
        # unsigned table must not subtract it first.
        assert oos.rect_sum(4, 2, 5, 2) == a[4:6, 2:3].sum(dtype=np.int64)

    def test_column_beyond_the_table_rejected(self, rng):
        oos = OutOfCoreSAT(n_cols=6)
        oos.push_band(rng.integers(0, 9, size=(5, 6)).astype(float))
        with pytest.raises(ConfigurationError, match="invalid rectangle"):
            oos.rect_sum(0, 0, 4, 6)


class TestDistributedBackendBandLoop:
    """One shard of the distributed backend is the out-of-core band loop."""

    @pytest.mark.parametrize("algorithm", [None, "1R1W-SKSS-LB"])
    def test_one_shard_bit_identical_to_out_of_core_sat(self, rng,
                                                        algorithm):
        from repro.backend.registry import get_backend
        a = rng.normal(size=(256, 257)) * 1e3
        got = get_backend("distributed").compute(
            a, algorithm=algorithm, tile_width=16, band_rows=48, shards=1)
        want = out_of_core_sat(a, band_rows=48, algorithm=algorithm,
                               tile_width=16)
        assert got.dtype == want.dtype == np.float64
        assert np.array_equal(got, want)
