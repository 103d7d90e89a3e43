"""1R1W-SKSS-LB: the paper's algorithm — Figure 9 numbering, status protocol,
look-back behaviour, robustness."""

import numpy as np
import pytest

from repro.analysis import check_result
from repro.gpusim import GPU, TINY_DEVICE
from repro.sat import sat_reference
from repro.sat.skss_lb import SKSSLB1R1W, serial_to_tile, tile_serial_number

#: Figure 9: serial numbers for a 5x5 tile grid.
FIGURE9 = np.array([
    [0, 1, 3, 6, 10],
    [2, 4, 7, 11, 15],
    [5, 8, 12, 16, 19],
    [9, 13, 17, 20, 22],
    [14, 18, 21, 23, 24],
])


class TestFigure9:
    def test_figure9_serial_numbers(self):
        got = np.array([[tile_serial_number(I, J, 5) for J in range(5)]
                        for I in range(5)])
        assert np.array_equal(got, FIGURE9)

    def test_paper_closed_form_on_upper_triangle(self):
        """Above the main anti-diagonal the paper's formula
        (I+J)(I+J+1)/2 + I holds exactly."""
        t = 7
        for I in range(t):
            for J in range(t):
                if I + J <= t - 1:
                    K = I + J
                    assert tile_serial_number(I, J, t) == K * (K + 1) // 2 + I

    @pytest.mark.parametrize("t", [1, 2, 3, 5, 8])
    def test_serials_are_a_bijection(self, t):
        serials = {tile_serial_number(I, J, t)
                   for I in range(t) for J in range(t)}
        assert serials == set(range(t * t))

    @pytest.mark.parametrize("t", [2, 4, 6])
    def test_inverse(self, t):
        for s in range(t * t):
            I, J = serial_to_tile(s, t)
            assert tile_serial_number(I, J, t) == s

    @pytest.mark.parametrize("t", [2, 5, 8])
    def test_dependencies_point_to_smaller_serials(self, t):
        """The deadlock-freedom invariant: every tile a block may wait on
        (left, above, and the whole diagonal chain) has a smaller serial."""
        for I in range(t):
            for J in range(t):
                s = tile_serial_number(I, J, t)
                if J > 0:
                    assert tile_serial_number(I, J - 1, t) < s
                if I > 0:
                    assert tile_serial_number(I - 1, J, t) < s
                if I > 0 and J > 0:
                    assert tile_serial_number(I - 1, J - 1, t) < s

    def test_out_of_range_rejected(self):
        from repro.errors import ConfigurationError
        with pytest.raises(ConfigurationError):
            tile_serial_number(5, 0, 5)
        with pytest.raises(ConfigurationError):
            serial_to_tile(25, 5)


class TestExecution:
    def test_status_bytes_reach_final_values(self, small_matrix):
        """After the kernel, every tile must have R = 4 and C = 2."""
        gpu = GPU(seed=1)
        alg = SKSSLB1R1W()
        n = small_matrix.shape[0]
        a_buf = gpu.alloc("_sat_a", (n, n), np.float64, fill=small_matrix)
        b_buf = gpu.alloc("_sat_b", (n, n), np.float64)
        from repro.primitives.tile import TileGrid
        alg._run_device(gpu, a_buf, b_buf, TileGrid(n=n, W=32))
        assert (gpu.read("_sat_s_R") == 4).all()
        assert (gpu.read("_sat_s_C") == 2).all()

    def test_published_aggregates_are_correct(self, small_matrix):
        """GRS/GCS/GS scratch arrays must hold the Table II values."""
        from repro.primitives.tile import (TileGrid, global_col_sums,
                                           global_row_sums, global_sum)
        gpu = GPU(seed=2)
        n = small_matrix.shape[0]
        alg = SKSSLB1R1W()
        a_buf = gpu.alloc("_sat_a", (n, n), np.float64, fill=small_matrix)
        b_buf = gpu.alloc("_sat_b", (n, n), np.float64)
        alg._run_device(gpu, a_buf, b_buf, TileGrid(n=n, W=32))
        grid = TileGrid(n=n, W=32)
        t = grid.tiles_per_side
        grs = gpu.read("_sat_s_grs")
        gcs = gpu.read("_sat_s_gcs")
        gs = gpu.read("_sat_s_gs")
        for I in range(t):
            for J in range(t):
                assert np.array_equal(
                    grs[I, J], global_row_sums(small_matrix, grid, I, J))
                assert np.array_equal(
                    gcs[I, J], global_col_sums(small_matrix, grid, I, J))
                assert gs[I, J] == global_sum(small_matrix, grid, I, J)

    def test_single_kernel(self, small_matrix):
        res = SKSSLB1R1W().run(small_matrix, GPU(seed=1))
        assert res.kernel_calls == 1

    def test_exactly_three_barrier_phases(self, small_matrix):
        """The paper: 'only three barrier synchronization operations are
        performed' per tile (we count per-tile syncthreads)."""
        res = SKSSLB1R1W().run(small_matrix, GPU(seed=1))
        tiles = (small_matrix.shape[0] // 32) ** 2
        assert res.report.traffic.syncthreads == 3 * tiles

    def test_fewer_blocks_than_tiles_still_correct(self, small_matrix):
        """Blocks loop acquiring serials, so a grid smaller than the tile
        count works (and cannot deadlock thanks to the diagonal order)."""
        res = SKSSLB1R1W(grid_blocks=2).run(
            small_matrix, GPU(device=TINY_DEVICE, seed=3,
                              max_resident_blocks=2))
        assert check_result(res, small_matrix)

    def test_single_block_serializes_fine(self, small_matrix):
        res = SKSSLB1R1W(grid_blocks=1).run(
            small_matrix, GPU(device=TINY_DEVICE, seed=3,
                              max_resident_blocks=1))
        assert check_result(res, small_matrix)

    def test_rowmajor_layout_correct_but_conflicted(self, small_matrix):
        """Ablation: correctness does not depend on the diagonal arrangement,
        only bank conflicts do."""
        diag = SKSSLB1R1W(layout="diagonal").run(small_matrix, GPU(seed=4))
        rowm = SKSSLB1R1W(layout="rowmajor").run(small_matrix, GPU(seed=4))
        assert np.array_equal(diag.sat, rowm.sat)
        assert diag.report.traffic.shared_bank_conflict_cycles == 0
        assert rowm.report.traffic.shared_bank_conflict_cycles > 0

    def test_one_read_one_write_per_element(self, medium_matrix):
        """The 1R1W property with the O(n²/W) allowance."""
        res = SKSSLB1R1W(tile_width=64).run(medium_matrix, GPU(seed=5))
        n2 = medium_matrix.size
        t = res.report.traffic
        assert n2 <= t.global_read_requests <= 1.15 * n2
        assert n2 <= t.global_write_requests <= 1.15 * n2

    def test_relaxed_vs_strong_same_result(self, small_matrix):
        relaxed = SKSSLB1R1W().run(small_matrix,
                                   GPU(seed=6, consistency="relaxed"))
        strong = SKSSLB1R1W().run(small_matrix,
                                  GPU(seed=6, consistency="strong"))
        assert np.array_equal(relaxed.sat, strong.sat)

    def test_float_data(self, rng):
        from repro.analysis.tolerances import (assert_sat_close,
                                               derived_tolerance)
        a = rng.normal(size=(64, 64))
        res = SKSSLB1R1W().run(a, GPU(seed=7))
        tol = derived_tolerance("1R1W-SKSS-LB", a.shape, res.sat.dtype)
        assert_sat_close(res.sat, sat_reference(a), tol, abs_input=a)
