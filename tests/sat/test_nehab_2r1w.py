"""2R1W (Nehab): three kernels, intermediate sums, 2-read/1-write traffic."""

import numpy as np

from repro.analysis import check_result
from repro.gpusim import GPU
from repro.primitives.tile import (TileGrid, global_col_sums, global_row_sums,
                                   global_sum, local_col_sums, local_row_sums,
                                   local_sum)
from repro.sat.nehab_2r1w import Nehab2R1W


class Test2R1W:
    def test_correct(self, small_matrix):
        assert check_result(Nehab2R1W().run(small_matrix, GPU(seed=1)),
                            small_matrix)

    def test_three_kernels_in_order(self, small_matrix):
        res = Nehab2R1W().run(small_matrix, GPU(seed=1))
        assert [k.name for k in res.report.kernels] == \
            ["2r1w_local_sums", "2r1w_global_sums", "2r1w_gsat"]

    def test_kernel1_writes_local_sums(self, small_matrix):
        """After kernel 1 the LRS/LCS/LS arrays hold the Table II values."""
        gpu = GPU(seed=2)
        n = small_matrix.shape[0]
        alg = Nehab2R1W()
        a_buf = gpu.alloc("_sat_a", (n, n), np.float64, fill=small_matrix)
        b_buf = gpu.alloc("_sat_b", (n, n), np.float64)
        alg._run_device(gpu, a_buf, b_buf, TileGrid(n=n, W=32))
        grid = TileGrid(n=n, W=32)
        lrs = gpu.read("_sat_s_lrs")
        lcs = gpu.read("_sat_s_lcs")
        ls = gpu.read("_sat_s_ls")
        grs = gpu.read("_sat_s_grs")
        gcs = gpu.read("_sat_s_gcs")
        gs = gpu.read("_sat_s_gs")
        for I in range(grid.tiles_per_side):
            for J in range(grid.tiles_per_side):
                assert np.array_equal(lrs[I, J],
                                      local_row_sums(small_matrix, grid, I, J))
                assert np.array_equal(lcs[I, J],
                                      local_col_sums(small_matrix, grid, I, J))
                assert ls[I, J] == local_sum(small_matrix, grid, I, J)
                assert np.array_equal(grs[I, J],
                                      global_row_sums(small_matrix, grid, I, J))
                assert np.array_equal(gcs[I, J],
                                      global_col_sums(small_matrix, grid, I, J))
                assert gs[I, J] == global_sum(small_matrix, grid, I, J)

    def test_two_reads_one_write(self, medium_matrix):
        res = Nehab2R1W(tile_width=64).run(medium_matrix, GPU(seed=3))
        n2 = medium_matrix.size
        t = res.report.traffic
        assert 2 * n2 <= t.global_read_requests <= 2.2 * n2
        assert n2 <= t.global_write_requests <= 1.2 * n2

    def test_w64(self, medium_matrix):
        res = Nehab2R1W(tile_width=64).run(medium_matrix, GPU(seed=4))
        assert check_result(res, medium_matrix)

    def test_host_phases(self, small_matrix):
        from repro.sat import sat_reference
        assert np.array_equal(Nehab2R1W().run_host(small_matrix),
                              sat_reference(small_matrix))
