"""The wavefront dataflow's carry planes against their algebraic oracles.

A compute on the wavefront backend keeps no carry planes once its table is
done; the Table II planes stay resident only in an
:class:`~repro.hostexec.incremental.IncrementalSAT`, which builds them with
the same kernels.  Each plane is checked here against the region-sum oracle
definitions in :mod:`repro.primitives.tile` (exact — integer accumulators),
and the resident table against the wavefront backend's ``execute``.
"""

import numpy as np
import pytest

from repro.backend.plan import prepare_input
from repro.backend.registry import get_backend
from repro.hostexec.incremental import IncrementalSAT
from repro.primitives.tile import (global_col_prefixes, global_col_sums,
                                   global_row_sums, global_sum)


def matrix(shape, seed=11):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 100, size=shape).astype(np.int64)


class TestWavefrontCarries:
    @pytest.mark.parametrize("algorithm", ["2R1W", "1R1W", "(1+r)R1W",
                                           "1R1W-SKSS", "1R1W-SKSS-LB"])
    def test_planes_match_table2_oracles(self, algorithm):
        backend = get_backend("wavefront")
        a = matrix((53, 38))
        plan = backend.plan(a.shape, a.dtype, algorithm=algorithm,
                            tile_width=16)
        with IncrementalSAT(a, algorithm=algorithm, tile_width=16) as inc:
            # the table built alongside the planes is the plain execute result
            np.testing.assert_array_equal(inc.sat, backend.execute(plan, a))
            grid = plan.grid
            assert (inc.grid.tile_rows, inc.grid.tile_cols) \
                == (grid.tile_rows, grid.tile_cols)
            work, _ = prepare_input(a, acc_dtype=plan.acc_dtype, grid=grid)
            planes = inc.carry_planes()
            for plane in planes.values():
                assert plane.dtype == plan.acc_dtype
            for I in range(grid.tile_rows):
                for J in range(grid.tile_cols):
                    np.testing.assert_array_equal(
                        planes["GRS"][I, J], global_row_sums(work, grid, I, J))
                    if "GCP" in planes:     # the SKSS dataflow
                        np.testing.assert_array_equal(
                            planes["GCP"][I, J],
                            global_col_prefixes(work, grid, I, J))
                    else:                   # the look-back family
                        np.testing.assert_array_equal(
                            planes["GCS"][I, J],
                            global_col_sums(work, grid, I, J))
                        assert planes["GS"][I, J] \
                            == global_sum(work, grid, I, J)
