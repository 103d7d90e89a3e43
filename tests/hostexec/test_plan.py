"""Structure tests for the wavefront plan (one run per tile row)."""

import numpy as np

from repro.hostexec.plan import build_plan
from repro.primitives.tile import TileGrid


def grid(n=256, W=32):
    return TileGrid(n=n, W=W)


class TestBuildPlan:
    def test_every_tile_owned_by_exactly_one_chunk(self):
        g = TileGrid(rows=150, cols=530, W=8)
        plan = build_plan(g)
        seen = np.zeros((g.tile_rows, g.tile_cols), dtype=int)
        for c in plan.chunks:
            seen[c.row, c.J0:c.J1] += 1
        assert (seen == 1).all()

    def test_chunks_are_single_row_runs(self):
        plan = build_plan(grid(2048, 32))
        assert plan.num_chunks == plan.grid.tile_rows
        for I, c in enumerate(plan.chunks):
            # Row-major order: every producer of a run lies in its own row
            # (resolved by the run's scan) or in the row above.
            assert (c.row, c.J0, c.J1) == (I, 0, plan.grid.tile_cols)
            assert c.num_tiles == plan.grid.tile_cols
