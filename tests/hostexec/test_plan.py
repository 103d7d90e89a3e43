"""Structure tests for the wavefront plan (chunking, dependencies, DAG)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.hostexec.plan import (DEPS_LEFT_UP, DEPS_LEFT_UP_CORNER,
                                 MIN_CHUNK_TILES, TILE_PENDING, TILE_READY,
                                 build_plan, split_row)
from repro.primitives.tile import TileGrid


def grid(n=256, W=32):
    return TileGrid(n=n, W=W)


class TestSplitRow:
    def test_whole_when_one_part(self):
        assert split_row(4, 1) == [(0, 4)]

    def test_contiguous_cover(self):
        parts = split_row(10, 3)
        assert len(parts) == 3
        assert parts[0][0] == 0 and parts[-1][1] == 10
        assert all(hi == lo for (_, hi), (lo, _) in zip(parts, parts[1:]))

    def test_never_more_parts_than_tiles(self):
        assert len(split_row(2, 8)) == 2

    def test_min_tiles_limits_parts(self):
        parts = split_row(20, 8, min_tiles=8)
        assert len(parts) == 2
        assert all(hi - lo >= 8 for lo, hi in parts)

    def test_short_row_stays_whole_under_min_tiles(self):
        assert split_row(5, 4, min_tiles=8) == [(0, 5)]

    def test_zero_parts_rejected(self):
        with pytest.raises(ConfigurationError):
            split_row(1, 0)


class TestBuildPlan:
    def test_every_tile_owned_by_exactly_one_chunk(self):
        plan = build_plan(grid(), DEPS_LEFT_UP_CORNER, workers=4)
        t = plan.grid.tiles_per_side
        seen = np.zeros((t, t), dtype=int)
        for c in plan.chunks:
            seen[c.Is, c.Js] += 1
        assert (seen == 1).all()
        assert (plan.chunk_id >= 0).all()

    def test_chunks_are_single_row_runs(self):
        plan = build_plan(grid(2048, 32), DEPS_LEFT_UP_CORNER, workers=4)
        for c in plan.chunks:
            assert (c.Is == c.row).all()
            assert (c.Js == np.arange(c.J0, c.J1)).all()
            assert (plan.chunk_id[c.row, c.J0:c.J1] == c.index).all()

    def test_deps_init_corner_family(self):
        plan = build_plan(grid(128, 32), DEPS_LEFT_UP_CORNER, workers=2)
        d = plan.deps_init
        assert d[0, 0] == 0
        assert (d[0, 1:] == 1).all() and (d[1:, 0] == 1).all()
        assert (d[1:, 1:] == 3).all()

    def test_deps_init_left_up(self):
        plan = build_plan(grid(128, 32), DEPS_LEFT_UP, workers=2)
        d = plan.deps_init
        assert d[0, 0] == 0
        assert (d[1:, 1:] == 2).all()

    def test_single_root_at_origin(self):
        plan = build_plan(grid(2048, 32), DEPS_LEFT_UP_CORNER, workers=4)
        roots = plan.roots()
        assert len(roots) == 1
        root = plan.chunks[roots[0]]
        assert (root.row, root.J0) == (0, 0) and root.num_predecessors == 0

    def test_successor_edges_point_forward(self):
        for deps in (DEPS_LEFT_UP, DEPS_LEFT_UP_CORNER):
            plan = build_plan(grid(2048, 32), deps, workers=4)
            for c in plan.chunks:
                assert c.index not in c.successors
                for sid in c.successors:
                    s = plan.chunks[sid]
                    assert (s.row, s.J0) > (c.row, c.J0)

    def test_predecessor_counts_consistent_with_successors(self):
        plan = build_plan(grid(), DEPS_LEFT_UP_CORNER, workers=4)
        counted = np.zeros(plan.num_chunks, dtype=int)
        for c in plan.chunks:
            for sid in c.successors:
                counted[sid] += 1
        assert (counted == plan.pending_init).all()
        assert (counted
                == [c.num_predecessors for c in plan.chunks]).all()

    def test_topological_diagonal_order(self):
        # Executing chunks in index (diagonal-major) order satisfies all
        # dependencies — the workers=1 fast path relies on this.
        plan = build_plan(grid(), DEPS_LEFT_UP_CORNER, workers=4)
        done = set()
        for c in plan.chunks:
            for p, other in enumerate(plan.chunks):
                if c.index in other.successors:
                    assert p in done
            done.add(c.index)

    def test_initial_status_words(self):
        plan = build_plan(grid(128, 32), DEPS_LEFT_UP_CORNER, workers=2)
        status = plan.initial_status()
        assert status[0, 0] == TILE_READY
        assert (status.ravel()[1:] == TILE_PENDING).all()

    def test_min_chunk_size_respected(self):
        plan = build_plan(grid(2048, 32), DEPS_LEFT_UP_CORNER, workers=8)
        assert plan.grid.tile_cols >= 2 * MIN_CHUNK_TILES
        for c in plan.chunks:
            assert c.num_tiles >= MIN_CHUNK_TILES

    def test_long_rows_split_up_to_workers(self):
        for workers in (1, 2, 4, 8):
            plan = build_plan(grid(2048, 32), DEPS_LEFT_UP_CORNER, workers)
            runs = min(workers, plan.grid.tile_cols // MIN_CHUNK_TILES)
            for I in range(plan.grid.tile_rows):
                assert sum(c.row == I for c in plan.chunks) == runs

    def test_workers_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            build_plan(grid(), DEPS_LEFT_UP_CORNER, workers=0)
