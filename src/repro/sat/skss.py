"""1R1W-SKSS: single-kernel soft synchronization, column-per-block (Funasaka
et al. [15], paper Section III.C).

One kernel; ``n/W`` CUDA blocks, each acquiring a *column* of tiles through an
``atomicAdd`` counter and processing it top to bottom.  A block computing
``GSAT(I, J)`` spin-waits on a per-tile flag until ``GRS(I, J-1)`` has been
published by the block owning column ``J-1``; it never reads ``GCP(I-1, J)``
from global memory because it computed ``GSAT(I-1, J)`` itself and kept the
bottom row in registers.

Global traffic is the 1R1W optimum, but the maximum thread count is only
``n·W/m`` (medium parallelism) and columns drain strictly left to right, which
is exactly the limitation the paper's look-back algorithm removes.
"""

from __future__ import annotations

import numpy as np

from repro.gpusim.block import BlockContext
from repro.gpusim.kernel import GPU
from repro.gpusim.memory import GlobalBuffer
from repro.primitives import smem
from repro.primitives.lookback import publish
from repro.primitives.tile import TileGrid, assemble_gsat_tile_skss, \
    sum_dtype
from repro.sat.base import SATAlgorithm
from repro.sat.tilecommon import TileScratch, alloc_scratch

#: R-flag value meaning "GRS(I, J) is committed" (the only status SKSS needs).
GRS_READY = 1


def skss_kernel(ctx: BlockContext, a: GlobalBuffer, b: GlobalBuffer,
                sb: TileScratch, stride: int, layout: str = "diagonal"):
    """One CUDA block of the 1R1W-SKSS kernel: processes whole tile columns.

    ``stride`` is the buffer's row stride (its padded column count).
    """
    W, tr, tc = sb.W, sb.tr, sb.tc
    smem.alloc_tile(ctx, "tile", W)
    while True:
        J = ctx.atomic_add(sb.counter, 0, 1)
        if J >= tc:
            return
        gcp = np.zeros(W)  # bottom row of the GSAT above, kept in registers
        for I in range(tr):
            smem.load_tile(ctx, a, stride, W, I, J, "tile", layout)
            yield ctx.syncthreads()

            if J > 0:
                yield from ctx.wait_until(sb.R, sb.scalar_idx(I, J - 1),
                                          lambda v: v >= GRS_READY)
                grs_left = ctx.gload(sb.grs, sb.vec_idx(I, J - 1))
            else:
                grs_left = np.zeros(W)

            # Row-wise prefix sums with GRS(I, J-1) folded into column 0; the
            # rightmost column is then GRS(I, J) — publish it immediately so
            # the column to the right can proceed.
            smem.add_to_col(ctx, "tile", W, 0, grs_left, layout)
            smem.tile_row_prefix_sums(ctx, "tile", W, layout)
            grs_now = smem.read_col(ctx, "tile", W, W - 1, layout)
            publish(ctx, [(sb.grs, sb.vec_idx(I, J), grs_now)],
                    sb.R, sb.scalar_idx(I, J), GRS_READY)

            # Column-wise prefix sums with GCP(I-1, J) folded into the top row
            # complete GSAT(I, J).
            smem.add_to_row(ctx, "tile", W, 0, gcp, layout)
            smem.tile_col_prefix_sums(ctx, "tile", W, layout)
            yield ctx.syncthreads()
            smem.store_tile(ctx, b, stride, W, I, J, "tile", layout)
            gcp = smem.read_row(ctx, "tile", W, W - 1, layout)
            yield ctx.syncthreads()


class SKSS1R1W(SATAlgorithm):
    """The 1R1W-SKSS algorithm (single kernel, column-per-block soft sync)."""

    name = "1R1W-SKSS"

    def __init__(self, *, tile_width: int = 32,
                 threads_per_block: int | None = None,
                 layout: str = "diagonal",
                 grid_blocks: int | None = None) -> None:
        super().__init__(tile_width=tile_width, threads_per_block=threads_per_block)
        self.layout = layout
        self.grid_blocks = grid_blocks

    def _run_device(self, gpu: GPU, a_buf: GlobalBuffer, b_buf: GlobalBuffer,
                    grid: TileGrid) -> None:
        sb = alloc_scratch(gpu, grid)
        blocks = self.grid_blocks or grid.tile_cols
        threads = min(self.block_threads(gpu.device.max_threads_per_block),
                      grid.W * grid.W)
        threads = max(threads, gpu.device.warp_size)
        gpu.launch(
            skss_kernel, grid_blocks=blocks, threads_per_block=threads,
            args=(a_buf, b_buf, sb, grid.padded_cols, self.layout),
            name="skss", shared_bytes_hint=grid.W * grid.W * 4)

    def _run_host(self, a: np.ndarray) -> np.ndarray:
        """Host dataflow: columns left to right, rows top to bottom, with the
        same GRS hand-off and register-carried GCP."""
        grid = TileGrid(rows=a.shape[0], cols=a.shape[1], W=self.tile_width)
        tr, tc, W = grid.tile_rows, grid.tile_cols, grid.W
        grs = np.zeros((tr, tc, W), dtype=a.dtype)
        out = np.zeros_like(a)
        zeros = np.zeros(W, dtype=a.dtype)
        acc = sum_dtype(a)
        for J in range(tc):
            gcp = zeros
            for I in range(tr):
                tile = a[grid.tile_slice(I, J)]
                grs_left = grs[I, J - 1] if J > 0 else zeros
                gsat = assemble_gsat_tile_skss(tile, grs_left, gcp)
                grs[I, J] = grs_left + tile.sum(axis=1, dtype=acc)
                out[grid.tile_slice(I, J)] = gsat
                gcp = gsat[-1, :]
        return out


#: Per-site annotations (see naive_2r2w.py for the convention).  Every
#: wait/GRS read is guarded by ``J > 0``, hence the ``tiles - t`` counts;
#: the ticket counter absorbs one successful ``atomic_add`` per column plus
#: one failing one per block (``2t`` total at the default
#: one-block-per-column launch).  SKSS pushes each carry *through* the tile
#: prefix passes: a row's running prefix re-scans every tile it crosses
#: (W - 1 adds per tile plus the carry seed add), and likewise down each
#: column — O(t*W) = O(n) deep, the price of the elegant add-then-rescan
#: formulation.
KERNEL_HINTS = {
    "skss_kernel": {
        "ctx.atomic_add(sb.counter, 0, 1)": {
            "count": lambda g: g.skss_atomics},
        "smem.load_tile(ctx, a, stride, W, I, J, 'tile', layout)": {
            "count": lambda g: g.tiles, "width": lambda g: g.W2,
            "pattern": "coalesced"},
        "ctx.wait_until(sb.R, sb.scalar_idx(I, J - 1), lambda v: v >= "
        "GRS_READY)": {"count": lambda g: g.skss_waits},
        "ctx.gload(sb.grs, sb.vec_idx(I, J - 1))": {
            "count": lambda g: g.tiles - g.t, "width": lambda g: g.W,
            "pattern": "coalesced"},
        "smem.add_to_col(ctx, 'tile', W, 0, grs_left, layout)": {
            "depth": lambda g: g.t},
        "smem.tile_row_prefix_sums(ctx, 'tile', W, layout)": {
            "depth": lambda g: g.t * (g.W - 1)},
        "publish(ctx, [(sb.grs, sb.vec_idx(I, J), grs_now)], sb.R, "
        "sb.scalar_idx(I, J), GRS_READY)": {
            "count": lambda g: g.tiles, "width": lambda g: g.W,
            "pattern": "coalesced"},
        "smem.add_to_row(ctx, 'tile', W, 0, gcp, layout)": {
            "depth": lambda g: g.t},
        "smem.tile_col_prefix_sums(ctx, 'tile', W, layout)": {
            "depth": lambda g: g.t * (g.W - 1)},
        "smem.store_tile(ctx, b, stride, W, I, J, 'tile', layout)": {
            "count": lambda g: g.tiles, "width": lambda g: g.W2,
            "pattern": "coalesced"},
    },
}
