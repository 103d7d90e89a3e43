"""1R1W: the diagonal-wavefront SAT algorithm (Kasagi et al. [14],
paper Section III.B).

``2·(n/W) - 1`` kernel launches; kernel ``K`` computes ``GSAT(I, J)`` for all
tiles on anti-diagonal ``I + J = K``, whose boundary terms were produced by
kernels ``K-1`` and ``K-2``.  Kernel boundaries provide the synchronization,
so no flags are needed — but early and late kernels run very few blocks, and
the many launches carry overhead, which is why the paper's Table III shows it
losing badly at small sizes.

Each element is read and written once (plus ``O(n²/W)`` boundary vectors):
global-memory optimal, like the SKSS variants.
"""

from __future__ import annotations

import numpy as np

from repro.gpusim.block import BlockContext
from repro.gpusim.counters import LaunchSummary
from repro.gpusim.kernel import GPU
from repro.gpusim.memory import GlobalBuffer
from repro.primitives import smem
from repro.primitives.tile import TileGrid, assemble_gsat_tile
from repro.sat.base import SATAlgorithm
from repro.sat.tilecommon import TileScratch, alloc_scratch, \
    assemble_gsat_in_shared


def wavefront_kernel(ctx: BlockContext, a: GlobalBuffer, b: GlobalBuffer,
                     sb: TileScratch, stride: int, K: int,
                     layout: str = "diagonal"):
    """Kernel ``K`` of the 1R1W algorithm: one block per tile on diagonal ``K``.

    The paper recovers ``GRS(I, J)``/``GCS(I, J)`` by differencing the
    rightmost column / bottom row of ``GSAT(I, J)``; we compute them
    equivalently as ``GRS(I, J-1) + LRS(I, J)`` from the tile still in shared
    memory before the prefix passes (same values, one less shared pass).
    ``stride`` is the buffer's row stride (its padded column count).
    """
    W = sb.W
    tiles = sb.grid.tiles_on_diagonal(K)
    if ctx.block_id >= len(tiles):
        return
    I, J = tiles[ctx.block_id]
    smem.alloc_tile(ctx, "tile", W)

    smem.load_tile(ctx, a, stride, W, I, J, "tile", layout)
    yield ctx.syncthreads()

    grs_left = ctx.gload(sb.grs, sb.vec_idx(I, J - 1)) if J > 0 else np.zeros(W)
    gcs_above = ctx.gload(sb.gcs, sb.vec_idx(I - 1, J)) if I > 0 else np.zeros(W)
    gs_corner = (ctx.gload_scalar(sb.gs, sb.scalar_idx(I - 1, J - 1))
                 if I > 0 and J > 0 else 0.0)

    lrs = smem.tile_row_sums(ctx, "tile", W, layout)
    lcs = smem.tile_col_sums(ctx, "tile", W, layout)
    ctx.gstore(sb.grs, sb.vec_idx(I, J), grs_left + lrs)
    ctx.gstore(sb.gcs, sb.vec_idx(I, J), gcs_above + lcs)
    yield ctx.syncthreads()

    assemble_gsat_in_shared(ctx, W, "tile", grs_left, gcs_above, gs_corner,
                            layout)
    yield ctx.syncthreads()
    # GS(I, J) is the bottom-right corner of the assembled GSAT.
    gs_now = float(ctx.sload("tile",
                             smem.full_tile_offsets(W, layout)[W - 1:W, W - 1])[0])
    ctx.gstore_scalar(sb.gs, sb.scalar_idx(I, J), gs_now)
    smem.store_tile(ctx, b, stride, W, I, J, "tile", layout)


class Kasagi1R1W(SATAlgorithm):
    """The 1R1W algorithm: one kernel launch per tile anti-diagonal."""

    name = "1R1W"

    def __init__(self, *, tile_width: int = 32,
                 threads_per_block: int | None = None,
                 layout: str = "diagonal") -> None:
        super().__init__(tile_width=tile_width, threads_per_block=threads_per_block)
        self.layout = layout

    def _run_device(self, gpu: GPU, a_buf: GlobalBuffer, b_buf: GlobalBuffer,
                    grid: TileGrid, report: LaunchSummary) -> None:
        sb = alloc_scratch(gpu, grid)
        stride = grid.padded_cols
        threads = min(self.block_threads(gpu.device.max_threads_per_block),
                      grid.W * grid.W)
        threads = max(threads, gpu.device.warp_size)
        for K in range(grid.num_diagonals):
            report.add(gpu.launch(
                wavefront_kernel,
                grid_blocks=len(grid.tiles_on_diagonal(K)),
                threads_per_block=threads,
                args=(a_buf, b_buf, sb, stride, K, self.layout),
                name=f"1r1w_wave_{K}",
                shared_bytes_hint=grid.W * grid.W * 4))

    def _run_host(self, a: np.ndarray) -> np.ndarray:
        """Host dataflow: diagonals in order, boundary terms built incrementally."""
        grid = TileGrid(rows=a.shape[0], cols=a.shape[1], W=self.tile_width)
        tr, tc, W = grid.tile_rows, grid.tile_cols, grid.W
        grs = np.zeros((tr, tc, W), dtype=a.dtype)
        gcs = np.zeros((tr, tc, W), dtype=a.dtype)
        gs = np.zeros((tr, tc), dtype=a.dtype)
        out = np.zeros_like(a)
        zeros = np.zeros(W, dtype=a.dtype)
        for K in range(grid.num_diagonals):
            for I, J in grid.tiles_on_diagonal(K):
                tile = a[grid.tile_slice(I, J)]
                grs_left = grs[I, J - 1] if J > 0 else zeros
                gcs_above = gcs[I - 1, J] if I > 0 else zeros
                gs_corner = (gs[I - 1, J - 1] if I > 0 and J > 0
                             else a.dtype.type(0))
                grs[I, J] = grs_left + tile.sum(axis=1)
                gcs[I, J] = gcs_above + tile.sum(axis=0)
                gsat = assemble_gsat_tile(tile, grs_left, gcs_above, gs_corner)
                gs[I, J] = gsat[-1, -1]
                out[grid.tile_slice(I, J)] = gsat
        return out


#: Per-site annotations (see naive_2r2w.py for the convention).  The
#: wavefront kernel is shared with the hybrid's middle band, so its counts
#: are phrased in the ``wave_*`` geometry: over the full grid (this
#: algorithm) ``wave = t²`` and ``wave_left = wave_above = t² - t``; over
#: the hybrid's middle diagonals they count only the tiles the wavefront
#: actually visits.  The GSAT corners feed the next diagonal's carries, so
#: a value's rounding path runs through up to t *assemblies* — each
#: re-scanning it through the tile prefix passes (2W + 1 adds).  That makes
#: 1R1W O(t*W) = O(n) deep, unlike 2R1W or SKSS-LB whose carries chain with
#: one add per hop.
KERNEL_HINTS = {
    "wavefront_kernel": {
        "smem.load_tile(ctx, a, stride, W, I, J, 'tile', layout)": {
            "count": lambda g: g.wave, "width": lambda g: g.W2,
            "pattern": "coalesced"},
        "ctx.gload(sb.grs, sb.vec_idx(I, J - 1))": {
            "count": lambda g: g.wave_left, "width": lambda g: g.W,
            "pattern": "coalesced"},
        "ctx.gload(sb.gcs, sb.vec_idx(I - 1, J))": {
            "count": lambda g: g.wave_above, "width": lambda g: g.W,
            "pattern": "coalesced"},
        "ctx.gload_scalar(sb.gs, sb.scalar_idx(I - 1, J - 1))": {
            "count": lambda g: g.wave_corner},
        "smem.tile_row_sums(ctx, 'tile', W, layout)": {"depth": lambda g: g.W},
        "smem.tile_col_sums(ctx, 'tile', W, layout)": {"depth": lambda g: g.W},
        "ctx.gstore(sb.grs, sb.vec_idx(I, J), grs_left + lrs)": {
            "count": lambda g: g.wave, "width": lambda g: g.W,
            "pattern": "coalesced", "depth": lambda g: g.t},
        "ctx.gstore(sb.gcs, sb.vec_idx(I, J), gcs_above + lcs)": {
            "count": lambda g: g.wave, "width": lambda g: g.W,
            "pattern": "coalesced", "depth": lambda g: g.t},
        "assemble_gsat_in_shared(ctx, W, 'tile', grs_left, gcs_above, "
        "gs_corner, layout)": {"depth": lambda g: g.t * (2 * g.W + 1)},
        "ctx.gstore_scalar(sb.gs, sb.scalar_idx(I, J), gs_now)": {
            "count": lambda g: g.wave},
        "smem.store_tile(ctx, b, stride, W, I, J, 'tile', layout)": {
            "count": lambda g: g.wave, "width": lambda g: g.W2,
            "pattern": "coalesced"},
    },
}
