"""2R1W: the three-kernel tile SAT algorithm (Nehab et al. [13],
paper Section III.A).

* **Kernel 1** computes ``LRS``, ``LCS`` and ``LS`` of every tile (reading the
  whole matrix once and *discarding* the tiles);
* **Kernel 2** turns them into ``GRS``, ``GCS`` (prefix sums across tiles,
  one thread per vector lane, fully coalesced) and ``GS`` (the SAT of the
  ``(n/W)²`` tile-sum array, computed by one block);
* **Kernel 3** re-reads every tile and assembles ``GSAT(I, J)`` in shared
  memory from the three boundary terms.

The matrix is read twice and written once — ``2n² + O(n²/W)`` reads,
``n² + O(n²/W)`` writes — so its overhead over duplication cannot drop below
50 %, which Table III confirms (55–215 %).
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
from repro.sat.skss_lb import lane_vector_sum
from repro.sat.tilecommon import TileScratch, alloc_scratch, \
    assemble_gsat_in_shared


def local_sums_kernel(ctx: BlockContext, a: GlobalBuffer, sb: TileScratch,
                      stride: int, layout: str = "diagonal"):
    """Kernel 1: one block per tile; writes LRS, LCS and LS.

    ``stride`` is the buffer's row stride (its padded column count).
    """
    W, tc = sb.W, sb.tc
    I, J = divmod(ctx.block_id, tc)
    if I >= sb.tr:
        return
    smem.alloc_tile(ctx, "tile", W)
    lcs = smem.load_tile_with_col_sums(ctx, a, stride, W, I, J, "tile", layout)
    yield ctx.syncthreads()
    lrs = smem.tile_row_sums(ctx, "tile", W, layout)
    ls = lane_vector_sum(ctx, lcs)
    ctx.gstore(sb.lrs, sb.vec_idx(I, J), lrs)
    ctx.gstore(sb.lcs, sb.vec_idx(I, J), lcs)
    ctx.gstore_scalar(sb.ls, sb.scalar_idx(I, J), ls)


def global_sums_kernel(ctx: BlockContext, sb: TileScratch, grs_blocks: int,
                       gcs_blocks: int):
    """Kernel 2: prefix LRS→GRS and LCS→GCS across tiles; SAT of LS→GS.

    Blocks ``[0, grs_blocks)`` scan rows of tiles (one thread per ``(I, i)``
    lane, sequential over ``J`` — coalesced, exactly the paper's "column-wise
    prefix-sums of the (n/W) x n arrays using n threads").  The next
    ``gcs_blocks`` do the same for columns.  The final block computes the SAT
    of the ``tr x tc`` LS array (the paper's "recursive computation"; at tile
    granularity one block suffices for every size we simulate).
    """
    tr, tc, W = sb.tr, sb.tc, sb.W
    bid = ctx.block_id
    if bid < grs_blocks:
        lanes = bid * ctx.nthreads + ctx.tids
        lanes = lanes[lanes < tr * W]
        if lanes.size == 0:
            return
        I, i = lanes // W, lanes % W
        acc = np.zeros(lanes.size)
        for J in range(tc):
            idx = (I * tc + J) * W + i
            acc = acc + ctx.gload(sb.lrs, idx)
            ctx.gstore(sb.grs, idx, acc)
            ctx.charge(ctx.costs.compute_step)
    elif bid < grs_blocks + gcs_blocks:
        lanes = (bid - grs_blocks) * ctx.nthreads + ctx.tids
        lanes = lanes[lanes < tc * W]
        if lanes.size == 0:
            return
        J, j = lanes // W, lanes % W
        acc = np.zeros(lanes.size)
        for I in range(tr):
            idx = (I * tc + J) * W + j
            acc = acc + ctx.gload(sb.lcs, idx)
            ctx.gstore(sb.gcs, idx, acc)
            ctx.charge(ctx.costs.compute_step)
    else:
        # GS block: SAT of the tr x tc LS array.
        ls = ctx.gload(sb.ls, np.arange(tr * tc)).reshape(tr, tc)
        gs = ls.cumsum(axis=0).cumsum(axis=1)
        ctx.charge(2 * tr * tc * ctx.costs.compute_step / max(1, ctx.nthreads))
        ctx.gstore(sb.gs, np.arange(tr * tc), gs.ravel())


def gsat_kernel(ctx: BlockContext, a: GlobalBuffer, b: GlobalBuffer,
                sb: TileScratch, stride: int, layout: str = "diagonal"):
    """Kernel 3: one block per tile; assembles and writes GSAT(I, J)."""
    W, tc = sb.W, sb.tc
    I, J = divmod(ctx.block_id, tc)
    if I >= sb.tr:
        return
    smem.alloc_tile(ctx, "tile", W)
    smem.load_tile(ctx, a, stride, W, I, J, "tile", layout)
    yield ctx.syncthreads()
    grs_left = ctx.gload(sb.grs, sb.vec_idx(I, J - 1)) if J > 0 else np.zeros(W)
    gcs_above = ctx.gload(sb.gcs, sb.vec_idx(I - 1, J)) if I > 0 else np.zeros(W)
    gs_corner = (ctx.gload_scalar(sb.gs, sb.scalar_idx(I - 1, J - 1))
                 if I > 0 and J > 0 else 0.0)
    assemble_gsat_in_shared(ctx, W, "tile", grs_left, gcs_above, gs_corner,
                            layout)
    yield ctx.syncthreads()
    smem.store_tile(ctx, b, stride, W, I, J, "tile", layout)


class Nehab2R1W(SATAlgorithm):
    """The 2R1W algorithm: local sums, global prefixes, GSAT assembly."""

    name = "2R1W"

    def __init__(self, *, tile_width: int = 32,
                 threads_per_block: int | None = None,
                 layout: str = "diagonal") -> None:
        super().__init__(tile_width=tile_width, threads_per_block=threads_per_block)
        self.layout = layout

    def _run_device(self, gpu: GPU, a_buf: GlobalBuffer, b_buf: GlobalBuffer,
                    grid: TileGrid, report: LaunchSummary) -> None:
        sb = alloc_scratch(gpu, grid)
        tr, tc, W = grid.tile_rows, grid.tile_cols, grid.W
        stride = grid.padded_cols
        threads = min(self.block_threads(gpu.device.max_threads_per_block),
                      W * W)
        threads = max(threads, gpu.device.warp_size)
        report.add(gpu.launch(
            local_sums_kernel, grid_blocks=grid.num_tiles,
            threads_per_block=threads, args=(a_buf, sb, stride, self.layout),
            name="2r1w_local_sums", shared_bytes_hint=W * W * 4))
        grs_blocks = (tr * W + threads - 1) // threads
        gcs_blocks = (tc * W + threads - 1) // threads
        report.add(gpu.launch(
            global_sums_kernel, grid_blocks=grs_blocks + gcs_blocks + 1,
            threads_per_block=threads,
            args=(sb, grs_blocks, gcs_blocks), name="2r1w_global_sums"))
        report.add(gpu.launch(
            gsat_kernel, grid_blocks=grid.num_tiles,
            threads_per_block=threads,
            args=(a_buf, b_buf, sb, stride, self.layout),
            name="2r1w_gsat", shared_bytes_hint=W * W * 4))

    def _run_host(self, a: np.ndarray) -> np.ndarray:
        """Host dataflow: the three phases as whole-array operations."""
        grid = TileGrid(rows=a.shape[0], cols=a.shape[1], W=self.tile_width)
        tr, tc, W = grid.tile_rows, grid.tile_cols, grid.W
        # Phase 1: local sums (a view — no copy, dtype preserved).
        tiles = a.reshape(tr, W, tc, W)
        lrs = tiles.sum(axis=3).transpose(0, 2, 1)   # (I, J, i)
        lcs = tiles.sum(axis=1)                       # (I, J, j)
        ls = lcs.sum(axis=2)                          # (I, J)
        # Phase 2: global prefixes.
        grs = lrs.cumsum(axis=1)
        gcs = lcs.cumsum(axis=0)
        gs = ls.cumsum(axis=0).cumsum(axis=1)
        # Phase 3: assembly.
        out = np.zeros_like(a)
        zeros = np.zeros(W, dtype=a.dtype)
        for I in range(tr):
            for J in range(tc):
                out[grid.tile_slice(I, J)] = assemble_gsat_tile(
                    a[grid.tile_slice(I, J)],
                    grs[I, J - 1] if J > 0 else zeros,
                    gcs[I - 1, J] if I > 0 else zeros,
                    gs[I - 1, J - 1] if I > 0 and J > 0 else a.dtype.type(0))
        return out


#: Per-site annotations (see naive_2r2w.py for the convention).  Geometry:
#: ``t`` tiles per side, ``tiles = t²``, tile width ``W``, ``W2 = W²``,
#: ``n = tW``.  Tile-local sums are bounded by W roundings per value; the
#: global pass folds t tile sums per axis and double-scans the t x t grid;
#: the final assembly adds the carries through one tile's prefix passes
#: (2W + 1).  Carries are applied with direct adds — never re-scanned
#: through tiles — so the whole algorithm is O(t + W) deep.
KERNEL_HINTS = {
    "local_sums_kernel": {
        "smem.load_tile_with_col_sums(ctx, a, stride, W, I, J, 'tile', "
        "layout)": {
            "count": lambda g: g.tiles, "width": lambda g: g.W2,
            "pattern": "coalesced", "depth": lambda g: g.W},
        "smem.tile_row_sums(ctx, 'tile', W, layout)": {"depth": lambda g: g.W},
        "lane_vector_sum(ctx, lcs)": {"depth": lambda g: g.W},
        "ctx.gstore(sb.lrs, sb.vec_idx(I, J), lrs)": {
            "count": lambda g: g.tiles, "width": lambda g: g.W,
            "pattern": "coalesced"},
        "ctx.gstore(sb.lcs, sb.vec_idx(I, J), lcs)": {
            "count": lambda g: g.tiles, "width": lambda g: g.W,
            "pattern": "coalesced"},
        "ctx.gstore_scalar(sb.ls, sb.scalar_idx(I, J), ls)": {
            "count": lambda g: g.tiles},
    },
    # Row/column lane fronts: tc (resp. tr) sequential steps over a full
    # n-lane front; the GS block reads/writes the t x t tile-sum array once.
    "global_sums_kernel": {
        "ctx.gload(sb.lrs, idx)": {
            "count": lambda g: g.t, "width": lambda g: g.n,
            "pattern": "coalesced"},
        "acc = acc + ctx.gload(sb.lrs, idx)": {"depth": lambda g: g.t},
        "ctx.gstore(sb.grs, idx, acc)": {
            "count": lambda g: g.t, "width": lambda g: g.n,
            "pattern": "coalesced"},
        "ctx.gload(sb.lcs, idx)": {
            "count": lambda g: g.t, "width": lambda g: g.n,
            "pattern": "coalesced"},
        "acc = acc + ctx.gload(sb.lcs, idx)": {"depth": lambda g: g.t},
        "ctx.gstore(sb.gcs, idx, acc)": {
            "count": lambda g: g.t, "width": lambda g: g.n,
            "pattern": "coalesced"},
        "ctx.gload(sb.ls, np.arange(tr * tc))": {
            "count": 1, "width": lambda g: g.tiles, "pattern": "coalesced"},
        "ls.cumsum(axis=0)": {"depth": lambda g: g.t - 1},
        "ls.cumsum(axis=0).cumsum(axis=1)": {"depth": lambda g: g.t - 1},
        "ctx.gstore(sb.gs, np.arange(tr * tc), gs.ravel())": {
            "count": 1, "width": lambda g: g.tiles, "pattern": "coalesced"},
    },
    # Boundary reads are guarded (J > 0 / I > 0 / both), hence the
    # tiles - t and (t-1)^2 execution counts.
    "gsat_kernel": {
        "smem.load_tile(ctx, a, stride, W, I, J, 'tile', layout)": {
            "count": lambda g: g.tiles, "width": lambda g: g.W2,
            "pattern": "coalesced"},
        "ctx.gload(sb.grs, sb.vec_idx(I, J - 1))": {
            "count": lambda g: g.tiles - g.t, "width": lambda g: g.W,
            "pattern": "coalesced"},
        "ctx.gload(sb.gcs, sb.vec_idx(I - 1, J))": {
            "count": lambda g: g.tiles - g.t, "width": lambda g: g.W,
            "pattern": "coalesced"},
        "ctx.gload_scalar(sb.gs, sb.scalar_idx(I - 1, J - 1))": {
            "count": lambda g: (g.t - 1) * (g.t - 1)},
        "assemble_gsat_in_shared(ctx, W, 'tile', grs_left, gcs_above, "
        "gs_corner, layout)": {"depth": lambda g: 2 * g.W + 1},
        "smem.store_tile(ctx, b, stride, W, I, J, 'tile', layout)": {
            "count": lambda g: g.tiles, "width": lambda g: g.W2,
            "pattern": "coalesced"},
    },
}
