"""1R1W-SKSS-LB: the paper's contribution (Section IV).

A single kernel computes the whole SAT.  CUDA blocks acquire tiles through an
``atomicAdd`` counter in the diagonal-major serial order of Figure 9, so every
inter-block dependency points to a tile with a smaller serial — owned by a
block that is already resident or retired — and soft synchronization cannot
deadlock under any dispatcher.

Per tile ``T(I, J)`` a block executes (statuses in brackets):

====================  ========================================================
Step 1                copy the tile to shared memory (diagonal arrangement),
                      fusing the column sums; compute the row sums
Step 2.A.1 [R=1]      publish ``LRS(I, J)``
Step 2.B.1 [C=1]      publish ``LCS(I, J)``
Step 2.A.2            look back left for ``GRS(I, J-1)`` (Figure 10)
Step 2.A.3 [R=2]      publish ``GRS(I, J) = GRS(I, J-1) + LRS(I, J)``
Step 2.B.2            look back up for ``GCS(I-1, J)``
Step 2.B.3 [C=2]      publish ``GCS(I, J) = GCS(I-1, J) + LCS(I, J)``
Step 3.1   [R=3]      publish ``GLS(I, J) = Σ(GRS(I,J-1)) + Σ(GCS(I-1,J)) +
                      Σ(LRS(I,J))`` (warp reduction; Figure 11)
Step 3.2              look back along the diagonal for ``GS(I-1, J-1)``
Step 3.3   [R=4]      publish ``GS(I, J) = GS(I-1, J-1) + GLS(I, J)``
Step 4                assemble ``GSAT(I, J)`` in shared memory and write it out
====================  ========================================================

Exactly three ``__syncthreads()`` barriers separate Steps 1, 2–3 and 4, as the
paper notes.  Global traffic is one read and one write per matrix element plus
``O(n²/W)`` for the published vectors — the 1R1W optimum.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.gpusim.block import BlockContext
from repro.gpusim.counters import LaunchSummary
from repro.gpusim.kernel import GPU
from repro.gpusim.memory import GlobalBuffer
from repro.primitives import smem
from repro.primitives.tile import TileGrid, assemble_gsat_tile
from repro.sat.base import SATAlgorithm
from repro.sat.tilecommon import (C_GCS, C_LCS, R_GLS, R_GRS, R_GS, R_LRS,
                                  TileScratch, alloc_scratch,
                                  assemble_gsat_in_shared, col_lookback,
                                  diag_lookback, publish_scalar,
                                  publish_vector, row_lookback,
                                  serial_to_tile, tile_serial_number)


def lane_vector_sum(ctx: BlockContext, values: np.ndarray) -> float:
    """Sum a length-``W`` register vector with warp reductions.

    ``W`` is a multiple of the warp size; each warp reduces its 32 lanes with
    the warp prefix-sum algorithm and the (at most 4) warp totals are added.
    """
    w = ctx.device.warp_size
    reduced = ctx.warp_reduce_sum(np.asarray(values, dtype=np.float64))
    totals = reduced[::w]
    ctx.charge(len(totals) * ctx.costs.compute_step)
    return float(totals.sum())


#: Tile acquisition orders (the paper uses diagonal-major, Figure 9).
#: ``rowmajor`` is also deadlock-free (its dependencies still point to
#: smaller serials) but pipelines the wavefront worse; ``reversed`` violates
#: the invariant and deadlocks once residency is bounded — kept for the
#: ablation/tests.  ``swapped`` is the subtle planted bug: diagonal order
#: with serials 1 and 3 exchanged, which only deadlocks when residency is
#: exactly one block — random schedules at full residency never hit it, but
#: exhaustive model checking does (see :mod:`repro.analysis.modelcheck`).
ACQUISITION_ORDERS = ("diagonal", "rowmajor", "reversed", "swapped")


def acquisition_tile(serial: int, t: int, order: str,
                     tc: int | None = None) -> tuple[int, int]:
    """Map an atomicAdd ticket to a tile under the chosen acquisition order.

    ``tc`` (tile columns) defaults to ``t`` for the legacy square grid.
    """
    tc = t if tc is None else tc
    if order == "diagonal":
        return serial_to_tile(serial, t, tc)
    if order == "rowmajor":
        return divmod(serial, tc)
    if order == "reversed":
        return serial_to_tile(t * tc - 1 - serial, t, tc)
    if order == "swapped":
        # Looks like a harmless scheduling tweak: acquire the second and
        # fourth tiles in the opposite order.  With >= 2 resident blocks the
        # look-back always finds a peer making progress, so every sampled
        # schedule succeeds; with exactly one resident block the walk from
        # the swapped-forward tile spins on a serial that will never run.
        if t * tc >= 4:
            serial = {1: 3, 3: 1}.get(serial, serial)
        return serial_to_tile(serial, t, tc)
    raise ConfigurationError(f"unknown acquisition order '{order}'")


def skss_lb_kernel(ctx: BlockContext, a: GlobalBuffer, b: GlobalBuffer,
                   sb: TileScratch, stride: int, layout: str = "diagonal",
                   acquisition: str = "diagonal"):
    """One CUDA block of the 1R1W-SKSS-LB kernel (loops acquiring tiles).

    ``stride`` is the buffer's row stride (its padded column count).
    """
    W, tr, tc = sb.W, sb.tr, sb.tc
    smem.alloc_tile(ctx, "tile", W)
    total = tr * tc
    while True:
        serial = ctx.atomic_add(sb.counter, 0, 1)
        if serial >= total:
            return
        I, J = acquisition_tile(serial, tr, acquisition, tc)

        # Step 1: tile to shared (fused LCS), then LRS; first barrier.
        lcs = smem.load_tile_with_col_sums(ctx, a, stride, W, I, J, "tile",
                                           layout)
        lrs = smem.tile_row_sums(ctx, "tile", W, layout)
        yield ctx.syncthreads()

        vec = sb.vec_idx(I, J)
        flag = sb.scalar_idx(I, J)

        # Steps 2.A.1 / 2.B.1: publish the local sums.
        publish_vector(ctx, sb.lrs, vec, lrs, sb.R, flag, R_LRS)
        publish_vector(ctx, sb.lcs, vec, lcs, sb.C, flag, C_LCS)

        # Steps 2.A.2 / 2.A.3: row look-back, publish GRS.
        grs_left = yield from row_lookback(ctx, sb, I, J)
        publish_vector(ctx, sb.grs, vec, grs_left + lrs, sb.R, flag, R_GRS)

        # Steps 2.B.2 / 2.B.3: column look-back, publish GCS.
        gcs_above = yield from col_lookback(ctx, sb, I, J)
        publish_vector(ctx, sb.gcs, vec, gcs_above + lcs, sb.C, flag, C_GCS)

        # Step 3.1: GLS from the three pairwise-summed vectors (Figure 11).
        pairwise = grs_left + gcs_above + lrs
        ctx.charge(2 * ctx.costs.compute_step)
        gls = lane_vector_sum(ctx, pairwise)
        publish_scalar(ctx, sb.gls, flag, gls, sb.R, flag, R_GLS)

        # Steps 3.2 / 3.3: diagonal look-back, publish GS.
        gs_corner = yield from diag_lookback(ctx, sb, I, J)
        publish_scalar(ctx, sb.gs, flag, gs_corner + gls, sb.R, flag, R_GS)
        yield ctx.syncthreads()

        # Step 4: GSAT in shared memory, write out; third barrier.
        assemble_gsat_in_shared(ctx, W, "tile", grs_left, gcs_above, gs_corner,
                                layout)
        yield ctx.syncthreads()
        smem.store_tile(ctx, b, stride, W, I, J, "tile", layout)


class SKSSLB1R1W(SATAlgorithm):
    """The paper's 1R1W-SKSS-LB algorithm: single kernel, soft sync + look-back."""

    name = "1R1W-SKSS-LB"

    def __init__(self, *, tile_width: int = 32,
                 threads_per_block: int | None = None,
                 layout: str = "diagonal",
                 grid_blocks: int | None = None,
                 acquisition: str = "diagonal") -> None:
        super().__init__(tile_width=tile_width, threads_per_block=threads_per_block)
        self.layout = layout
        self.grid_blocks = grid_blocks
        if acquisition not in ACQUISITION_ORDERS:
            raise ConfigurationError(
                f"unknown acquisition order '{acquisition}'; "
                f"choose from {ACQUISITION_ORDERS}")
        self.acquisition = acquisition

    def _run_device(self, gpu: GPU, a_buf: GlobalBuffer, b_buf: GlobalBuffer,
                    grid: TileGrid, report: LaunchSummary) -> None:
        sb = alloc_scratch(gpu, grid)
        blocks = self.grid_blocks or grid.num_tiles
        threads = min(self.block_threads(gpu.device.max_threads_per_block),
                      grid.W * grid.W)
        threads = max(threads, gpu.device.warp_size)
        report.add(gpu.launch(
            skss_lb_kernel, grid_blocks=blocks, threads_per_block=threads,
            args=(a_buf, b_buf, sb, grid.padded_cols, self.layout,
                  self.acquisition),
            name="skss_lb", shared_bytes_hint=grid.W * grid.W * 4))

    def _run_host(self, a: np.ndarray) -> np.ndarray:
        """Host dataflow: process tiles in serial order, maintaining the same
        published quantities (GRS/GCS/GS built incrementally, never read from
        an oracle)."""
        grid = TileGrid(rows=a.shape[0], cols=a.shape[1], W=self.tile_width)
        tr, tc, W = grid.tile_rows, grid.tile_cols, grid.W
        grs = np.zeros((tr, tc, W), dtype=a.dtype)
        gcs = np.zeros((tr, tc, W), dtype=a.dtype)
        gs = np.zeros((tr, tc), dtype=a.dtype)
        out = np.zeros_like(a)
        zeros = np.zeros(W, dtype=a.dtype)
        for serial in range(tr * tc):
            I, J = serial_to_tile(serial, tr, tc)
            tile = a[grid.tile_slice(I, J)]
            lrs = tile.sum(axis=1)
            lcs = tile.sum(axis=0)
            grs_left = grs[I, J - 1] if J > 0 else zeros
            gcs_above = gcs[I - 1, J] if I > 0 else zeros
            gs_corner = (gs[I - 1, J - 1] if I > 0 and J > 0
                         else a.dtype.type(0))
            grs[I, J] = grs_left + lrs
            gcs[I, J] = gcs_above + lcs
            gls = grs_left.sum() + gcs_above.sum() + lrs.sum()
            gs[I, J] = gs_corner + gls
            out[grid.tile_slice(I, J)] = assemble_gsat_tile(
                tile, grs_left, gcs_above, gs_corner)
        return out


#: Per-site annotations (see naive_2r2w.py for the convention).  The
#: look-back walks are the only schedule-dependent traffic in the whole
#: suite: each walk executes at least one step per tile with a non-trivial
#: predecessor (every walk terminates at its immediate neighbour) and at
#: most the full distance back to the matrix edge, hence the ``[lo, hi]``
#: step windows; ``walk=`` declares the status byte, thresholds and buffers
#: of the tilecommon walker each call runs.  Look-back chains cost one add
#: per walked tile and each publish applies its carry with a single add, so
#: — like 2R1W and unlike plain SKSS — the depth is O(t + W): carries chain
#: shallowly instead of re-scanning through every downstream tile.  The
#: lane_vector_sum depth covers the two un-extracted adds forming its
#: ``pairwise`` operand (grs_left + gcs_above + lrs).
KERNEL_HINTS = {
    "skss_lb_kernel": {
        "ctx.atomic_add(sb.counter, 0, 1)": {"count": lambda g: g.lb_atomics},
        "smem.load_tile_with_col_sums(ctx, a, stride, W, I, J, 'tile', "
        "layout)": {
            "count": lambda g: g.tiles, "width": lambda g: g.W2,
            "pattern": "coalesced", "depth": lambda g: g.W},
        "smem.tile_row_sums(ctx, 'tile', W, layout)": {"depth": lambda g: g.W},
        "publish_vector(ctx, sb.lrs, vec, lrs, sb.R, flag, R_LRS)": {
            "count": lambda g: g.tiles, "width": lambda g: g.W,
            "pattern": "coalesced"},
        "publish_vector(ctx, sb.lcs, vec, lcs, sb.C, flag, C_LCS)": {
            "count": lambda g: g.tiles, "width": lambda g: g.W,
            "pattern": "coalesced"},
        "row_lookback(ctx, sb, I, J)": {
            "steps_lo": lambda g: g.lb_row_lo,
            "steps_hi": lambda g: g.lb_row_hi, "width": lambda g: g.W,
            "pattern": "coalesced", "depth": lambda g: g.t,
            "walk": ("R", R_LRS, R_GRS, "lrs", "grs")},
        "publish_vector(ctx, sb.grs, vec, grs_left + lrs, sb.R, flag, "
        "R_GRS)": {
            "count": lambda g: g.tiles, "width": lambda g: g.W,
            "pattern": "coalesced", "depth": lambda g: g.t},
        "col_lookback(ctx, sb, I, J)": {
            "steps_lo": lambda g: g.lb_col_lo,
            "steps_hi": lambda g: g.lb_col_hi, "width": lambda g: g.W,
            "pattern": "coalesced", "depth": lambda g: g.t,
            "walk": ("C", C_LCS, C_GCS, "lcs", "gcs")},
        "publish_vector(ctx, sb.gcs, vec, gcs_above + lcs, sb.C, flag, "
        "C_GCS)": {
            "count": lambda g: g.tiles, "width": lambda g: g.W,
            "pattern": "coalesced", "depth": lambda g: g.t},
        "lane_vector_sum(ctx, pairwise)": {"depth": lambda g: g.W + 2},
        "publish_scalar(ctx, sb.gls, flag, gls, sb.R, flag, R_GLS)": {
            "count": lambda g: g.tiles},
        "diag_lookback(ctx, sb, I, J)": {
            "steps_lo": lambda g: g.lb_diag_lo,
            "steps_hi": lambda g: g.lb_diag_hi, "width": 1,
            "pattern": "scalar", "depth": lambda g: g.t,
            "walk": ("R", R_GLS, R_GS, "gls", "gs")},
        "publish_scalar(ctx, sb.gs, flag, gs_corner + gls, sb.R, flag, "
        "R_GS)": {"count": lambda g: g.tiles, "depth": lambda g: g.t},
        "assemble_gsat_in_shared(ctx, W, 'tile', grs_left, gcs_above, "
        "gs_corner, layout)": {"depth": lambda g: 2 * g.W + 1},
        "smem.store_tile(ctx, b, stride, W, I, J, 'tile', layout)": {
            "count": lambda g: g.tiles, "width": lambda g: g.W2,
            "pattern": "coalesced"},
    },
}

__all__ = ["SKSSLB1R1W", "skss_lb_kernel", "tile_serial_number",
           "serial_to_tile", "lane_vector_sum", "ACQUISITION_ORDERS",
           "acquisition_tile", "KERNEL_HINTS"]
