"""(1+r)R1W: the hybrid of 2R1W and 1R1W (Kasagi et al. [14],
paper Section III.B, Figure 8).

The 1R1W wavefront is starved of parallelism on the short early and late
anti-diagonals.  The hybrid carves the tile grid into three bands by
``K = I + J``:

* **A** (``K < √r·t``): processed 2R1W-style — local sums, global prefixes,
  GSAT assembly (3 kernels, re-reading the band once);
* **B** (``√r·t ≤ K ≤ (2-√r)·t - 1``): the 1R1W wavefront, one kernel per
  diagonal, seeded by A's boundary values;
* **C** (``K > (2-√r)·t - 1``): 2R1W-style again, with the global prefixes
  *seeded* from the B band's GRS/GCS/GS at the band boundary.

Roughly ``r·(n/W)²`` tiles are read twice, so total reads are
``(1+r)n² + O(n²/W)``; kernel launches number ``2(1-√r)(n/W) + O(1)``.  The
parameter ``r`` trades extra traffic for fewer launches and fatter grids; the
paper picks the best ``r`` by experiment (our ``benchmarks/bench_r_sweep.py``).
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ConfigurationError
from repro.gpusim.block import BlockContext
from repro.gpusim.kernel import GPU
from repro.gpusim.memory import GlobalBuffer
from repro.primitives import smem
from repro.primitives.tile import TileGrid, assemble_gsat_tile, sum_dtype
from repro.sat.base import SATAlgorithm
from repro.sat.kasagi_1r1w import wavefront_kernel
from repro.sat.skss_lb import lane_vector_sum
from repro.sat.tilecommon import TileScratch, alloc_scratch, \
    assemble_gsat_in_shared


def band_limits(r: float, t: int, tc: int | None = None) -> tuple[int, int]:
    """Return ``(Ka, Kc)``: band A is ``K < Ka``, band C is ``K > Kc``.

    For the square grid, ``Ka = round(√r · t)`` and
    ``Kc = round((2-√r) · t) - 1``, clamped so the C band never touches the
    matrix edges (``Kc >= t-1``) and ``Ka <= t``.  For a rectangular
    ``t x tc`` grid the bands cover the short ramp-up/ramp-down diagonals
    (of length < min(t, tc)) scaled the same way, leaving the full-width
    plateau to the wavefront.
    """
    if not 0.0 <= r <= 1.0:
        raise ConfigurationError(f"hybrid parameter r must be in [0, 1], got {r}")
    sq = math.sqrt(r)
    if tc is None or tc == t:
        Ka = min(t, round(sq * t))
        Kc = min(2 * t - 2, max(t - 1, round((2.0 - sq) * t) - 1))
        return Ka, Kc
    m, M = min(t, tc), max(t, tc)
    D = t + tc - 1
    Ka = min(m, round(sq * m))
    Kc = min(D - 1, max(M - 1, round((2.0 - sq) * m) - 1 + (M - m)))
    return Ka, Kc


def band_tiles(grid: TileGrid, Ka: int, Kc: int) -> tuple[list, list, list]:
    """Tiles of bands A, B, C in diagonal-major order."""
    a_tiles, b_tiles, c_tiles = [], [], []
    for K in range(grid.num_diagonals):
        dest = a_tiles if K < Ka else (b_tiles if K <= Kc else c_tiles)
        dest.extend(grid.tiles_on_diagonal(K))
    return a_tiles, b_tiles, c_tiles


def band_local_sums_kernel(ctx: BlockContext, a: GlobalBuffer, sb: TileScratch,
                           stride: int, tiles: list, layout: str = "diagonal"):
    """2R1W kernel 1 restricted to a band: LRS/LCS/LS of the listed tiles."""
    if ctx.block_id >= len(tiles):
        return
    I, J = tiles[ctx.block_id]
    W = sb.W
    smem.alloc_tile(ctx, "tile", W)
    lcs = smem.load_tile_with_col_sums(ctx, a, stride, W, I, J, "tile", layout)
    yield ctx.syncthreads()
    lrs = smem.tile_row_sums(ctx, "tile", W, layout)
    ctx.gstore(sb.lrs, sb.vec_idx(I, J), lrs)
    ctx.gstore(sb.lcs, sb.vec_idx(I, J), lcs)
    ctx.gstore_scalar(sb.ls, sb.scalar_idx(I, J), lane_vector_sum(ctx, lcs))


def band_global_sums_kernel(ctx: BlockContext, sb: TileScratch, band: str,
                            Ka: int, Kc: int, grs_blocks: int,
                            gcs_blocks: int):
    """2R1W kernel 2 restricted to band A or C.

    For band A the prefixes start from zero; for band C they are seeded from
    the boundary values the B wavefront (or band A) already committed.  The
    last block computes the band's GS values with the four-corner recurrence
    ``GS(I,J) = GS(I-1,J) + GS(I,J-1) - GS(I-1,J-1) + LS(I,J)``, whose
    neighbours are always in an earlier band or earlier in the iteration.
    """
    tr, tc, W = sb.tr, sb.tc, sb.W
    bid = ctx.block_id

    def row_range(I: int) -> range:
        if band == "A":
            return range(0, min(tc, Ka - I))
        return range(max(0, Kc - I + 1), tc)

    def col_range(J: int) -> range:
        if band == "A":
            return range(0, min(tr, Ka - J))
        return range(max(0, Kc - J + 1), tr)

    if bid < grs_blocks:
        lanes = bid * ctx.nthreads + ctx.tids
        lanes = lanes[lanes < tr * W]
        for base in np.unique(lanes // W):
            I = int(base)
            i = lanes[lanes // W == I] % W
            Js = row_range(I)
            if len(Js) == 0:
                continue
            if band == "C" and Js.start > 0:
                acc = ctx.gload(sb.grs, (I * tc + (Js.start - 1)) * W + i)
            else:
                acc = np.zeros(i.size)
            for J in Js:
                idx = (I * tc + J) * W + i
                acc = acc + ctx.gload(sb.lrs, idx)
                ctx.gstore(sb.grs, idx, acc)
                ctx.charge(ctx.costs.compute_step)
    elif bid < grs_blocks + gcs_blocks:
        lanes = (bid - grs_blocks) * ctx.nthreads + ctx.tids
        lanes = lanes[lanes < tc * W]
        for base in np.unique(lanes // W):
            J = int(base)
            j = lanes[lanes // W == J] % W
            Is = col_range(J)
            if len(Is) == 0:
                continue
            if band == "C" and Is.start > 0:
                acc = ctx.gload(sb.gcs, ((Is.start - 1) * tc + J) * W + j)
            else:
                acc = np.zeros(j.size)
            for I in Is:
                idx = (I * tc + J) * W + j
                acc = acc + ctx.gload(sb.lcs, idx)
                ctx.gstore(sb.gcs, idx, acc)
                ctx.charge(ctx.costs.compute_step)
    else:
        # GS block.
        for I in range(tr):
            for J in row_range(I):
                up = ctx.gload_scalar(sb.gs, sb.scalar_idx(I - 1, J)) if I else 0.0
                left = ctx.gload_scalar(sb.gs, sb.scalar_idx(I, J - 1)) if J else 0.0
                corner = (ctx.gload_scalar(sb.gs, sb.scalar_idx(I - 1, J - 1))
                          if I and J else 0.0)
                ls = ctx.gload_scalar(sb.ls, sb.scalar_idx(I, J))
                ctx.gstore_scalar(sb.gs, sb.scalar_idx(I, J),
                                  up + left - corner + ls)
                ctx.charge(3 * ctx.costs.compute_step)


def band_gsat_kernel(ctx: BlockContext, a: GlobalBuffer, b: GlobalBuffer,
                     sb: TileScratch, stride: int, tiles: list,
                     layout: str = "diagonal"):
    """2R1W kernel 3 restricted to a band: assemble GSAT of the listed tiles."""
    if ctx.block_id >= len(tiles):
        return
    I, J = tiles[ctx.block_id]
    W = sb.W
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


class Hybrid1R1W(SATAlgorithm):
    """The (1+r)R1W algorithm: 2R1W bands around a 1R1W wavefront core."""

    name = "(1+r)R1W"

    def __init__(self, *, tile_width: int = 32, r: float = 0.25,
                 threads_per_block: int | None = None,
                 layout: str = "diagonal") -> None:
        super().__init__(tile_width=tile_width, threads_per_block=threads_per_block)
        self.r = r
        self.layout = layout

    def params(self) -> dict:
        p = super().params()
        p["r"] = self.r
        return p

    def _run_device(self, gpu: GPU, a_buf: GlobalBuffer, b_buf: GlobalBuffer,
                    grid: TileGrid) -> None:
        sb = alloc_scratch(gpu, grid)
        tr, tc, W = grid.tile_rows, grid.tile_cols, grid.W
        stride = grid.padded_cols
        Ka, Kc = band_limits(self.r, tr, tc)
        a_tiles, _, c_tiles = band_tiles(grid, Ka, Kc)
        threads = min(self.block_threads(gpu.device.max_threads_per_block),
                      W * W)
        threads = max(threads, gpu.device.warp_size)
        grs_blocks = (tr * W + threads - 1) // threads
        gcs_blocks = (tc * W + threads - 1) // threads

        def run_band(band: str, tiles: list) -> None:
            if not tiles:
                return
            gpu.launch(
                band_local_sums_kernel, grid_blocks=len(tiles),
                threads_per_block=threads,
                args=(a_buf, sb, stride, tiles, self.layout),
                name=f"hybrid_{band}_local", shared_bytes_hint=W * W * 4)
            gpu.launch(
                band_global_sums_kernel,
                grid_blocks=grs_blocks + gcs_blocks + 1,
                threads_per_block=threads,
                args=(sb, band, Ka, Kc, grs_blocks, gcs_blocks),
                name=f"hybrid_{band}_global")
            gpu.launch(
                band_gsat_kernel, grid_blocks=len(tiles),
                threads_per_block=threads,
                args=(a_buf, b_buf, sb, stride, tiles, self.layout),
                name=f"hybrid_{band}_gsat", shared_bytes_hint=W * W * 4)

        run_band("A", a_tiles)
        for K in range(Ka, min(Kc, grid.num_diagonals - 1) + 1):
            gpu.launch(
                wavefront_kernel,
                grid_blocks=len(grid.tiles_on_diagonal(K)),
                threads_per_block=threads,
                args=(a_buf, b_buf, sb, stride, K, self.layout),
                name=f"hybrid_wave_{K}", shared_bytes_hint=W * W * 4)
        run_band("C", c_tiles)

    def _run_host(self, a: np.ndarray) -> np.ndarray:
        """Host dataflow: the published values are schedule-independent, so
        band order collapses to a single diagonal sweep with the same algebra."""
        grid = TileGrid(rows=a.shape[0], cols=a.shape[1], W=self.tile_width)
        tr, tc, W = grid.tile_rows, grid.tile_cols, grid.W
        grs = np.zeros((tr, tc, W), dtype=a.dtype)
        gcs = np.zeros((tr, tc, W), dtype=a.dtype)
        gs = np.zeros((tr, tc), dtype=a.dtype)
        out = np.zeros_like(a)
        zeros = np.zeros(W, dtype=a.dtype)
        acc = sum_dtype(a)
        for K in range(grid.num_diagonals):
            for I, J in grid.tiles_on_diagonal(K):
                tile = a[grid.tile_slice(I, J)]
                grs_left = grs[I, J - 1] if J > 0 else zeros
                gcs_above = gcs[I - 1, J] if I > 0 else zeros
                gs_corner = (gs[I - 1, J - 1] if I > 0 and J > 0
                             else a.dtype.type(0))
                grs[I, J] = grs_left + tile.sum(axis=1, dtype=acc)
                gcs[I, J] = gcs_above + tile.sum(axis=0, dtype=acc)
                gsat = assemble_gsat_tile(tile, grs_left, gcs_above, gs_corner)
                gs[I, J] = gsat[-1, -1]
                out[grid.tile_slice(I, J)] = gsat
        return out


#: Per-site annotations (see naive_2r2w.py for the convention).  Counts are
#: totals over BOTH band launches (A and C): ``band`` tiles overall,
#: ``band_left``/``band_up``/``band_corner`` of them with a left/up/corner
#: neighbour, and ``band_seed_row``/``band_seed_col`` rows/columns whose
#: band-C segment is seeded from an already-committed prefix.  Band locals
#: round like 2R1W's; the band global pass's four-corner GS recurrence
#: chains over <= 2t diagonal hops at 3 adds per hop.  The middle-band
#: wavefront's entries live with the shared kernel in kasagi_1r1w.py
#: (its assembly re-scans make the hybrid O(t*W) deep overall).
KERNEL_HINTS = {
    "band_local_sums_kernel": {
        "smem.load_tile_with_col_sums(ctx, a, stride, W, I, J, 'tile', "
        "layout)": {
            "count": lambda g: g.band, "width": lambda g: g.W2,
            "pattern": "coalesced", "depth": lambda g: g.W},
        "smem.tile_row_sums(ctx, 'tile', W, layout)": {"depth": lambda g: g.W},
        "ctx.gstore(sb.lrs, sb.vec_idx(I, J), lrs)": {
            "count": lambda g: g.band, "width": lambda g: g.W,
            "pattern": "coalesced"},
        "ctx.gstore(sb.lcs, sb.vec_idx(I, J), lcs)": {
            "count": lambda g: g.band, "width": lambda g: g.W,
            "pattern": "coalesced"},
        "lane_vector_sum(ctx, lcs)": {"depth": lambda g: g.W},
        "ctx.gstore_scalar(sb.ls, sb.scalar_idx(I, J), lane_vector_sum(ctx, "
        "lcs))": {"count": lambda g: g.band},
    },
    "band_global_sums_kernel": {
        "ctx.gload(sb.grs, (I * tc + (Js.start - 1)) * W + i)": {
            "count": lambda g: g.band_seed_row, "width": lambda g: g.W,
            "pattern": "coalesced"},
        "ctx.gload(sb.lrs, idx)": {
            "count": lambda g: g.band, "width": lambda g: g.W,
            "pattern": "coalesced"},
        "acc = acc + ctx.gload(sb.lrs, idx)": {"depth": lambda g: g.t},
        "ctx.gstore(sb.grs, idx, acc)": {
            "count": lambda g: g.band, "width": lambda g: g.W,
            "pattern": "coalesced"},
        "ctx.gload(sb.gcs, ((Is.start - 1) * tc + J) * W + j)": {
            "count": lambda g: g.band_seed_col, "width": lambda g: g.W,
            "pattern": "coalesced"},
        "ctx.gload(sb.lcs, idx)": {
            "count": lambda g: g.band, "width": lambda g: g.W,
            "pattern": "coalesced"},
        "acc = acc + ctx.gload(sb.lcs, idx)": {"depth": lambda g: g.t},
        "ctx.gstore(sb.gcs, idx, acc)": {
            "count": lambda g: g.band, "width": lambda g: g.W,
            "pattern": "coalesced"},
        "ctx.gload_scalar(sb.gs, sb.scalar_idx(I - 1, J))": {
            "count": lambda g: g.band_up},
        "ctx.gload_scalar(sb.gs, sb.scalar_idx(I, J - 1))": {
            "count": lambda g: g.band_left},
        "ctx.gload_scalar(sb.gs, sb.scalar_idx(I - 1, J - 1))": {
            "count": lambda g: g.band_corner},
        "ctx.gload_scalar(sb.ls, sb.scalar_idx(I, J))": {
            "count": lambda g: g.band},
        "ctx.gstore_scalar(sb.gs, sb.scalar_idx(I, J), up + left - corner + "
        "ls)": {"count": lambda g: g.band, "depth": lambda g: 6 * g.t},
    },
    "band_gsat_kernel": {
        "smem.load_tile(ctx, a, stride, W, I, J, 'tile', layout)": {
            "count": lambda g: g.band, "width": lambda g: g.W2,
            "pattern": "coalesced"},
        "ctx.gload(sb.grs, sb.vec_idx(I, J - 1))": {
            "count": lambda g: g.band_left, "width": lambda g: g.W,
            "pattern": "coalesced"},
        "ctx.gload(sb.gcs, sb.vec_idx(I - 1, J))": {
            "count": lambda g: g.band_up, "width": lambda g: g.W,
            "pattern": "coalesced"},
        "ctx.gload_scalar(sb.gs, sb.scalar_idx(I - 1, J - 1))": {
            "count": lambda g: g.band_corner},
        "assemble_gsat_in_shared(ctx, W, 'tile', grs_left, gcs_above, "
        "gs_corner, layout)": {"depth": lambda g: 2 * g.W + 1},
        "smem.store_tile(ctx, b, stride, W, I, J, 'tile', layout)": {
            "count": lambda g: g.band, "width": lambda g: g.W2,
            "pattern": "coalesced"},
    },
}
