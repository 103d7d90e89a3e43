"""2R2W: the baseline SAT algorithm (paper Section I.B).

Two kernels with ``n`` threads each: thread ``j`` of the first kernel scans
column ``j`` downwards (coalesced: the ``n`` threads touch one row at a time);
thread ``i`` of the second scans row ``i`` rightwards (strided: the threads
touch one *column* at a time, so every element costs its own transaction).
Each element is read twice and written twice — hence the name — and the
strided second phase is why the paper measures overheads of 500–2600 % for it.
"""

from __future__ import annotations

import numpy as np

from repro.gpusim.block import BlockContext
from repro.gpusim.counters import LaunchSummary
from repro.gpusim.kernel import GPU
from repro.gpusim.memory import GlobalBuffer
from repro.primitives.tile import TileGrid
from repro.sat.base import SATAlgorithm


def column_scan_kernel(ctx: BlockContext, src: GlobalBuffer, dst: GlobalBuffer,
                       n_rows: int, n_cols: int) -> None:
    """Thread ``j`` computes the prefix sums of column ``j`` sequentially."""
    cols = ctx.block_id * ctx.nthreads + ctx.tids
    cols = cols[cols < n_cols]
    if cols.size == 0:
        return
    running = np.zeros(cols.size)
    for i in range(n_rows):
        running = running + ctx.gload(src, i * n_cols + cols)
        ctx.gstore(dst, i * n_cols + cols, running)
        ctx.charge(ctx.costs.compute_step)


def row_scan_kernel(ctx: BlockContext, buf: GlobalBuffer, n_rows: int,
                    n_cols: int) -> None:
    """Thread ``i`` computes the prefix sums of row ``i`` sequentially (strided)."""
    rows = ctx.block_id * ctx.nthreads + ctx.tids
    rows = rows[rows < n_rows]
    if rows.size == 0:
        return
    running = np.zeros(rows.size)
    for j in range(n_cols):
        running = running + ctx.gload(buf, rows * n_cols + j)
        ctx.gstore(buf, rows * n_cols + j, running)
        ctx.charge(ctx.costs.compute_step)


class Naive2R2W(SATAlgorithm):
    """The 2R2W algorithm: column-wise then row-wise sequential scans."""

    name = "2R2W"
    tile_based = False

    def _run_device(self, gpu: GPU, a_buf: GlobalBuffer, b_buf: GlobalBuffer,
                    grid: TileGrid, report: LaunchSummary) -> None:
        rows, cols = grid.rows, grid.cols
        # One thread per column/row, rounded up to whole warps.
        w = gpu.device.warp_size
        threads = ((min(self.block_threads(), max(rows, cols)) + w - 1)
                   // w) * w
        report.add(gpu.launch(column_scan_kernel,
                              grid_blocks=(cols + threads - 1) // threads,
                              threads_per_block=threads,
                              args=(a_buf, b_buf, rows, cols),
                              name="2r2w_column_scan"))
        report.add(gpu.launch(row_scan_kernel,
                              grid_blocks=(rows + threads - 1) // threads,
                              threads_per_block=threads,
                              args=(b_buf, rows, cols),
                              name="2r2w_row_scan"))

    def _run_host(self, a: np.ndarray) -> np.ndarray:
        return a.cumsum(axis=0).cumsum(axis=1)


#: Per-site annotations, one entry per site of each kernel in source order
#: (:mod:`repro.analysis.kernelir` parses the kernels and refuses any drift
#: between this table and the code).  A counted global access carries its
#: per-run execution count, access width and coalescing pattern as
#: functions of the counting geometry (:mod:`repro.analysis.costcheck`); a
#: rounding site carries ``depth``, its worst-path serial float additions
#: over the whole run (:mod:`repro.analysis.numcheck`).  Each scan folds one
#: element at a time into ``running`` across the full n-length axis.
KERNEL_HINTS = {
    # n rows x an n-wide thread front, touching one row at a time: coalesced.
    "column_scan_kernel": {
        "ctx.gload(src, i * n_cols + cols)": {
            "count": lambda g: g.n, "width": lambda g: g.n,
            "pattern": "coalesced"},
        "running = running + ctx.gload(src, i * n_cols + cols)": {
            "depth": lambda g: g.n},
        "ctx.gstore(dst, i * n_cols + cols, running)": {
            "count": lambda g: g.n, "width": lambda g: g.n,
            "pattern": "coalesced"},
    },
    # n cols x an n-tall thread front, touching one column at a time: every
    # element is its own 32-byte transaction.
    "row_scan_kernel": {
        "ctx.gload(buf, rows * n_cols + j)": {
            "count": lambda g: g.n, "width": lambda g: g.n,
            "pattern": "strided"},
        "running = running + ctx.gload(buf, rows * n_cols + j)": {
            "depth": lambda g: g.n},
        "ctx.gstore(buf, rows * n_cols + j, running)": {
            "count": lambda g: g.n, "width": lambda g: g.n,
            "pattern": "strided"},
    },
}
