"""2R2W-optimal: coalesced column scan + single-pass row scan (Section I.B).

The SAT is still computed as column-wise prefix sums followed by row-wise
prefix sums, but both phases use high-parallelism, fully coalesced kernels:
the column phase is the Tokura et al. column-wise scan [12]
(:mod:`repro.primitives.colscan`) and the row phase is the Merrill–Garland
single-pass decoupled-look-back scan [10, 11] applied to every row
(:mod:`repro.primitives.scan1d`).  Each element is still read and written
twice, so the overhead over matrix duplication cannot drop below 100 % — the
paper calls this "optimal under the condition that the SAT must be computed by
the column-wise and row-wise prefix-sums computation".
"""

from __future__ import annotations

import numpy as np

from repro.gpusim.kernel import GPU
from repro.gpusim.memory import GlobalBuffer
from repro.primitives.colscan import run_col_scan
from repro.primitives.scan1d import run_row_scan
from repro.primitives.tile import TileGrid, sum_dtype
from repro.sat.base import SATAlgorithm


class Optimal2R2W(SATAlgorithm):
    """The 2R2W-optimal algorithm: Tokura column scan then Merrill–Garland row scan."""

    name = "2R2W-optimal"
    tile_based = False

    def __init__(self, *, tile_width: int = 32,
                 threads_per_block: int | None = None,
                 panel_rows: int | None = None) -> None:
        super().__init__(tile_width=tile_width, threads_per_block=threads_per_block)
        self.panel_rows = panel_rows

    def _run_device(self, gpu: GPU, a_buf: GlobalBuffer, b_buf: GlobalBuffer,
                    grid: TileGrid) -> None:
        rows, cols = grid.rows, grid.cols
        threads = min(self.block_threads(gpu.device.max_threads_per_block), 1024)
        threads = max(threads, gpu.device.warp_size)
        # Strips are warp-wide when the width allows; otherwise fall back to
        # the widest power-of-two divisor (rectangular widths need not be
        # warp multiples).
        strip = gpu.device.warp_size
        while cols % strip:
            strip //= 2
        run_col_scan(gpu, a_buf, b_buf, rows=rows, cols=cols,
                     panel_rows=self.panel_rows,
                     strip_width=strip,
                     threads_per_block=threads,
                     name="2r2w_opt_col_scan")
        # Row phase scans b in place: each partition's loads complete before
        # its stores, and look-back reads only the scratch aggregate arrays.
        w = gpu.device.warp_size
        row_threads = min(threads, ((max(w, cols) + w - 1) // w) * w)
        run_row_scan(gpu, b_buf, b_buf, rows=rows, n=cols,
                     partition_size=min(row_threads, cols),
                     threads_per_block=row_threads,
                     name="2r2w_opt_row_scan")

    def _run_host(self, a: np.ndarray) -> np.ndarray:
        # Same dataflow at tile granularity collapses to the plain double scan.
        acc = sum_dtype(a)
        return a.cumsum(axis=0, dtype=acc).cumsum(axis=1, dtype=acc)
