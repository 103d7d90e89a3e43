"""Column-wise prefix sums with full coalescing (Tokura et al. [12]).

The naive column scan (one thread per column walking down) is coalesced but
offers only ``n`` threads of parallelism.  Tokura's algorithm splits the
matrix into column *strips* one warp wide and row *panels*, assigns a block to
every (strip, panel) pair, and stitches panels with decoupled look-back down
each strip:

1. the block copies its ``H x 32`` panel into shared memory with coalesced
   reads, accumulating the panel's per-column sums on the way;
2. it publishes the panel column sums (aggregate status), looks back up the
   strip for the exclusive per-column prefix, and publishes the inclusive
   prefix;
3. each of 32 threads then walks its column down the shared panel, adding the
   running sum to the exclusive prefix and writing results out.

Shared storage uses a ``+1`` pad per row so the column walk is bank-conflict
free.  Blocks acquire (strip, panel) pairs via an atomic counter in
panel-major order, so look-back predecessors always hold smaller serials and
in-order dispatch cannot deadlock.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.gpusim.block import BlockContext
from repro.gpusim.kernel import GPU
from repro.gpusim.memory import GlobalBuffer
from repro.primitives.lookback import lookback_walk, publish
from repro.primitives.scan1d import STATUS_AGGREGATE, STATUS_PREFIX


@dataclass(frozen=True, init=False)
class ColScanLayout:
    """Geometry of the column scan: ``rows x cols`` matrix, warp-wide strips,
    ``panel_rows``-row panels.

    Construct with ``rows=``/``cols=`` for rectangles or the legacy square
    form ``ColScanLayout(n=..., panel_rows=...)``.
    """

    rows: int
    cols: int
    panel_rows: int
    strip_width: int = 32

    def __init__(self, rows: int | None = None, cols: int | None = None,
                 panel_rows: int | None = None, strip_width: int = 32, *,
                 n: int | None = None) -> None:
        if n is not None:
            if rows is not None or cols is not None:
                raise ConfigurationError(
                    "pass either n= (square) or rows=/cols=, not both")
            rows = cols = n
        if rows is None or panel_rows is None:
            raise ConfigurationError(
                "ColScanLayout needs rows (or n=) and panel_rows")
        if cols is None:
            cols = rows
        object.__setattr__(self, "rows", int(rows))
        object.__setattr__(self, "cols", int(cols))
        object.__setattr__(self, "panel_rows", int(panel_rows))
        object.__setattr__(self, "strip_width", int(strip_width))
        if self.cols % self.strip_width:
            raise ConfigurationError(
                f"matrix width {self.cols} is not a multiple of the strip "
                f"width {self.strip_width}")
        if self.rows % self.panel_rows:
            raise ConfigurationError(
                f"matrix height {self.rows} is not a multiple of the panel "
                f"height {self.panel_rows}")

    @property
    def n(self) -> int:
        """Side length of a square layout (legacy accessor)."""
        if self.rows != self.cols:
            raise ConfigurationError(
                f"layout is {self.rows}x{self.cols}; use rows/cols")
        return self.rows

    @property
    def num_strips(self) -> int:
        return self.cols // self.strip_width

    @property
    def num_panels(self) -> int:
        return self.rows // self.panel_rows

    @property
    def total_tiles(self) -> int:
        return self.num_strips * self.num_panels

    def serial_to_tile(self, serial: int) -> tuple[int, int]:
        """Panel-major: all panel-0 strips first, then panel 1, ..."""
        panel, strip = divmod(serial, self.num_strips)
        return strip, panel

    def status_index(self, strip: int, panel: int) -> int:
        return strip * self.num_panels + panel


def col_scan_kernel(ctx: BlockContext, src: GlobalBuffer, dst: GlobalBuffer,
                    counter: GlobalBuffer, status: GlobalBuffer,
                    aggregates: GlobalBuffer, prefixes: GlobalBuffer,
                    layout: ColScanLayout):
    """One block of the Tokura column scan (generator kernel)."""
    C = layout.strip_width
    H = layout.panel_rows
    pad = C + 1  # padded row stride -> conflict-free column walk
    ctx.salloc("panel", H * pad, np.float64)
    rows_per_pass = max(1, ctx.nthreads // C)

    while True:
        serial = ctx.atomic_add(counter, 0, 1)
        if serial >= layout.total_tiles:
            return
        strip, panel = layout.serial_to_tile(serial)
        col0 = strip * C
        row0 = panel * H
        cols = col0 + np.arange(C)

        # Step 1: coalesced copy into shared, fused per-column partial sums.
        col_sums = np.zeros(C)
        for r in range(0, H, rows_per_pass):
            nrows = min(rows_per_pass, H - r)
            rr = (row0 + r + np.arange(nrows))[:, None]
            gidx = (rr * layout.cols + cols[None, :]).ravel()
            values = ctx.gload(src, gidx)
            soff = ((r + np.arange(nrows))[:, None] * pad + np.arange(C)[None, :])
            ctx.sstore("panel", soff.ravel(), values)
            col_sums += values.reshape(nrows, C).sum(axis=0)
            ctx.charge(nrows * ctx.costs.compute_step)
        yield ctx.syncthreads()

        # Step 2: publish aggregate, look back up the strip, publish prefix.
        sidx = layout.status_index(strip, panel)
        vec_idx = sidx * C + np.arange(C)
        publish(ctx, [(aggregates, vec_idx, col_sums)], status, sidx,
                STATUS_AGGREGATE)

        def _vec(buf):
            def read(p):
                vidx = layout.status_index(strip, p) * C + np.arange(C)
                return ctx.gload(buf, vidx)
            return read

        exclusive = yield from lookback_walk(
            ctx,
            steps=range(panel - 1, -1, -1),
            status_buf=status,
            status_index=lambda p: layout.status_index(strip, p),
            local_threshold=STATUS_AGGREGATE,
            global_threshold=STATUS_PREFIX,
            read_local=_vec(aggregates),
            read_global=_vec(prefixes),
            zero=np.zeros(C))

        publish(ctx, [(prefixes, vec_idx, exclusive + col_sums)], status, sidx,
                STATUS_PREFIX)

        # Step 3: 32 threads walk their columns down the panel; running sums
        # start from the exclusive prefix; writes go out row by row.
        running = np.array(exclusive)
        for r in range(H):
            soff = r * pad + np.arange(C)
            running = running + ctx.sload("panel", soff)
            gidx = (row0 + r) * layout.cols + cols
            ctx.gstore(dst, gidx, running)
        yield ctx.syncthreads()


def run_col_scan(gpu: GPU, src: GlobalBuffer, dst: GlobalBuffer, *,
                 n: int | None = None, rows: int | None = None,
                 cols: int | None = None,
                 panel_rows: int | None = None, strip_width: int = 32,
                 threads_per_block: int = 1024,
                 grid_blocks: int | None = None,
                 name: str = "tokura_col_scan"):
    """Launch the column-wise scan over a ``rows x cols`` matrix.

    ``n`` is the legacy square shorthand for ``rows == cols``.
    ``panel_rows`` defaults to a panel of about ``threads_per_block`` elements
    per pass times 8 (bounded by the height), a reasonable trade between
    look-back chain length and per-block shared usage.
    """
    if n is not None:
        rows = cols = n
    if rows is None:
        raise ConfigurationError("run_col_scan needs rows (or n=)")
    if cols is None:
        cols = rows
    if panel_rows is None:
        panel_rows = min(rows, max(strip_width,
                                   8 * threads_per_block // strip_width))
        while rows % panel_rows:
            panel_rows //= 2
    layout = ColScanLayout(rows=rows, cols=cols, panel_rows=panel_rows,
                           strip_width=strip_width)
    tag = f"_{name}_{id(src):x}"
    counter = gpu.alloc(tag + "_counter", (1,), np.int64, fill=0,
                        kind="counter")
    status = gpu.alloc(tag + "_status", (layout.total_tiles,), np.int64,
                       fill=0, kind="status",
                       status_values=(0, STATUS_AGGREGATE, STATUS_PREFIX))
    aggregates = gpu.alloc(tag + "_agg", (layout.total_tiles * strip_width,),
                           np.float64)
    prefixes = gpu.alloc(tag + "_pref", (layout.total_tiles * strip_width,),
                         np.float64)
    try:
        stats = gpu.launch(
            col_scan_kernel,
            grid_blocks=grid_blocks or layout.total_tiles,
            threads_per_block=threads_per_block,
            args=(src, dst, counter, status, aggregates, prefixes, layout),
            name=name,
            shared_bytes_hint=panel_rows * (strip_width + 1) * 4)
    finally:
        for suffix in ("_counter", "_status", "_agg", "_pref"):
            gpu.free(tag + suffix)
    return stats


#: Per-site annotations (see repro/sat/naive_2r2w.py for the convention).
#: ``cs_tiles`` (strip, panel) pairs of ``cs_tile_elems = cs_panel_rows x
#: cs_C`` elements each; the panel copy is modelled as one whole-tile access
#: (its per-pass row segments are 32-byte aligned, so requests and
#: transactions agree), the output walk stores one ``cs_C``-wide row per
#: panel row.  The look-back executes at least ``cs_tiles - cs_strips``
#: steps (every non-first panel terminates at its immediate predecessor).
#: A column element's rounding path passes through one panel's strip
#: accumulation (<= panel_rows serial adds), the look-back chain over
#: earlier panels (one add per walked panel), the single
#: exclusive+aggregate carry add, and the in-panel running replay.
KERNEL_HINTS = {
    "col_scan_kernel": {
        "ctx.atomic_add(counter, 0, 1)": {"count": lambda g: g.cs_atomics},
        "ctx.gload(src, gidx)": {
            "count": lambda g: g.cs_tiles, "width": lambda g: g.cs_tile_elems,
            "pattern": "coalesced"},
        "col_sums += values.reshape(nrows, C).sum(axis=0)": {
            "depth": lambda g: g.cs_panel_rows},
        "publish(ctx, [(aggregates, vec_idx, col_sums)], status, sidx, "
        "STATUS_AGGREGATE)": {
            "count": lambda g: g.cs_tiles, "width": lambda g: g.cs_C,
            "pattern": "coalesced"},
        "lookback_walk(ctx, steps=range(panel - 1, -1, -1), "
        "status_buf=status, status_index=lambda p: "
        "layout.status_index(strip, p), local_threshold=STATUS_AGGREGATE, "
        "global_threshold=STATUS_PREFIX, read_local=_vec(aggregates), "
        "read_global=_vec(prefixes), zero=np.zeros(C))": {
            "steps_lo": lambda g: g.cs_walk_lo,
            "steps_hi": lambda g: g.cs_walk_hi, "width": lambda g: g.cs_C,
            "pattern": "coalesced", "depth": lambda g: g.cs_panels},
        "publish(ctx, [(prefixes, vec_idx, exclusive + col_sums)], status, "
        "sidx, STATUS_PREFIX)": {
            "count": lambda g: g.cs_tiles, "width": lambda g: g.cs_C,
            "pattern": "coalesced", "depth": 1},
        "running = running + ctx.sload('panel', soff)": {
            "depth": lambda g: g.cs_panel_rows},
        "ctx.gstore(dst, gidx, running)": {
            "count": lambda g: g.cs_tiles * g.cs_panel_rows,
            "width": lambda g: g.cs_C, "pattern": "coalesced"},
    },
}
