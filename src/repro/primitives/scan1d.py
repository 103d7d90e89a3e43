"""Single-pass row-wise prefix sums with decoupled look-back.

This is the Merrill–Garland scan [10, 11] applied to every row of an
``n x n`` matrix in one kernel launch, as required by the 2R2W-optimal SAT
algorithm: blocks acquire (row, partition) pairs through an atomic counter in
partition-major order, scan their partition locally, publish the partition
aggregate (status ``A = 1``), look back over earlier partitions of the same
row to obtain their exclusive prefix, publish the inclusive prefix (status
``P = 2``), and write the final values.

Status protocol (per partition): ``0`` = invalid, ``1`` = aggregate
available, ``2`` = inclusive prefix available — a direct specialisation of
:mod:`repro.primitives.lookback`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gpusim.block import BlockContext
from repro.gpusim.kernel import GPU
from repro.gpusim.memory import GlobalBuffer
from repro.primitives.blockscan import block_inclusive_scan
from repro.primitives.lookback import lookback_walk, publish
from repro.primitives.prefix_sum import num_partitions

#: Status values of the Merrill–Garland protocol.
STATUS_INVALID = 0
STATUS_AGGREGATE = 1
STATUS_PREFIX = 2


@dataclass(frozen=True)
class RowScanLayout:
    """Geometry of the row-wise scan: ``rows`` rows of ``n`` elements split
    into partitions of ``partition_size`` elements each."""

    rows: int
    n: int
    partition_size: int

    @property
    def parts_per_row(self) -> int:
        return num_partitions(self.n, self.partition_size)

    @property
    def total_parts(self) -> int:
        return self.rows * self.parts_per_row

    def serial_to_tile(self, serial: int) -> tuple[int, int]:
        """Partition-major order: all partition-0 tiles first, then partition 1, ...

        Look-back predecessors (same row, smaller partition) always have
        smaller serials, so in-order block dispatch cannot deadlock.
        """
        part, row = divmod(serial, self.rows)
        return row, part

    def status_index(self, row: int, part: int) -> int:
        return row * self.parts_per_row + part


def row_scan_kernel(ctx: BlockContext, src: GlobalBuffer, dst: GlobalBuffer,
                    counter: GlobalBuffer, status: GlobalBuffer,
                    aggregates: GlobalBuffer, prefixes: GlobalBuffer,
                    layout: RowScanLayout):
    """One CUDA block of the single-pass row scan (generator kernel).

    ``aggregates``/``prefixes`` are per-partition scalars; ``src`` and ``dst``
    are the ``rows x n`` matrices (``dst`` may alias ``src``'s role in the SAT
    pipeline but is a distinct buffer here).
    """
    while True:
        serial = ctx.atomic_add(counter, 0, 1)
        if serial >= layout.total_parts:
            return
        row, part = layout.serial_to_tile(serial)
        lo = part * layout.partition_size
        hi = min(layout.n, lo + layout.partition_size)
        width = hi - lo

        lane_vals = np.zeros(ctx.nthreads)
        idx = row * layout.n + lo + np.arange(width)
        lane_vals[:width] = ctx.gload(src, idx)
        scanned = block_inclusive_scan(ctx, lane_vals)
        yield ctx.syncthreads()

        aggregate = scanned[ctx.nthreads - 1] if width else 0.0
        sidx = layout.status_index(row, part)
        publish(ctx, [(aggregates, np.asarray([sidx]), np.asarray([aggregate]))],
                status, sidx, STATUS_AGGREGATE)

        exclusive = yield from lookback_walk(
            ctx,
            steps=range(part - 1, -1, -1),
            status_buf=status,
            status_index=lambda p: layout.status_index(row, p),
            local_threshold=STATUS_AGGREGATE,
            global_threshold=STATUS_PREFIX,
            read_local=lambda p: ctx.gload_scalar(aggregates,
                                                  layout.status_index(row, p)),
            read_global=lambda p: ctx.gload_scalar(prefixes,
                                                   layout.status_index(row, p)),
            zero=0.0)

        publish(ctx, [(prefixes, np.asarray([sidx]),
                       np.asarray([exclusive + aggregate]))],
                status, sidx, STATUS_PREFIX)

        ctx.gstore(dst, idx, scanned[:width] + exclusive)
        yield ctx.syncthreads()


def run_row_scan(gpu: GPU, src: GlobalBuffer, dst: GlobalBuffer, *,
                 rows: int, n: int, partition_size: int | None = None,
                 threads_per_block: int = 1024,
                 grid_blocks: int | None = None, name: str = "mg_row_scan"):
    """Launch the single-pass row scan over ``rows x n`` matrices.

    ``partition_size`` defaults to one element per thread.  Returns the
    :class:`~repro.gpusim.counters.KernelStats` of the launch; scratch buffers
    are allocated under unique names and freed afterwards.
    """
    partition_size = partition_size or threads_per_block
    layout = RowScanLayout(rows=rows, n=n, partition_size=partition_size)
    tag = f"_{name}_{id(src):x}"
    # Counter and statuses are memset; aggregates/prefixes are published
    # (written, fenced, flagged) before any consumer may read them.
    counter = gpu.alloc(tag + "_counter", (1,), np.int64, fill=0,
                        kind="counter")
    status = gpu.alloc(tag + "_status", (layout.total_parts,), np.int64,
                       fill=0, kind="status",
                       status_values=(STATUS_INVALID, STATUS_AGGREGATE,
                                      STATUS_PREFIX))
    aggregates = gpu.alloc(tag + "_agg", (layout.total_parts,), np.float64)
    prefixes = gpu.alloc(tag + "_pref", (layout.total_parts,), np.float64)
    try:
        stats = gpu.launch(
            row_scan_kernel,
            grid_blocks=grid_blocks or layout.total_parts,
            threads_per_block=threads_per_block,
            args=(src, dst, counter, status, aggregates, prefixes, layout),
            name=name)
    finally:
        for suffix in ("_counter", "_status", "_agg", "_pref"):
            gpu.free(tag + suffix)
    return stats


#: Per-site annotations (see repro/sat/naive_2r2w.py for the convention).
#: ``rs_parts`` partitions of ``rs_P`` contiguous elements each;
#: aggregates/prefixes are per-partition scalars.  The walk executes at
#: least ``rs_parts - rs_rows`` steps (one per non-first partition) and its
#: payload reads are scalar.  The block scan's depth is bounded by the
#: partition size (its actual warp-tree depth is ~2 log W + P/W, but P is
#: the sound static bound); the look-back walks one add per earlier
#: partition in the row; the two carry applications are one add each.
KERNEL_HINTS = {
    "row_scan_kernel": {
        "ctx.atomic_add(counter, 0, 1)": {"count": lambda g: g.rs_atomics},
        "ctx.gload(src, idx)": {
            "count": lambda g: g.rs_parts, "width": lambda g: g.rs_P,
            "pattern": "coalesced"},
        "block_inclusive_scan(ctx, lane_vals)": {"depth": lambda g: g.rs_P},
        "publish(ctx, [(aggregates, np.asarray([sidx]), "
        "np.asarray([aggregate]))], status, sidx, STATUS_AGGREGATE)": {
            "count": lambda g: g.rs_parts},
        "lookback_walk(ctx, steps=range(part - 1, -1, -1), "
        "status_buf=status, status_index=lambda p: layout.status_index(row, "
        "p), local_threshold=STATUS_AGGREGATE, "
        "global_threshold=STATUS_PREFIX, read_local=lambda p: "
        "ctx.gload_scalar(aggregates, layout.status_index(row, p)), "
        "read_global=lambda p: ctx.gload_scalar(prefixes, "
        "layout.status_index(row, p)), zero=0.0)": {
            "steps_lo": lambda g: g.rs_walk_lo,
            "steps_hi": lambda g: g.rs_walk_hi, "width": 1,
            "pattern": "scalar", "depth": lambda g: g.rs_parts_per_row},
        "publish(ctx, [(prefixes, np.asarray([sidx]), np.asarray([exclusive "
        "+ aggregate]))], status, sidx, STATUS_PREFIX)": {
            "count": lambda g: g.rs_parts, "depth": 1},
        "ctx.gstore(dst, idx, scanned[:width] + exclusive)": {
            "count": lambda g: g.rs_parts, "width": lambda g: g.rs_P,
            "pattern": "coalesced", "depth": 1},
    },
}
