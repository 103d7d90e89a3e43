"""Wavefront tile plans: the reusable run structure of the host engine.

The tile-based SAT algorithms all share the same dependency skeleton: tile
``T(I, J)`` consumes values published by its *left* (``T(I, J-1)``), *up*
(``T(I-1, J)``) and (for the corner term) *up-left* (``T(I-1, J-1)``)
neighbours.  The paper acquires tiles in diagonal-major order because every
producer lies on an earlier anti-diagonal, which keeps CUDA blocks
deadlock-free under bounded residency.  On the host a tile row is one
contiguous ``W x n`` block, and the in-row part of the look-back (sum the
left tiles' LRS until a GRS is found) is just a prefix scan of that row's
LRS.  So the host executes *row runs* instead: consecutive tiles of one tile
row, executed as one cache-resident batch.  The engine runs each tile row as
one run, top to bottom; row-major order is a topological order of the
dependencies, since every producer of a row lies in that row (resolved by
the run's scan) or in the row above.

A :class:`WavefrontPlan` holds those runs for one grid geometry, so repeated
same-shape SATs (video pipelines) build them once.  Plans are immutable, so
a cached plan can be reused across calls and engines.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.primitives.tile import TileGrid

#: Producer offsets ``(dI, dJ)`` relative to the consuming tile.
DEPS_LEFT_UP = ((0, -1), (-1, 0))                 # 1R1W-SKSS (GRS + GCP chain)
DEPS_LEFT_UP_CORNER = ((0, -1), (-1, 0), (-1, -1))  # the GRS/GCS/GS family


@dataclass(frozen=True)
class Chunk:
    """A run of consecutive tiles ``T(row, J0) .. T(row, J1-1)`` of one tile
    row (the unit a row-run kernel executes)."""

    row: int
    J0: int
    J1: int

    @property
    def num_tiles(self) -> int:
        return self.J1 - self.J0


@dataclass(frozen=True)
class WavefrontPlan:
    """Immutable row-run schedule for one tile-grid geometry."""

    grid: TileGrid
    #: One whole-row run per tile row, top to bottom.
    chunks: tuple[Chunk, ...]

    @property
    def num_chunks(self) -> int:
        return len(self.chunks)


def build_plan(grid: TileGrid) -> WavefrontPlan:
    """Construct the row-run plan for one tile grid."""
    return WavefrontPlan(grid=grid, chunks=tuple(
        Chunk(row=I, J0=0, J1=grid.tile_cols)
        for I in range(grid.tile_rows)))
