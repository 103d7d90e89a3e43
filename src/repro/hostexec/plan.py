"""Wavefront tile plans: the reusable scheduling structure of the host engine.

The tile-based SAT algorithms all share the same dependency skeleton: tile
``T(I, J)`` consumes values published by its *left* (``T(I, J-1)``), *up*
(``T(I-1, J)``) and (for the corner term) *up-left* (``T(I-1, J-1)``)
neighbours.  The paper acquires tiles in diagonal-major order because every
producer lies on an earlier anti-diagonal, which keeps CUDA blocks
deadlock-free under bounded residency.  On the host a tile row is one
contiguous ``W x n`` block, and the in-row part of the look-back (sum the
left tiles' LRS until a GRS is found) is just a prefix scan of that row's
LRS.  So the host dispatches *row runs* instead: consecutive tiles of one
tile row, executed as one cache-resident batch.  Parallelism comes from the
``(row, run)`` wavefront — run ``(I, p)`` waits only for its left run and
the runs of row ``I-1`` above it, so rows pipeline diagonally across
workers.

A :class:`WavefrontPlan` captures everything about that dataflow that does
not depend on the matrix *values*, so repeated same-shape SATs (video
pipelines) pay for it once:

* the tile rows, each split into up to ``workers`` runs of consecutive
  columns (a run is the unit of dispatch, a :class:`Chunk`);
* per-tile dependency counts and the per-tile **status words** the scheduler
  advances (``PENDING -> READY -> DONE`` — the CPU analogue of the SKSS-LB
  ``R``/``C`` protocol bytes);
* the chunk DAG (successor lists and predecessor counts), so retiring a
  chunk decrements its dependents' counters.

Plans are immutable after construction; all mutable run state lives in the
engine (one fresh copy of the counters per call), so a cached plan can be
reused across calls and engines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.backend.core import positive_int
from repro.errors import ConfigurationError
from repro.primitives.tile import TileGrid

#: Per-tile status words (the host analogue of the SKSS-LB protocol bytes).
TILE_PENDING = 0   #: producers not yet retired
TILE_READY = 1     #: all producers retired; tile may execute
TILE_DONE = 2      #: tile's published values committed

#: Producer offsets ``(dI, dJ)`` relative to the consuming tile.
DEPS_LEFT_UP = ((0, -1), (-1, 0))                 # 1R1W-SKSS (GRS + GCP chain)
DEPS_LEFT_UP_CORNER = ((0, -1), (-1, 0), (-1, -1))  # the GRS/GCS/GS family

#: Minimum tiles per run when splitting a tile row for dispatch.  Shredding
#: a row into short runs costs more in pool dispatch and per-run NumPy calls
#: than the extra concurrency recovers, so a row is split into at most
#: ``tile_cols // MIN_CHUNK_TILES`` runs (capped at the worker count, and
#: never zero).  Only split rows overlap: a whole row waits for the whole
#: row above it.
MIN_CHUNK_TILES = 16


@dataclass(frozen=True)
class Chunk:
    """A run of consecutive tiles ``T(row, J0) .. T(row, J1-1)`` of one tile
    row (the dispatch unit)."""

    index: int
    row: int
    J0: int
    J1: int
    #: Chunks holding consumer tiles of this chunk (always later in row-major
    #: order: retiring this chunk decrements each successor's counter).
    successors: tuple[int, ...] = ()
    #: Number of distinct other chunks holding producer tiles of this chunk.
    num_predecessors: int = 0

    @property
    def num_tiles(self) -> int:
        return self.J1 - self.J0

    @property
    def Is(self) -> np.ndarray:
        """Tile row of each tile (parallel to :attr:`Js`)."""
        return np.full(self.num_tiles, self.row, dtype=np.intp)

    @property
    def Js(self) -> np.ndarray:
        """Tile column of each tile, ascending."""
        return np.arange(self.J0, self.J1, dtype=np.intp)


@dataclass(frozen=True)
class WavefrontPlan:
    """Immutable row-run wavefront schedule for one tile-grid geometry."""

    grid: TileGrid
    deps: tuple[tuple[int, int], ...]
    workers: int
    #: The runs in row-major order, which is a topological order of the DAG.
    chunks: tuple[Chunk, ...]
    #: ``(tr, tc)`` chunk index owning each tile.
    chunk_id: np.ndarray
    #: ``(tr, tc)`` number of in-bounds producers per tile.
    deps_init: np.ndarray
    #: Per-chunk count of predecessor chunks (0 = dispatchable at once).
    #: Because chunks retire atomically, chunk readiness reduces to this
    #: chunk-level DAG — the scheduler's hot path decrements plain integers
    #: while the per-tile status words track the fine-grained protocol state.
    pending_init: np.ndarray

    @property
    def num_chunks(self) -> int:
        return len(self.chunks)

    def initial_status(self) -> np.ndarray:
        """Fresh per-tile status words for one execution."""
        status = np.full((self.grid.tile_rows, self.grid.tile_cols),
                         TILE_PENDING, dtype=np.int8)
        status[self.deps_init == 0] = TILE_READY
        return status

    def roots(self) -> list[int]:
        """Chunks dispatchable before any tile has retired."""
        return [c.index for c in self.chunks if c.num_predecessors == 0]


def split_row(tiles: int, parts: int,
              min_tiles: int = 1) -> list[tuple[int, int]]:
    """Split a row of ``tiles`` tiles into at most ``parts`` runs
    ``[J0, J1)`` of consecutive columns, each at least ``min_tiles`` long
    (except when the row itself is shorter)."""
    if parts <= 0:
        raise ConfigurationError("chunk count must be positive")
    if min_tiles > 1:
        parts = min(parts, max(1, tiles // min_tiles))
    parts = min(parts, tiles)
    size, extra = divmod(tiles, parts)
    out, lo = [], 0
    for p in range(parts):
        hi = lo + size + (1 if p < extra else 0)
        out.append((lo, hi))
        lo = hi
    return out


def build_plan(grid: TileGrid, deps: tuple[tuple[int, int], ...],
               workers: int) -> WavefrontPlan:
    """Construct the row-run wavefront plan for one tile grid."""
    workers = positive_int(workers, "workers")
    tr, tc = grid.tile_rows, grid.tile_cols
    runs = [(I, J0, J1) for I in range(tr)
            for J0, J1 in split_row(tc, workers, MIN_CHUNK_TILES)]
    chunk_id = np.empty((tr, tc), dtype=np.int32)
    for cid, (I, J0, J1) in enumerate(runs):
        chunk_id[I, J0:J1] = cid

    deps_init = np.zeros((tr, tc), dtype=np.int8)
    for dI, dJ in deps:
        # Tiles whose producer (I+dI, J+dJ) is in bounds gain one dependency.
        lo_i, lo_j = max(0, -dI), max(0, -dJ)
        deps_init[lo_i:, lo_j:] += 1

    # Collapse the tile dependencies onto the chunk DAG: chunk ``c`` precedes
    # chunk ``s`` when some tile of ``s`` consumes a tile of ``c``.  A run's
    # tiles also consume their left neighbours inside the run; the kernel
    # resolves those as a scan, so a run is never its own predecessor.
    predecessors: list[set[int]] = []
    for cid, (I, J0, J1) in enumerate(runs):
        found: set[int] = set()
        for dI, dJ in deps:
            pI, pJ0, pJ1 = I + dI, max(J0 + dJ, 0), J1 + dJ
            if pI >= 0 and pJ0 < pJ1:
                found.update(np.unique(chunk_id[pI, pJ0:pJ1]).tolist())
        found.discard(cid)
        predecessors.append(found)
    successors: list[list[int]] = [[] for _ in runs]
    for cid, preds in enumerate(predecessors):
        for p in preds:
            successors[p].append(cid)

    chunks = tuple(Chunk(index=cid, row=I, J0=J0, J1=J1,
                         successors=tuple(successors[cid]),
                         num_predecessors=len(predecessors[cid]))
                   for cid, (I, J0, J1) in enumerate(runs))
    pending_init = np.array([c.num_predecessors for c in chunks],
                            dtype=np.int64)
    return WavefrontPlan(grid=grid, deps=tuple(deps), workers=workers,
                         chunks=chunks, chunk_id=chunk_id,
                         deps_init=deps_init, pending_init=pending_init)
