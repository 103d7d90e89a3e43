"""Row-run kernels: the tile algebra of each algorithm over one tile-row run.

Each kernel executes one :class:`~repro.hostexec.plan.Chunk` — consecutive
tiles ``T(I, J0) .. T(I, J1-1)`` of one tile row — for its algorithm,
producing exactly the same published quantities (and in exactly the same
floating-point order) as that algorithm's serial ``_run_host`` loop, but in a
handful of NumPy calls over the whole run instead of ``J1 - J0`` trips
through the interpreter.  That batching is where the engine's single-core
speedup comes from; bit-identity is what lets the wavefront engine replace
the serial path under the tests.

A run is one contiguous ``W x (J1-J0)·W`` block of the matrix.  Each kernel
copies it from the input view ``a4`` into the result view
``out4[I, :, J0:J1, :]`` — casting to the accumulator dtype on the way — and
assembles the GSAT tiles there in place.  The in-row look-back (GRS of tile
``J`` is GRS of tile ``J-1`` plus LRS of tile ``J``) is the same sequential
recurrence the serial loop runs, resolved for the whole run by one
``np.cumsum`` seeded with the carry at ``J0-1`` (2R1W's GS chain likewise);
the in-tile column prefix is ``W-1`` row adds over the run.

Bit-identity holds because every per-tile operation maps to an elementwise or
per-lane operation with an unchanged reduction order: ``cumsum`` and the row
adds are strictly sequential recurrences per lane, a sum over tile columns
adds rows one after another, and NumPy's pairwise ``sum`` over a contiguous
axis depends only on the reduced length ``W``, not on the strides or the
number of tiles in the run.  The equivalence tests assert ``np.array_equal``
(not ``allclose``) against the serial path for every algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.errors import ConfigurationError
from repro.hostexec.plan import DEPS_LEFT_UP, DEPS_LEFT_UP_CORNER, Chunk


@dataclass
class CarryPlanes:
    """Preallocated inter-tile carry planes, reused across repeated calls.

    ``vec_row``/``vec_col`` hold the GRS / GCS planes (``vec_col`` doubles as
    the GCP plane for 1R1W-SKSS); ``scal`` holds GS and ``scal2`` the 2R1W
    column-carry of the tile-sum SAT.  Planes are allocated in the run's
    accumulator dtype so carries never round-trip through a wider type.
    Planes are never cleared between calls: the wavefront order guarantees
    every entry a kernel reads was written earlier in the *same* call, and
    border tiles read synthesised zeros instead of the planes.
    """

    tr: int
    tc: int
    W: int
    dtype: np.dtype = np.dtype(np.float64)
    vec_row: np.ndarray = field(init=False)
    vec_col: np.ndarray = field(init=False)
    scal: np.ndarray = field(init=False)
    scal2: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.vec_row = np.empty((self.tr, self.tc, self.W), dtype=self.dtype)
        self.vec_col = np.empty((self.tr, self.tc, self.W), dtype=self.dtype)
        self.scal = np.empty((self.tr, self.tc), dtype=self.dtype)
        self.scal2 = np.empty((self.tr, self.tc), dtype=self.dtype)


def _load_run(a4: np.ndarray, out4: np.ndarray, chunk: Chunk) -> np.ndarray:
    """Copy the run's tiles into ``out4``; return the ``(W, k, W)`` view
    ``[tile row i, tile, tile column j]`` the kernel then works on in place."""
    run = out4[chunk.row, :, chunk.J0:chunk.J1, :]
    run[...] = a4[chunk.row, :, chunk.J0:chunk.J1, :]
    return run


def _row_sums(run: np.ndarray) -> np.ndarray:
    """LRS of each tile of the run, ``(k, W)`` C-contiguous (so a later
    per-tile ``sum`` reduces a contiguous axis, as the serial path does)."""
    return np.ascontiguousarray(run.sum(axis=2).T)


def _scan(seed, local: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """A carry chain along one tile row as one cumsum: ``chain[0] = seed``
    and ``chain[m+1] = chain[m] + local[m]``, so ``chain[:-1]`` is each
    tile's left carry and ``chain[1:]`` its own.

    ``seed=None`` starts a chain at the row's first tile with the value
    ``local[0]`` itself (``chain[0]`` is zero), as a whole-row ``cumsum``
    does; a seed of ``0`` adds it (``0 + local[0]``), as the look-back
    dataflows do.
    """
    chain = np.empty((len(local) + 1,) + local.shape[1:], dtype=dtype)
    chain[1:] = local
    if seed is None:
        chain[0] = 0
        np.cumsum(chain[1:], axis=0, out=chain[1:])
    else:
        chain[0] = seed
        np.cumsum(chain, axis=0, out=chain)
    return chain


def _above(plane: np.ndarray, chunk: Chunk) -> np.ndarray:
    """The run's up-neighbour entries of a vector plane (zeros in row 0)."""
    if chunk.row:
        return plane[chunk.row - 1, chunk.J0:chunk.J1]
    return np.zeros((chunk.num_tiles,) + plane.shape[2:], dtype=plane.dtype)


def _corner(gs: np.ndarray, chunk: Chunk) -> np.ndarray:
    """``GS(I-1, J-1)`` for each tile of the run (zero off the grid)."""
    I, J0, J1 = chunk.row, chunk.J0, chunk.J1
    if I and J0:
        return gs[I - 1, J0 - 1:J1 - 1]
    corner = np.zeros(J1 - J0, dtype=gs.dtype)
    if I:
        corner[1:] = gs[I - 1, :J1 - 1]
    return corner


def _column_prefix(run: np.ndarray) -> None:
    """In-place prefix over the run's tile rows: ``W-1`` row adds."""
    for i in range(1, run.shape[0]):
        run[i] += run[i - 1]


def _assemble_run(run: np.ndarray, grs_left: np.ndarray,
                  gcs_above: np.ndarray, gs_corner: np.ndarray) -> None:
    """In-place :func:`~repro.primitives.tile.assemble_gsat_tile` of every
    tile of the run."""
    run[:, :, 0] += grs_left.T
    run[0] += gcs_above
    run[0, :, 0] += gs_corner
    np.cumsum(run, axis=2, out=run)
    _column_prefix(run)


def chunk_skss_lb(a4: np.ndarray, out4: np.ndarray, carry: CarryPlanes,
                  chunk: Chunk, W: int) -> None:
    """1R1W-SKSS-LB dataflow: GS built from the corner plus the gnomon GLS."""
    I, J0, J1 = chunk.row, chunk.J0, chunk.J1
    grs, gcs, gs = carry.vec_row, carry.vec_col, carry.scal
    run = _load_run(a4, out4, chunk)
    lrs = _row_sums(run)
    lcs = run.sum(axis=0)
    chain = _scan(grs[I, J0 - 1] if J0 else 0, lrs, grs.dtype)
    grs_left = chain[:-1]
    gcs_above = _above(gcs, chunk)
    gs_corner = _corner(gs, chunk)
    grs[I, J0:J1] = chain[1:]
    gcs[I, J0:J1] = gcs_above + lcs
    gls = grs_left.sum(axis=1) + gcs_above.sum(axis=1) + lrs.sum(axis=1)
    gs[I, J0:J1] = gs_corner + gls
    _assemble_run(run, grs_left, gcs_above, gs_corner)


def chunk_wavefront_corner(a4: np.ndarray, out4: np.ndarray,
                           carry: CarryPlanes, chunk: Chunk, W: int) -> None:
    """1R1W / (1+r)R1W dataflow: GS read off the assembled GSAT corner."""
    I, J0, J1 = chunk.row, chunk.J0, chunk.J1
    grs, gcs, gs = carry.vec_row, carry.vec_col, carry.scal
    run = _load_run(a4, out4, chunk)
    chain = _scan(grs[I, J0 - 1] if J0 else 0, _row_sums(run), grs.dtype)
    gcs_above = _above(gcs, chunk)
    grs[I, J0:J1] = chain[1:]
    gcs[I, J0:J1] = gcs_above + run.sum(axis=0)
    _assemble_run(run, chain[:-1], gcs_above, _corner(gs, chunk))
    gs[I, J0:J1] = run[-1, :, -1]


def chunk_skss(a4: np.ndarray, out4: np.ndarray, carry: CarryPlanes,
               chunk: Chunk, W: int) -> None:
    """1R1W-SKSS dataflow: GRS hand-off left, GCP (GSAT bottom row) down."""
    I, J0, J1 = chunk.row, chunk.J0, chunk.J1
    grs, gcp = carry.vec_row, carry.vec_col
    run = _load_run(a4, out4, chunk)
    chain = _scan(grs[I, J0 - 1] if J0 else 0, _row_sums(run), grs.dtype)
    grs[I, J0:J1] = chain[1:]
    run[:, :, 0] += chain[:-1].T
    np.cumsum(run, axis=2, out=run)
    run[0] += _above(gcp, chunk)
    _column_prefix(run)
    gcp[I, J0:J1] = run[-1]


def chunk_nehab(a4: np.ndarray, out4: np.ndarray, carry: CarryPlanes,
                chunk: Chunk, W: int) -> None:
    """2R1W dataflow, cumsum-faithful: the serial path builds GRS/GCS/GS with
    whole-array ``cumsum`` calls whose *first* element is a copy (no ``0 + x``
    add), so border tiles store their local sums verbatim here too."""
    I, J0, J1 = chunk.row, chunk.J0, chunk.J1
    grs, gcs, gs, gs_col = carry.vec_row, carry.vec_col, carry.scal, carry.scal2
    run = _load_run(a4, out4, chunk)
    lcs = run.sum(axis=0)
    ls = lcs.sum(axis=1)
    chain = _scan(grs[I, J0 - 1] if J0 else None, _row_sums(run), grs.dtype)
    grs[I, J0:J1] = chain[1:]
    gcs_above = _above(gcs, chunk)
    gcs[I, J0:J1] = gcs_above + lcs if I else lcs
    col = gs_col[I - 1, J0:J1] + ls if I else ls
    gs_col[I, J0:J1] = col
    gs[I, J0:J1] = _scan(gs[I, J0 - 1] if J0 else None, col, gs.dtype)[1:]
    _assemble_run(run, chain[:-1], gcs_above, _corner(gs, chunk))


@dataclass(frozen=True)
class KernelSpec:
    """A row-run kernel plus the dependency offsets of the tiles it reads."""

    name: str
    run: Callable[[np.ndarray, np.ndarray, CarryPlanes, Chunk, int], None]
    deps: tuple[tuple[int, int], ...]


#: Row-run kernels by canonical algorithm name (the tile-based five).
KERNELS: dict[str, KernelSpec] = {
    "2R1W": KernelSpec("2R1W", chunk_nehab, DEPS_LEFT_UP_CORNER),
    "1R1W": KernelSpec("1R1W", chunk_wavefront_corner, DEPS_LEFT_UP_CORNER),
    "(1+r)R1W": KernelSpec("(1+r)R1W", chunk_wavefront_corner,
                           DEPS_LEFT_UP_CORNER),
    "1R1W-SKSS": KernelSpec("1R1W-SKSS", chunk_skss, DEPS_LEFT_UP),
    "1R1W-SKSS-LB": KernelSpec("1R1W-SKSS-LB", chunk_skss_lb,
                               DEPS_LEFT_UP_CORNER),
}


def kernel_for(algorithm: str) -> KernelSpec:
    """Resolve an algorithm name (or registry alias) to its row-run kernel."""
    from repro.sat.registry import get_algorithm
    canonical = get_algorithm(algorithm).name \
        if algorithm not in KERNELS else algorithm
    spec = KERNELS.get(canonical)
    if spec is None:
        raise ConfigurationError(
            f"algorithm '{algorithm}' has no tile dataflow; the wavefront "
            f"engine supports {sorted(KERNELS)}")
    return spec
