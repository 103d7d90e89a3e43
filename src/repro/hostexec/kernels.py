"""Row-run kernels: the SAT of one tile-row run and the carries it publishes.

Each kernel executes one :class:`~repro.hostexec.plan.Chunk` — consecutive
tiles ``T(I, J0) .. T(I, J1-1)`` of one tile row — in a handful of NumPy
calls over the whole run instead of ``J1 - J0`` trips through the
interpreter.  That batching is where the engine's single-core speedup comes
from; bit-identity with each algorithm's serial ``_run_host`` loop is what
lets the wavefront engine replace the serial path under the tests.

A run is one contiguous ``W x (J1-J0)·W`` block of the matrix.  Each kernel
copies it from the input view ``a4`` into the result view
``out4[I, :, J0:J1, :]`` — casting to the accumulator dtype on the way — and
finishes the SAT there in place.  Which kernel runs depends on the
accumulator dtype, and each registered :attr:`KernelSpec.run` makes that
switch itself, so every caller (the wavefront engine, incremental repair,
the distsat bands) reaches the right one unchanged:

Integer accumulators — one exact kernel for all five algorithms
    (:func:`chunk_exact`).  Integer addition wraps modulo ``2**bits`` and is
    associative there, so any order of the same additions gives the same
    bits, wrap-around included.  The run takes one ``np.cumsum`` along each
    of its ``W`` rows (``(J1-J0)·W`` elements long, seeded at column 0 with
    ``GRS(I, J0-1)``), the SAT row directly above the run (produced by the
    up dependency) is added to its first row, and ``W-1`` row adds finish
    the column prefix.  Every carry plane is then read off the finished
    run, in the accumulator dtype:

    * GRS — the tile-end columns of the row scan;
    * GCS — the first difference of the run's bottom SAT row, seeded with
      ``SAT(bottom, J0·W-1)`` from the left dependency;
    * GS — the tiles' bottom-right corners;
    * 2R1W's column-accumulated GS chain — the first difference of GS;
    * 1R1W-SKSS's GCP — the bottom SAT row itself.

Float accumulators — each algorithm's own dataflow
    (:func:`chunk_skss_lb`, :func:`chunk_wavefront_corner`,
    :func:`chunk_skss`, :func:`chunk_nehab`), in exactly the serial loop's
    floating-point order.  The in-row look-back (GRS of tile ``J`` is GRS of
    tile ``J-1`` plus LRS of tile ``J``) is the serial recurrence, resolved
    for the whole run by one ``np.cumsum`` seeded with the carry at ``J0-1``
    (2R1W's GS chain likewise); the in-tile row prefix is one ``cumsum`` of
    ``W``-element lanes and the column prefix is ``W-1`` row adds.  Every
    per-tile operation maps to an elementwise or per-lane operation with an
    unchanged reduction order: ``cumsum`` and the row adds are strictly
    sequential per lane, a sum over tile columns adds rows one after
    another, and NumPy's pairwise ``sum`` over a contiguous axis depends
    only on the reduced length ``W``, not on the strides or the number of
    tiles in the run.  numcheck's rounding proofs and the serial float
    order depend on these kernels exactly as they are.

Non-finite floats follow the rule every backend shares: a NaN or ±inf input
element makes the SAT entries at and down-right of it non-finite (NaN where
a +inf and a -inf quadrant overlap).

The equivalence tests assert ``np.array_equal`` (not ``allclose``) against
the serial path for every algorithm and dtype.
"""

from __future__ import annotations

import functools
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


def _differences(row: np.ndarray, first: int, stop: int,
                 step: int) -> np.ndarray:
    """``row[first:stop:step]`` minus the entry ``step`` before each, reading
    the entry before ``row[0]`` as zero.

    Exact first differences in ``row``'s own dtype: ``np.diff(x, prepend=0)``
    would promote a ``uint64`` row to ``float64``.
    """
    cur = row[first:stop:step]
    if first < step:   # the run starts the row
        diff = cur.copy()
        diff[1:] -= cur[:-1]
        return diff
    return cur - row[first - step:stop - step:step]


def chunk_exact(a4: np.ndarray, out4: np.ndarray, carry: CarryPlanes,
                chunk: Chunk, W: int, *, gcp: bool = False,
                gs_col: bool = False) -> None:
    """Integer accumulators, every algorithm: a whole-run row scan, then the
    carry planes read off the finished SAT (GRS/GCS/GS, plus 2R1W's GS
    column chain with ``gs_col``; GRS/GCP with ``gcp``)."""
    I, J0, J1 = chunk.row, chunk.J0, chunk.J1
    grs = carry.vec_row
    run = _load_run(a4, out4, chunk)
    rows = run.reshape(W, -1)
    if J0:
        rows[:, 0] += grs[I, J0 - 1]
    np.cumsum(rows, axis=1, out=rows)
    # GRS is the row scan at each tile's last column, read before the SAT
    # row above joins row 0.
    grs[I, J0:J1] = run[:, :, W - 1].T
    if I:
        run[0] += out4[I - 1, W - 1, J0:J1]
    _column_prefix(run)
    if gcp:
        carry.vec_col[I, J0:J1] = run[W - 1]
        return
    # The whole SAT row at the run's foot: entry lo - 1 belongs to the left
    # neighbour tile, already DONE.
    bottom = out4[I, W - 1].reshape(-1)
    lo, hi = J0 * W, J1 * W
    carry.vec_col[I, J0:J1] = _differences(bottom, lo, hi, 1).reshape(-1, W)
    carry.scal[I, J0:J1] = bottom[lo + W - 1:hi:W]
    if gs_col:
        carry.scal2[I, J0:J1] = _differences(bottom, lo + W - 1, hi, W)


def _exact_for_integers(kernel: Callable[..., None],
                        **planes: bool) -> Callable[..., None]:
    """``kernel`` for float accumulators, :func:`chunk_exact` (publishing
    ``planes``) for integer ones."""
    @functools.wraps(kernel)
    def run(a4: np.ndarray, out4: np.ndarray, carry: CarryPlanes,
            chunk: Chunk, W: int) -> None:
        if out4.dtype.kind in "iu":
            chunk_exact(a4, out4, carry, chunk, W, **planes)
        else:
            kernel(a4, out4, carry, chunk, W)
    return run


@dataclass(frozen=True)
class KernelSpec:
    """A row-run kernel plus the dependency offsets of the tiles it reads."""

    name: str
    run: Callable[[np.ndarray, np.ndarray, CarryPlanes, Chunk, int], None]
    deps: tuple[tuple[int, int], ...]


#: Row-run kernels by canonical algorithm name (the tile-based five).
KERNELS: dict[str, KernelSpec] = {
    "2R1W": KernelSpec("2R1W", _exact_for_integers(chunk_nehab, gs_col=True),
                       DEPS_LEFT_UP_CORNER),
    "1R1W": KernelSpec("1R1W", _exact_for_integers(chunk_wavefront_corner),
                       DEPS_LEFT_UP_CORNER),
    "(1+r)R1W": KernelSpec("(1+r)R1W",
                           _exact_for_integers(chunk_wavefront_corner),
                           DEPS_LEFT_UP_CORNER),
    "1R1W-SKSS": KernelSpec("1R1W-SKSS",
                            _exact_for_integers(chunk_skss, gcp=True),
                            DEPS_LEFT_UP),
    "1R1W-SKSS-LB": KernelSpec("1R1W-SKSS-LB",
                               _exact_for_integers(chunk_skss_lb),
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
