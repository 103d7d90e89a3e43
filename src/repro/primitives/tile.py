"""Tile region-sum algebra (paper Table II and Figure 5).

A ``rows x cols`` matrix is partitioned into ``⌈rows/W⌉ x ⌈cols/W⌉`` tiles
``T(I, J)`` of ``W x W`` elements, ``T(I, J)`` holding ``a[W*I + i][W*J + j]``
for ``0 <= i, j < W``.  The paper assumes ``rows == cols == n`` with ``n`` a
multiple of ``W``; :class:`TileGrid` generalizes this to arbitrary rectangles
via the *virtual zero-padding convention*: a ragged edge tile is treated as a
full ``W x W`` tile whose out-of-matrix elements are zero.  Padding the
bottom/right with zeros changes no SAT value inside the valid region, so the
execution layers physically pad to ``(padded_rows, padded_cols)``, run the
unchanged tile algebra, and crop the output.

The paper's algorithms communicate through sums of regions anchored at tiles;
this module defines every one of them as a directly testable NumPy function,
used both as test oracles and as the host-path implementation of the
algorithms' dataflow.

Region glossary (all for tile ``T(I, J)``; vectors are length ``W``):

========= ==================================================================
``LRS``   local row sums — ``LRS[i]`` = sum of tile row ``i``
``LCS``   local column sums — ``LCS[j]`` = sum of tile column ``j``
``LS``    local sum — total of the tile (scalar)
``GRS``   global row sums — ``GRS[i]`` = sum of matrix row ``W*I+i`` over
          columns ``0 .. W*(J+1)-1`` (the tile row-strip up to and including
          tile column ``J``)
``GCS``   global column sums — ``GCS[j]`` = sum of matrix column ``W*J+j``
          over rows ``0 .. W*(I+1)-1``
``GS``    global sum — ``S[0 : W*(I+1)-1][0 : W*(J+1)-1]`` (scalar)
``GLS``   global L-shaped (gnomon) sum — ``GS(I, J) - GS(I-1, J-1)``
``GCP``   global column prefixes — bottom row of ``GSAT(I, J)``:
          ``GCP[j] = S[0 : W*(I+1)-1][0 : W*J+j]``
``GSAT``  the ``W x W`` block of the full SAT covering the tile
========= ==================================================================

Out-of-range tile indices (``I < 0`` or ``J < 0``) denote empty regions and
yield zeros, matching the boundary conventions of the algorithms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True, init=False)
class TileGrid:
    """Geometry of the tile decomposition of a ``rows x cols`` matrix.

    Construct with ``TileGrid(rows=..., cols=..., W=...)`` for rectangles or
    the legacy square form ``TileGrid(n=..., W=...)``.  Ragged shapes (sides
    not multiples of ``W``) are allowed: the grid covers the matrix with full
    ``W x W`` tiles under the zero-padding convention, and
    :meth:`tile_height` / :meth:`tile_width_at` report each tile's *valid*
    (in-matrix) extent.
    """

    rows: int
    cols: int
    W: int

    def __init__(self, rows: int | None = None, cols: int | None = None,
                 W: int | None = None, *, n: int | None = None) -> None:
        if n is not None:
            if rows is not None or cols is not None:
                raise ConfigurationError(
                    "pass either n= (square) or rows=/cols=, not both")
            rows = cols = n
        if rows is None or W is None:
            raise ConfigurationError("TileGrid needs rows (or n=) and W")
        if cols is None:
            cols = rows
        object.__setattr__(self, "rows", int(rows))
        object.__setattr__(self, "cols", int(cols))
        object.__setattr__(self, "W", int(W))
        if self.rows <= 0 or self.cols <= 0 or self.W <= 0:
            raise ConfigurationError("matrix and tile sizes must be positive")

    # -- geometry ---------------------------------------------------------------

    @property
    def n(self) -> int:
        """Side length of a square grid (legacy accessor)."""
        if self.rows != self.cols:
            raise ConfigurationError(
                f"grid is {self.rows}x{self.cols}; use rows/cols")
        return self.rows

    @property
    def tile_rows(self) -> int:
        """Number of tile rows (``⌈rows/W⌉``)."""
        return -(-self.rows // self.W)

    @property
    def tile_cols(self) -> int:
        """Number of tile columns (``⌈cols/W⌉``)."""
        return -(-self.cols // self.W)

    @property
    def padded_rows(self) -> int:
        """Row count after zero-padding to a whole number of tiles."""
        return self.tile_rows * self.W

    @property
    def padded_cols(self) -> int:
        return self.tile_cols * self.W

    @property
    def aligned(self) -> bool:
        """Whether both sides are already multiples of ``W`` (no padding)."""
        return self.rows == self.padded_rows and self.cols == self.padded_cols

    @property
    def tiles_per_side(self) -> int:
        """Tiles per side of a *square* grid (legacy accessor)."""
        if self.tile_rows != self.tile_cols:
            raise ConfigurationError(
                f"grid is {self.tile_rows}x{self.tile_cols} tiles; "
                "use tile_rows/tile_cols")
        return self.tile_rows

    @property
    def num_tiles(self) -> int:
        return self.tile_rows * self.tile_cols

    @property
    def num_diagonals(self) -> int:
        """Number of anti-diagonals of tiles (``tile_rows + tile_cols - 1``)."""
        return self.tile_rows + self.tile_cols - 1

    def tile_height(self, I: int) -> int:
        """Valid (in-matrix) height of the tiles in tile row ``I``."""
        self.check_tile(I, 0)
        return min(self.W, self.rows - self.W * I)

    def tile_width_at(self, J: int) -> int:
        """Valid (in-matrix) width of the tiles in tile column ``J``."""
        self.check_tile(0, J)
        return min(self.W, self.cols - self.W * J)

    def tile_slice(self, I: int, J: int) -> tuple[slice, slice]:
        """Array slices selecting tile ``T(I, J)`` from the (padded) matrix."""
        self.check_tile(I, J)
        return (slice(self.W * I, self.W * (I + 1)),
                slice(self.W * J, self.W * (J + 1)))

    def check_tile(self, I: int, J: int) -> None:
        if not (0 <= I < self.tile_rows and 0 <= J < self.tile_cols):
            raise ConfigurationError(
                f"tile ({I}, {J}) out of range for a "
                f"{self.tile_rows}x{self.tile_cols} tile grid")

    def tiles_on_diagonal(self, K: int) -> list[tuple[int, int]]:
        """Tiles ``T(I, J)`` with ``I + J == K`` (the wavefront of kernel K in 1R1W)."""
        tr, tc = self.tile_rows, self.tile_cols
        if not (0 <= K < self.num_diagonals):
            raise ConfigurationError(f"diagonal {K} out of range")
        return [(I, K - I)
                for I in range(max(0, K - tc + 1), min(tr - 1, K) + 1)]

    def all_tiles(self) -> list[tuple[int, int]]:
        return [(I, J) for I in range(self.tile_rows)
                for J in range(self.tile_cols)]


def sum_dtype(a: np.ndarray) -> np.dtype | None:
    """The ``dtype=`` that keeps sums and prefix sums of ``a`` in its own
    integer dtype (``None``, NumPy's default, for floats and bool).

    NumPy widens ``sum`` and ``cumsum`` of narrow integers to 64 bits, and a
    carry built that way no longer fits the narrow plane it is stored back
    into.  Integer addition wraps alike in any order, so sums kept in the
    accumulator dtype give the table modulo ``2**bits``, as the engines do.
    """
    return a.dtype if a.dtype.kind in "iu" else None


def tile_view(a: np.ndarray, grid: TileGrid, I: int, J: int) -> np.ndarray:
    """View of tile ``T(I, J)`` in the matrix (no copy)."""
    return a[grid.tile_slice(I, J)]


# -- Table II region sums (oracles / host dataflow) ---------------------------


def local_row_sums(a: np.ndarray, grid: TileGrid, I: int, J: int) -> np.ndarray:
    """``LRS(I, J)``: length-``W`` vector of tile-row sums."""
    return tile_view(a, grid, I, J).sum(axis=1)


def local_col_sums(a: np.ndarray, grid: TileGrid, I: int, J: int) -> np.ndarray:
    """``LCS(I, J)``: length-``W`` vector of tile-column sums."""
    return tile_view(a, grid, I, J).sum(axis=0)


def local_sum(a: np.ndarray, grid: TileGrid, I: int, J: int):
    """``LS(I, J)``: scalar sum of the tile."""
    return tile_view(a, grid, I, J).sum()


def global_row_sums(a: np.ndarray, grid: TileGrid, I: int, J: int) -> np.ndarray:
    """``GRS(I, J)``: row sums over columns ``0 .. W*(J+1)-1`` for the tile's rows.

    ``J < 0`` yields zeros (empty strip), so ``GRS(I, J) = GRS(I, J-1) +
    LRS(I, J)`` holds for every ``J >= 0`` — the pairwise-sum recurrence the
    look-back walks (Figure 10).
    """
    if J < 0:
        return np.zeros(grid.W, dtype=a.dtype)
    grid.check_tile(I, J)
    rows = slice(grid.W * I, grid.W * (I + 1))
    return a[rows, : grid.W * (J + 1)].sum(axis=1)


def global_col_sums(a: np.ndarray, grid: TileGrid, I: int, J: int) -> np.ndarray:
    """``GCS(I, J)``: column sums over rows ``0 .. W*(I+1)-1`` for the tile's columns."""
    if I < 0:
        return np.zeros(grid.W, dtype=a.dtype)
    grid.check_tile(I, J)
    cols = slice(grid.W * J, grid.W * (J + 1))
    return a[: grid.W * (I + 1), cols].sum(axis=0)


def global_sum(a: np.ndarray, grid: TileGrid, I: int, J: int):
    """``GS(I, J)``: total of the rectangle of tiles up to and including ``(I, J)``."""
    if I < 0 or J < 0:
        return a.dtype.type(0)
    grid.check_tile(I, J)
    return a[: grid.W * (I + 1), : grid.W * (J + 1)].sum()


def global_l_sum(a: np.ndarray, grid: TileGrid, I: int, J: int):
    """``GLS(I, J)``: gnomon sum, ``GS(I, J) - GS(I-1, J-1)``.

    Equals the sum of the three Step-3.1 vectors of the SKSS-LB algorithm:
    ``sum(GRS(I, J-1)) + sum(GCS(I-1, J)) + sum(LRS(I, J))`` (Figure 11).
    """
    return global_sum(a, grid, I, J) - global_sum(a, grid, I - 1, J - 1)


def global_col_prefixes(a: np.ndarray, grid: TileGrid, I: int, J: int) -> np.ndarray:
    """``GCP(I, J)``: bottom row of ``GSAT(I, J)``.

    ``GCP[j] = S[0 : W*(I+1)-1][0 : W*J+j]``.  ``I < 0`` yields zeros.
    """
    if I < 0:
        return np.zeros(grid.W, dtype=a.dtype)
    grid.check_tile(I, J)
    block = a[: grid.W * (I + 1), : grid.W * (J + 1)]
    return block.sum(axis=0).cumsum()[grid.W * J:]


def global_sat_tile(a: np.ndarray, grid: TileGrid, I: int, J: int) -> np.ndarray:
    """``GSAT(I, J)``: the ``W x W`` block of the full SAT covering ``T(I, J)``."""
    grid.check_tile(I, J)
    block = a[: grid.W * (I + 1), : grid.W * (J + 1)]
    sat = block.cumsum(axis=0).cumsum(axis=1)
    return sat[grid.W * I:, grid.W * J:]


def assemble_gsat_tile(tile: np.ndarray, grs_left: np.ndarray,
                       gcs_above: np.ndarray, gs_corner) -> np.ndarray:
    """Compute ``GSAT(I, J)`` from the tile and its three boundary terms.

    This is the shared-memory SAT step of the 1R1W family (Section III.B,
    reused in SKSS-LB Step 4): ``GRS(I, J-1)`` is added to the leftmost
    column, ``GCS(I-1, J)`` to the topmost row, and ``GS(I-1, J-1)`` to the
    top-left element, *before* the row-wise then column-wise prefix sums.
    """
    work = np.array(tile, copy=True)
    work[:, 0] += grs_left
    work[0, :] += gcs_above
    # A one-element slice, not work[0, 0]: array adds wrap silently where
    # NumPy scalar adds warn on overflow.
    work[0, :1] += gs_corner
    acc = sum_dtype(work)
    return work.cumsum(axis=1, dtype=acc).cumsum(axis=0, dtype=acc)


def assemble_gsat_tile_skss(tile: np.ndarray, grs_left: np.ndarray,
                            gcp_above: np.ndarray) -> np.ndarray:
    """``GSAT(I, J)`` the 1R1W-SKSS way (Section III.C).

    ``GRS(I, J-1)`` is added to the leftmost column, the row-wise prefix sums
    are computed, ``GCP(I-1, J)`` (the bottom row of the tile above's GSAT,
    which the same block just produced) is added to the topmost row of the
    *result*, and finally the column-wise prefix sums are computed.
    """
    work = np.array(tile, copy=True)
    work[:, 0] += grs_left
    acc = sum_dtype(work)
    work = work.cumsum(axis=1, dtype=acc)
    work[0, :] += gcp_above
    return work.cumsum(axis=0, dtype=acc)
