"""Out-of-core SAT: matrices larger than device memory (extension).

The paper's evaluation stops at 32K x 32K because a 4-byte 32K² matrix plus
its SAT fills the TITAN V's 12 GB.  This module removes that limit: the
matrix is processed in horizontal *bands* of rows; each band's SAT is
computed by any of the seven algorithms (on the simulator or the host path),
and a carry vector of accumulated column sums stitches bands together:

    full_sat[i][j]   = band_sat[i][j] + carry_prefix[j]
    carry_prefix[j]  = sum_{j' <= j} (column j' summed over all rows above)

which is exactly the tile algebra's GCP identity lifted to band granularity.
Only one band plus two length-``n`` vectors is ever resident.

The identity is written once, as :func:`stitch_band`; the whole-matrix
helper, the streaming :class:`OutOfCoreSAT` and the sharded workers of
:mod:`repro.distsat` all call it.  Likewise the four-corner query over
retained SAT rows is written once, as :func:`rect_sum_from_rows`, which
answers :meth:`OutOfCoreSAT.rect_sum` and
:meth:`repro.distsat.DistributedResult.rect_sum` alike.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

import numpy as np

from repro.backend.core import positive_int
from repro.errors import ConfigurationError
from repro.sat.dtypes import resolve_policy
from repro.sat.registry import get_algorithm


def band_bounds(n_rows: int, band_rows: int) -> list[tuple[int, int]]:
    """Half-open row ranges of each band."""
    band_rows = positive_int(band_rows, "band_rows")
    return [(lo, min(n_rows, lo + band_rows))
            for lo in range(0, n_rows, band_rows)]


def stitch_band(band_sat: np.ndarray, band: np.ndarray,
                carry: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The band identity: one band's rows of the global SAT.

    ``band_sat`` is the band's local SAT and ``carry`` the column sums of
    every row above the band, in the accumulator dtype.  Returns
    ``(rows, carry)``: ``rows = band_sat + cumsum(carry)``, a fresh
    C-contiguous array (its buffer can be checksummed as is), and the carry
    advanced past ``band``.  Neither input is modified.
    """
    acc = carry.dtype
    rows = np.add(band_sat, np.cumsum(carry, dtype=acc), order="C")
    return rows, carry + band.sum(axis=0, dtype=acc)


def rect_sum_from_rows(row, top: int, left: int, bottom: int, right: int):
    """Inclusive rectangle sum by the four-corner formula over SAT rows.

    ``row(i)`` returns global SAT row ``i`` or raises
    :class:`~repro.errors.ConfigurationError` when that row is not held;
    at most two rows are looked up.  Unordered or out-of-range corners raise
    ``ConfigurationError`` too.  The sum is in the rows' own dtype, so
    integer tables stay exact.
    """
    if not (0 <= top <= bottom and 0 <= left <= right):
        raise ConfigurationError(
            f"invalid rectangle ({top},{left})..({bottom},{right}): "
            "corners must be ordered and non-negative")
    lo = row(bottom)
    if right >= lo.shape[0]:
        raise ConfigurationError(
            f"invalid rectangle ({top},{left})..({bottom},{right}): "
            f"the table has {lo.shape[0]} columns")

    def strip(r: np.ndarray):
        # Columns left..right of one SAT row; taking each row's strip
        # first keeps unsigned partial sums from dropping below zero.
        return r[right] - r[left - 1] if left > 0 else r[right]

    total = strip(lo)
    if top > 0:
        total = total - strip(row(top - 1))
    return total


def out_of_core_sat(a: np.ndarray, *, band_rows: int,
                    algorithm: str | None = None, tile_width: int = 32,
                    gpu_factory=None, dtype_policy=None) -> np.ndarray:
    """Compute the SAT of ``a`` band by band.

    ``algorithm`` selects the per-band SAT engine (``None`` = NumPy
    reference).  With an algorithm name, bands are computed by that
    algorithm's serial host loop, or on fresh simulator instances produced
    by ``gpu_factory()`` when given.  Bands may be any rectangle — ragged
    tile edges follow the zero-padding convention of :mod:`repro.sat.base`.
    The ``distributed`` backend with one shard and ``band_rows`` chunks
    produces the same table behind the plan/execute protocol.

    ``dtype_policy`` resolves the accumulator dtype (:mod:`repro.sat.dtypes`;
    exact by default) — the carry vectors accumulate in that dtype too, so
    integer inputs stitch exactly.
    """
    a = np.asarray(a)
    if a.ndim != 2:
        raise ConfigurationError("out_of_core_sat expects a 2-D matrix")
    acc = resolve_policy(dtype_policy).accumulator(a.dtype)
    bounds = band_bounds(a.shape[0], band_rows)
    out = np.empty(a.shape, dtype=acc)
    carry = np.zeros(a.shape[1], dtype=acc)
    for lo, hi in bounds:
        band = a[lo:hi]
        band_sat = _band_engine(band, algorithm, tile_width, gpu_factory,
                                acc)
        out[lo:hi], carry = stitch_band(band_sat, band, carry)
    return out


def _band_engine(band: np.ndarray, algorithm: str | None, tile_width: int,
                 gpu_factory, acc: np.dtype) -> np.ndarray:
    if gpu_factory is not None:
        if algorithm is None:
            return band.astype(acc, copy=False).cumsum(axis=0).cumsum(axis=1)
        alg = get_algorithm(algorithm, tile_width=tile_width)
        return alg.run(band, gpu_factory(), dtype_policy=acc).sat
    from repro.backend.registry import get_backend
    return get_backend("serial").compute(band, algorithm=algorithm,
                                         tile_width=tile_width,
                                         dtype_policy=acc)


@dataclass
class OutOfCoreSAT:
    """Streaming SAT over row bands with O(1) rectangle queries.

    Feed bands top to bottom with :meth:`push_band`; query any rectangle
    whose bottom row has already been pushed with :meth:`rect_sum`.

    With ``keep_sat=True`` (default) the assembled SAT rows are retained and
    queries are four lookups.  With ``keep_sat=False`` only the per-band
    bottom SAT rows are retained (O(n) per band instead of O(n·band)), and
    queries must be row-aligned to band boundaries.
    """

    n_cols: int
    keep_sat: bool = True
    dtype: np.dtype = np.dtype(np.float64)
    _rows_done: int = 0
    _carry: np.ndarray = field(default=None)  # type: ignore[assignment]
    #: Retained SAT rows of each band, keyed by the band's bottom row: the
    #: whole band with ``keep_sat``, else that bottom row alone.
    _rows: dict[int, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n_cols <= 0:
            raise ConfigurationError("n_cols must be positive")
        self.dtype = np.dtype(self.dtype)
        # The carry accumulates in the dtype of the bands' cumsum SAT (the
        # platform integer for narrower integers and bool), so column sums
        # past the input dtype's range stay exact.
        acc = np.zeros(1, dtype=self.dtype).cumsum().dtype
        self._carry = np.zeros(self.n_cols, dtype=acc)

    @property
    def rows_done(self) -> int:
        return self._rows_done

    def push_band(self, band: np.ndarray, *,
                  row_start: int | None = None) -> np.ndarray:
        """Consume the next band of rows; returns that band's SAT rows.

        Bands must arrive top to bottom with no gap and no overlap — the
        carry vector is a running column sum, so any other order silently
        corrupts every later stitch.  Callers that track absolute row
        positions should pass ``row_start`` (the band's first image row):
        a band that does not continue exactly at ``rows_done`` is rejected
        with a :class:`~repro.errors.ConfigurationError` naming the overlap
        or the gap instead of producing wrong sums.
        """
        band = np.asarray(band)
        if band.ndim != 2 or band.shape[1] != self.n_cols:
            raise ConfigurationError(
                f"band must be 2-D with {self.n_cols} columns, "
                f"got shape {band.shape}")
        if band.shape[0] == 0:
            raise ConfigurationError("band must have at least one row")
        if row_start is not None and row_start != self._rows_done:
            if row_start < self._rows_done:
                raise ConfigurationError(
                    f"band starting at row {row_start} overlaps rows already "
                    f"pushed (next expected row is {self._rows_done}); bands "
                    "must be pushed top to bottom exactly once")
            raise ConfigurationError(
                f"band starting at row {row_start} leaves a gap: rows "
                f"{self._rows_done}..{row_start - 1} have not been pushed "
                "yet; bands must be pushed top to bottom with no gap")
        band = band.astype(self.dtype, copy=False)
        full, self._carry = stitch_band(band.cumsum(axis=0).cumsum(axis=1),
                                        band, self._carry)
        self._rows_done += band.shape[0]
        self._rows[self._rows_done - 1] = full if self.keep_sat \
            else full[-1:].copy()
        return full

    def sat(self) -> np.ndarray:
        """The assembled SAT so far (requires ``keep_sat=True``)."""
        if not self.keep_sat:
            raise ConfigurationError("sat() requires keep_sat=True")
        if not self._rows:
            return np.zeros((0, self.n_cols), dtype=self.dtype)
        return np.vstack(list(self._rows.values()))

    def _sat_row(self, i: int) -> np.ndarray:
        if i >= self._rows_done:
            raise ConfigurationError(
                f"row {i} has not been pushed yet "
                f"(rows pushed so far: {self._rows_done})")
        edges = list(self._rows)
        bottom = edges[bisect.bisect_left(edges, i)]   # the band holding i
        rows = self._rows[bottom]
        if bottom - i >= len(rows):
            raise ConfigurationError(
                f"keep_sat=False retains only band-edge rows {edges}; "
                f"row {i} is unavailable")
        return rows[len(rows) - 1 - (bottom - i)]

    def rect_sum(self, top: int, left: int, bottom: int, right: int):
        """Four-corner rectangle sum over pushed rows, in the table's
        dtype."""
        return rect_sum_from_rows(self._sat_row, top, left, bottom, right)
