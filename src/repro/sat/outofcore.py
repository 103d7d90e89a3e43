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

``OutOfCoreSAT`` also exposes streaming rectangle queries: the per-band
bottom rows (``band_gcp``) are retained, so any rectangle sum can be answered
from at most two retained rows plus at most two recomputed bands — or, with
``keep_sat=True``, directly from the assembled result.
"""

from __future__ import annotations

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


def out_of_core_sat(a: np.ndarray, *, band_rows: int,
                    algorithm: str | None = None, tile_width: int = 32,
                    gpu_factory=None, dtype_policy=None) -> np.ndarray:
    """Compute the SAT of ``a`` band by band.

    ``algorithm`` selects the per-band SAT engine (``None`` = NumPy
    reference).  With an algorithm name, bands are computed by that
    algorithm's serial host loop, or on fresh simulator instances produced
    by ``gpu_factory()`` when given.  Bands may be any rectangle — ragged
    tile edges follow the zero-padding convention of :mod:`repro.sat.base`.
    The ``outofcore`` backend runs the same band loop (:func:`stitch_bands`)
    behind the plan/execute protocol.

    ``dtype_policy`` resolves the accumulator dtype (:mod:`repro.sat.dtypes`;
    exact by default) — the carry vectors accumulate in that dtype too, so
    integer inputs stitch exactly.
    """
    a = np.asarray(a)
    if a.ndim != 2:
        raise ConfigurationError("out_of_core_sat expects a 2-D matrix")
    acc = resolve_policy(dtype_policy).accumulator(a.dtype)
    return stitch_bands(a, band_rows=band_rows, algorithm=algorithm,
                        tile_width=tile_width, gpu_factory=gpu_factory,
                        acc=acc)[0]


def stitch_bands(a: np.ndarray, *, band_rows: int, algorithm: str | None,
                 tile_width: int, acc: np.dtype, gpu_factory=None
                 ) -> tuple[np.ndarray, np.ndarray]:
    """The band loop: each band's SAT plus the carry of the bands above.

    Returns ``(sat, column_sums)``, the column sums over all rows being the
    final carry vector (the band-level GCP state).
    """
    n_rows, n_cols = a.shape
    out = np.empty((n_rows, n_cols), dtype=acc)
    carry_cols = np.zeros(n_cols, dtype=acc)
    for lo, hi in band_bounds(n_rows, band_rows):
        band = a[lo:hi]
        band_sat = _band_engine(band, algorithm, tile_width, gpu_factory,
                                acc)
        out[lo:hi] = band_sat + np.cumsum(carry_cols)[None, :]
        carry_cols = carry_cols + band.sum(axis=0, dtype=acc)
    return out, carry_cols


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
    _sat_rows: list[np.ndarray] = field(default_factory=list)
    _band_edges: list[int] = field(default_factory=list)
    _edge_rows: list[np.ndarray] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.n_cols <= 0:
            raise ConfigurationError("n_cols must be positive")
        self.dtype = np.dtype(self.dtype)
        self._carry = np.zeros(self.n_cols, dtype=self.dtype)

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
        band_sat = band.cumsum(axis=0).cumsum(axis=1)
        full = band_sat + np.cumsum(self._carry)[None, :]
        self._carry = self._carry + band.sum(axis=0)
        self._rows_done += band.shape[0]
        self._band_edges.append(self._rows_done - 1)
        self._edge_rows.append(full[-1].copy())
        if self.keep_sat:
            self._sat_rows.append(full)
        return full

    def sat(self) -> np.ndarray:
        """The assembled SAT so far (requires ``keep_sat=True``)."""
        if not self.keep_sat:
            raise ConfigurationError("sat() requires keep_sat=True")
        if not self._sat_rows:
            return np.zeros((0, self.n_cols), dtype=self.dtype)
        return np.vstack(self._sat_rows)

    def _sat_row(self, i: int) -> np.ndarray:
        if i < 0 or i >= self._rows_done:
            raise ConfigurationError(f"row {i} not pushed yet")
        if self.keep_sat:
            return self.sat()[i]
        if i not in self._band_edges:
            raise ConfigurationError(
                f"keep_sat=False retains only band-edge rows {self._band_edges}; "
                f"row {i} is unavailable")
        return self._edge_rows[self._band_edges.index(i)]

    def rect_sum(self, top: int, left: int, bottom: int, right: int) -> float:
        """Four-corner rectangle sum over pushed rows."""
        if not (0 <= top <= bottom and 0 <= left <= right < self.n_cols):
            raise ConfigurationError(
                f"invalid rectangle ({top},{left})..({bottom},{right}): "
                f"corners must be ordered and within {self.n_cols} columns")
        if bottom >= self._rows_done:
            raise ConfigurationError(
                f"rectangle bottom row {bottom} has not been pushed yet "
                f"(rows pushed so far: {self._rows_done})")
        total = self._sat_row(bottom)[right]
        if left > 0:
            total -= self._sat_row(bottom)[left - 1]
        if top > 0:
            total -= self._sat_row(top - 1)[right]
            if left > 0:
                total += self._sat_row(top - 1)[left - 1]
        return float(total)
