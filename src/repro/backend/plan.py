"""The shared plan layer: one validated, inspectable description of a run.

Every executor in this repo ultimately does the same three things before any
arithmetic happens: resolve the accumulator dtype, lay the matrix out on a
``W x W`` tile grid (zero-padding ragged edges), and check/fulfil an optional
``out=`` buffer.  Before this module those steps were re-implemented — with
slight drift — in ``sat/base.py`` and ``hostexec/engine.py``.  They now
live here once, as plain functions over an :class:`ExecutionPlan`.

An :class:`ExecutionPlan` is a frozen value object produced by
:meth:`repro.backend.Backend.plan` *before* the input data is ever touched:
it captures everything a backend needs to execute (shape, dtypes, tile
geometry, worker/band parameters) and everything a caller may want to
inspect (padding, tile counts).  Planning is where all configuration errors
surface — execution never validates configuration, only that the data
matches the plan.

This module deliberately imports nothing from :mod:`repro.sat` or
:mod:`repro.hostexec`, so both of those layers can build on it without
import cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.errors import ConfigurationError
from repro.primitives.tile import TileGrid


@dataclass(frozen=True)
class ExecutionPlan:
    """A fully validated description of one SAT computation.

    ``algorithm`` is the canonical paper name, or ``None`` for the plain
    reference double scan (what ``compute_sat(algorithm=None)`` runs on a
    backend without a ``default_algorithm``).
    ``grid`` is the tile geometry for tile-based execution, ``None`` when the
    backend runs the matrix flat.  ``acc_dtype`` is the accumulator dtype the
    configured policy resolved for ``input_dtype`` — results are always
    returned in it.
    """

    backend: str
    algorithm: str | None
    rows: int
    cols: int
    input_dtype: np.dtype
    acc_dtype: np.dtype
    tile_width: int
    grid: TileGrid | None = None
    workers: int | None = None
    band_rows: int | None = None
    shards: int | None = None

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def tile_based(self) -> bool:
        return self.grid is not None

    @property
    def padded(self) -> bool:
        """Whether execution pads the matrix to whole tiles internally."""
        return self.grid is not None and not self.grid.aligned

    @property
    def padded_shape(self) -> tuple[int, int]:
        """The working-buffer shape (equals ``shape`` when not padded)."""
        if self.grid is None:
            return self.shape
        return (self.grid.padded_rows, self.grid.padded_cols)

    @property
    def num_tiles(self) -> int:
        if self.grid is None:
            return 0
        return self.grid.tile_rows * self.grid.tile_cols

    def describe(self) -> dict[str, Any]:
        """A JSON-able summary (stable keys; used by tooling and tests)."""
        return {
            "backend": self.backend,
            "algorithm": self.algorithm,
            "rows": self.rows,
            "cols": self.cols,
            "input_dtype": self.input_dtype.name,
            "acc_dtype": self.acc_dtype.name,
            "tile_width": self.tile_width,
            "tile_based": self.tile_based,
            "padded": self.padded,
            "padded_shape": list(self.padded_shape),
            "num_tiles": self.num_tiles,
            "workers": self.workers,
            "band_rows": self.band_rows,
            "shards": self.shards,
        }


# -- the collapsed layout glue -------------------------------------------------
#
# These three functions are the single implementation of the cast/pad,
# out=-check and crop/fulfil steps that used to be duplicated per executor.


def prepare_input(a: np.ndarray, *, acc_dtype: np.dtype,
                  grid: TileGrid | None = None,
                  force_copy: bool = False) -> tuple[np.ndarray, bool]:
    """Cast/pad ``a`` into a working buffer; returns ``(work, copied)``.

    With a non-aligned ``grid`` the buffer is zero-padded to whole tiles
    (``(padded_rows, padded_cols)``) — zero padding provably leaves every SAT
    value in the valid region unchanged.  When ``a`` already matches the
    accumulator dtype, is C-contiguous and needs no padding, it is returned
    aliased (``copied=False``) unless ``force_copy`` demands a private buffer
    (``IncrementalSAT`` edits its resident working matrix in place).
    """
    rows, cols = a.shape
    pad = grid is not None and not grid.aligned
    if not pad and not force_copy and a.dtype == acc_dtype \
            and a.flags.c_contiguous:
        return a, False
    if pad:
        assert grid is not None
        work = np.zeros((grid.padded_rows, grid.padded_cols), dtype=acc_dtype)
        work[:rows, :cols] = a
        return work, True
    if force_copy:
        return np.array(a, dtype=acc_dtype, order="C", copy=True), True
    return np.ascontiguousarray(a, dtype=acc_dtype), True


def check_out(out: np.ndarray | None, rows: int, cols: int,
              acc_dtype: np.dtype) -> None:
    """Validate an ``out=`` buffer (shape, dtype, contiguity) or raise."""
    if out is None:
        return
    if not isinstance(out, np.ndarray) or out.shape != (rows, cols) \
            or out.dtype != acc_dtype or not out.flags.c_contiguous:
        raise ConfigurationError(
            "out must be a C-contiguous array of the input shape in the "
            f"accumulator dtype {np.dtype(acc_dtype).name}")


def finalize_output(res: np.ndarray, rows: int, cols: int,
                    out: np.ndarray | None = None) -> np.ndarray:
    """Crop a (possibly padded) result to the valid region, honoring ``out``."""
    if res.shape != (rows, cols):
        if out is not None:
            out[...] = res[:rows, :cols]
            return out
        return np.ascontiguousarray(res[:rows, :cols])
    if out is not None and res is not out:
        out[...] = res
        return out
    return res
