"""Common machinery for the seven SAT algorithms.

Every algorithm is a :class:`SATAlgorithm` subclass with two execution paths:

* :meth:`SATAlgorithm.run` — the real thing: kernels on the functional GPU
  simulator, returning a :class:`SATResult` whose ``report`` carries measured
  kernel calls, thread counts and global traffic (the Table I quantities);
* :meth:`SATAlgorithm.run_host` — a dataflow-equivalent pure-NumPy execution
  of the same tile decomposition (same intermediate quantities, no scheduling):
  the serial oracle behind the ``serial`` backend, used by property tests at
  sizes the simulator would be slow at.

Construction takes the paper's tuning parameters: ``tile_width`` (W) and
``threads_per_block`` (W²/m for tile-based algorithms).

Both paths accept arbitrary ``rows x cols`` rectangles and a ``dtype_policy``
(:mod:`repro.sat.dtypes`).  Ragged shapes are handled by the zero-padding
convention: the input is physically padded (bottom/right) to whole tiles in
the accumulator dtype, the unchanged tile algebra runs on the padded matrix,
and the output is cropped back — zero padding provably leaves every SAT value
in the valid region unchanged.  When the input already matches the resolved
accumulator dtype, is C-contiguous and needs no padding, it is used without
copying.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.backend.plan import prepare_input
from repro.errors import ConfigurationError
from repro.gpusim.counters import LaunchSummary
from repro.gpusim.kernel import GPU
from repro.gpusim.memory import GlobalBuffer
from repro.primitives.tile import TileGrid
from repro.sat.dtypes import resolve_policy


@dataclass
class SATResult:
    """Output of one SAT computation.

    ``report`` is ``None`` for the host path; for simulated runs it holds the
    per-kernel statistics from which Table I rows are measured.  ``n`` is the
    row count (equal to the side length for the paper's square matrices);
    ``shape`` gives the full output shape.  ``algorithm`` is ``None`` when a
    host engine ran the plain double scan.
    """

    sat: np.ndarray
    algorithm: str | None
    n: int
    params: dict[str, Any] = field(default_factory=dict)
    report: LaunchSummary | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.sat.shape

    @property
    def kernel_calls(self) -> int:
        if self.report is None:
            raise ConfigurationError("host-path results carry no launch report")
        return self.report.kernel_calls

    @property
    def max_threads(self) -> int:
        if self.report is None:
            raise ConfigurationError("host-path results carry no launch report")
        return self.report.max_threads

    def summary(self) -> str:
        """One-line human-readable summary of the run."""
        rows, cols = self.sat.shape
        size = f"n={rows}" if rows == cols else f"shape={rows}x{cols}"
        if self.report is None:
            return f"{self.algorithm or 'reference'}: {size} (host path)"
        t = self.report.traffic
        return (f"{self.algorithm}: {size}, kernels={self.report.kernel_calls}, "
                f"max_threads={self.report.max_threads}, "
                f"reads={t.global_read_requests}, writes={t.global_write_requests}")


@dataclass
class PreparedInput:
    """A validated input: accumulator dtype, C-contiguous, padded to tiles.

    ``array`` has shape ``(grid.padded_rows, grid.padded_cols)`` for
    tile-based algorithms (``(rows, cols)`` otherwise); ``rows``/``cols`` is
    the original valid shape the output is cropped to.  ``copied`` records
    whether preparation had to materialize a new array (the no-copy fast path
    leaves the caller's array untouched and aliased).
    """

    array: np.ndarray
    grid: TileGrid
    rows: int
    cols: int
    acc_dtype: np.dtype
    copied: bool

    @property
    def padded(self) -> bool:
        return self.array.shape != (self.rows, self.cols)

    def crop(self, sat: np.ndarray) -> np.ndarray:
        """Crop a (possibly padded) SAT back to the valid region."""
        if sat.shape == (self.rows, self.cols):
            return sat
        return np.ascontiguousarray(sat[:self.rows, :self.cols])


class SATAlgorithm(ABC):
    """Base class: validation, buffer management, launch bookkeeping."""

    #: Paper name of the algorithm (e.g. ``"1R1W-SKSS-LB"``); set by subclasses.
    name: str = "?"
    #: Whether the algorithm partitions the matrix into W x W tiles.
    tile_based: bool = True

    def __init__(self, *, tile_width: int = 32,
                 threads_per_block: int | None = None) -> None:
        self.tile_width = tile_width
        self.threads_per_block = threads_per_block

    # -- parameters ------------------------------------------------------------

    def block_threads(self, device_max: int = 1024) -> int:
        """Threads per CUDA block: the paper uses 1024 (``m = W²/1024``),
        capped at one thread per tile element for small tiles."""
        if self.threads_per_block is not None:
            return self.threads_per_block
        if not self.tile_based:
            return min(256, device_max)
        return min(device_max, max(32, self.tile_width * self.tile_width))

    def params(self) -> dict[str, Any]:
        p: dict[str, Any] = {"threads_per_block": self.block_threads()}
        if self.tile_based:
            p["tile_width"] = self.tile_width
        return p

    def _validate(self, a: np.ndarray, dtype_policy=None) -> PreparedInput:
        """Validate ``a`` and prepare it for execution (cast / pad / no-copy).

        The resolved accumulator dtype comes from ``dtype_policy``
        (:func:`repro.sat.dtypes.resolve_policy`).  When the input already
        matches it, is C-contiguous and tile-aligned, no copy is made.
        """
        a = np.asarray(a)
        if a.ndim != 2:
            raise ConfigurationError(
                f"{self.name} expects a 2-D matrix, got shape {a.shape}")
        rows, cols = a.shape
        acc = resolve_policy(dtype_policy).accumulator(a.dtype)
        grid = TileGrid(rows=rows, cols=cols, W=self.tile_width)
        buf, copied = prepare_input(
            a, acc_dtype=acc, grid=grid if self.tile_based else None)
        return PreparedInput(array=buf, grid=grid, rows=rows, cols=cols,
                             acc_dtype=acc, copied=copied)

    def grid(self, n: int) -> TileGrid:
        return TileGrid(n=n, W=self.tile_width)

    # -- the two execution paths -------------------------------------------------

    def run(self, a: np.ndarray, gpu: GPU | None = None, *,
            dtype_policy=None) -> SATResult:
        """Compute the SAT on the simulator; ``gpu`` may carry a custom device,
        scheduling policy, seed or consistency mode.  The result's ``report``
        holds the launches this run appended to ``gpu.launches``.

        The simulator's internal buffers are float64 (its shared-memory and
        scan primitives model one machine word); the result is cast to the
        policy's accumulator dtype on read-back.  This is exact for integer
        inputs whose SAT stays below 2**53 — the host paths accumulate in the
        integer dtype itself.
        """
        prep = self._validate(a, dtype_policy)
        gpu = gpu or GPU()
        first = gpu.launches.kernel_calls
        a_buf = gpu.alloc("_sat_a", prep.array.shape, np.float64,
                          fill=prep.array.astype(np.float64, copy=False))
        b_buf = gpu.alloc("_sat_b", prep.array.shape, np.float64)
        try:
            self._run_device(gpu, a_buf, b_buf, prep.grid)
            sat = gpu.read(b_buf)
        finally:
            self._cleanup(gpu)
            gpu.free("_sat_a")
            gpu.free("_sat_b")
        sat = prep.crop(sat)
        if sat.dtype != prep.acc_dtype:
            sat = sat.astype(prep.acc_dtype)
        report = LaunchSummary(gpu.launches.kernels[first:])
        return SATResult(sat=sat, algorithm=self.name, n=prep.rows,
                         params=self.params(), report=report)

    def run_host(self, a: np.ndarray, *, dtype_policy=None) -> np.ndarray:
        """Dataflow-equivalent host execution (same tile algebra, no simulator).

        This is the algorithm's own serial tile loop: deterministic,
        dependency-free, and the oracle every host engine is held to.  The
        other host executors run the same dataflow through
        ``compute_sat(..., engine=...)``.
        """
        prep = self._validate(a, dtype_policy)
        return prep.crop(self._run_host(prep.array))

    # -- subclass hooks ------------------------------------------------------------

    @abstractmethod
    def _run_device(self, gpu: GPU, a_buf: GlobalBuffer, b_buf: GlobalBuffer,
                    grid: TileGrid) -> None:
        """Launch the algorithm's kernels (``gpu.launches`` logs each one).

        ``grid`` describes the (already padded) buffer geometry: the buffers
        are ``(grid.padded_rows, grid.padded_cols)`` for tile-based
        algorithms and ``(grid.rows, grid.cols)`` otherwise.
        """

    @abstractmethod
    def _run_host(self, a: np.ndarray) -> np.ndarray:
        """Pure-NumPy execution of the same dataflow.

        ``a`` is prepared: accumulator dtype, C-contiguous, tile-aligned
        (padded) for tile-based algorithms.  The result must have ``a``'s
        shape and dtype; cropping happens in :meth:`run_host`.
        """

    def _cleanup(self, gpu: GPU) -> None:
        """Free any scratch buffers the subclass allocated (prefix ``_sat_s_``)."""
        for buf in list(gpu.memory.buffers()):
            if buf.name.startswith("_sat_s_"):
                gpu.free(buf.name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name} W={self.tile_width}>"
