"""The wavefront host engine: tiled SAT execution, one tile row at a time.

This is the CPU realization of the paper's look-back structure.  The GPU
algorithm lets CUDA blocks acquire tiles in diagonal-major serial order and
spin on per-tile status bytes; that order exists so that blocks never wait
on a tile no resident block will produce.  A CPU has no residency limit to
respect, and along a tile row the look-back is just a prefix scan, so the
host engine runs each tile row as one *row run* (a
:class:`~repro.hostexec.kernels.Chunk`), top to bottom, on the caller's
thread.  Row-major order is a topological order of the tile dependencies:
every producer of a row lies in that row (resolved by the run's scan) or in
the row above.  The batching (one NumPy call sequence per row instead of
per tile) is a large constant-factor win over the serial ``_run_host``
loops.

A :class:`WavefrontEngine` keeps nothing between computes: each one builds
its row runs, allocates its carry planes and result, and drops them when it
returns, as the paper's look-back carries die with their kernel launch.  So
one engine may serve several threads at once.  Callers reach it through
``compute_sat(..., engine="wavefront")`` (the process-wide
:func:`shared_engine`) or ``compute_sat(..., engine=WavefrontEngine())``.

Results are bit-identical to each algorithm's serial host path (in the same
accumulator dtype): a row run reads only carries (and, for integer
accumulators, SAT entries) of the rows above it and of tiles that precede
it in its own row, and each tile's algebra is a pure function of those
values.

Rectangular inputs follow the virtual zero-padding convention of
:mod:`repro.sat.base`: the matrix is padded to tile multiples with zeros
(which leave every valid-region SAT value unchanged) and the result is
cropped back on output.  An aligned C-contiguous input is read in place:
each kernel casts its run to the accumulator dtype as it copies the run
into the result.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.backend.core import positive_int
from repro.backend.plan import check_out, finalize_output, prepare_input
from repro.errors import ConfigurationError
from repro.hostexec.kernels import CarryPlanes, Chunk, kernel_for
from repro.primitives.tile import TileGrid
from repro.sat.dtypes import resolve_policy


def check_workers(workers) -> None:
    """Accept ``None`` or ``1``, the host engines' one worker; any other
    count raises :class:`~repro.errors.ConfigurationError`."""
    if workers is not None and positive_int(workers, "workers") != 1:
        raise ConfigurationError(
            f"the wavefront engine runs on the caller's thread; workers "
            f"must be None or 1, got {workers!r}")


class WavefrontEngine:
    """Row-run executor for tile-based SAT dataflows.

    Each compute runs every tile row as one run, top to bottom, on the
    caller's thread.

    Parameters
    ----------
    workers:
        ``None`` or ``1``, the engine's one worker; any other count raises
        :class:`~repro.errors.ConfigurationError`.
    """

    def __init__(self, *, workers: int | None = None) -> None:
        check_workers(workers)
        self._closed = False

    def plan(self, grid: TileGrid) -> tuple[Chunk, ...]:
        """The row runs of one grid: one whole-row run per tile row, top to
        bottom."""
        return tuple(Chunk(row=I, J0=0, J1=grid.tile_cols)
                     for I in range(grid.tile_rows))

    def close(self) -> None:
        """Every later compute raises
        :class:`~repro.errors.ConfigurationError`."""
        self._closed = True

    def __enter__(self) -> "WavefrontEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def compute(self, a: np.ndarray, *, algorithm: str = "1R1W-SKSS-LB",
                tile_width: int = 32, out: np.ndarray | None = None,
                dtype_policy=None) -> np.ndarray:
        """Compute one SAT, each tile row as one run, top to bottom.

        ``a`` may be any 2-D ``rows x cols`` matrix; ragged edges are padded
        with zeros to tile multiples internally and cropped on output.
        ``dtype_policy`` resolves the accumulator dtype exactly as
        ``SATAlgorithm.run_host`` does (a policy, a policy name, a fixed
        dtype, or ``None`` for the exact default).

        ``out`` (optional, ``(rows, cols)`` C-contiguous, accumulator dtype)
        receives the result in place — callers streaming many frames can
        recycle a buffer.  It is checked before the input is read.
        """
        if self._closed:
            raise ConfigurationError("engine is closed")
        spec = kernel_for(algorithm)
        a = np.asarray(a)
        if a.ndim != 2:
            raise ConfigurationError(
                f"wavefront engine expects a 2-D matrix, got shape "
                f"{a.shape}")
        rows, cols = a.shape
        acc = resolve_policy(dtype_policy).accumulator(a.dtype)
        check_out(out, rows, cols, acc)
        grid = TileGrid(rows=rows, cols=cols, W=tile_width)
        tr, tc, W = grid.tile_rows, grid.tile_cols, grid.W
        if grid.aligned and a.flags.c_contiguous:
            # The kernels cast each run as they copy it into the result.
            work = a
        else:
            work, _ = prepare_input(a, acc_dtype=acc, grid=grid)
        # The kernels run over the padded geometry; reuse ``out`` directly
        # when no padding is involved, otherwise crop afterwards.
        res = out if (out is not None and grid.aligned) \
            else np.empty(work.shape, dtype=acc)
        carry = CarryPlanes(tr=tr, tc=tc, W=W, dtype=acc)
        a4 = work.reshape(tr, W, tc, W)
        out4 = res.reshape(tr, W, tc, W)
        for chunk in self.plan(grid):
            spec.run(a4, out4, carry, chunk, W)
        return finalize_output(res, rows, cols, out)


#: Lazily-created process-wide engine used by ``engine="wavefront"`` call
#: sites that do not manage their own instance.
_shared: WavefrontEngine | None = None
_shared_lock = threading.Lock()


def shared_engine() -> WavefrontEngine:
    """The process-wide default :class:`WavefrontEngine` (created on demand)."""
    global _shared
    with _shared_lock:
        if _shared is None or _shared._closed:
            _shared = WavefrontEngine()
        return _shared
