"""The wavefront host engine: tiled SAT execution, one tile row at a time.

This is the CPU realization of the paper's look-back structure.  The GPU
algorithm lets CUDA blocks acquire tiles in diagonal-major serial order and
spin on per-tile status bytes; that order exists so that blocks never wait
on a tile no resident block will produce.  A CPU has no residency limit to
respect, and along a tile row the look-back is just a prefix scan, so the
host engine runs each tile row as one *row run* (see
:mod:`repro.hostexec.plan`), top to bottom, on the caller's thread.  The
batching (one NumPy call sequence per row instead of per tile) is a large
constant-factor win over the serial ``_run_host`` loops.

A :class:`WavefrontEngine` is persistent: its row-run plans and carry
planes are built once and reused, which makes repeated same-shape SATs
(video-style streams) cheap.  Callers reach it through
``compute_sat(..., engine="wavefront")`` (the process-wide
:func:`shared_engine`) or ``compute_sat(..., engine=WavefrontEngine())``
for a caller-managed one.

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
from dataclasses import dataclass

import numpy as np

from repro.backend.core import positive_int
from repro.backend.plan import check_out, finalize_output, prepare_input
from repro.errors import ConfigurationError
from repro.hostexec.kernels import CarryPlanes, KernelSpec, kernel_for
from repro.hostexec.plan import DEPS_LEFT_UP, WavefrontPlan, build_plan
from repro.primitives.tile import TileGrid
from repro.sat.dtypes import resolve_policy


@dataclass
class RetainedState:
    """The resident tile-grid state of one ``retain_state=True`` computation.

    Everything the incremental engine (:mod:`repro.hostexec.incremental`)
    needs to *repair* a SAT instead of recomputing it: the padded working
    matrix, the committed (padded) SAT, and the inter-tile carry planes — all
    privately owned (never shared with the engine's cross-call caches), so
    they stay valid between calls and may be edited in place.
    """

    spec: KernelSpec
    grid: TileGrid
    #: Padded working matrix in the accumulator dtype (the current input).
    work: np.ndarray
    #: Padded committed SAT of :attr:`work`.
    out: np.ndarray
    #: Private inter-tile carry planes (GRS/GCS/GS family or GRS/GCP).
    carry: CarryPlanes

    @property
    def a4(self) -> np.ndarray:
        """``(tr, W, tc, W)`` tile view of the working matrix."""
        g = self.grid
        return self.work.reshape(g.tile_rows, g.W, g.tile_cols, g.W)

    @property
    def out4(self) -> np.ndarray:
        """``(tr, W, tc, W)`` tile view of the committed SAT."""
        g = self.grid
        return self.out.reshape(g.tile_rows, g.W, g.tile_cols, g.W)

    def planes(self) -> dict[str, np.ndarray]:
        """The carry planes keyed by their role for this kernel's dataflow.

        The GRS/GCS/GS family publishes row sums, column sums and the corner
        scalar; 1R1W-SKSS publishes row sums and the GCP bottom row instead
        (``2R1W`` additionally carries its column-accumulated scalar chain).
        """
        if self.spec.deps == DEPS_LEFT_UP:
            return {"GRS": self.carry.vec_row, "GCP": self.carry.vec_col}
        planes = {"GRS": self.carry.vec_row, "GCS": self.carry.vec_col,
                  "GS": self.carry.scal}
        if self.spec.name == "2R1W":
            planes["GS-col"] = self.carry.scal2
        return planes


class WavefrontEngine:
    """Persistent row-run executor for tile-based SAT dataflows.

    Each compute runs every tile row as one run, top to bottom, on the
    caller's thread; one compute runs at a time per engine.

    Parameters
    ----------
    workers:
        ``None`` or ``1``, the engine's one worker; any other count raises
        :class:`~repro.errors.ConfigurationError`.
    """

    def __init__(self, *, workers: int | None = None) -> None:
        if workers is not None and positive_int(workers, "workers") != 1:
            raise ConfigurationError(
                f"the wavefront engine runs on the caller's thread; workers "
                f"must be None or 1, got {workers!r}")
        self._plans: dict[tuple, WavefrontPlan] = {}
        self._carries: dict[tuple, CarryPlanes] = {}
        self._lock = threading.Lock()   # one compute at a time per engine
        self._closed = False
        self._retained: RetainedState | None = None

    # -- resource management ---------------------------------------------------

    def plan(self, grid: TileGrid) -> WavefrontPlan:
        """The cached row-run plan for one grid geometry."""
        key = (grid.tile_rows, grid.tile_cols, grid.W)
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = build_plan(grid)
        return plan

    def _carry(self, grid: TileGrid, dtype: np.dtype) -> CarryPlanes:
        key = (grid.tile_rows, grid.tile_cols, grid.W, dtype)
        carry = self._carries.get(key)
        if carry is None:
            carry = self._carries[key] = CarryPlanes(
                tr=grid.tile_rows, tc=grid.tile_cols, W=grid.W, dtype=dtype)
        return carry

    def close(self) -> None:
        """Release the cached plans, carry planes and retained state; every
        later compute raises :class:`~repro.errors.ConfigurationError`."""
        with self._lock:
            self._closed = True
            self._plans.clear()
            self._carries.clear()
            self._retained = None

    def __enter__(self) -> "WavefrontEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- execution --------------------------------------------------------------

    def compute(self, a: np.ndarray, *, algorithm: str = "1R1W-SKSS-LB",
                tile_width: int = 32, out: np.ndarray | None = None,
                dtype_policy=None, retain_state: bool = False) -> np.ndarray:
        """Compute one SAT, each tile row as one run, top to bottom.

        ``a`` may be any 2-D ``rows x cols`` matrix; ragged edges are padded
        with zeros to tile multiples internally and cropped on output.
        ``dtype_policy`` resolves the accumulator dtype exactly as
        ``SATAlgorithm.run_host`` does (a policy, a policy name, a fixed
        dtype, or ``None`` for the exact default).

        ``out`` (optional, ``(rows, cols)`` C-contiguous, accumulator dtype)
        receives the result in place — callers streaming many frames can
        recycle a buffer.

        With ``retain_state=True`` the call keeps the padded working matrix,
        the committed SAT and a *private* set of carry planes resident after
        it returns (:meth:`retained_state`) — the raw material of incremental
        repair (:class:`~repro.hostexec.incremental.IncrementalSAT`).  For an
        aligned input the returned array aliases the retained SAT.
        """
        with self._lock:
            if self._closed:
                raise ConfigurationError("engine is closed")
            spec = kernel_for(algorithm)
            a = np.asarray(a)
            if a.ndim != 2:
                raise ConfigurationError(
                    f"wavefront engine expects a 2-D matrix, got shape "
                    f"{a.shape}")
            if retain_state and out is not None:
                raise ConfigurationError(
                    "retain_state=True owns its output buffer; out= is not "
                    "supported")
            rows, cols = a.shape
            acc = resolve_policy(dtype_policy).accumulator(a.dtype)
            grid = TileGrid(rows=rows, cols=cols, W=tile_width)
            tr, tc, W = grid.tile_rows, grid.tile_cols, grid.W
            if grid.aligned and a.flags.c_contiguous and not retain_state:
                # The kernels cast each run as they copy it into the result.
                work = a
            else:
                # Padding needs a zero-filled buffer; the retained state owns
                # (and later edits) a private working matrix.
                work, _ = prepare_input(a, acc_dtype=acc, grid=grid,
                                        force_copy=retain_state)
            check_out(out, rows, cols, acc)
            # The kernels run over the padded geometry; reuse ``out``
            # directly when no padding is involved, otherwise crop
            # afterwards.
            res = out if (out is not None and grid.aligned) \
                else np.empty(work.shape, dtype=acc)
            carry = CarryPlanes(tr=tr, tc=tc, W=W, dtype=acc) \
                if retain_state else self._carry(grid, acc)
            a4 = work.reshape(tr, W, tc, W)
            out4 = res.reshape(tr, W, tc, W)
            for chunk in self.plan(grid).chunks:  # row-major is topological
                spec.run(a4, out4, carry, chunk, W)
            if retain_state:
                self._retained = RetainedState(spec=spec, grid=grid,
                                               work=work, out=res,
                                               carry=carry)
            return finalize_output(res, rows, cols, out)

    def retained_state(self) -> RetainedState | None:
        """The state kept by the most recent ``retain_state=True`` compute.

        Each ``retain_state=True`` call replaces the previous state; callers
        interleaving retained computations on a shared engine should take the
        state immediately (or use a private engine, as
        :class:`~repro.hostexec.incremental.IncrementalSAT` does).
        """
        return self._retained


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
