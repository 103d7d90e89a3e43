"""The wavefront host engine: dependency-driven tiled SAT execution on a
persistent thread pool.

This is the CPU realization of the paper's look-back structure.  The GPU
algorithm lets CUDA blocks acquire tiles in diagonal-major serial order and
spin on per-tile status bytes; that order exists so that blocks never wait
on a tile no resident block will produce.  A CPU has no residency limit to
respect, and along a tile row the look-back is just a prefix scan, so the
host engine dispatches *row runs* (consecutive tiles of one tile row, see
:mod:`repro.hostexec.plan`) to pool workers the moment the runs holding
their left/up/up-left producer tiles retire.  Per-run dependency counters
replace a full row barrier, so once rows are split, run ``(I+1, p)``
overlaps the still-running remainder of row ``I``.  NumPy releases the GIL
inside the row-run kernels, so runs can overlap on multi-core hosts; on any
host the batching itself (one NumPy call sequence per run instead of per
tile) is a large constant-factor win over the serial ``_run_host`` loops.

A :class:`WavefrontEngine` is persistent: its pool, row-run plans and
carry planes are built once and reused, which makes repeated same-shape
SATs (video-style streams) cheap.  Callers reach it through
``compute_sat(..., engine="wavefront")`` (the process-wide
:func:`shared_engine`) or ``compute_sat(..., engine=WavefrontEngine(...))``
for a caller-managed pool.

Results are bit-identical to each algorithm's serial host path (in the same
accumulator dtype) and independent of the worker count and of scheduling
order: row-run kernels only read carries (and, for integer accumulators,
SAT entries) of tiles whose status word is DONE or that precede them in
their own run, and each tile's algebra is a pure function of those values.

Rectangular inputs follow the virtual zero-padding convention of
:mod:`repro.sat.base`: the matrix is padded to tile multiples with zeros
(which leave every valid-region SAT value unchanged) and the result is
cropped back on output.  An aligned C-contiguous input is read in place:
each kernel casts its run to the accumulator dtype as it copies the run
into the result.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from repro.backend.core import positive_int
from repro.backend.plan import check_out, finalize_output, prepare_input
from repro.errors import ConfigurationError
from repro.hostexec.kernels import CarryPlanes, KernelSpec, kernel_for
from repro.hostexec.plan import (DEPS_LEFT_UP, TILE_DONE, TILE_READY,
                                 WavefrontPlan, build_plan)
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


def default_workers() -> int:
    """Worker count: the ``REPRO_WORKERS`` env var, else one.

    One worker until a pool is measured to pay: on the two-core machine
    ``BENCH_host_engine.json`` was recorded on, two workers are slower than
    one at every size (the row-run kernels hand the GIL back and forth
    between short NumPy calls).  An explicit ``workers=`` still builds a
    pool of that size.
    """
    env = os.environ.get("REPRO_WORKERS")
    if env:
        try:
            value = int(env)
        except ValueError as exc:
            raise ConfigurationError(
                f"REPRO_WORKERS must be an integer, got {env!r}") from exc
        if value <= 0:
            raise ConfigurationError("REPRO_WORKERS must be positive")
        return value
    return 1


class WavefrontEngine:
    """Persistent wavefront executor for tile-based SAT dataflows.

    Parameters
    ----------
    workers:
        Pool size (defaults to :func:`default_workers`).  ``workers=1``
        degenerates to a serial sweep of whole tile rows with no pool
        overhead — still much faster than the per-tile serial loops.
    """

    def __init__(self, *, workers: int | None = None) -> None:
        self.workers = default_workers() if workers is None \
            else positive_int(workers, "workers")
        self._pool: ThreadPoolExecutor | None = None
        self._plans: dict[tuple, WavefrontPlan] = {}
        self._carries: dict[tuple, CarryPlanes] = {}
        self._lock = threading.Lock()   # one compute at a time per engine
        self._closed = False
        self._retained: RetainedState | None = None

    # -- resource management ---------------------------------------------------

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._closed:
            raise ConfigurationError("engine is closed")
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers,
                thread_name_prefix="repro-wavefront")
        return self._pool

    def plan(self, grid: TileGrid,
             deps: tuple[tuple[int, int], ...]) -> WavefrontPlan:
        """The cached row-run wavefront plan for one grid geometry."""
        key = (grid.tile_rows, grid.tile_cols, grid.W, deps, self.workers)
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = build_plan(grid, deps, self.workers)
        return plan

    def _carry(self, grid: TileGrid, dtype: np.dtype) -> CarryPlanes:
        key = (grid.tile_rows, grid.tile_cols, grid.W, dtype)
        carry = self._carries.get(key)
        if carry is None:
            carry = self._carries[key] = CarryPlanes(
                tr=grid.tile_rows, tc=grid.tile_cols, W=grid.W, dtype=dtype)
        return carry

    def close(self) -> None:
        """Shut the pool down; cached plans/carries are released."""
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
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
        """Compute one SAT through the wavefront schedule.

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
        spec = kernel_for(algorithm)
        a = np.asarray(a)
        if a.ndim != 2:
            raise ConfigurationError(
                f"wavefront engine expects a 2-D matrix, got shape {a.shape}")
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
        # The kernels run over the padded geometry; reuse ``out`` directly
        # when no padding is involved, otherwise crop afterwards.
        res = out if (out is not None and grid.aligned) \
            else np.empty(work.shape, dtype=acc)
        with self._lock:
            plan = self.plan(grid, spec.deps)
            carry = CarryPlanes(tr=tr, tc=tc, W=W, dtype=acc) \
                if retain_state else self._carry(grid, acc)
            a4 = work.reshape(tr, W, tc, W)
            out4 = res.reshape(tr, W, tc, W)
            if self.workers == 1 or plan.num_chunks == 1:
                for chunk in plan.chunks:   # row-major order is topological
                    spec.run(a4, out4, carry, chunk, W)
            else:
                self._run_parallel(plan, spec, a4, out4, carry, W)
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

    def _run_parallel(self, plan: WavefrontPlan, spec: KernelSpec,
                      a4: np.ndarray, out4: np.ndarray, carry: CarryPlanes,
                      W: int) -> None:
        """Dependency-driven dispatch over the persistent pool."""
        pool = self._ensure_pool()
        pending = [c.num_predecessors for c in plan.chunks]
        status = plan.initial_status()
        state_lock = threading.Lock()
        all_done = threading.Event()
        errors: list[BaseException] = []
        remaining = plan.num_chunks

        def retire(chunk) -> int | None:
            """Mark ``chunk`` done; hand one unblocked chunk back to the
            retiring worker (continuation chaining — no pool round-trip for
            the common single-successor case) and submit any others.

            Readiness is tracked on the plan's chunk-level DAG (plain integer
            counters — cheap under the lock); the per-tile status words are
            advanced alongside as the observable protocol state.
            """
            nonlocal remaining
            newly_ready: list[int] = []
            with state_lock:
                status[chunk.row, chunk.J0:chunk.J1] = TILE_DONE
                for sid in chunk.successors:
                    pending[sid] -= 1
                    if pending[sid] == 0:
                        newly_ready.append(sid)
                remaining -= 1
                if remaining == 0:
                    all_done.set()
                for sid in newly_ready:
                    ready = plan.chunks[sid]
                    status[ready.row, ready.J0:ready.J1] = TILE_READY
            cont = newly_ready.pop() if newly_ready else None
            for cid in newly_ready:
                pool.submit(run, cid)
            return cont

        def run(cid: int | None) -> None:
            while cid is not None:
                chunk = plan.chunks[cid]
                if not errors:
                    try:
                        spec.run(a4, out4, carry, chunk, W)
                    except BaseException as exc:  # propagate to the caller
                        with state_lock:
                            errors.append(exc)
                cid = retire(chunk)

        roots = plan.roots()
        if not roots:
            raise ConfigurationError("wavefront plan has no dispatchable root")
        for cid in roots:
            pool.submit(run, cid)
        all_done.wait()
        if errors:
            raise errors[0]


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
