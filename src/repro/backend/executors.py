"""The five registered backends: every executor in the repo, one protocol.

Each class here is a thin adapter from the :class:`~repro.backend.Backend`
plan/execute/carry contract onto an existing executor — the algorithms' own
serial host loops, the wavefront engine, the fork/join banded scan, the
functional GPU simulator and the sharded distributed executor.  The
adapters contain *no* tile-layout or dtype glue of their own: all of that
lives in the shared plan layer (:mod:`repro.backend.plan`) and in the
engines themselves.

This module is imported lazily by the registry (``get_backend``), so the
CLI and other registry consumers never pay for engine imports they don't
use.
"""

from __future__ import annotations

import numpy as np

from repro.backend.carries import CarrySet, TileCarrySet
from repro.backend.core import Backend, positive_int
from repro.backend.plan import ExecutionPlan
from repro.errors import ConfigurationError


class SerialBackend(Backend):
    """The oracle: each algorithm's own per-tile serial host loop."""

    def __init__(self) -> None:
        from repro.backend.registry import get_spec
        self.spec = get_spec("serial")

    def _execute(self, plan: ExecutionPlan, a: np.ndarray,
                 out: np.ndarray | None) -> np.ndarray:
        if plan.algorithm is None:
            return a.astype(plan.acc_dtype, copy=False) \
                .cumsum(axis=0).cumsum(axis=1)
        from repro.sat.registry import get_algorithm
        alg = get_algorithm(plan.algorithm, tile_width=plan.tile_width)
        return alg.run_host(a, dtype_policy=plan.acc_dtype)


class WavefrontBackend(Backend):
    """Dependency-driven tile chunks on a thread pool (bit-identical)."""

    def __init__(self, engine=None) -> None:
        from repro.backend.registry import get_spec
        self.spec = get_spec("wavefront")
        self._engine = engine

    def _validate_plan(self, plan: ExecutionPlan) -> None:
        # A caller-managed engine owns its pool; a different worker count
        # would be silently ignored.
        eng = self._engine
        if eng is not None and plan.workers is not None \
                and plan.workers != eng.workers:
            raise ConfigurationError(
                f"workers={plan.workers} conflicts with the caller's "
                f"engine, which runs {eng.workers} workers")

    def _engine_compute(self, eng, plan: ExecutionPlan, a: np.ndarray,
                        out: np.ndarray | None) -> np.ndarray:
        return eng.compute(a, algorithm=plan.algorithm,
                           tile_width=plan.tile_width,
                           dtype_policy=plan.acc_dtype, out=out)

    def _execute(self, plan: ExecutionPlan, a: np.ndarray,
                 out: np.ndarray | None) -> np.ndarray:
        from repro.hostexec.engine import WavefrontEngine, shared_engine
        if self._engine is not None:
            return self._engine_compute(self._engine, plan, a, out)
        if plan.workers is not None:
            with WavefrontEngine(workers=plan.workers) as eng:
                return self._engine_compute(eng, plan, a, out)
        return self._engine_compute(shared_engine(), plan, a, out)

    def _execute_with_carries(self, plan: ExecutionPlan,
                              a: np.ndarray) -> tuple[np.ndarray, CarrySet]:
        from repro.hostexec.engine import WavefrontEngine
        eng = self._engine
        owned = eng is None
        if owned:
            eng = WavefrontEngine(workers=plan.workers)
        try:
            sat = eng.compute(a, algorithm=plan.algorithm,
                              tile_width=plan.tile_width,
                              dtype_policy=plan.acc_dtype, retain_state=True)
            state = eng.retained_state()
            carry = TileCarrySet(tile_rows=state.grid.tile_rows,
                                 tile_cols=state.grid.tile_cols,
                                 tile_width=state.grid.W,
                                 _planes=state.planes())
        finally:
            if owned:
                eng.close()
        return sat, carry


class ParallelBackend(Backend):
    """Fork/join banded 2R2W scan — computes the same SAT whatever the
    ``algorithm=`` says (``spec.algorithm_agnostic``)."""

    def __init__(self) -> None:
        from repro.backend.registry import get_spec
        self.spec = get_spec("parallel")

    def _execute(self, plan: ExecutionPlan, a: np.ndarray,
                 out: np.ndarray | None) -> np.ndarray:
        from repro.sat.parallel_host import parallel_sat
        return parallel_sat(a, workers=plan.workers,
                            dtype_policy=plan.acc_dtype)


class GpusimBackend(Backend):
    """The functional GPU simulator: device kernels behind the same seams.

    The simulator accumulates in float64 internally and casts to the plan's
    accumulator dtype on read-back — exact for integer inputs below 2**53,
    within the proven rounding budget for floats (``bit_identical=False``).
    """

    def __init__(self) -> None:
        from repro.backend.registry import get_spec
        self.spec = get_spec("gpusim")

    def _validate_plan(self, plan: ExecutionPlan) -> None:
        # The simulator's warp collectives reduce over W lanes, so tile-based
        # dataflows need whole 32-lane warps per tile row (the default
        # DeviceSpec's warp size).
        from repro.gpusim.device import WARP_SIZE
        if plan.tile_based and plan.tile_width % WARP_SIZE:
            raise ConfigurationError(
                f"the gpusim backend needs tile_width to be a multiple of "
                f"the {WARP_SIZE}-lane warp size, got {plan.tile_width}")

    def _execute(self, plan: ExecutionPlan, a: np.ndarray,
                 out: np.ndarray | None) -> np.ndarray:
        from repro.gpusim.kernel import GPU
        from repro.sat.registry import get_algorithm
        alg = get_algorithm(plan.algorithm, tile_width=plan.tile_width)
        return alg.run(a, GPU(), dtype_policy=plan.acc_dtype).sat


class DistributedBackend(Backend):
    """Sharded band workers behind the work-queue protocol.

    The image is split into ``shards`` contiguous band shards, fanned out
    to a pool (in-process by default; real worker processes when the plan
    asks for ``workers > 1``) and stitched with persisted
    :class:`~repro.backend.carries.BandCarrySet` column sums — see
    :mod:`repro.distsat`.  ``band_rows`` bounds each worker's chunk size
    within its shard (default: one tile height, capped at the matrix
    height).  With one shard it runs the out-of-core band loop, and its
    table matches :func:`~repro.sat.outofcore.out_of_core_sat` bit for
    bit.
    """

    def __init__(self) -> None:
        from repro.backend.registry import get_spec
        self.spec = get_spec("distributed")

    def _check_band_rows(self, band_rows: int | None, rows: int,
                         tile_width: int) -> int | None:
        if band_rows is None:
            return min(rows, tile_width)
        return positive_int(band_rows, "band_rows")

    def _check_shards(self, shards: int | None, rows: int) -> int | None:
        if shards is None:
            return min(rows, 2)
        return positive_int(shards, "shards")

    def _run(self, plan: ExecutionPlan, a: np.ndarray):
        from repro.distsat import distributed_sat
        transport = "process" if plan.workers is not None \
            and plan.workers > 1 else "inline"
        return distributed_sat(a, shards=plan.shards or 2,
                               algorithm=plan.algorithm,
                               tile_width=plan.tile_width,
                               dtype_policy=plan.acc_dtype,
                               chunk_rows=plan.band_rows,
                               transport=transport, workers=plan.workers)

    def _execute(self, plan: ExecutionPlan, a: np.ndarray,
                 out: np.ndarray | None) -> np.ndarray:
        return self._run(plan, a).sat

    def _execute_with_carries(self, plan: ExecutionPlan,
                              a: np.ndarray) -> tuple[np.ndarray, CarrySet]:
        result = self._run(plan, a)
        return result.sat, result.carries


#: Concrete class behind each registered backend name.
BACKEND_CLASSES: dict[str, type[Backend]] = {
    "serial": SerialBackend,
    "wavefront": WavefrontBackend,
    "parallel": ParallelBackend,
    "gpusim": GpusimBackend,
    "distributed": DistributedBackend,
}


def backend_for_instance(engine) -> Backend:
    """Wrap a caller-managed engine instance in its backend adapter.

    The classic ``engine=`` routing accepts :class:`WavefrontEngine`
    instances; anything else raises the canonical unknown-engine error.
    """
    from repro.backend.registry import unknown_engine_error
    from repro.hostexec.engine import WavefrontEngine
    if isinstance(engine, WavefrontEngine):
        return WavefrontBackend(engine=engine)
    raise unknown_engine_error(engine)
