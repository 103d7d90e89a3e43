"""The :class:`Backend` protocol: plan → execute.

One algebra, many executors.  A backend is anything that can compute the
paper's summed area table; this module fixes the contract every one of them
satisfies:

* :meth:`Backend.plan` — validate *all* configuration (shape, dtype,
  algorithm, tile width, workers) up front and return a frozen, inspectable
  :class:`~repro.backend.plan.ExecutionPlan`.  Planning never touches input
  data; every configuration error raises
  :class:`~repro.errors.ConfigurationError` here, before any compute.
* :meth:`Backend.execute` — run a plan over a matrix that matches it,
  honoring ``out=`` uniformly.  Execution only checks that the data matches
  the plan; configuration was settled at planning time.
* :meth:`Backend.run` — the same run as a
  :class:`~repro.sat.base.SATResult` (what ``compute_sat`` returns); the
  simulator's result carries its launch report.

:class:`BackendSpec` is the capability declaration each backend registers:
which algorithms and dtypes it supports, whether results are bit-identical
to the serial oracle, and what it runs on.

This module imports nothing from :mod:`repro.sat` or :mod:`repro.hostexec`
at module level — executor modules are reached lazily, so the registry stays
cheap to import.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.backend.plan import ExecutionPlan, check_out
from repro.errors import ConfigurationError
from repro.primitives.tile import TileGrid

if TYPE_CHECKING:
    from repro.sat.base import SATResult


def positive_int(value, name: str) -> int:
    """``value`` as an ``int`` if it is a positive integer (``bool`` is not);
    otherwise a :class:`~repro.errors.ConfigurationError` naming ``name``."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) \
            or value <= 0:
        raise ConfigurationError(
            f"{name} must be a positive integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class BackendSpec:
    """Capability flags of one registered SAT backend.

    ``algorithms`` is ``None`` when the backend runs every registered
    algorithm, else the tuple of canonical names it supports.  ``dtypes`` is
    ``None`` when any accumulator dtype works.
    """

    name: str
    summary: str
    #: Canonical algorithm names supported (``None`` = all algorithms).
    algorithms: tuple[str, ...] | None
    #: Accumulator dtype names supported (``None`` = any numeric dtype).
    dtypes: tuple[str, ...] | None
    #: Results are ``np.array_equal``-identical to the serial host loops.
    #: (Every registered backend is exact on integer accumulators; this flag
    #: additionally promises exactness for floats.)
    bit_identical: bool
    #: Execution substrate: ``host``, ``device`` (simulator) or ``streaming``.
    kind: str = "host"
    #: Canonical algorithm substituted when the caller passes ``None``
    #: (``None`` here means: run the plain reference double scan).
    default_algorithm: str | None = None

    def supports_algorithm(self, name: str) -> bool:
        return self.algorithms is None or name in self.algorithms

    def supports_dtype(self, dtype) -> bool:
        return self.dtypes is None or np.dtype(dtype).name in self.dtypes

    def to_dict(self) -> dict[str, Any]:
        """JSON-able capability row (stable keys; ``repro list --json``)."""
        return {
            "name": self.name,
            "kind": self.kind,
            "summary": self.summary,
            "algorithms": list(self.algorithms)
            if self.algorithms is not None else None,
            "dtypes": list(self.dtypes) if self.dtypes is not None else None,
            "bit_identical": self.bit_identical,
            "default_algorithm": self.default_algorithm,
        }


def _canonical_algorithm(name: str) -> tuple[str, bool]:
    """Resolve an algorithm name/alias to ``(canonical, tile_based)``."""
    # Late import: the algorithm registry pulls in every algorithm module.
    from repro.sat.registry import get_algorithm
    alg = get_algorithm(name)
    return alg.name, alg.tile_based


class Backend(ABC):
    """One executor of the SAT algebra, behind the plan/execute stages.

    Subclasses set :attr:`spec` and implement :meth:`_execute`; everything
    else — upfront validation, data/plan matching, uniform ``out=``
    fulfilment — is shared here.
    """

    spec: BackendSpec

    # -- stage 1: plan ---------------------------------------------------------

    def plan(self, shape, dtype, *, algorithm: str | None = None,
             tile_width: int = 32, dtype_policy=None,
             workers: int | None = None,
             band_rows: int | None = None,
             shards: int | None = None) -> ExecutionPlan:
        """Validate a configuration and freeze it into an ExecutionPlan.

        Raises :class:`~repro.errors.ConfigurationError` on *any* invalid
        setting — bad shape, non-numeric or unsupported dtype, unknown or
        unsupported algorithm, non-positive tile width / worker count, a
        worker count for a backend without a worker pool — before any input
        data is touched (SWAMP-style fail-fast).
        """
        spec = self.spec
        rows, cols = self._check_shape(shape)
        tile_width = positive_int(tile_width, "tile_width")
        workers = self._check_workers(workers)
        band_rows = self._check_band_rows(band_rows, rows, tile_width)
        shards = self._check_shards(shards, rows)
        try:
            input_dtype = np.dtype(dtype)
        except TypeError as exc:
            raise ConfigurationError(
                f"not a valid dtype: {dtype!r}") from exc
        # Late import: dtype policies live in the sat layer.
        from repro.sat.dtypes import resolve_policy
        acc_dtype = resolve_policy(dtype_policy).accumulator(input_dtype)
        if not spec.supports_dtype(acc_dtype):
            raise ConfigurationError(
                f"the {spec.name} backend does not support accumulator "
                f"dtype {acc_dtype.name}; supported: "
                f"{', '.join(spec.dtypes or ())}")
        name = algorithm if algorithm is not None else spec.default_algorithm
        tile_based = False
        if name is not None:
            name, tile_based = _canonical_algorithm(name)
            if not spec.supports_algorithm(name):
                supported = spec.algorithms or ()
                raise ConfigurationError(
                    f"the {spec.name} backend does not support algorithm "
                    f"'{name}'; supported: {', '.join(supported)}")
        grid = TileGrid(rows=rows, cols=cols, W=tile_width) \
            if tile_based else None
        plan = ExecutionPlan(backend=spec.name, algorithm=name, rows=rows,
                             cols=cols, input_dtype=input_dtype,
                             acc_dtype=acc_dtype, tile_width=tile_width,
                             grid=grid, workers=workers, band_rows=band_rows,
                             shards=shards)
        self._validate_plan(plan)
        return plan

    def _validate_plan(self, plan: ExecutionPlan) -> None:
        """Hook for backend-specific constraints (still planning time)."""

    def _check_shape(self, shape) -> tuple[int, int]:
        try:
            rows, cols = shape
            rows, cols = int(rows), int(cols)
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"{self.spec.name} backend expects a 2-D shape, "
                f"got {shape!r}") from exc
        if rows <= 0 or cols <= 0:
            raise ConfigurationError(
                f"matrix dimensions must be positive, got {rows}x{cols}")
        return rows, cols

    def _check_workers(self, workers: int | None) -> int | None:
        """Hook: only the distributed backend, which has a worker pool,
        accepts ``workers``."""
        if workers is not None:
            raise ConfigurationError(
                f"workers is not meaningful for the {self.spec.name} "
                "backend, which has no worker pool (use the distributed "
                "backend)")
        return None

    def _check_band_rows(self, band_rows: int | None, rows: int,
                         tile_width: int) -> int | None:
        """Hook: only the distributed backend accepts/derives ``band_rows``."""
        if band_rows is not None:
            raise ConfigurationError(
                f"band_rows is not meaningful for the {self.spec.name} "
                "backend (use the distributed backend)")
        return None

    def _check_shards(self, shards: int | None, rows: int) -> int | None:
        """Hook: only the distributed backend accepts/derives ``shards``."""
        if shards is not None:
            raise ConfigurationError(
                f"shards is not meaningful for the {self.spec.name} "
                "backend (use the distributed backend)")
        return None

    # -- stage 2: execute ------------------------------------------------------

    def _check_data(self, plan: ExecutionPlan, a) -> np.ndarray:
        """``a`` as an array once it matches ``plan`` (made for this backend,
        same shape, same input dtype); a mismatch raises before any element
        is read.  Every data-taking stage calls this first."""
        if not isinstance(plan, ExecutionPlan) \
                or plan.backend != self.spec.name:
            got = getattr(plan, "backend", type(plan).__name__)
            raise ConfigurationError(
                f"plan was made for backend {got!r}, not "
                f"'{self.spec.name}'")
        a = np.asarray(a)
        if a.ndim != 2 or a.shape != plan.shape:
            raise ConfigurationError(
                f"input shape {a.shape} does not match the plan's "
                f"{plan.shape}")
        if a.dtype != plan.input_dtype:
            raise ConfigurationError(
                f"input dtype {a.dtype.name} does not match the plan's "
                f"{plan.input_dtype.name}")
        return a

    def execute(self, plan: ExecutionPlan, a: np.ndarray,
                out: np.ndarray | None = None) -> np.ndarray:
        """Run ``plan`` over ``a``; result in ``plan.acc_dtype``.

        Only data/plan agreement is checked here (shape, dtype, ``out=``
        buffer) — all configuration validation already happened in
        :meth:`plan`.  Mismatches raise before any element is read.
        """
        a = self._check_data(plan, a)
        check_out(out, plan.rows, plan.cols, plan.acc_dtype)
        result = self._execute(plan, a, out)
        if out is not None and result is not out:
            out[...] = result
            return out
        return result

    def run(self, plan: ExecutionPlan, a: np.ndarray) -> SATResult:
        """Run ``plan`` over ``a`` and return a
        :class:`~repro.sat.base.SATResult` recording the backend as
        ``params["engine"]``; host backends report no launches."""
        from repro.sat.base import SATResult
        return SATResult(sat=self.execute(plan, a), algorithm=plan.algorithm,
                         n=plan.rows,
                         params={"tile_width": plan.tile_width,
                                 "engine": plan.backend})

    def compute(self, a: np.ndarray, *, out: np.ndarray | None = None,
                **plan_kwargs) -> np.ndarray:
        """Plan-and-execute convenience for one-shot callers."""
        a = np.asarray(a)
        if a.ndim != 2:
            raise ConfigurationError(
                f"{self.spec.name} backend expects a 2-D matrix, "
                f"got shape {a.shape}")
        plan = self.plan(a.shape, a.dtype, **plan_kwargs)
        return self.execute(plan, a, out=out)

    # -- subclass hooks --------------------------------------------------------

    @abstractmethod
    def _execute(self, plan: ExecutionPlan, a: np.ndarray,
                 out: np.ndarray | None) -> np.ndarray:
        """Run the validated plan; may ignore ``out`` (the base class then
        copies into it) or fill it directly and return it."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.spec.name!r}>"
