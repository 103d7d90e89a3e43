"""Algorithm registry and the top-level :func:`compute_sat` convenience API."""

from __future__ import annotations

from typing import Any, Type

import numpy as np

from repro.backend.registry import get_spec, resolve_backend
from repro.errors import ConfigurationError
from repro.gpusim.kernel import GPU
from repro.sat.base import SATAlgorithm, SATResult
from repro.sat.hybrid_1r1w import Hybrid1R1W
from repro.sat.kasagi_1r1w import Kasagi1R1W
from repro.sat.naive_2r2w import Naive2R2W
from repro.sat.nehab_2r1w import Nehab2R1W
from repro.sat.optimal_2r2w import Optimal2R2W
from repro.sat.skss import SKSS1R1W
from repro.sat.skss_lb import SKSSLB1R1W

#: All seven algorithms of the paper, in Table I / Table III order.
ALGORITHMS: dict[str, Type[SATAlgorithm]] = {
    Naive2R2W.name: Naive2R2W,
    Optimal2R2W.name: Optimal2R2W,
    Nehab2R1W.name: Nehab2R1W,
    Kasagi1R1W.name: Kasagi1R1W,
    Hybrid1R1W.name: Hybrid1R1W,
    SKSS1R1W.name: SKSS1R1W,
    SKSSLB1R1W.name: SKSSLB1R1W,
}

#: Case/punctuation-insensitive aliases accepted by :func:`get_algorithm`.
_ALIASES = {
    "2r2w": "2R2W",
    "naive": "2R2W",
    "2r2w-optimal": "2R2W-optimal",
    "2r2woptimal": "2R2W-optimal",
    "2r1w": "2R1W",
    "nehab": "2R1W",
    "1r1w": "1R1W",
    "kasagi": "1R1W",
    "(1+r)r1w": "(1+r)R1W",
    "1+rr1w": "(1+r)R1W",
    "hybrid": "(1+r)R1W",
    "1r1w-skss": "1R1W-SKSS",
    "skss": "1R1W-SKSS",
    "1r1w-skss-lb": "1R1W-SKSS-LB",
    "skss-lb": "1R1W-SKSS-LB",
    "sksslb": "1R1W-SKSS-LB",
}


def get_algorithm(name: str, **params: Any) -> SATAlgorithm:
    """Instantiate an algorithm by (paper) name or common alias.

    >>> get_algorithm("skss-lb", tile_width=64).name
    '1R1W-SKSS-LB'
    """
    key = name.strip().lower()
    canonical = _ALIASES.get(key)
    if canonical is None:
        for full in ALGORITHMS:
            if full.lower() == key:
                canonical = full
                break
    if canonical is None:
        raise ConfigurationError(
            f"unknown SAT algorithm '{name}'; known: {sorted(ALGORITHMS)}")
    return ALGORITHMS[canonical](**params)


def compute_sat(a: np.ndarray, *, algorithm: str | None = "1R1W-SKSS-LB",
                tile_width: int = 32, gpu: GPU | None = None,
                simulate: bool = True, engine=None,
                workers: int | None = None, dtype_policy=None,
                shards: int | None = None, **params: Any) -> SATResult:
    """Compute the summed area table of ``a``: the one entry point.

    A call takes one of two routes.  With ``gpu`` given, or with
    ``simulate=True`` and no ``engine``, the kernels run on the functional
    GPU simulator and the result carries its launch report.  Every other
    call resolves ``engine`` in the backend registry
    (:func:`~repro.backend.registry.resolve_backend`; ``None`` is the serial
    oracle) and runs ``Backend.plan`` then ``Backend.execute``, so all of its
    configuration is validated before any data is read.

    Parameters
    ----------
    a:
        Any 2-D ``rows x cols`` matrix; ragged tile edges are zero-padded
        internally and the result is cropped back.
    algorithm:
        Paper name or alias; defaults to the paper's 1R1W-SKSS-LB.  ``None``
        means the executor's default: the backend's ``default_algorithm``,
        or the plain double scan when it has none (the serial and parallel
        engines).
    gpu:
        Optional pre-configured simulator (device, scheduling policy, seed,
        consistency mode).  Mutually exclusive with ``engine``.
    simulate:
        When ``False``, run on a host engine instead of the simulator (no
        traffic report; much faster for large matrices).
    engine:
        Host executor (implies ``simulate=False``): one of
        :func:`~repro.backend.registry.engine_backends` or a
        :class:`~repro.hostexec.WavefrontEngine` instance.
    workers:
        Worker count for the ``wavefront``/``parallel``/``distributed``
        engines (for ``distributed``, ``workers > 1`` switches from the
        in-process transport to real worker processes).  With a
        :class:`~repro.hostexec.WavefrontEngine` instance it must be
        ``None`` or that engine's own worker count.
    shards:
        Band-shard count for the ``distributed`` engine; rejected by every
        other engine.
    dtype_policy:
        Input-to-accumulator dtype mapping (:mod:`repro.sat.dtypes`): a
        policy, a policy name (``"exact"``, ``"widen-float"``, ``"float64"``)
        or a fixed dtype.  Defaults to the exact policy.
    params:
        Further algorithm parameters (``threads_per_block``, the hybrid's
        ``r``), which only the simulator uses.

    Returns a :class:`~repro.sat.base.SATResult`.

    >>> import numpy as np
    >>> a = np.arange(12, dtype=np.int32).reshape(3, 4)
    >>> result = compute_sat(a, tile_width=2, engine="wavefront")
    >>> result.params["engine"], result.sat.dtype.name, int(result.sat[-1, -1])
    ('wavefront', 'int64', 66)
    """
    if gpu is not None or (simulate and engine is None):
        if engine is not None:
            raise ConfigurationError(
                "a host engine and a simulator GPU are mutually exclusive")
        if shards is not None:
            raise ConfigurationError(
                "shards is only meaningful for the distributed engine "
                "(pass engine='distributed')")
        if algorithm is None:
            algorithm = get_spec("gpusim").default_algorithm
        alg = get_algorithm(algorithm, tile_width=tile_width, **params)
        return alg.run(a, gpu, dtype_policy=dtype_policy)
    backend = resolve_backend(engine)
    if params:
        raise ConfigurationError(
            f"algorithm parameters {sorted(params)} only apply to the "
            "simulator; host engines take none")
    a = np.asarray(a)
    plan = backend.plan(a.shape, a.dtype, algorithm=algorithm,
                        tile_width=tile_width, dtype_policy=dtype_policy,
                        workers=workers, shards=shards)
    sat = backend.execute(plan, a)
    return SATResult(sat=sat, algorithm=plan.algorithm, n=plan.rows,
                     params={"tile_width": plan.tile_width,
                             "engine": plan.backend},
                     report=None)
