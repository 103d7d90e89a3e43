"""Algorithm registry and the top-level :func:`compute_sat` convenience API."""

from __future__ import annotations

from typing import Any, Type

import numpy as np

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


def host_sat(a: np.ndarray, *, algorithm: str | None = None,
             tile_width: int = 32, engine=None,
             workers: int | None = None, dtype_policy=None) -> np.ndarray:
    """Route a host-path SAT computation through the chosen engine.

    The single entry point the applications layer uses: ``engine`` is
    ``None`` or any name in
    :func:`~repro.backend.registry.engine_backends` — ``"serial"`` (the
    algorithm's serial host loop, or the NumPy reference when ``algorithm``
    is ``None``), ``"wavefront"`` (or a
    :class:`~repro.hostexec.WavefrontEngine` instance), ``"parallel"`` or
    ``"distributed"``.  ``a`` may be any 2-D rectangle; ``dtype_policy``
    resolves the accumulator dtype (:mod:`repro.sat.dtypes`; exact by
    default).
    """
    from repro.backend.registry import resolve_backend
    return resolve_backend(engine).compute(
        np.asarray(a), algorithm=algorithm, tile_width=tile_width,
        workers=workers, dtype_policy=dtype_policy)


def incremental_sat(a: np.ndarray, *, algorithm: str = "1R1W-SKSS-LB",
                    tile_width: int = 32, dtype_policy=None,
                    workers: int | None = None, strategy: str = "auto"):
    """Build a resident :class:`~repro.hostexec.IncrementalSAT` over ``a``.

    The stateful counterpart to :func:`compute_sat` for edit/streaming
    traffic: the returned engine keeps the tile grid's carry state between
    calls and repairs only dirty tiles plus their right/down frontier on
    ``update``/``update_tiles``/``delta``/``advance``.  Use as a context
    manager (or call ``close()``) to release the resident planes.

    >>> import numpy as np
    >>> with incremental_sat(np.ones((8, 8), dtype=np.int32)) as inc:
    ...     sat = inc.update(0, 0, np.full((2, 2), 5, dtype=np.int32))
    >>> int(sat[7, 7])
    80
    """
    from repro.hostexec.incremental import IncrementalSAT
    name = get_algorithm(algorithm).name
    return IncrementalSAT(a, algorithm=name, tile_width=tile_width,
                          dtype_policy=dtype_policy, workers=workers,
                          strategy=strategy)


def compute_sat(a: np.ndarray, *, algorithm: str = "1R1W-SKSS-LB",
                tile_width: int = 32, gpu: GPU | None = None,
                simulate: bool = True, engine=None,
                workers: int | None = None, dtype_policy=None,
                incremental=None, shards: int | None = None,
                **params: Any) -> SATResult:
    """Compute the summed area table of ``a``.

    Parameters
    ----------
    a:
        Any 2-D ``rows x cols`` matrix; ragged tile edges are zero-padded
        internally and the result is cropped back.
    algorithm:
        Paper name or alias; defaults to the paper's 1R1W-SKSS-LB.
    gpu:
        Optional pre-configured simulator (device, scheduling policy, seed,
        consistency mode).
    simulate:
        When ``False``, run the dataflow-equivalent host path instead of the
        simulator (no traffic report; much faster for large matrices).
    engine:
        Host executor for the non-simulated path (implies ``simulate=False``):
        one of :func:`~repro.backend.registry.engine_backends` or a
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
    incremental:
        A resident :class:`~repro.hostexec.IncrementalSAT` (from
        :func:`incremental_sat`): ``a`` is treated as the next frame and the
        table is *repaired* via :meth:`~repro.hostexec.IncrementalSAT.advance`
        instead of recomputed — only the changed tiles' right/down frontier
        pays.  Mutually exclusive with ``gpu``/``engine``; the result is
        bit-identical to a from-scratch computation.

    Returns a :class:`~repro.sat.base.SATResult`.
    """
    if incremental is not None:
        from repro.hostexec.incremental import IncrementalSAT
        if not isinstance(incremental, IncrementalSAT):
            raise ConfigurationError(
                "incremental= expects an IncrementalSAT instance "
                "(see repro.sat.incremental_sat)")
        if gpu is not None or engine is not None:
            raise ConfigurationError(
                "incremental= is mutually exclusive with gpu=/engine=")
        sat = incremental.advance(np.asarray(a))
        stats = incremental.stats
        return SATResult(sat=sat, algorithm=incremental.algorithm,
                         n=sat.shape[0],
                         params={"tile_width": incremental.tile_width,
                                 "engine": "incremental",
                                 "strategy": stats.strategy,
                                 "dirty_tiles": stats.dirty_tiles,
                                 "repaired_tiles": stats.repaired_tiles,
                                 "total_tiles": stats.total_tiles},
                         report=None)
    if shards is not None and (engine is None or engine == "serial"):
        raise ConfigurationError(
            "shards is only meaningful for the distributed engine "
            "(pass engine='distributed')")
    alg = get_algorithm(algorithm, tile_width=tile_width, **params)
    if engine is not None and engine != "serial":
        if gpu is not None:
            raise ConfigurationError(
                "a host engine and a simulator GPU are mutually exclusive")
        simulate = False
    if simulate:
        return alg.run(a, gpu, dtype_policy=dtype_policy)
    engine_name = engine if isinstance(engine, str) or engine is None \
        else None
    if engine is None or engine == "serial":
        sat = alg.run_host(a, dtype_policy=dtype_policy)
    else:
        from repro.backend.registry import resolve_backend
        backend = resolve_backend(engine)
        engine_name = backend.spec.name
        sat = backend.compute(np.asarray(a), algorithm=alg.name,
                              tile_width=tile_width, workers=workers,
                              dtype_policy=dtype_policy, shards=shards)
    p = alg.params()
    if engine is not None:
        p["engine"] = engine_name
    return SATResult(sat=sat, algorithm=alg.name, n=sat.shape[0],
                     params=p, report=None)
