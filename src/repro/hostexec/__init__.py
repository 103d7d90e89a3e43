"""Wavefront-parallel tiled host execution engine (CPU realization of the
paper's look-back dataflow).

The tile-based SAT algorithms' host paths were serial Python loops over all
``(n/W)²`` tiles.  This package executes the same dataflow — identical
published quantities, bit-identical float64 results — as a dependency-driven
wavefront over a persistent thread pool, with each tile row processed as a
few runs of consecutive tiles, in place, with its in-row look-back resolved
as a prefix scan.  See :mod:`repro.hostexec.engine` for the execution model,
:mod:`repro.hostexec.plan` for the row-run schedule,
:mod:`repro.hostexec.kernels` for the per-algorithm tile algebra and
:mod:`repro.hostexec.incremental` for edit repair on a resident table.

A SAT runs on the engine through :func:`repro.compute_sat`, with
``engine="wavefront"`` (the process-wide :func:`shared_engine`) or a
caller-managed :class:`WavefrontEngine`:

>>> import numpy as np
>>> from repro import compute_sat
>>> a = np.arange(64.0).reshape(8, 8)
>>> with WavefrontEngine(workers=2) as engine:
...     sat = compute_sat(a, tile_width=4, engine=engine).sat
>>> bool(np.array_equal(sat, a.cumsum(axis=0).cumsum(axis=1)))
True
"""

from repro.hostexec.engine import (WavefrontEngine, default_workers,
                                   shared_engine)
from repro.hostexec.kernels import kernel_for

__all__ = ["WavefrontEngine", "default_workers", "kernel_for",
           "shared_engine"]
