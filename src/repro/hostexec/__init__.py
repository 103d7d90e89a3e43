"""Tiled host execution engine (CPU realization of the paper's look-back
dataflow).

The tile-based SAT algorithms' host paths were serial Python loops over all
``(n/W)²`` tiles.  This package executes the same dataflow — identical
published quantities, bit-identical float64 results — with each tile row
processed as one run of consecutive tiles, in place, with its in-row
look-back resolved as a prefix scan.  See :mod:`repro.hostexec.engine` for
the execution model (nothing kept between computes),
:mod:`repro.hostexec.kernels` for the row runs and their kernels (one exact
kernel for integer accumulators, each algorithm's tile algebra for floats)
and :mod:`repro.hostexec.incremental` for edit repair on a resident table,
whose tile state :class:`~repro.hostexec.incremental.IncrementalSAT` alone
owns.

A SAT runs on the engine through :func:`repro.compute_sat`, with
``engine="wavefront"`` (the process-wide :func:`shared_engine`) or a
caller-managed :class:`WavefrontEngine`:

>>> import numpy as np
>>> from repro import compute_sat
>>> a = np.arange(64.0).reshape(8, 8)
>>> with WavefrontEngine() as engine:
...     sat = compute_sat(a, tile_width=4, engine=engine).sat
>>> bool(np.array_equal(sat, a.cumsum(axis=0).cumsum(axis=1)))
True
"""

from repro.hostexec.engine import WavefrontEngine, shared_engine
from repro.hostexec.kernels import kernel_for

__all__ = ["WavefrontEngine", "kernel_for", "shared_engine"]
