"""Wavefront-parallel tiled host execution engine (CPU realization of the
paper's look-back dataflow).

The tile-based SAT algorithms' host paths were serial Python loops over all
``(n/W)²`` tiles.  This package executes the same dataflow — identical
published quantities, bit-identical float64 results — as a dependency-driven
wavefront over a persistent thread pool, with each anti-diagonal's tiles
processed in batched NumPy chunks.  See :mod:`repro.hostexec.engine` for the
execution model and :mod:`repro.hostexec.kernels` for the per-algorithm tile
algebra.

>>> import numpy as np
>>> from repro.hostexec import wavefront_sat
>>> a = np.arange(64.0).reshape(8, 8)
>>> bool(np.array_equal(wavefront_sat(a, tile_width=4),
...                     a.cumsum(axis=0).cumsum(axis=1)))
True
"""

from repro.hostexec.engine import (RetainedState, WavefrontEngine,
                                   default_workers, shared_engine,
                                   wavefront_sat)
from repro.hostexec.incremental import (STRATEGIES, IncrementalSAT,
                                        RepairStats, repair_benchmark,
                                        sanitize_incremental, verify_state)
from repro.hostexec.kernels import KERNELS, CarryPlanes, KernelSpec, kernel_for
from repro.hostexec.plan import (DEPS_LEFT_UP, DEPS_LEFT_UP_CORNER,
                                 TILE_DONE, TILE_PENDING, TILE_READY,
                                 Chunk, WavefrontPlan, build_plan,
                                 split_diagonal)

__all__ = [
    "WavefrontEngine", "wavefront_sat", "shared_engine",
    "default_workers", "RetainedState",
    "IncrementalSAT", "RepairStats", "STRATEGIES", "verify_state",
    "sanitize_incremental", "repair_benchmark",
    "KERNELS", "KernelSpec", "CarryPlanes", "kernel_for",
    "WavefrontPlan", "Chunk", "build_plan", "split_diagonal",
    "DEPS_LEFT_UP", "DEPS_LEFT_UP_CORNER",
    "TILE_PENDING", "TILE_READY", "TILE_DONE",
]
