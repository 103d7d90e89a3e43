"""repro — reproduction of "An Optimal Parallel Algorithm for Computing the
Summed Area Table on the GPU" (Emoto, Funasaka, Tokura, Honda, Nakano, Ito,
IPDPS Workshops 2018).

The package provides:

* :mod:`repro.gpusim` — a functional CUDA-like GPU simulator (the hardware
  substitute; see DESIGN.md for the substitution argument);
* :mod:`repro.primitives` — warp scans, the diagonal shared-memory
  arrangement, tile region-sum algebra, Merrill–Garland decoupled look-back
  scans and Tokura column-wise scans;
* :mod:`repro.sat` — the paper's 1R1W-SKSS-LB algorithm plus the six
  baselines it is evaluated against, all runnable on the simulator and as
  dataflow-equivalent host implementations;
* :mod:`repro.perfmodel` — a calibrated TITAN V performance model that
  regenerates Table III;
* :mod:`repro.analysis` — closed-form Table I complexity accounting;
* :mod:`repro.apps` — SAT applications (box filter, Haar-like features,
  adaptive thresholding, local variance).

Quickstart
----------
>>> import numpy as np
>>> from repro import compute_sat, sat_reference
>>> a = np.arange(4096.0).reshape(64, 64)
>>> result = compute_sat(a, algorithm="1R1W-SKSS-LB", tile_width=32)
>>> bool(np.array_equal(result.sat, sat_reference(a)))
True
>>> result.kernel_calls
1
"""

from repro._version import __version__
from repro.errors import (AllocationError, ConfigurationError, DeadlockError,
                          InvalidAccessError, KernelLaunchError,
                          RaceConditionError, ReproError, SimulationError)
from repro.sat import (ALGORITHMS, SATResult, compute_sat, get_algorithm,
                       sat_reference)

__all__ = [
    "__version__",
    "compute_sat", "sat_reference", "get_algorithm", "ALGORITHMS", "SATResult",
    "ReproError", "ConfigurationError", "SimulationError", "DeadlockError",
    "InvalidAccessError", "AllocationError", "KernelLaunchError",
    "RaceConditionError",
]
