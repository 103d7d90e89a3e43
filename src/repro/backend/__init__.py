"""``repro.backend`` — one protocol over every SAT executor.

The paper's contribution is one algebra: per-tile local scans plus
LRS/LCS/GLS carry propagation.  This package gives the repo one execution
contract for it, with three explicit stages:

* ``plan(shape, dtype, algorithm=...) -> ExecutionPlan`` — all configuration
  validated up front, before any data is touched;
* ``execute(plan, image, out=...) -> sat`` — data/plan agreement checked,
  uniform ``out=`` semantics (``run(plan, image)`` returns the same table as
  a ``SATResult``, with the simulator's launch report);
* ``execute_with_carries(plan, image) -> (sat, CarrySet)`` — the inter-unit
  carry state, typed by its Table II role.

All four executors (serial, wavefront, gpusim, distributed) register
through :mod:`repro.backend.registry`, and the conformance suite
(``tests/backend/``) holds every registered backend to the same contract.
See docs/ARCHITECTURE.md, "The backend protocol".

This package imports neither :mod:`repro.sat` nor :mod:`repro.hostexec` at
module level; executor modules load lazily on first :func:`get_backend`.
"""

from repro.backend.carries import BandCarrySet, CarrySet, TileCarrySet
from repro.backend.core import Backend, BackendSpec
from repro.backend.plan import (ExecutionPlan, check_out, finalize_output,
                                prepare_input)
from repro.backend.registry import (backend_specs, backend_table,
                                    get_backend, get_spec, known_backends,
                                    resolve_backend, unknown_backend_error)

__all__ = [
    "Backend",
    "BackendSpec",
    "BandCarrySet",
    "CarrySet",
    "ExecutionPlan",
    "TileCarrySet",
    "backend_specs",
    "backend_table",
    "check_out",
    "finalize_output",
    "get_backend",
    "get_spec",
    "known_backends",
    "prepare_input",
    "resolve_backend",
    "unknown_backend_error",
]
