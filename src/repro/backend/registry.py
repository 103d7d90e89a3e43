"""The unified backend registry: one table every consumer derives from.

Every executor in the repo registers exactly one :class:`BackendSpec` here —
the host engines (serial / wavefront), the functional GPU simulator and the
sharded distributed executor (the one streaming backend; with one shard it
is the out-of-core band loop).  The CLI ``--engine``
choices, ``repro list`` (text and ``--json``), the fuzzer's engine pool,
the one entry point (:func:`repro.sat.registry.compute_sat`) and every
"unknown backend" error message all read from this one table, so none of
them can drift from the registered set (the conformance suite pins this).

Specs are built lazily on first access and backend *instances* lazier still
(:func:`get_backend` imports the executor modules on demand), keeping the
registry import-light: building ``--engine`` choices never instantiates a
backend.
"""

from __future__ import annotations

import threading
from typing import Any

from repro.backend.core import Backend, BackendSpec
from repro.errors import ConfigurationError


def _tile_algorithms() -> tuple[str, ...]:
    # Late import: kernels.py pulls in tile machinery the registry's cheap
    # consumers (argparse construction) should not pay for eagerly.
    from repro.hostexec.kernels import KERNELS
    return tuple(KERNELS)


def _make_specs() -> dict[str, BackendSpec]:
    tile = _tile_algorithms()
    return {
        "serial": BackendSpec(
            name="serial",
            summary="each algorithm's own per-tile host loop (the oracle)",
            algorithms=None, dtypes=None, bit_identical=True,
            kind="host"),
        "wavefront": BackendSpec(
            name="wavefront",
            summary="each tile row as one run on the caller's thread",
            algorithms=tile, dtypes=None, bit_identical=True,
            kind="host", default_algorithm="1R1W-SKSS-LB"),
        "gpusim": BackendSpec(
            name="gpusim",
            summary="functional GPU simulator (device kernels, measured "
                    "traffic)",
            algorithms=None, dtypes=None, bit_identical=False,
            kind="device", default_algorithm="1R1W-SKSS-LB"),
        "distributed": BackendSpec(
            name="distributed",
            summary="sharded out-of-core bands on a worker pool (persisted "
                    "carries, fault-tolerant work-queue protocol)",
            algorithms=None, dtypes=None, bit_identical=False,
            kind="streaming"),
    }


_specs: dict[str, BackendSpec] | None = None
_instances: dict[str, Backend] = {}
_lock = threading.Lock()


def backend_specs() -> dict[str, BackendSpec]:
    """All registered backend specs, keyed by name (registration order)."""
    global _specs
    if _specs is None:
        with _lock:
            if _specs is None:
                _specs = _make_specs()
    return _specs


def known_backends() -> tuple[str, ...]:
    """Names of every registered backend."""
    return tuple(backend_specs())


def get_spec(name: str) -> BackendSpec:
    """The :class:`BackendSpec` for ``name``; raises with the full dynamic
    backend list on an unknown name."""
    spec = backend_specs().get(name)
    if spec is None:
        raise unknown_backend_error(name)
    return spec


def get_backend(name: str) -> Backend:
    """The (process-wide) backend instance registered under ``name``."""
    backend = _instances.get(name)
    if backend is None:
        get_spec(name)   # raise the canonical error on unknown names
        from repro.backend.executors import BACKEND_CLASSES
        with _lock:
            backend = _instances.get(name)
            if backend is None:
                backend = _instances[name] = BACKEND_CLASSES[name]()
    return backend


def backend_table() -> list[dict[str, Any]]:
    """The capability table as stable JSON-able rows (``repro list --json``)."""
    return [spec.to_dict() for spec in backend_specs().values()]


def unknown_backend_error(name) -> ConfigurationError:
    """The canonical "unknown backend" error, listing every registered
    backend (kept in one place so the message can never drift)."""
    return ConfigurationError(
        f"unknown backend {name!r}; known backends: "
        f"{', '.join(known_backends())}")


def resolve_backend(engine=None) -> Backend:
    """Resolve an ``engine=`` argument to a backend instance.

    ``None`` means the serial oracle; a string selects a registered backend
    by name (:func:`get_backend`); a caller-managed
    :class:`~repro.hostexec.WavefrontEngine` or simulator
    :class:`~repro.gpusim.kernel.GPU` is wrapped in its backend's adapter
    (keeping the caller's device configuration).
    """
    if engine is None:
        return get_backend("serial")
    if isinstance(engine, str):
        return get_backend(engine)
    from repro.backend.executors import backend_for_instance
    return backend_for_instance(engine)
