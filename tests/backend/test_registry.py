"""Registry drift pins: one table, every consumer derives from it.

These tests fail if an executor is ever registered (or routed) outside the
unified backend registry: the executor-class table, the sat-layer routing
surface, the CLI ``--engine`` choices, the fuzzer's sampling pool and every
unknown-name error message must all be derivations of
``repro.backend.registry`` — not second lists.
"""

import json

import numpy as np
import pytest

from repro.backend.core import BackendSpec
from repro.backend.registry import (backend_specs, backend_table,
                                    engine_backends, get_backend, get_spec,
                                    known_backends, resolve_backend,
                                    unknown_backend_error,
                                    unknown_engine_error)
from repro.errors import ConfigurationError


def test_known_backends_exactly():
    assert known_backends() == ("serial", "wavefront", "parallel",
                                "gpusim", "distributed")
    assert engine_backends() == ("serial", "wavefront", "parallel",
                                 "distributed")


def test_every_executor_class_is_registered():
    """The pin: no executor exists outside the registry, and the registry
    names nothing without an executor."""
    from repro.backend.executors import BACKEND_CLASSES
    assert set(BACKEND_CLASSES) == set(known_backends())
    for name in known_backends():
        assert get_backend(name).spec is get_spec(name)


def test_specs_are_self_named():
    for name, spec in backend_specs().items():
        assert spec.name == name


def test_all_four_engines_registered():
    engines = ("serial", "wavefront", "parallel", "distributed")
    assert engine_backends() == engines
    for name in engines:
        assert resolve_backend(name) is get_backend(name)


def test_cli_engine_choices_are_a_derivation():
    from repro.cli import _build_parser
    parser = _build_parser()
    subparsers = next(a for a in parser._actions
                      if hasattr(a, "choices") and "run" in (a.choices or {}))
    run = subparsers.choices["run"]
    engine_action = next(a for a in run._actions if a.dest == "engine")
    assert tuple(engine_action.choices) == engine_backends()


def test_cli_choices_match_registry():
    from repro.cli import _build_parser
    parser = _build_parser()
    for name in engine_backends():
        assert parser.parse_args(["run", "--engine", name]).engine == name
    for name in ("compiled", "gpusim", "outofcore"):
        with pytest.raises(SystemExit):
            parser.parse_args(["run", "--engine", name])


def test_fuzz_pool_is_a_derivation():
    from repro.analysis.fuzzing import _engine_fuzz_engines
    assert _engine_fuzz_engines() \
        == tuple(b for b in known_backends() if b != "serial")


def test_unknown_engine_error_lists_the_registry():
    with pytest.raises(ConfigurationError) as exc:
        resolve_backend("turbo")
    message = str(exc.value)
    for name in engine_backends():
        assert name in message
    # non-engine backends are not reachable through engine= routing
    with pytest.raises(ConfigurationError, match="unknown host engine"):
        resolve_backend("gpusim")


def test_routing_uses_the_registry_message():
    from repro.sat.registry import compute_sat
    with pytest.raises(ConfigurationError) as exc:
        compute_sat(np.zeros((4, 4)), algorithm="1R1W", engine="turbo")
    assert str(exc.value) == str(unknown_engine_error("turbo"))


def test_unknown_engine_error_is_configuration_error():
    err = unknown_engine_error("nope")
    assert isinstance(err, ConfigurationError)
    assert "'nope'" in str(err)
    from repro import compute_sat
    with pytest.raises(ConfigurationError) as exc:
        compute_sat(np.zeros((4, 4)), engine="compiled")
    assert "known engines: serial, wavefront, parallel, distributed" \
        in str(exc.value)


def test_unknown_backend_error_lists_the_registry():
    with pytest.raises(ConfigurationError) as exc:
        get_backend("turbo")
    message = str(exc.value)
    for name in known_backends():
        assert name in message


def test_outofcore_is_not_a_backend():
    """The banded streamer is the distributed backend with one shard, so
    ``outofcore`` gets the canonical unknown-backend error."""
    with pytest.raises(ConfigurationError) as exc:
        get_backend("outofcore")
    assert str(exc.value) == str(unknown_backend_error("outofcore"))


def test_get_spec_unknown_lists_all():
    with pytest.raises(ConfigurationError) as exc:
        get_spec("turbo")
    assert str(exc.value) == str(unknown_backend_error("turbo"))
    for name in known_backends():
        assert name in str(exc.value)


def test_resolve_backend_contract():
    assert resolve_backend(None).spec.name == "serial"
    assert resolve_backend("wavefront").spec.name == "wavefront"
    from repro.hostexec import WavefrontEngine
    with WavefrontEngine(workers=1) as eng:
        adapter = resolve_backend(eng)
        assert adapter.spec is get_spec("wavefront")
        a = np.arange(12, dtype=np.int32).reshape(3, 4)
        np.testing.assert_array_equal(
            adapter.compute(a),
            a.astype(np.int64).cumsum(axis=0).cumsum(axis=1))


def test_backend_table_is_stable_json():
    rows = backend_table()
    assert [r["name"] for r in rows] == list(known_backends())
    keys = {"name", "kind", "summary", "algorithms", "dtypes",
            "bit_identical", "engine", "retains_state", "algorithm_agnostic",
            "default_algorithm"}
    for row in rows:
        assert set(row) == keys
    json.dumps(rows)   # must be JSON-able as-is


def test_capability_flags_pinned():
    specs = backend_specs()
    assert [s.kind for s in specs.values()] \
        == ["host", "host", "host", "device", "streaming"]
    assert {n for n, s in specs.items() if s.bit_identical} \
        == {"serial", "wavefront"}
    assert {n for n, s in specs.items() if s.retains_state} \
        == {"wavefront", "distributed"}
    assert {n for n, s in specs.items() if s.algorithm_agnostic} \
        == {"parallel"}


def test_bit_identity_flags():
    assert get_spec("serial").bit_identical
    assert get_spec("wavefront").bit_identical
    assert not get_spec("parallel").bit_identical
    assert not get_spec("distributed").bit_identical  # band float reorder


def test_wavefront_runs_only_tile_algorithms():
    from repro.hostexec.kernels import KERNELS
    spec = get_spec("wavefront")
    assert spec.algorithms == tuple(KERNELS)
    assert spec.supports_algorithm("1R1W-SKSS-LB")
    assert not spec.supports_algorithm("2R2W")


def test_universal_engines_support_everything():
    from repro import ALGORITHMS
    for name in ("serial", "parallel", "distributed"):
        for alg in ALGORITHMS:
            assert get_spec(name).supports_algorithm(alg)


def test_restricted_dtypes_respected():
    spec = BackendSpec(name="x", summary="", algorithms=None,
                       dtypes=("float32", "float64"), bit_identical=False)
    assert spec.supports_dtype(np.float64)
    assert not spec.supports_dtype(np.int32)


def test_dtypes_none_means_any():
    for spec in backend_specs().values():
        assert spec.dtypes is None
        assert spec.supports_dtype(np.float32)
        assert spec.supports_dtype("int64")
