"""Registry drift pins: one table, every consumer derives from it.

These tests fail if an executor is ever registered (or routed) outside the
unified backend registry: the executor-class table, the sat-layer routing
surface, the CLI ``--engine`` choices, the fuzzer's sampling pool and every
unknown-name error message must all be derivations of
``repro.backend.registry`` — not second lists.  Each backend has one name,
and ``engine=`` / ``--engine`` accept every one of them.
"""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from repro.backend.core import BackendSpec
from repro.backend.registry import (backend_specs, backend_table,
                                    get_backend, get_spec, known_backends,
                                    resolve_backend, unknown_backend_error)
from repro.errors import ConfigurationError

REPO = Path(__file__).resolve().parents[2]


def test_known_backends_exactly():
    assert known_backends() == ("serial", "wavefront", "gpusim",
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
    engines = ("serial", "wavefront", "gpusim", "distributed")
    for name in engines:
        assert resolve_backend(name) is get_backend(name)


def test_cli_engine_choices_are_a_derivation():
    from repro.cli import _build_parser
    parser = _build_parser()
    subparsers = next(a for a in parser._actions
                      if hasattr(a, "choices") and "run" in (a.choices or {}))
    run = subparsers.choices["run"]
    engine_action = next(a for a in run._actions if a.dest == "engine")
    assert tuple(engine_action.choices) == known_backends()
    assert engine_action.default == "gpusim"


def test_cli_choices_match_registry():
    from repro.cli import _build_parser
    parser = _build_parser()
    for name in known_backends():
        assert parser.parse_args(["run", "--engine", name]).engine == name
    for name in ("compiled", "outofcore", "parallel"):
        with pytest.raises(SystemExit):
            parser.parse_args(["run", "--engine", name])


def test_fuzz_pool_is_a_derivation():
    from repro.analysis.fuzzing import _engine_fuzz_engines
    assert _engine_fuzz_engines() \
        == tuple(b for b in known_backends() if b != "serial")


def test_unknown_engine_gets_the_backend_error():
    """An unknown ``engine=`` gets the one unknown-backend message, which
    lists every backend (the simulator included)."""
    with pytest.raises(ConfigurationError) as exc:
        resolve_backend("turbo")
    assert str(exc.value) == str(unknown_backend_error("turbo"))
    for name in known_backends():
        assert name in str(exc.value)
    with pytest.raises(ConfigurationError) as exc:
        resolve_backend(object())
    assert "unknown backend" in str(exc.value)


def test_routing_uses_the_registry_message():
    from repro.sat.registry import compute_sat
    with pytest.raises(ConfigurationError) as exc:
        compute_sat(np.zeros((4, 4)), algorithm="1R1W", engine="turbo")
    assert str(exc.value) == str(unknown_backend_error("turbo"))
    with pytest.raises(ConfigurationError) as exc:
        compute_sat(np.zeros((4, 4)), engine="parallel")
    assert str(exc.value) == str(unknown_backend_error("parallel"))


def test_unknown_engine_is_configuration_error():
    err = unknown_backend_error("nope")
    assert isinstance(err, ConfigurationError)
    assert "'nope'" in str(err)
    from repro import compute_sat
    with pytest.raises(ConfigurationError) as exc:
        compute_sat(np.zeros((4, 4)), engine="compiled")
    assert "known backends: serial, wavefront, gpusim, distributed" \
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
    assert resolve_backend("gpusim").spec.name == "gpusim"
    from repro.gpusim import GPU
    from repro.hostexec import WavefrontEngine
    a = np.arange(12, dtype=np.int32).reshape(3, 4)
    want = a.astype(np.int64).cumsum(axis=0).cumsum(axis=1)
    with WavefrontEngine(workers=1) as eng:
        adapter = resolve_backend(eng)
        assert adapter.spec is get_spec("wavefront")
        np.testing.assert_array_equal(adapter.compute(a), want)
    gpu = GPU(seed=2)
    adapter = resolve_backend(gpu)
    assert adapter.spec is get_spec("gpusim")
    np.testing.assert_array_equal(adapter.compute(a), want)
    assert gpu.launches.kernel_calls == 1   # ran on the caller's GPU


def test_backend_table_is_stable_json():
    rows = backend_table()
    assert [r["name"] for r in rows] == list(known_backends())
    keys = {"name", "kind", "summary", "algorithms", "dtypes",
            "bit_identical", "retains_state", "default_algorithm"}
    for row in rows:
        assert set(row) == keys
    json.dumps(rows)   # must be JSON-able as-is


def test_capability_flags_pinned():
    specs = backend_specs()
    assert [s.kind for s in specs.values()] \
        == ["host", "host", "device", "streaming"]
    assert {n for n, s in specs.items() if s.bit_identical} \
        == {"serial", "wavefront"}
    assert {n for n, s in specs.items() if s.retains_state} \
        == {"wavefront", "distributed"}


def test_bit_identity_flags():
    assert get_spec("serial").bit_identical
    assert get_spec("wavefront").bit_identical
    assert not get_spec("gpusim").bit_identical  # float64 device sums
    assert not get_spec("distributed").bit_identical  # band float reorder


def test_wavefront_summary_pinned():
    """``repro list`` says how the wavefront runs: no pool behind it."""
    assert get_spec("wavefront").summary \
        == "each tile row as one run on the caller's thread"


def test_wavefront_runs_only_tile_algorithms():
    from repro.hostexec.kernels import KERNELS
    spec = get_spec("wavefront")
    assert spec.algorithms == tuple(KERNELS)
    assert spec.supports_algorithm("1R1W-SKSS-LB")
    assert not spec.supports_algorithm("2R2W")


def test_universal_engines_support_everything():
    from repro import ALGORITHMS
    for name in ("serial", "gpusim", "distributed"):
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


def test_docs_name_exactly_the_registered_backends():
    """Drift pin for the prose: README's ``--engine {...}`` list and the
    backend column of ARCHITECTURE.md's table of registered backends name
    exactly ``known_backends()``, in order."""
    readme = (REPO / "README.md").read_text()
    lists = re.findall(r"--engine \{([^}]*)\}", readme)
    assert lists
    for names in lists:
        assert tuple(names.split(",")) == known_backends()
    arch = (REPO / "docs" / "ARCHITECTURE.md").read_text().splitlines()
    head = arch.index("| backend | kind | what runs | scope |")
    rows = []
    for line in arch[head + 2:]:
        if not line.startswith("|"):
            break
        rows.append(re.match(r"\| `([^`]+)`", line).group(1))
    assert tuple(rows) == known_backends()
