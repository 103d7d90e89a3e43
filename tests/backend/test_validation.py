"""Validation-before-execution: every backend fails fast, the same way.

The plan stage is where ALL configuration errors surface — as
:class:`~repro.errors.ConfigurationError`, before any input element is read
(``plan()`` structurally cannot touch data: it only receives a shape and a
dtype).  Execution checks only data/plan agreement, and rejects mismatches
before dispatching to the executor.
"""

import numpy as np
import pytest

from repro.backend.core import Backend, BackendSpec
from repro.backend.registry import get_backend
from repro.errors import ConfigurationError


class TestPlanValidation:
    @pytest.mark.parametrize("bad", [0, -3, 2.5, True, "16", None])
    def test_bad_tile_width_rejected(self, backend, bad):
        with pytest.raises(ConfigurationError, match="tile_width"):
            backend.plan((32, 32), "float64", tile_width=bad)

    @pytest.mark.parametrize("bad", [0, -1, 1.5, True, "4"])
    def test_bad_workers_rejected(self, backend, W, bad):
        with pytest.raises(ConfigurationError, match="workers"):
            backend.plan((32, 32), "float64", tile_width=W, workers=bad)

    def test_workers_only_on_pooled_backends(self, backend, spec, W):
        """``workers=`` sizes a worker pool (distributed's processes); a
        backend without one refuses it at planning time instead of
        ignoring it."""
        if spec.name == "distributed":
            assert backend.plan((32, 32), "float64", tile_width=W,
                                workers=2).workers == 2
        else:
            with pytest.raises(ConfigurationError, match="no worker pool"):
                backend.plan((32, 32), "float64", tile_width=W, workers=2)

    @pytest.mark.parametrize("bad", [(0, 5), (5, 0), (-2, 5), (3,),
                                     (3, 4, 5), "nope"])
    def test_bad_shape_rejected(self, backend, W, bad):
        with pytest.raises(ConfigurationError):
            backend.plan(bad, "float64", tile_width=W)

    def test_unknown_algorithm_rejected(self, backend, W):
        with pytest.raises(ConfigurationError, match="unknown SAT algorithm"):
            backend.plan((32, 32), "float64", algorithm="no-such",
                         tile_width=W)

    def test_unsupported_algorithm_rejected(self, backend, spec, W):
        if spec.algorithms is None:
            pytest.skip(f"{spec.name} executes every algorithm")
        unsupported = "2R2W"
        assert unsupported not in spec.algorithms
        with pytest.raises(ConfigurationError,
                           match="does not support algorithm"):
            backend.plan((32, 32), "float64", algorithm=unsupported,
                         tile_width=W)

    def test_invalid_dtype_rejected(self, backend, W):
        with pytest.raises(ConfigurationError, match="dtype"):
            backend.plan((32, 32), "no-such-dtype", tile_width=W)

    @pytest.mark.parametrize("policy", [np.bool_, "bool"],
                             ids=["np.bool_", "name"])
    def test_bool_accumulator_rejected(self, backend, W, policy):
        """A bool table's "sums" are logical ORs, which no four-corner
        query can invert: every backend refuses the accumulator at
        planning time."""
        with pytest.raises(ConfigurationError, match="bool accumulator"):
            backend.plan((64, 96), "bool", tile_width=W,
                         dtype_policy=policy)

    def test_band_rows_only_on_streaming_backends(self, backend, spec, W):
        if spec.kind == "streaming":
            plan = backend.plan((40, 24), "int32", tile_width=W, band_rows=7)
            assert plan.band_rows == 7
            # omitted band_rows derives a sensible default
            assert backend.plan((40, 24), "int32",
                                tile_width=W).band_rows is not None
            for bad in (0, -2, True, 1.5):
                with pytest.raises(ConfigurationError, match="band_rows"):
                    backend.plan((40, 24), "int32", tile_width=W,
                                 band_rows=bad)
        else:
            with pytest.raises(ConfigurationError, match="band_rows"):
                backend.plan((40, 24), "int32", tile_width=W, band_rows=8)


def test_gpusim_requires_warp_aligned_tiles():
    backend = get_backend("gpusim")
    with pytest.raises(ConfigurationError, match="warp"):
        backend.plan((32, 32), "float64", algorithm="1R1W-SKSS",
                     tile_width=16)
    # non-tile dataflows don't care about the warp width
    plan = backend.plan((16, 16), "float64", algorithm="2R2W", tile_width=16)
    assert plan.grid is None


def test_shards_only_as_a_positive_integer():
    backend = get_backend("distributed")
    assert backend.plan((40, 24), "int32", shards=np.int64(3)).shards == 3
    for bad in (0, -1, True, 2.5, "2"):
        with pytest.raises(ConfigurationError, match="shards"):
            backend.plan((40, 24), "int32", shards=bad)


def test_caller_managed_engine_refuses_workers():
    """A wrapped engine runs on the caller's thread, so any ``workers=``
    would be silently ignored: planning rejects it instead."""
    from repro.hostexec import WavefrontEngine
    from repro.sat.registry import compute_sat
    a = np.arange(64, dtype=np.int32).reshape(8, 8)
    want = a.astype(np.int64).cumsum(axis=0).cumsum(axis=1)
    with WavefrontEngine() as eng:
        for workers in (4, 1):
            with pytest.raises(ConfigurationError, match="workers"):
                compute_sat(a, engine=eng, workers=workers)
        np.testing.assert_array_equal(compute_sat(a, engine=eng).sat, want)


def _simulator_cases():
    """The simulator route's bad settings: on the default engine and on a
    caller's GPU, two that every backend refuses and three that only the
    simulator refuses (a worker count, which it has no pool for, and the
    sub-warp ``tile_width=16``)."""
    from repro.gpusim import GPU
    bad = {"workers-negative": {"workers": -1},
           "workers-str": {"workers": "x"},
           "workers-4": {"workers": 4},
           "tile_width-16": {"tile_width": 16},
           "tile_width-float": {"tile_width": 2.5}}
    return [pytest.param(dict(kwargs, **route), id=f"{name}-{case}")
            for name, route in (("gpusim", {}), ("gpu", {"engine": GPU()}))
            for case, kwargs in bad.items()]


@pytest.mark.parametrize("kwargs", [
    pytest.param({"engine": None, "tile_width": 2.5}, id="tile_width-float"),
    pytest.param({"engine": None, "tile_width": True}, id="tile_width-bool"),
    pytest.param({"engine": None, "workers": -1}, id="workers-negative"),
    pytest.param({"engine": "serial", "workers": "x"},
                 id="serial-workers-str"),
    pytest.param({"engine": "serial", "workers": 4}, id="serial-workers-4"),
    pytest.param({"engine": "wavefront", "workers": 1},
                 id="wavefront-workers-1"),
    pytest.param({"engine": "wavefront", "workers": 2},
                 id="wavefront-workers-2"),
    *_simulator_cases()])
def test_compute_sat_host_calls_are_planned(kwargs, monkeypatch):
    """Every call of ``compute_sat`` (the serial and simulator routes
    included) goes through ``Backend.plan``, so a bad setting raises
    before anything runs."""
    from repro.backend.executors import GpusimBackend
    from repro.sat.registry import compute_sat

    def tripwire(self, plan, a, out=None):
        raise AssertionError("executed an invalid configuration")
    monkeypatch.setattr(Backend, "execute", tripwire)
    for owner in (Backend, GpusimBackend):
        monkeypatch.setattr(owner, "run", tripwire)
    a = np.arange(64, dtype=np.int32).reshape(8, 8)
    bad = next(key for key in kwargs if key != "engine")
    with pytest.raises(ConfigurationError, match=bad):
        compute_sat(a, **kwargs)


def test_bool_accumulator_refused_before_the_serial_loop_runs():
    """Serial 2R1W adds int64 carries into its tiles, which a bool table
    cannot hold (NumPy's ``UFuncTypeError``); the plan refuses the
    accumulator before that loop runs."""
    from repro.sat.registry import compute_sat
    a = np.random.default_rng(3).random((40, 70)) < 0.5
    with pytest.raises(ConfigurationError, match="bool accumulator"):
        compute_sat(a, engine=None, algorithm="2R1W", dtype_policy=np.bool_)


def test_unsupported_dtype_rejected_by_the_protocol():
    """The spec's dtype capability gate is enforced by the shared plan stage
    (no registered backend restricts dtypes today, so prove the mechanism
    with a synthetic spec)."""
    class Float64Only(Backend):
        spec = BackendSpec(name="f64only", summary="test double",
                           algorithms=None, dtypes=("float64",),
                           bit_identical=True)

        def _execute(self, plan, a, out):  # pragma: no cover - never planned
            raise AssertionError("must not execute")

    b = Float64Only()
    assert b.plan((8, 8), "float64").acc_dtype == np.dtype("float64")
    with pytest.raises(ConfigurationError, match="does not support "
                                                 "accumulator dtype"):
        b.plan((8, 8), "float32", dtype_policy=np.float32)


class TestExecuteChecksDataAgainstPlan:
    """Execution-stage mismatches raise before the executor ever runs."""

    @pytest.fixture
    def guarded(self, backend, monkeypatch):
        """The backend with its executor replaced by a tripwire."""
        def boom(plan, a, out=None):
            raise AssertionError("_execute reached despite invalid call")
        monkeypatch.setattr(backend, "_execute", boom)
        return backend

    def test_wrong_input_shape(self, guarded, W):
        plan = guarded.plan((32, 24), "float64", tile_width=W)
        with pytest.raises(ConfigurationError, match="shape"):
            guarded.execute(plan, np.zeros((24, 32)))

    def test_wrong_input_dtype(self, guarded, W):
        plan = guarded.plan((32, 24), "float64", tile_width=W)
        with pytest.raises(ConfigurationError, match="dtype"):
            guarded.execute(plan, np.zeros((32, 24), dtype=np.float32))

    def test_out_wrong_shape(self, guarded, W):
        plan = guarded.plan((32, 24), "float64", tile_width=W)
        with pytest.raises(ConfigurationError, match="out"):
            guarded.execute(plan, np.zeros((32, 24)),
                            out=np.empty((24, 32)))

    def test_out_wrong_dtype(self, guarded, W):
        plan = guarded.plan((32, 24), "float64", tile_width=W)
        with pytest.raises(ConfigurationError, match="out"):
            guarded.execute(plan, np.zeros((32, 24)),
                            out=np.empty((32, 24), dtype=np.float32))

    def test_out_non_contiguous(self, guarded, W):
        plan = guarded.plan((32, 24), "float64", tile_width=W)
        with pytest.raises(ConfigurationError, match="out"):
            guarded.execute(plan, np.zeros((32, 24)),
                            out=np.empty((32, 48))[:, ::2])

    def test_non_plan_rejected(self, guarded):
        with pytest.raises(ConfigurationError, match="plan"):
            guarded.execute("not-a-plan", np.zeros((8, 8)))

    def test_non_2d_input_to_compute(self, guarded):
        with pytest.raises(ConfigurationError, match="2-D"):
            guarded.compute(np.zeros(8))
