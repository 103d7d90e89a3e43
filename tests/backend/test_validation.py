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


def test_workers_must_match_a_caller_managed_engine():
    """A wrapped engine keeps its own pool, so a different ``workers=``
    would be silently ignored: planning rejects it instead."""
    from repro.hostexec import WavefrontEngine
    from repro.sat.registry import compute_sat
    a = np.arange(64, dtype=np.int32).reshape(8, 8)
    want = a.astype(np.int64).cumsum(axis=0).cumsum(axis=1)
    with WavefrontEngine(workers=1) as eng:
        with pytest.raises(ConfigurationError, match="workers"):
            compute_sat(a, engine=eng, workers=4)
        for workers in (None, 1):
            result = compute_sat(a, engine=eng, workers=workers)
            np.testing.assert_array_equal(result.sat, want)


@pytest.mark.parametrize("kwargs", [
    {"tile_width": 2.5}, {"tile_width": True}, {"workers": -1},
    {"engine": "serial", "workers": "x"}],
    ids=["tile_width-float", "tile_width-bool", "workers-negative",
         "serial-workers-str"])
def test_compute_sat_host_calls_are_planned(kwargs, monkeypatch):
    """Every host call of ``compute_sat`` (the serial route included) goes
    through ``Backend.plan``, so a bad setting raises before execution."""
    from repro.sat.registry import compute_sat

    def tripwire(self, plan, a, out=None):
        raise AssertionError("executed an invalid configuration")
    monkeypatch.setattr(Backend, "execute", tripwire)
    a = np.arange(64, dtype=np.int32).reshape(8, 8)
    with pytest.raises(ConfigurationError):
        compute_sat(a, simulate=False, **kwargs)


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
