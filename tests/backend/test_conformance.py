"""Conformance: every registered backend, one contract.

The core promise of the unified :mod:`repro.backend` protocol: any backend,
asked for any (algorithm, dtype, ragged shape) combination it declares
support for, produces the serial oracle's summed area table — exactly for
``bit_identical`` specs and integer accumulators, within an
accumulation-depth tolerance otherwise — honours ``out=`` uniformly, and
returns frozen, reusable plans.

Adding a backend to the registry automatically subjects it to this suite
(the ``backend`` fixture parameterizes over ``known_backends()``).
"""

import dataclasses
import warnings

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.sat.registry import get_algorithm

ALGORITHMS = ("2R2W", "2R2W-optimal", "2R1W", "1R1W", "(1+r)R1W",
              "1R1W-SKSS", "1R1W-SKSS-LB")
DTYPES = ("int32", "float64")


def test_parametrization_covers_registry(request):
    """Drift pin: the ``backend_name`` fixture that parameterizes this whole
    suite must enumerate exactly ``known_backends()`` — a future backend
    cannot be registered without landing under conformance."""
    from repro.backend.registry import known_backends
    fixturedef = request.session._fixturemanager.getfixturedefs(
        "backend_name", request.node)[-1]
    assert tuple(fixturedef.params) == known_backends()


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_matches_serial_oracle(backend, spec, W, shape, make_matrix,
                               assert_matches, algorithm, dtype):
    if not spec.supports_algorithm(algorithm):
        pytest.skip(f"{spec.name} does not execute {algorithm}")
    a = make_matrix(shape, dtype)
    got = backend.compute(a, algorithm=algorithm, tile_width=W)
    want = get_algorithm(algorithm, tile_width=W).run_host(a)
    assert_matches(spec, got, want)


def test_default_algorithm(backend, spec, W, shape, make_matrix,
                           assert_matches):
    """``algorithm=None`` means the spec's default (or the plain scan)."""
    a = make_matrix(shape, "int32")
    got = backend.compute(a, tile_width=W)
    want = a.astype(got.dtype, copy=False).cumsum(axis=0).cumsum(axis=1)
    assert_matches(spec, got, want)


def test_aligned_shape(backend, spec, W, make_matrix, assert_matches):
    """Tile-aligned matrices (no ragged padding path) work identically."""
    a = make_matrix((W, 2 * W), "int32", seed=3)
    got = backend.compute(a, tile_width=W)
    want = a.astype(got.dtype, copy=False).cumsum(axis=0).cumsum(axis=1)
    assert_matches(spec, got, want)


def test_input_never_modified(backend, W, shape, make_matrix):
    a = make_matrix(shape, "float64")
    snapshot = a.copy()
    sat = backend.compute(a, tile_width=W)
    assert np.array_equal(a, snapshot)
    assert sat is not a


class TestOutParameter:
    def test_out_receives_result(self, backend, W, shape, make_matrix):
        a = make_matrix(shape, "int32")
        plan = backend.plan(a.shape, a.dtype, tile_width=W)
        out = np.empty(shape, dtype=plan.acc_dtype)
        result = backend.execute(plan, a, out=out)
        assert result is out
        np.testing.assert_array_equal(out, backend.execute(plan, a))

    def test_out_also_via_compute(self, backend, W, shape, make_matrix):
        a = make_matrix(shape, "int32")
        plan = backend.plan(a.shape, a.dtype, tile_width=W)
        out = np.empty(shape, dtype=plan.acc_dtype)
        result = backend.compute(a, tile_width=W, out=out)
        assert result is out


class TestPlans:
    def test_plan_is_frozen(self, backend, W, shape):
        plan = backend.plan(shape, "int32", tile_width=W)
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.rows = 1

    def test_plan_is_reusable_and_deterministic(self, backend, W, shape,
                                                make_matrix):
        a = make_matrix(shape, "float64")
        plan = backend.plan(a.shape, a.dtype, tile_width=W)
        first = backend.execute(plan, a)
        second = backend.execute(plan, a)
        np.testing.assert_array_equal(first, second)

    def test_plan_describe_is_stable_json(self, backend, spec, W, shape):
        plan = backend.plan(shape, "int32", tile_width=W)
        d = plan.describe()
        assert d["backend"] == spec.name
        assert (d["rows"], d["cols"]) == shape
        assert isinstance(d["acc_dtype"], str)

    def test_plan_carries_grid_only_for_tile_dataflows(self, backend, spec,
                                                       W, shape):
        plan = backend.plan(shape, "int32", tile_width=W)
        if plan.algorithm is None or not plan.tile_based:
            assert plan.grid is None
        else:
            assert plan.grid is not None
            assert plan.grid.W == W

    def test_foreign_plan_rejected(self, backend, spec, W, shape,
                                   make_matrix):
        from repro.backend.registry import get_backend, known_backends
        other_name = next(n for n in known_backends() if n != spec.name)
        foreign = get_backend(other_name).plan(shape, "int32",
                                               tile_width=W)
        with pytest.raises(ConfigurationError, match="plan was made for"):
            backend.execute(foreign, make_matrix(shape, "int32"))


def _read_only(a):
    a.setflags(write=False)
    return a


LAYOUTS = {
    "big-endian": lambda a: a.astype(">i4"),
    "fortran": np.asfortranarray,
    "strided": lambda a: a[::2, ::3],
    "read-only": _read_only,
    "bool": lambda a: a % 3 == 0,
}


@pytest.mark.parametrize("layout", LAYOUTS)
def test_input_layouts_give_the_exact_int64_table(backend, W, make_matrix,
                                                  layout):
    """Byte order, memory order, strides, read-only buffers and ``bool``
    are the input's business: every backend returns the exact int64
    table."""
    a = LAYOUTS[layout](make_matrix((70, 45), "int32"))
    got = backend.compute(a, tile_width=W)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got,
                                  a.astype(np.int64).cumsum(0).cumsum(1))


@pytest.mark.parametrize("policy, acc", [("widen-float", np.int64),
                                         ("float64", np.float64)])
def test_bool_input_under_named_policies(backend, W, make_matrix, policy,
                                         acc):
    """A ``bool`` *input* is fine under the other named policies too (the
    ``exact`` case is a layout above; only a bool accumulator is refused):
    counts in int64, or in float64 under the legacy policy, exact at this
    size whatever the summation order."""
    a = make_matrix((70, 45), "int32") % 3 == 0
    got = backend.compute(a, tile_width=W, dtype_policy=policy)
    assert got.dtype == acc
    np.testing.assert_array_equal(got, a.astype(acc).cumsum(0).cumsum(1))


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_non_finite_inputs_propagate_down_right(backend, W, shape,
                                                make_matrix, dtype):
    """The non-finite rule: a NaN or ±inf input element makes every entry
    at or down-right of it non-finite, and no other.  Where the +inf and
    -inf quadrants overlap the entries are NaN (``inf - inf``)."""
    a = make_matrix(shape, dtype)
    rows, cols = shape
    cells = {"nan": (rows // 2, cols - 3), "+inf": (2, cols // 3),
             "-inf": (rows // 3, 1)}
    for kind, (r, c) in cells.items():
        a[r, c] = float(kind)
    with warnings.catch_warnings(), np.errstate(invalid="ignore"):
        warnings.simplefilter("ignore", RuntimeWarning)   # inf - inf
        got = backend.compute(a, tile_width=W)
    r, c = np.indices(shape)
    under = {kind: (r >= r0) & (c >= c0) for kind, (r0, c0) in cells.items()}
    nan = under["nan"] | (under["+inf"] & under["-inf"])
    np.testing.assert_array_equal(np.isnan(got), nan)
    np.testing.assert_array_equal(got == np.inf, under["+inf"] & ~nan)
    np.testing.assert_array_equal(got == -np.inf, under["-inf"] & ~nan)
