"""Retained-state round-trips: carry planes against their algebraic oracles.

Backends declaring ``retains_state`` return a typed
:class:`~repro.backend.carries.CarrySet` from ``execute_with_carries``:

* the wavefront backend's :class:`TileCarrySet` holds the Table II planes,
  checked here against the region-sum oracle definitions in
  :mod:`repro.primitives.tile` (exact — integer accumulators);
* the distributed backend's :class:`BandCarrySet` holds the accumulated
  column sums whose prefix scan stitches bands — after a full pass they
  equal the total per-column sums (the same algebra one level up), whether
  one shard streams every band or several shards share them;
* every other backend refuses with the canonical ConfigurationError.
"""

import numpy as np
import pytest

from repro.backend.carries import BandCarrySet, TileCarrySet
from repro.backend.plan import prepare_input
from repro.backend.registry import get_backend, get_spec, known_backends
from repro.errors import ConfigurationError
from repro.primitives.tile import (global_col_prefixes, global_col_sums,
                                   global_row_sums, global_sum)


def matrix(shape, seed=11):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 100, size=shape).astype(np.int64)


class TestWavefrontCarries:
    @pytest.mark.parametrize("algorithm", ["2R1W", "1R1W", "(1+r)R1W",
                                           "1R1W-SKSS", "1R1W-SKSS-LB"])
    def test_planes_match_table2_oracles(self, algorithm):
        backend = get_backend("wavefront")
        a = matrix((53, 38))
        plan = backend.plan(a.shape, a.dtype, algorithm=algorithm,
                            tile_width=16)
        sat, carries = backend.execute_with_carries(plan, a)
        # the sat half of the round-trip is the plain execute result
        np.testing.assert_array_equal(sat, backend.execute(plan, a))
        assert isinstance(carries, TileCarrySet)
        assert carries.dtype == plan.acc_dtype
        grid = plan.grid
        assert (carries.tile_rows, carries.tile_cols) \
            == (grid.tile_rows, grid.tile_cols)
        work, _ = prepare_input(a, acc_dtype=plan.acc_dtype, grid=grid)
        planes = carries.planes()
        assert carries.roles() == tuple(planes)
        for I in range(grid.tile_rows):
            for J in range(grid.tile_cols):
                np.testing.assert_array_equal(
                    planes["GRS"][I, J], global_row_sums(work, grid, I, J))
                if "GCP" in planes:     # the SKSS dataflow
                    np.testing.assert_array_equal(
                        planes["GCP"][I, J],
                        global_col_prefixes(work, grid, I, J))
                else:                   # the look-back family
                    np.testing.assert_array_equal(
                        planes["GCS"][I, J],
                        global_col_sums(work, grid, I, J))
                    assert planes["GS"][I, J] == global_sum(work, grid, I, J)

    def test_carries_are_private_copies(self):
        """Mutating a returned plane must not corrupt later computations."""
        backend = get_backend("wavefront")
        a = matrix((48, 32))
        plan = backend.plan(a.shape, a.dtype, algorithm="1R1W-SKSS-LB",
                            tile_width=16)
        want = backend.execute(plan, a)
        _, carries = backend.execute_with_carries(plan, a)
        for plane in carries.planes().values():
            plane[...] = -1
        np.testing.assert_array_equal(backend.execute(plan, a), want)


class TestBandCarries:
    """One shard: the out-of-core band loop behind the backend protocol."""

    def test_column_sums_after_full_pass(self):
        backend = get_backend("distributed")
        a = matrix((53, 38))
        plan = backend.plan(a.shape, a.dtype, band_rows=7, tile_width=16,
                            shards=1)
        sat, carries = backend.execute_with_carries(plan, a)
        np.testing.assert_array_equal(sat, backend.execute(plan, a))
        assert isinstance(carries, BandCarrySet)
        assert carries.dtype == plan.acc_dtype
        assert carries.roles() == ("BCS",)
        np.testing.assert_array_equal(
            carries.planes()["BCS"],
            a.sum(axis=0, dtype=plan.acc_dtype))

    def test_with_tile_algorithm_per_band(self):
        backend = get_backend("distributed")
        a = matrix((40, 24), seed=3)
        plan = backend.plan(a.shape, a.dtype, algorithm="1R1W-SKSS",
                            tile_width=16, band_rows=18, shards=1)
        sat, carries = backend.execute_with_carries(plan, a)
        ref = a.astype(plan.acc_dtype).cumsum(axis=0).cumsum(axis=1)
        np.testing.assert_array_equal(sat, ref)
        np.testing.assert_array_equal(carries.planes()["BCS"],
                                      a.sum(axis=0, dtype=plan.acc_dtype))


class TestDistributedCarries:
    def test_column_sums_after_sharded_pass(self):
        """Several shards speak the same band-carry algebra as one: after a
        full sharded pass the BandCarrySet holds the total per-column
        sums."""
        backend = get_backend("distributed")
        a = matrix((53, 38), seed=5)
        plan = backend.plan(a.shape, a.dtype, algorithm="1R1W-SKSS-LB",
                            tile_width=16, shards=3)
        sat, carries = backend.execute_with_carries(plan, a)
        np.testing.assert_array_equal(sat, backend.execute(plan, a))
        assert isinstance(carries, BandCarrySet)
        assert carries.dtype == plan.acc_dtype
        assert carries.roles() == ("BCS",)
        np.testing.assert_array_equal(
            carries.planes()["BCS"], a.sum(axis=0, dtype=plan.acc_dtype))


@pytest.mark.parametrize("name", [n for n in known_backends()
                                  if not get_spec(n).retains_state])
def test_non_retaining_backends_refuse(name):
    backend = get_backend(name)
    W = 32 if backend.spec.kind == "device" else 16
    plan = backend.plan((32, 32), "int32", tile_width=W)
    with pytest.raises(ConfigurationError,
                       match="does not retain carry state"):
        backend.execute_with_carries(plan, np.zeros((32, 32), np.int32))
