"""Equivalence, bit-identity, determinism and API tests for the wavefront
host engine.

The central claims under test (see ``docs/ARCHITECTURE.md``):

* every tile-based algorithm's wavefront execution equals the NumPy
  reference SAT (exact, on integer-valued inputs);
* wavefront results are **bit-identical** to the algorithm's own serial
  ``run_host`` loop, for any worker count — running a tile row's tiles as
  one in-place batch, with its look-back as a scan, does not change a
  single bit, whether or not the row is split into several runs;
* two runs of the same engine are bit-identical (scheduling order does not
  leak into results).
"""

import numpy as np
import pytest

from repro.backend.registry import get_backend, resolve_backend
from repro.errors import ConfigurationError
from repro.hostexec import (WavefrontEngine, default_workers, kernel_for,
                            shared_engine)
from repro.primitives.tile import (TileGrid, global_col_prefixes,
                                   global_col_sums, global_row_sums,
                                   global_sum)
from repro.sat.reference import sat_reference
from repro.sat.registry import compute_sat, get_algorithm

TILE_ALGORITHMS = ["2R1W", "1R1W", "(1+r)R1W", "1R1W-SKSS", "1R1W-SKSS-LB"]


def matrix(n, seed=7, integer=True):
    rng = np.random.default_rng(seed)
    if integer:
        return rng.integers(0, 100, size=(n, n)).astype(np.float64)
    return rng.standard_normal((n, n))


@pytest.mark.parametrize("algorithm", TILE_ALGORITHMS)
@pytest.mark.parametrize("tile_width", [8, 16, 32])
@pytest.mark.parametrize("workers", [1, 2, 4])
def test_matches_reference(algorithm, tile_width, workers):
    a = matrix(96)
    with WavefrontEngine(workers=workers) as eng:
        sat = eng.compute(a, algorithm=algorithm, tile_width=tile_width)
    assert np.array_equal(sat, sat_reference(a))


@pytest.mark.parametrize("algorithm", TILE_ALGORITHMS)
@pytest.mark.parametrize("workers", [1, 2, 4])
def test_bit_identical_to_serial_host(algorithm, workers):
    # Float inputs: round-off patterns must match the serial loop exactly.
    a = matrix(128, integer=False)
    serial = get_algorithm(algorithm).run_host(a)
    with WavefrontEngine(workers=workers) as eng:
        assert np.array_equal(eng.compute(a, algorithm=algorithm), serial)


def spread_matrix(shape, dtype, seed=11):
    """Signed values whose magnitudes spread over 12 decades."""
    rng = np.random.default_rng(seed)
    magnitude = 10.0 ** rng.uniform(-6, 6, size=shape)
    return (rng.choice([-1.0, 1.0], size=shape) * magnitude).astype(dtype)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("algorithm", TILE_ALGORITHMS)
@pytest.mark.parametrize("workers", [2, 4])
def test_split_rows_bit_identical_to_serial_host(algorithm, workers, dtype):
    # 150 x 530 at W=8 is a 19 x 67 tile grid whose rows split into
    # min(workers, 67 // MIN_CHUNK_TILES) runs each.
    a = spread_matrix((150, 530), dtype)
    serial = get_algorithm(algorithm, tile_width=8).run_host(a)
    with WavefrontEngine(workers=workers) as eng:
        sat = eng.compute(a, algorithm=algorithm, tile_width=8)
        plan = eng.plan(TileGrid(rows=150, cols=530, W=8),
                        kernel_for(algorithm).deps)
    assert plan.num_chunks == 19 * workers
    assert np.array_equal(sat, serial)


def integer_matrix(shape, dtype, seed=13):
    """Integers over the dtype's whole range, so sums wrap; ``uint64`` draws
    values >= 2**60, which a float64 round trip could not hold exactly."""
    rng = np.random.default_rng(seed)
    dt = np.dtype(dtype)
    lo = 2**60 if dt == np.uint64 else np.iinfo(dt).min
    return rng.integers(lo, np.iinfo(dt).max, size=shape, dtype=dt,
                        endpoint=True)


INTEGER_DTYPES = [np.uint8, np.int32, np.int64, np.uint64]
NARROW_ACCUMULATORS = [np.int8, np.int16, np.uint8, np.uint16]


def narrow_input():
    """A ragged int32 input whose SAT overflows every narrow accumulator."""
    rng = np.random.default_rng(17)
    return rng.integers(0, 100, size=(70, 300)).astype(np.int32)


class TestExactIntegerKernel:
    """Integer accumulators take one exact row-run kernel for all five
    algorithms; its carry planes are read off the finished SAT."""

    @pytest.mark.parametrize("dtype", INTEGER_DTYPES)
    @pytest.mark.parametrize("algorithm", TILE_ALGORITHMS)
    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("tile_width,shape", [(8, (150, 530)),
                                                  (32, (70, 1100))])
    def test_bit_identical_to_serial_host(self, dtype, algorithm, workers,
                                          tile_width, shape):
        # Both shapes are ragged, and four workers split their tile rows
        # (67 and 35 tile columns), so runs start at J0 > 0.
        a = integer_matrix(shape, dtype)
        serial = get_algorithm(algorithm, tile_width=tile_width).run_host(a)
        with WavefrontEngine(workers=workers) as eng:
            sat = eng.compute(a, algorithm=algorithm, tile_width=tile_width)
            plan = eng.plan(TileGrid(rows=shape[0], cols=shape[1],
                                     W=tile_width),
                            kernel_for(algorithm).deps)
        split = plan.num_chunks > -(-shape[0] // tile_width)
        assert split == (workers > 1)
        assert sat.dtype == serial.dtype
        assert np.array_equal(sat, serial)

    @pytest.mark.parametrize("acc", NARROW_ACCUMULATORS)
    @pytest.mark.parametrize("algorithm", TILE_ALGORITHMS)
    @pytest.mark.parametrize("tile_width", [8, 32])
    def test_serial_oracle_wraps_narrow_accumulators(
            self, acc, algorithm, tile_width):
        """The serial loop keeps its sums and carries in a narrow
        accumulator (NumPy would widen them to 64 bits), so it returns the
        table modulo 2**bits, as the engine does."""
        a = narrow_input()
        serial = compute_sat(a, engine=None, algorithm=algorithm,
                             tile_width=tile_width, dtype_policy=acc).sat
        engine = compute_sat(a, engine="wavefront", algorithm=algorithm,
                             tile_width=tile_width, dtype_policy=acc).sat
        assert serial.dtype == engine.dtype == np.dtype(acc)
        assert np.array_equal(serial, engine)
        # The exact int64 table, wrapped modulo 2**bits.
        assert np.array_equal(serial, sat_reference(a).astype(acc))

    @pytest.mark.parametrize("acc", NARROW_ACCUMULATORS)
    @pytest.mark.parametrize("algorithm", ["2R2W", "2R2W-optimal", None])
    def test_plain_scans_keep_a_narrow_accumulator(self, acc, algorithm):
        a = narrow_input()
        sat = compute_sat(a, engine=None, algorithm=algorithm,
                          dtype_policy=acc).sat
        assert sat.dtype == np.dtype(acc)
        assert np.array_equal(sat, sat_reference(a).astype(acc))

    @pytest.mark.parametrize("algorithm", TILE_ALGORITHMS)
    @pytest.mark.parametrize("workers", [1, 4])
    def test_uint64_carry_planes_equal_their_oracles(self, algorithm,
                                                     workers):
        """Wrapped uint64 planes stay uint64 (a ``float64`` round trip, as
        ``np.diff(x, prepend=0)`` makes, would lose their low bits) and
        equal their oracles, on split rows too (4 workers split the 33 tile
        columns into two runs)."""
        a = integer_matrix((40, 262), np.uint64)
        oracles = {"GRS": global_row_sums, "GCS": global_col_sums,
                   "GS": global_sum, "GCP": global_col_prefixes,
                   "GS-col": lambda work, grid, I, J: global_col_sums(
                       work, grid, I, J).sum(dtype=work.dtype)}
        with WavefrontEngine(workers=workers) as eng:
            eng.compute(a, algorithm=algorithm, tile_width=8,
                        retain_state=True)
            state = eng.retained_state()
        grid = state.grid
        for name, plane in state.planes().items():
            assert plane.dtype == np.uint64, name
            for I in range(grid.tile_rows):
                for J in range(grid.tile_cols):
                    assert np.array_equal(
                        plane[I, J], oracles[name](state.work, grid, I, J)), \
                        (name, I, J)


def test_two_runs_bit_identical():
    a = matrix(256, integer=False)
    with WavefrontEngine(workers=4) as eng:
        first = eng.compute(a)
        second = eng.compute(a)
    assert np.array_equal(first, second)


def test_run_host_engine_parameter():
    """A caller-managed engine through compute_sat equals the serial loop."""
    a = matrix(96)
    alg = get_algorithm("1R1W-SKSS-LB")
    with WavefrontEngine(workers=2) as eng:
        assert np.array_equal(
            compute_sat(a, algorithm=alg.name, engine=eng).sat,
            alg.run_host(a))


def test_run_host_rejects_non_tile_algorithm():
    a = matrix(96)
    with pytest.raises(ConfigurationError,
                       match="does not support algorithm '2R2W'"):
        compute_sat(a, algorithm="2R2W", engine="wavefront")


def test_algorithm_aliases_resolve():
    a = matrix(64)
    with WavefrontEngine(workers=1) as eng:
        sat = eng.compute(a, algorithm="skss-lb")
    assert np.array_equal(sat, sat_reference(a))


class TestBatchedAPI:
    """Repeated computes on one persistent engine."""

    def test_compute_many_mixed_algorithms_independent(self):
        a = matrix(96)
        with WavefrontEngine(workers=2) as eng:
            for algorithm in TILE_ALGORITHMS:
                sat = eng.compute(a, algorithm=algorithm)
                assert np.array_equal(sat, sat_reference(a))

    def test_plan_and_carry_caches_are_reused(self):
        with WavefrontEngine(workers=2) as eng:
            eng.compute(matrix(96))
            plans = {k: id(v) for k, v in eng._plans.items()}
            carries = {k: id(v) for k, v in eng._carries.items()}
            eng.compute(matrix(96, seed=9))
            assert {k: id(v) for k, v in eng._plans.items()} == plans
            assert {k: id(v) for k, v in eng._carries.items()} == carries


class TestOutParameter:
    def test_out_receives_result(self):
        a = matrix(64)
        out = np.empty_like(a)
        with WavefrontEngine(workers=1) as eng:
            result = eng.compute(a, out=out)
        assert result is out
        assert np.array_equal(out, sat_reference(a))

    def test_out_wrong_shape_rejected(self):
        with WavefrontEngine(workers=1) as eng:
            with pytest.raises(ConfigurationError, match="out"):
                eng.compute(matrix(64), out=np.empty((32, 32)))

    def test_out_wrong_dtype_rejected(self):
        with WavefrontEngine(workers=1) as eng:
            with pytest.raises(ConfigurationError, match="out"):
                eng.compute(matrix(64),
                            out=np.empty((64, 64), dtype=np.float32))

    def test_out_non_contiguous_rejected(self):
        backing = np.empty((64, 128))
        with WavefrontEngine(workers=1) as eng:
            with pytest.raises(ConfigurationError, match="out"):
                eng.compute(matrix(64), out=backing[:, ::2])

    def test_input_not_modified(self):
        a = matrix(64)
        snapshot = a.copy()
        with WavefrontEngine(workers=2) as eng:
            sat = eng.compute(a)
        assert np.array_equal(a, snapshot)
        assert sat is not a


class TestValidation:
    def test_non_square_supported(self):
        rng = np.random.default_rng(7)
        a = rng.integers(0, 9, size=(64, 32)).astype(float)
        with WavefrontEngine(workers=1) as eng:
            sat = eng.compute(a)
        assert sat.shape == a.shape
        assert np.array_equal(sat, a.cumsum(axis=0).cumsum(axis=1))

    def test_unaligned_size_supported(self):
        rng = np.random.default_rng(8)
        a = rng.integers(0, 9, size=(40, 40)).astype(float)
        with WavefrontEngine(workers=1) as eng:
            sat = eng.compute(a, tile_width=32)
        assert sat.shape == a.shape
        assert np.array_equal(sat, a.cumsum(axis=0).cumsum(axis=1))

    def test_non_tile_algorithm_rejected(self):
        with WavefrontEngine(workers=1) as eng:
            with pytest.raises(ConfigurationError):
                eng.compute(matrix(64), algorithm="2R2W")

    def test_unknown_algorithm_rejected(self):
        with WavefrontEngine(workers=1) as eng:
            with pytest.raises(ConfigurationError):
                eng.compute(matrix(64), algorithm="no-such-algorithm")

    def test_bad_worker_count_rejected(self):
        with pytest.raises(ConfigurationError):
            WavefrontEngine(workers=0)
        with pytest.raises(ConfigurationError):
            WavefrontEngine(workers=-2)

    @pytest.mark.parametrize("workers", [0, -1, 2.5, True, "2"])
    def test_worker_count_must_be_a_positive_integer(self, workers):
        with pytest.raises(ConfigurationError, match="workers"):
            WavefrontEngine(workers=workers)

    def test_closed_engine_refuses_parallel_compute(self):
        eng = WavefrontEngine(workers=2)
        eng.compute(matrix(128, seed=1), tile_width=8)  # warm
        eng.close()
        with pytest.raises(ConfigurationError, match="closed"):
            # Large enough to need the pool (many chunks).
            eng.compute(matrix(512), tile_width=16)


class TestWorkers:
    def test_default_workers_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert default_workers() == 3

    def test_default_workers_env_invalid(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.raises(ConfigurationError):
            default_workers()

    def test_default_workers_env_nonpositive(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "0")
        with pytest.raises(ConfigurationError):
            default_workers()

    def test_default_workers_falls_back_to_one(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert default_workers() == 1
        assert WavefrontEngine().workers == 1
        assert WavefrontEngine(workers=2).workers == 2

    def test_engine_uses_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        assert WavefrontEngine().workers == 2


def _count_computes(monkeypatch, eng) -> list:
    """Record every ``compute`` call made on ``eng``."""
    calls = []
    real = eng.compute

    def counted(*args, **kwargs):
        calls.append(eng)
        return real(*args, **kwargs)
    monkeypatch.setattr(eng, "compute", counted)
    return calls


class TestResolution:
    def test_resolve_instance_passthrough(self, monkeypatch):
        with WavefrontEngine(workers=1) as eng:
            calls = _count_computes(monkeypatch, eng)
            backend = resolve_backend(eng)
            assert backend.spec.name == "wavefront"
            a = matrix(40)
            assert np.array_equal(backend.compute(a, algorithm="1R1W"),
                                  sat_reference(a))
            assert calls == [eng]

    def test_resolve_wavefront_returns_shared(self, monkeypatch):
        backend = resolve_backend("wavefront")
        assert backend is get_backend("wavefront")
        calls = _count_computes(monkeypatch, shared_engine())
        a = matrix(40)
        assert np.array_equal(backend.compute(a, algorithm="1R1W"),
                              sat_reference(a))
        assert calls == [shared_engine()]

    def test_shared_engine_recreated_after_close(self):
        first = shared_engine()
        first.close()
        second = shared_engine()
        assert second is not first
        assert not second._closed

    def test_resolve_unknown_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_backend("gpu")
