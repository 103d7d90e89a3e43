"""Equivalence, bit-identity, determinism and API tests for the wavefront
host engine.

The central claims under test (see ``docs/ARCHITECTURE.md``):

* every tile-based algorithm's wavefront execution equals the NumPy
  reference SAT (exact, on integer-valued inputs);
* wavefront results are **bit-identical** to the algorithm's own serial
  ``run_host`` loop — running a tile row's tiles as one in-place batch,
  with its look-back as a scan, does not change a single bit, whether the
  row runs as one run (the engine) or as several runs, the later ones
  starting at ``J0 > 0`` (as incremental repair's runs do);
* two runs of the same engine are bit-identical, and an engine keeps
  nothing between computes, so threads may share it.
"""

import sys
import threading

import numpy as np
import pytest

from repro.backend.plan import prepare_input
from repro.backend.registry import get_backend, resolve_backend
from repro.errors import ConfigurationError
from repro.hostexec import WavefrontEngine, kernel_for, shared_engine
from repro.hostexec.incremental import IncrementalSAT, RetainedState
from repro.hostexec.kernels import CarryPlanes, Chunk
from repro.primitives.tile import (TileGrid, global_col_prefixes,
                                   global_col_sums, global_row_sums,
                                   global_sum)
from repro.sat.dtypes import resolve_policy
from repro.sat.reference import sat_reference
from repro.sat.registry import compute_sat, get_algorithm

TILE_ALGORITHMS = ["2R1W", "1R1W", "(1+r)R1W", "1R1W-SKSS", "1R1W-SKSS-LB"]


def matrix(n, seed=7, integer=True):
    rng = np.random.default_rng(seed)
    if integer:
        return rng.integers(0, 100, size=(n, n)).astype(np.float64)
    return rng.standard_normal((n, n))


def run_in_runs(a, algorithm, tile_width=32, runs=1) -> RetainedState:
    """``a``'s SAT and carry planes with each tile row executed as ``runs``
    runs of the algorithm's row-run kernel, in row-major order.

    One run per row is the engine's own schedule.  With more, every run
    after a row's first starts at ``J0 > 0``, as
    ``IncrementalSAT._repair_recompute``'s runs do.
    """
    spec = kernel_for(algorithm)
    acc = resolve_policy(None).accumulator(a.dtype)
    grid = TileGrid(rows=a.shape[0], cols=a.shape[1], W=tile_width)
    work, _ = prepare_input(a, acc_dtype=acc, grid=grid, force_copy=True)
    state = RetainedState(spec=spec, grid=grid, work=work,
                          out=np.empty_like(work),
                          carry=CarryPlanes(tr=grid.tile_rows,
                                            tc=grid.tile_cols, W=tile_width,
                                            dtype=acc))
    tc = grid.tile_cols
    bounds = sorted({tc * k // runs for k in range(runs + 1)})
    for I in range(grid.tile_rows):
        for J0, J1 in zip(bounds, bounds[1:]):
            spec.run(state.a4, state.out4, state.carry,
                     Chunk(row=I, J0=J0, J1=J1), tile_width)
    return state


def sat_in_runs(a, algorithm, tile_width=32, runs=1) -> np.ndarray:
    """``a``'s SAT with each tile row executed as ``runs`` runs; one run per
    row is a plain engine compute (an aligned input is read in place)."""
    if runs == 1:
        with WavefrontEngine() as eng:
            return eng.compute(a, algorithm=algorithm, tile_width=tile_width)
    state = run_in_runs(a, algorithm, tile_width, runs)
    return state.out[:a.shape[0], :a.shape[1]]


@pytest.mark.parametrize("algorithm", TILE_ALGORITHMS)
@pytest.mark.parametrize("tile_width", [8, 16, 32])
@pytest.mark.parametrize("runs", [1, 2, 4])
def test_matches_reference(algorithm, tile_width, runs):
    a = matrix(96)
    sat = sat_in_runs(a, algorithm, tile_width, runs)
    assert np.array_equal(sat, sat_reference(a))


@pytest.mark.parametrize("algorithm", TILE_ALGORITHMS)
@pytest.mark.parametrize("runs", [1, 2, 4])
def test_bit_identical_to_serial_host(algorithm, runs):
    # Float inputs: round-off patterns must match the serial loop exactly.
    a = matrix(128, integer=False)
    serial = get_algorithm(algorithm).run_host(a)
    assert np.array_equal(sat_in_runs(a, algorithm, runs=runs), serial)


def spread_matrix(shape, dtype, seed=11):
    """Signed values whose magnitudes spread over 12 decades."""
    rng = np.random.default_rng(seed)
    magnitude = 10.0 ** rng.uniform(-6, 6, size=shape)
    return (rng.choice([-1.0, 1.0], size=shape) * magnitude).astype(dtype)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("algorithm", TILE_ALGORITHMS)
@pytest.mark.parametrize("runs", [2, 4])
def test_split_rows_bit_identical_to_serial_host(algorithm, runs, dtype):
    # 150 x 530 at W=8 is a ragged 19 x 67 tile grid; each row runs as
    # ``runs`` runs.
    a = spread_matrix((150, 530), dtype)
    serial = get_algorithm(algorithm, tile_width=8).run_host(a)
    assert np.array_equal(sat_in_runs(a, algorithm, 8, runs), serial)


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
    @pytest.mark.parametrize("runs", [1, 4])
    @pytest.mark.parametrize("tile_width,shape", [(8, (150, 530)),
                                                  (32, (70, 1100))])
    def test_bit_identical_to_serial_host(self, dtype, algorithm, runs,
                                          tile_width, shape):
        # Both shapes are ragged (67 and 35 tile columns); with four runs
        # per row, runs start at J0 > 0 and take the kernel's seeded path.
        a = integer_matrix(shape, dtype)
        serial = get_algorithm(algorithm, tile_width=tile_width).run_host(a)
        sat = sat_in_runs(a, algorithm, tile_width, runs)
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
    @pytest.mark.parametrize("runs", [1, 4])
    def test_uint64_carry_planes_equal_their_oracles(self, algorithm, runs):
        """Wrapped uint64 planes stay uint64 (a ``float64`` round trip, as
        ``np.diff(x, prepend=0)`` makes, would lose their low bits) and
        equal their oracles, on split rows too (the 33 tile columns as four
        runs per row)."""
        a = integer_matrix((40, 262), np.uint64)
        oracles = {"GRS": global_row_sums, "GCS": global_col_sums,
                   "GS": global_sum, "GCP": global_col_prefixes,
                   "GS-col": lambda work, grid, I, J: global_col_sums(
                       work, grid, I, J).sum(dtype=work.dtype)}
        state = run_in_runs(a, algorithm, 8, runs)
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
    with WavefrontEngine() as eng:
        first = eng.compute(a)
        second = eng.compute(a)
    assert np.array_equal(first, second)


def test_run_host_engine_parameter():
    """A caller-managed engine through compute_sat equals the serial loop."""
    a = matrix(96)
    alg = get_algorithm("1R1W-SKSS-LB")
    with WavefrontEngine() as eng:
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
    """Repeated and concurrent computes on one engine."""

    def test_compute_many_mixed_algorithms_independent(self):
        a = matrix(96)
        with WavefrontEngine() as eng:
            for algorithm in TILE_ALGORITHMS:
                sat = eng.compute(a, algorithm=algorithm)
                assert np.array_equal(sat, sat_reference(a))

    def test_threads_share_one_engine(self):
        """The engine has no lock and keeps nothing between computes:
        threads computing on it at once (more threads than cores, switching
        often), over mixed dtypes, algorithms and shapes, each get the
        serial oracle's table.  Inputs come in pairs of one geometry and
        dtype with different values, which carry planes shared between
        computes would mix."""
        rng = np.random.default_rng(3)
        cases = [((rng.random(shape) * 100).astype(dtype), algorithm)
                 for shape, dtype, algorithm in (
                     ((64, 96), np.float32, "2R1W"),
                     ((64, 96), np.float32, "1R1W-SKSS-LB"),
                     ((70, 45), np.float64, "1R1W-SKSS"),
                     ((70, 45), np.float64, "(1+r)R1W"),
                     ((70, 45), np.int32, "1R1W-SKSS-LB"),
                     ((96, 64), np.uint8, "1R1W"))]
        want = [get_algorithm(alg, tile_width=16).run_host(a)
                for a, alg in cases]
        eng = WavefrontEngine()
        start = threading.Barrier(len(cases))
        wrong: list = []

        def worker(first):
            start.wait(timeout=30)
            for i in range(200):
                k = (first + i) % len(cases)
                a, alg = cases[k]
                if not np.array_equal(
                        eng.compute(a, algorithm=alg, tile_width=16),
                        want[k]):
                    wrong.append(k)

        threads = [threading.Thread(target=worker, args=(k,))
                   for k in range(len(cases))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []


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

    def test_out_checked_before_the_input_is_prepared(self, monkeypatch):
        """A bad ``out=`` raises before the input's cast and padded copy."""
        def tripwire(*args, **kwargs):
            raise AssertionError("prepare_input ran before out= was checked")
        monkeypatch.setattr("repro.hostexec.engine.prepare_input", tripwire)
        a = np.arange(70 * 45, dtype=np.int32).reshape(70, 45)
        with pytest.raises(ConfigurationError, match="out"):
            WavefrontEngine().compute(
                a, tile_width=32, out=np.empty((70, 45), dtype=np.float32))

    def test_out_non_contiguous_rejected(self):
        backing = np.empty((64, 128))
        with WavefrontEngine(workers=1) as eng:
            with pytest.raises(ConfigurationError, match="out"):
                eng.compute(matrix(64), out=backing[:, ::2])

    def test_input_not_modified(self):
        a = matrix(64)
        snapshot = a.copy()
        with WavefrontEngine() as eng:
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
        # One worker is all the engine has, behind IncrementalSAT too.
        with pytest.raises(ConfigurationError, match="workers"):
            WavefrontEngine(workers=2)
        with pytest.raises(ConfigurationError, match="workers"):
            IncrementalSAT(matrix(32), workers=2)

    @pytest.mark.parametrize("workers", [0, -1, 2.5, True, "2"])
    def test_worker_count_must_be_a_positive_integer(self, workers):
        with pytest.raises(ConfigurationError, match="workers"):
            WavefrontEngine(workers=workers)

    def test_closed_engine_refuses_compute(self):
        """A closed engine refuses every compute, whatever the call's
        geometry; a closed IncrementalSAT does not reopen on rebuild."""
        eng = WavefrontEngine()
        eng.compute(matrix(128, seed=1), tile_width=8)
        eng.close()
        for n, W in ((64, 64), (64, 8), (512, 16)):
            with pytest.raises(ConfigurationError, match="closed"):
                eng.compute(matrix(n), tile_width=W)
        inc = IncrementalSAT(matrix(64))
        inc.close()
        with pytest.raises(ConfigurationError, match="closed"):
            inc.rebuild(matrix(64))
        with pytest.raises(ConfigurationError, match="closed"):
            inc.sat


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
