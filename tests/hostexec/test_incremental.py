"""Differential tests for the incremental SAT engine.

The core property: after *every* edit, ``IncrementalSAT``'s resident table
must be bit-identical to a from-scratch host computation of the current
input (exact for integer accumulators; floats compare in the same
accumulator dtype against the same serial tile algebra), for every
algorithm, strategy, dtype, tile width, ragged shape and worker count.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.hostexec import WavefrontEngine
from repro.hostexec.incremental import (IncrementalSAT, repair_benchmark,
                                        sanitize_incremental, verify_state)
from repro.sat.registry import get_algorithm

ALGORITHMS = ("2R1W", "1R1W", "(1+r)R1W", "1R1W-SKSS", "1R1W-SKSS-LB")


def _data(rng, shape, dtype):
    if np.issubdtype(np.dtype(dtype), np.floating):
        # Genuinely fractional: integer-valued float data makes every
        # add/subtract exact and hides rounding bugs from the bit-identity
        # oracle.
        return (rng.random(size=shape) * 100).astype(dtype)
    return rng.integers(0, 100, size=shape).astype(dtype)


def _reference(inc, current):
    """From-scratch serial host SAT in the engine's accumulator dtype."""
    return get_algorithm(inc.algorithm, tile_width=inc.tile_width).run_host(
        current, dtype_policy=inc.dtype)


def _random_edits(rng, inc, current, dtype, num_edits=4):
    """Apply random rect edits, asserting bit-identity after each one."""
    rows, cols = current.shape
    for _ in range(num_edits):
        h = int(rng.integers(1, rows + 1))
        w = int(rng.integers(1, cols + 1))
        top = int(rng.integers(0, rows - h + 1))
        left = int(rng.integers(0, cols - w + 1))
        vals = _data(rng, (h, w), dtype)
        got = inc.update(top, left, vals)
        current[top:top + h, left:left + w] = vals
        assert np.array_equal(got, _reference(inc, current))


class TestDifferential:
    """Random edit sequences vs from-scratch recompute, bit for bit."""

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_all_algorithms_int(self, rng, algorithm):
        a = _data(rng, (96, 96), np.int32)
        with IncrementalSAT(a, algorithm=algorithm) as inc:
            assert inc.strategy == "delta"
            _random_edits(rng, inc, a.astype(inc.dtype), np.int32)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_all_algorithms_float(self, rng, algorithm):
        a = _data(rng, (96, 96), np.float64)
        with IncrementalSAT(a, algorithm=algorithm) as inc:
            assert inc.strategy == "recompute"
            _random_edits(rng, inc, a.astype(inc.dtype), np.float64)

    @pytest.mark.parametrize("dtype", [np.uint8, np.int32, np.float32,
                                       np.float64])
    def test_all_dtypes(self, rng, dtype):
        a = _data(rng, (96, 96), dtype)
        with IncrementalSAT(a) as inc:
            _random_edits(rng, inc, a.astype(inc.dtype), dtype)

    @pytest.mark.parametrize("tile_width", [8, 16, 32])
    def test_tile_widths(self, rng, tile_width):
        a = _data(rng, (96, 96), np.int32)
        with IncrementalSAT(a, tile_width=tile_width) as inc:
            _random_edits(rng, inc, a.astype(inc.dtype), np.int32)

    @pytest.mark.parametrize("shape", [(96, 96), (70, 130), (130, 70),
                                       (33, 97), (32, 160), (1, 45), (45, 1)])
    def test_ragged_rectangular_shapes(self, rng, shape):
        a = _data(rng, shape, np.int32)
        with IncrementalSAT(a) as inc:
            _random_edits(rng, inc, a.astype(inc.dtype), np.int32)

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_worker_independence(self, rng, workers):
        """The repaired table must not depend on the build's worker count."""
        a = _data(rng, (128, 96), np.float32)
        results = []
        edits_rng_seed = 77
        for _ in range(2):  # determinism across repeated runs too
            edit_rng = np.random.default_rng(edits_rng_seed)
            with IncrementalSAT(a, workers=workers) as inc:
                cur = a.astype(inc.dtype)
                _random_edits(edit_rng, inc, cur, np.float32)
                results.append(inc.sat.copy())
        assert np.array_equal(results[0], results[1])

    def test_strategies_agree_bitwise_for_ints(self, rng):
        """delta (modular arithmetic) and recompute (chunk kernels) must
        land on the same bits for integer accumulators."""
        a = _data(rng, (100, 75), np.int32)
        with IncrementalSAT(a, strategy="delta") as d, \
                IncrementalSAT(a, strategy="recompute") as r:
            for _ in range(3):
                h, w = int(rng.integers(1, 50)), int(rng.integers(1, 50))
                top = int(rng.integers(0, 100 - h + 1))
                left = int(rng.integers(0, 75 - w + 1))
                vals = _data(rng, (h, w), np.int32)
                assert np.array_equal(d.update(top, left, vals),
                                      r.update(top, left, vals))

    def test_integer_wraparound_stays_exact(self, rng):
        """Delta repair relies on modular arithmetic: overflow must agree
        with recompute bit for bit (int8 accumulates in int64, so force
        wrap-around via an int64 edit near the max)."""
        a = np.full((64, 64), 2**62, dtype=np.int64)
        with IncrementalSAT(a, strategy="delta") as inc:
            cur = a.copy()
            vals = np.full((10, 10), 2**62, dtype=np.int64)
            got = inc.update(5, 5, vals)
            cur[5:15, 5:15] = vals
            with np.errstate(over="ignore"):
                assert np.array_equal(got, _reference(inc, cur))


class TestEditKinds:
    """update_tiles / delta / advance cover the same property."""

    @pytest.mark.parametrize("strategy", ["delta", "recompute"])
    def test_update_tiles(self, rng, strategy):
        a = _data(rng, (96, 80), np.int32)
        with IncrementalSAT(a, tile_width=32, strategy=strategy) as inc:
            cur = a.astype(inc.dtype)
            grid = inc.grid
            edits = []
            for _ in range(3):
                I = int(rng.integers(0, grid.tile_rows))
                J = int(rng.integers(0, grid.tile_cols))
                shape = (grid.tile_height(I), grid.tile_width_at(J))
                edits.append((I, J, _data(rng, shape, np.int32)))
            got = inc.update_tiles(edits)
            for I, J, vals in edits:  # duplicates: last write wins
                cur[32 * I:32 * I + vals.shape[0],
                    32 * J:32 * J + vals.shape[1]] = vals
            assert np.array_equal(got, _reference(inc, cur))
            assert inc.stats.strategy == strategy

    def test_update_tiles_duplicate_tile_last_wins(self, rng):
        a = _data(rng, (64, 64), np.int32)
        with IncrementalSAT(a) as inc:
            first = _data(rng, (32, 32), np.int32)
            second = _data(rng, (32, 32), np.int32)
            got = inc.update_tiles([(0, 0, first), (0, 0, second)])
            cur = a.astype(inc.dtype)
            cur[:32, :32] = second
            assert np.array_equal(got, _reference(inc, cur))

    @pytest.mark.parametrize("strategy", ["delta", "recompute"])
    def test_frame_delta(self, rng, strategy):
        a = _data(rng, (90, 110), np.int32)
        with IncrementalSAT(a, strategy=strategy) as inc:
            cur = a.astype(inc.dtype)
            d = np.zeros_like(cur)
            d[40:60, 10:95] = rng.integers(-30, 30, size=(20, 85))
            got = inc.delta(d)
            cur += d
            assert np.array_equal(got, _reference(inc, cur))

    def test_zero_delta_is_noop(self, rng):
        a = _data(rng, (64, 64), np.int32)
        with IncrementalSAT(a) as inc:
            before = inc.sat.copy()
            got = inc.delta(np.zeros((64, 64), dtype=np.int64))
            assert np.array_equal(got, before)
            assert inc.stats.repaired_tiles == 0

    def test_advance_sequence(self, rng):
        a = _data(rng, (96, 96), np.float32)
        with IncrementalSAT(a) as inc:
            frame = a.astype(inc.dtype)
            for _ in range(3):
                frame = frame.copy()
                frame[rng.integers(0, 64):, rng.integers(0, 64):] += 1
                got = inc.advance(frame)
                assert np.array_equal(got, _reference(inc, frame))

    def test_advance_float_frame_resident_bit_exact(self, rng):
        """Regression: advance() must store the supplied float frame
        bit-exactly, not ``work + (frame - work)`` (which rounds)."""
        a = _data(rng, (70, 50), np.float64)
        with IncrementalSAT(a) as inc:
            frame = a.copy()
            frame[10:30, 5:25] = rng.random((20, 20)) * 0.1 + 0.1
            got = inc.advance(frame)
            assert np.array_equal(inc.input, frame)
            assert np.array_equal(got, _reference(inc, frame))

    def test_advance_float_cancellation(self, rng):
        """Regression: with cancellation (work=1e16 -> frame=1.0), the
        delta round trip would store ~2.0; the frame must survive."""
        a = np.full((64, 64), 1e16, dtype=np.float64)
        with IncrementalSAT(a) as inc:
            frame = np.ones((64, 64), dtype=np.float64)
            got = inc.advance(frame)
            assert np.array_equal(inc.input, frame)
            assert np.array_equal(got, _reference(inc, frame))

    def test_update_tiles_float_overwrite_bit_exact(self, rng):
        """Regression: the recompute path must write tile values directly,
        not reconstruct them as ``work += (values - work)``."""
        a = _data(rng, (64, 64), np.float32)
        with IncrementalSAT(a, tile_width=32) as inc:
            vals = (rng.random((32, 32)) * 0.1).astype(np.float32)
            got = inc.update_tiles([(0, 1, vals)])
            cur = a.astype(inc.dtype)
            cur[:32, 32:] = vals
            assert np.array_equal(inc.input, cur)
            assert np.array_equal(got, _reference(inc, cur))

    def test_empty_update_is_noop(self, rng):
        a = _data(rng, (64, 64), np.int32)
        with IncrementalSAT(a) as inc:
            before = inc.sat.copy()
            assert np.array_equal(
                inc.update(10, 10, np.empty((0, 5), dtype=np.int32)), before)
            assert np.array_equal(inc.update_tiles([]), before)


class TestStateAndAPI:
    def test_carry_planes_match_oracles_after_edits(self, rng):
        for algorithm in ("1R1W-SKSS-LB", "2R1W"):
            a = _data(rng, (96, 70), np.int32)
            with IncrementalSAT(a, algorithm=algorithm) as inc:
                inc.update(3, 9, _data(rng, (50, 40), np.int32))
                assert verify_state(inc) == []

    def test_sat_view_is_readonly(self, rng):
        with IncrementalSAT(_data(rng, (64, 64), np.int32)) as inc:
            with pytest.raises(ValueError):
                inc.sat[0, 0] = 1
            with pytest.raises(ValueError):
                inc.input[0, 0] = 1

    def test_repair_stats_accounting(self, rng):
        a = _data(rng, (128, 128), np.int32)
        with IncrementalSAT(a, tile_width=32) as inc:
            assert inc.stats.total_tiles == 16
            inc.update(0, 0, _data(rng, (10, 10), np.int32))
            # one dirty tile at (0, 0): delta repairs the whole quadrant
            assert inc.stats.dirty_tiles == 1
            assert inc.stats.repaired_tiles == 16
            inc.update(96, 96, _data(rng, (10, 10), np.int32))
            assert inc.stats.repaired_tiles == 1  # bottom-right corner tile
            assert 0 < inc.stats.savings < 1

    def test_recompute_repairs_staircase_not_quadrant(self, rng):
        a = _data(rng, (128, 128), np.float64)
        with IncrementalSAT(a, tile_width=32) as inc:
            inc.update(96, 0, _data(rng, (10, 10), np.float64))
            # dirty tile (3, 0): closure is the bottom tile row only
            assert inc.stats.repaired_tiles == 4

    def test_rebuild_resets_to_new_frame(self, rng):
        a = _data(rng, (64, 64), np.int32)
        with IncrementalSAT(a) as inc:
            b = _data(rng, (96, 32), np.int32)  # new shape too
            got = inc.rebuild(b)
            assert got.shape == (96, 32)
            assert np.array_equal(got, _reference(inc, b.astype(inc.dtype)))

    def test_engine_retain_state_private_copies(self, rng):
        """Retained state must survive caller mutation and later computes."""
        a = _data(rng, (64, 64), np.float64)
        with WavefrontEngine(workers=1) as eng:
            sat = eng.compute(a, retain_state=True)
            state = eng.retained_state()
            a[:] = 0  # caller mutates the input afterwards
            eng.compute(_data(rng, (64, 64), np.float64))  # unrelated call
            assert np.array_equal(state.out, sat)
            assert state.work[0, 0] != 0 or a is not state.work

    def test_errors(self, rng):
        a = _data(rng, (64, 64), np.int32)
        with IncrementalSAT(a) as inc:
            with pytest.raises(ConfigurationError):
                inc.update(60, 60, np.ones((10, 10), dtype=np.int32))
            with pytest.raises(ConfigurationError):
                inc.delta(np.zeros((10, 10), dtype=np.int64))
            with pytest.raises(ConfigurationError):
                inc.advance(np.zeros((10, 10), dtype=np.int64))
            with pytest.raises(ConfigurationError):
                inc.update_tiles([(0, 0, np.ones((5, 5), dtype=np.int32))])
        with pytest.raises(ConfigurationError):
            inc.update(0, 0, a)  # closed
        with pytest.raises(ConfigurationError):
            IncrementalSAT(a, strategy="delta", dtype_policy=np.float64)
        with pytest.raises(ConfigurationError):
            IncrementalSAT(a, strategy="nope")
        with pytest.raises(ConfigurationError):
            IncrementalSAT(np.zeros(5, dtype=np.int32))

    def test_sanitize_hook_clean(self):
        assert sanitize_incremental(n=64, edits=2) == []


class TestRepairBenchmark:
    def test_smoke_record(self):
        row = repair_benchmark(128, dirty_frac=0.1, edits=2, repeats=1)
        assert row["bit_identical"]
        assert row["strategy"] == "delta"
        assert row["repair_mean_s"] > 0
        with pytest.raises(ConfigurationError):
            repair_benchmark(64, dirty_frac=0.0)


@pytest.mark.slow
class TestDifferentialExhaustive:
    """Long sweep: the full cross-product, many edits each."""

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("dtype", [np.uint8, np.int32, np.float32,
                                       np.float64])
    @pytest.mark.parametrize("shape", [(96, 96), (70, 130), (33, 97)])
    def test_sweep(self, rng, algorithm, dtype, shape):
        a = _data(rng, shape, dtype)
        with IncrementalSAT(a, algorithm=algorithm) as inc:
            _random_edits(rng, inc, a.astype(inc.dtype), dtype, num_edits=8)
            assert verify_state(inc) == []
