"""Differential tests for the incremental SAT engine.

The core property: after *every* edit, ``IncrementalSAT``'s resident table
must be bit-identical to a from-scratch host computation of the current
input (exact for integer accumulators; floats compare in the same
accumulator dtype against the same serial tile algebra), for every
algorithm, strategy, dtype, tile width, ragged shape and worker count.
"""

import tracemalloc

import numpy as np
import pytest

from repro.errors import ConfigurationError
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
            assert np.array_equal(got, _reference(inc, cur))

    @pytest.mark.parametrize("dtype", [np.uint8, np.int32, np.int64,
                                       np.uint64])
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_integer_recompute_keeps_exact_state(self, rng, algorithm,
                                                 dtype):
        """Integer frames repaired by ``recompute`` rerun the exact integer
        kernel on the dirty closure, which reads the retained SAT row above
        each run: the state stays clean and the table bit-identical, wrapped
        ``uint64`` values >= 2**60 included."""
        lo = 2**60 if dtype == np.uint64 else np.iinfo(dtype).min

        def draw(shape):
            return rng.integers(lo, np.iinfo(dtype).max, size=shape,
                                dtype=dtype, endpoint=True)

        a = draw((70, 90))
        with IncrementalSAT(a, algorithm=algorithm, tile_width=8, workers=1,
                            strategy="recompute") as inc:
            assert verify_state(inc) == []
            for top, left, h, w in ((30, 40, 20, 30), (0, 0, 3, 5),
                                    (69, 89, 1, 1)):
                vals = draw((h, w))
                inc.update(top, left, vals)
                a[top:top + h, left:left + w] = vals
                assert verify_state(inc) == []
                assert np.array_equal(inc.sat, _reference(inc, a))


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


#: Frame dtype x dtype policy pairs for the detection pins: every input
#: dtype under the default policy, plus two unsafe casts that can hide a
#: change (float64 frames under a float32 accumulator, int64 frames above
#: 2**53 under float64).
DETECTION_CASES = [(dt, None) for dt in ("uint8", "int32", "uint64",
                                         "float16", "float32", "float64",
                                         "bool")] \
    + [("float64", np.float32), ("int64", "float64")]


def _frame(rng, shape, dtype):
    dt = np.dtype(dtype)
    if dt == np.bool_:
        return rng.integers(0, 2, size=shape).astype(bool)
    if dt == np.uint64:    # near the top of the range: deltas wrap
        return (np.uint64(2**64 - 2**40)
                + rng.integers(0, 2**40, size=shape).astype(np.uint64))
    if dt == np.int64:     # above 2**53: neighbours round together in f64
        return 2**60 + rng.integers(0, 2**10, size=shape)
    return _data(rng, shape, dt)


def _next_frame(rng, frame):
    """The frame with one rectangle nudged by a step the accumulator cast
    may swallow (one ulp of the input, 1 for ints, a flip for bools) and
    0-2 more rewritten."""
    frame = frame.copy()
    rows, cols = frame.shape
    for k in range(int(rng.integers(0, 3)) + 1):
        h, w = int(rng.integers(1, rows + 1)), int(rng.integers(1, cols + 1))
        top = int(rng.integers(0, rows - h + 1))
        left = int(rng.integers(0, cols - w + 1))
        block = frame[top:top + h, left:left + w]
        if k == 0 and frame.dtype == np.bool_:
            block[...] = ~block
        elif k == 0 and np.issubdtype(frame.dtype, np.integer):
            block += 1
        elif k == 0:
            block[...] = np.nextafter(block, np.inf)
        else:
            block[...] = _frame(rng, (h, w), frame.dtype)
    return frame


def _expected_stats(inc, frame):
    """``(dirty_tiles, repaired_tiles)`` from the tiles holding an element
    where ``frame.astype(acc) != input`` (ragged edge tiles included)."""
    W, grid = inc.tile_width, inc.grid
    changed = frame.astype(inc.dtype) != inc.input
    dirty = {(I, J) for I in range(grid.tile_rows)
             for J in range(grid.tile_cols)
             if changed[W * I:W * I + W, W * J:W * J + W].any()}
    if not dirty:
        return 0, 0
    I0, J0 = min(I for I, _ in dirty), min(J for _, J in dirty)
    if inc.strategy == "delta":    # repairs the down-right quadrant
        return len(dirty), (grid.tile_rows - I0) * (grid.tile_cols - J0)
    closure = sum(1 for I in range(grid.tile_rows)
                  for J in range(grid.tile_cols)
                  if any(i <= I and j <= J for i, j in dirty))
    return len(dirty), closure


class TestDetection:
    """``advance`` dirties exactly the tiles whose cast frame differs."""

    @pytest.mark.parametrize("dtype,policy", DETECTION_CASES)
    @pytest.mark.parametrize("tile_width", [16, 32])
    @pytest.mark.parametrize("shape", [(64, 96), (70, 45), (33, 97)])
    def test_advance_dirties_what_changed(self, rng, dtype, policy,
                                          tile_width, shape):
        frame = _frame(rng, shape, dtype)
        with IncrementalSAT(frame, tile_width=tile_width,
                            dtype_policy=policy, workers=1) as inc:
            for _ in range(4):
                frame = _next_frame(rng, frame)
                want_stats = _expected_stats(inc, frame)
                got = inc.advance(frame)
                stats = inc.stats
                assert (stats.dirty_tiles, stats.repaired_tiles) \
                    == want_stats
                assert np.array_equal(inc.input, frame.astype(inc.dtype))
                assert np.array_equal(
                    got, _reference(inc, frame.astype(inc.dtype)))

    def test_non_finite_and_signed_zero(self):
        """Pinned: detection is ``!=`` in the accumulator dtype.  An
        unchanged ±inf is unchanged; NaN never equals itself, so a tile
        holding one is rewritten and recomputed on every frame; and
        ``-0.0 == 0.0``, so a sign flip alone dirties nothing and the
        resident keeps its zero."""
        a = np.ones((48, 48))
        a[0, 0], a[20, 40] = np.inf, -np.inf     # tiles (0, 0), (1, 2)
        a[40, 5] = np.nan                        # tile (2, 0)
        a[17, 1] = 0.0                           # tile (1, 0)
        with np.errstate(invalid="ignore"), \
                IncrementalSAT(a, tile_width=16, workers=1) as inc:
            frame = a.copy()
            frame[17, 1] = -0.0
            frame[33, 33] = 2.0                  # tile (2, 2)
            got = inc.advance(frame)
            assert (inc.stats.dirty_tiles, inc.stats.repaired_tiles) \
                == (2, 3)                        # (2, 0), (2, 2); row 2
            assert not np.signbit(inc.input[17, 1])
            assert np.array_equal(inc.input, frame, equal_nan=True)
            assert np.array_equal(got, _reference(inc, frame),
                                  equal_nan=True)
            inc.advance(frame)                   # only the NaN tile again
            assert (inc.stats.dirty_tiles, inc.stats.repaired_tiles) \
                == (1, 3)
            frame[0, 0] = -np.inf                # a real change of sign
            got = inc.advance(frame)
            assert (inc.stats.dirty_tiles, inc.stats.repaired_tiles) \
                == (2, 9)
            assert np.array_equal(got, _reference(inc, frame),
                                  equal_nan=True)

    @pytest.mark.parametrize("dtype", [np.int32, np.float32])
    def test_advance_allocates_less_than_half_a_frame(self, rng, dtype):
        """One moved patch on a tile-aligned 512² frame: detection makes no
        full-frame cast or difference, so ``advance`` peaks below half an
        accumulator-dtype frame."""
        n, block = 512, 40
        background = _data(rng, (n, n), dtype)
        before, after = background.copy(), background.copy()
        before[100:100 + block, 200:200 + block] = 255
        after[120:120 + block, 220:220 + block] = 255
        with IncrementalSAT(before, workers=1) as inc:
            tracemalloc.start()
            try:
                inc.advance(after)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < n * n * inc.dtype.itemsize / 2
            assert np.array_equal(inc.input, after.astype(inc.dtype))


class TestStateAndAPI:
    def test_carry_planes_match_oracles_after_edits(self, rng):
        """Every algorithm's resident planes equal their Table II oracles
        and its table a fresh compute, as built and after an edit."""
        for algorithm in ALGORITHMS:
            a = _data(rng, (96, 70), np.int32)
            with IncrementalSAT(a, algorithm=algorithm) as inc:
                assert verify_state(inc) == [], algorithm
                inc.update(3, 9, _data(rng, (50, 40), np.int32))
                assert verify_state(inc) == [], algorithm

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
        """The incremental engine's resident state is its own: mutating the
        caller's frame after construction or after ``advance`` leaves its
        input and table unchanged (aligned float64 frames included, which
        need no cast or padding)."""
        for shape, dtype in (((64, 64), np.float64), ((70, 45), np.int32)):
            first = _data(rng, shape, dtype)
            with IncrementalSAT(first) as inc:
                for frame in (first, _data(rng, shape, dtype)):
                    if frame is not first:
                        inc.advance(frame)
                    assert np.array_equal(inc.input, frame.astype(inc.dtype))
                    want = inc.input.copy(), inc.sat.copy()
                    frame[:] = 0   # the caller reuses its buffer
                    assert np.array_equal(inc.input, want[0])
                    assert np.array_equal(inc.sat, want[1])

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
