"""Cross-cutting shape x dtype x engine matrix for every algorithm.

The generalized stack must produce the reference SAT for any rectangle
(including sizes that are not multiples of the tile width) and any supported
input dtype, on both host execution paths.  Integer inputs must accumulate
*exactly* (int64 accumulator per the exact policy), and the wavefront engine
must be bit-identical to the serial host path in the same accumulator dtype.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.hostexec import WavefrontEngine
from repro.sat import resolve_policy, sat_reference
from repro.sat.registry import ALGORITHMS, compute_sat, get_algorithm

#: square / wide / tall / non-multiple-of-W (W = 32 throughout).
SHAPES = [(64, 64), (32, 96), (96, 32), (70, 45)]
DTYPES = [np.uint8, np.int32, np.float32, np.float64]
ENGINES = ["serial", "wavefront"]


def run_host(name, a, engine):
    alg = get_algorithm(name)
    if engine == "wavefront" and not alg.tile_based:
        pytest.skip(f"{name} has no tile dataflow (wavefront engine is for "
                    "tile-based algorithms)")
    return compute_sat(a, algorithm=name, engine=engine).sat


def make_input(shape, dtype, seed=0):
    """Integer-valued data in every dtype: keeps float sums exactly
    representable (all values < 2**24 here), so results are comparable
    bit-for-bit even in float32."""
    rng = np.random.default_rng(seed)
    if np.issubdtype(np.dtype(dtype), np.integer):
        return rng.integers(0, 8, size=shape, dtype=dtype)
    return rng.integers(0, 8, size=shape).astype(dtype)


def expected_sat(a):
    acc = resolve_policy(None).accumulator(a.dtype)
    return sat_reference(a.astype(acc, copy=False))


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
@pytest.mark.parametrize("name", sorted(ALGORITHMS))
class TestShapeDtypeMatrix:
    def test_matches_reference(self, name, shape, dtype, engine):
        a = make_input(shape, dtype, seed=hash((shape, np.dtype(dtype).name))
                       % 2**31)
        want = expected_sat(a)
        got = run_host(name, a, engine)
        assert got.shape == a.shape
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_wavefront_bit_identical_to_serial(shape, dtype):
    """Same accumulator dtype -> the wavefront schedule must not change a
    single bit relative to the serial sweep, and re-runs must agree."""
    a = make_input(shape, dtype, seed=7)
    alg = get_algorithm("1R1W-SKSS-LB")
    serial = alg.run_host(a)
    with WavefrontEngine() as eng:
        wf1 = compute_sat(a, algorithm=alg.name, engine=eng).sat
        wf2 = compute_sat(a, algorithm=alg.name, engine=eng).sat
    assert serial.dtype == wf1.dtype
    assert np.array_equal(serial, wf1)
    assert np.array_equal(wf1, wf2)


class TestIntegerExactness:
    def test_uint8_accumulates_in_int64(self):
        a = np.full((40, 70), 255, dtype=np.uint8)
        got = get_algorithm("2R2W").run_host(a)
        assert got.dtype == np.int64
        assert got[-1, -1] == 255 * 40 * 70

    def test_large_int32_sums_do_not_wrap(self):
        a = np.full((64, 96), 2**30, dtype=np.int64)
        got = get_algorithm("1R1W-SKSS").run_host(a)
        assert got[-1, -1] == 2**30 * 64 * 96  # far beyond int32 range

    def test_fixed_policy_overrides_accumulator(self):
        a = make_input((40, 40), np.uint8)
        got = get_algorithm("2R1W").run_host(a, dtype_policy=np.float64)
        assert got.dtype == np.float64
        assert np.array_equal(got, expected_sat(a).astype(np.float64))


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", sorted(ALGORITHMS))
class TestAcceptanceShapes:
    """The issue's acceptance matrix: camera-style rectangles, both engines."""

    def test_1000x1536_uint8_exact(self, name, engine, wide_uint8):
        a, want = wide_uint8
        got = run_host(name, a, engine)
        assert got.dtype == np.int64
        assert np.array_equal(got, want)

    def test_640x480_float32(self, name, engine, vga_float32):
        a, want = vga_float32
        got = run_host(name, a, engine)
        assert got.dtype == np.float32
        assert np.array_equal(got, want)


@pytest.fixture(scope="module")
def wide_uint8():
    a = make_input((1000, 1536), np.uint8, seed=11)
    return a, expected_sat(a)


@pytest.fixture(scope="module")
def vga_float32():
    # Small values keep every partial sum under 2**24, so the float32
    # reference is bit-exact regardless of summation order.
    a = make_input((640, 480), np.float32, seed=12)
    return a, expected_sat(a)
