#!/usr/bin/env python3
"""Benchmark the host execution engines (serial / wavefront).

Times the serial per-algorithm tile loop against the wavefront tile engine
(:mod:`repro.hostexec`, each tile row as one run on the caller's thread)
over a size sweep, with the plain NumPy double cumsum as the baseline row
of every size, and quantifies the batched-execution amortization (repeated
``compute`` calls on a warm engine vs one-shot calls that pay plan and
carry-plane construction every time).  The sweep runs once per ``--dtypes``
entry: integer inputs take the engine's exact integer kernel, float inputs
the per-algorithm float kernels.  Every time is reported as the median and
interquartile range of ``--repeats`` runs, next to the machine that
produced it (cpu count, NumPy and Python versions).

Run modes:

    python benchmarks/bench_host_engine.py            # full sweep, writes
                                                      # BENCH_host_engine.json
    python benchmarks/bench_host_engine.py --smoke    # fast correctness +
                                                      # sanity gate (CI)

The smoke mode is wired into ``make test`` (target ``bench-smoke``): it
asserts that the row-run kernel, driven over two runs per tile row so that
runs start at ``J0 > 0`` (as incremental repair's do), is bit-identical to
the serial host path — for a float64, an int32 and a wrapping uint64 input
— and that the engine is not slower than serial beyond a generous
tolerance, exiting non-zero on failure.  Unlike the ``bench_*``
pytest-benchmark modules, this file is a plain script (it defines no test
functions) so it can emit a committed JSON artefact.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
if str(REPO / "src") not in sys.path:  # allow running without install
    sys.path.insert(0, str(REPO / "src"))

from repro.backend.plan import prepare_input  # noqa: E402
from repro.hostexec import WavefrontEngine, kernel_for  # noqa: E402
from repro.hostexec.incremental import median_iqr  # noqa: E402
from repro.hostexec.kernels import CarryPlanes  # noqa: E402
from repro.hostexec.plan import Chunk  # noqa: E402
from repro.primitives.tile import TileGrid  # noqa: E402
from repro.sat.dtypes import resolve_policy  # noqa: E402
from repro.sat.registry import get_algorithm  # noqa: E402

ALGORITHM = "1R1W-SKSS-LB"
TILE_WIDTH = 32


def _matrix(n: int, seed: int = 2018, dtype=np.float64) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 100, size=(n, n)).astype(dtype)


def _timed(fn, repeats: int) -> dict:
    """Median and interquartile range of the wall times (seconds) of
    ``repeats`` calls of ``fn()``."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return median_iqr(times)


def bench_size(n: int, dtype: str, repeats: int) -> dict:
    """NumPy vs serial vs wavefront (cold + warm) at one size and input
    dtype."""
    a = _matrix(n, dtype=dtype)
    alg = get_algorithm(ALGORITHM, tile_width=TILE_WIDTH)
    serial_sat = alg.run_host(a)
    numpy = _timed(lambda: a.cumsum(axis=0).cumsum(axis=1), repeats)
    serial = _timed(lambda: alg.run_host(a), repeats)

    with WavefrontEngine() as eng:
        wf_sat = eng.compute(a, algorithm=ALGORITHM,
                             tile_width=TILE_WIDTH)  # warms the caches
        if not np.array_equal(wf_sat, serial_sat):
            raise AssertionError(
                f"wavefront not bit-identical at n={n}, {dtype}")
        warm = _timed(lambda: eng.compute(a, algorithm=ALGORITHM,
                                          tile_width=TILE_WIDTH), repeats)

    def cold():
        with WavefrontEngine() as fresh:
            fresh.compute(a, algorithm=ALGORITHM, tile_width=TILE_WIDTH)
    return {"n": n, "dtype": dtype, "accumulator": serial_sat.dtype.name,
            "tile_width": TILE_WIDTH, "algorithm": ALGORITHM,
            "numpy": numpy, "serial": serial,
            "wavefront": {
                "warm": warm, "cold": _timed(cold, repeats),
                "speedup_vs_serial": serial["median_s"] / warm["median_s"],
                "ratio_vs_numpy": warm["median_s"] / numpy["median_s"]}}


def bench_batched(n: int, batch: int, repeats: int) -> dict:
    """Amortization of a warm engine's repeated computes over one-shot
    per-call engines."""
    arrays = [_matrix(n, seed=100 + i) for i in range(batch)]

    with WavefrontEngine() as eng:
        eng.compute(arrays[0], algorithm=ALGORITHM, tile_width=TILE_WIDTH)
        batched = _timed(lambda: [
            eng.compute(a, algorithm=ALGORITHM, tile_width=TILE_WIDTH)
            for a in arrays], repeats)["median_s"]

    def one_shot_all():
        for a in arrays:  # pays plan + carry-plane construction per call
            with WavefrontEngine() as fresh:
                fresh.compute(a, algorithm=ALGORITHM, tile_width=TILE_WIDTH)
    one_shot = _timed(one_shot_all, repeats)["median_s"]
    return {"n": n, "batch": batch,
            "batched_per_call_s": batched / batch,
            "one_shot_per_call_s": one_shot / batch,
            "amortization_speedup": one_shot / batched}


def run_full(args) -> int:
    results = {
        "benchmark": "host_engine",
        "algorithm": ALGORITHM,
        "tile_width": TILE_WIDTH,
        "cpu_count": os.cpu_count(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "repeats": args.repeats,
        "sizes": [],
        "batched": None,
        "acceptance": None,
    }
    for n in args.sizes:
        for dtype in args.dtypes:
            print(f"n={n} {dtype} ...", flush=True)
            row = bench_size(n, dtype, args.repeats)
            results["sizes"].append(row)
            wf = row["wavefront"]
            print(f"  numpy {row['numpy']['median_s']:.3f}s | serial "
                  f"{row['serial']['median_s']:.3f}s | wavefront "
                  f"{wf['warm']['median_s']:.3f}s "
                  f"({wf['speedup_vs_serial']:.2f}x serial, "
                  f"{wf['ratio_vs_numpy']:.2f}x numpy)")

    print(f"batched n={args.batch_n} x{args.batch} ...", flush=True)
    results["batched"] = bench_batched(args.batch_n, args.batch,
                                       args.repeats)
    b = results["batched"]
    print(f"  per-call batched {b['batched_per_call_s']:.3f}s vs one-shot "
          f"{b['one_shot_per_call_s']:.3f}s "
          f"({b['amortization_speedup']:.2f}x)")

    # Acceptance: the warm engine is >=2x faster than serial at n=2048,
    # W=32, for every dtype.
    gates = [row["wavefront"]["speedup_vs_serial"]
             for row in results["sizes"] if row["n"] == 2048]
    gate = min(gates) if gates else None
    results["acceptance"] = {
        "wavefront_2x_at_2048": None if gate is None else gate >= 2.0,
        "speedup_at_2048": gate,
        "batched_amortization": b["amortization_speedup"],
    }
    out = Path(args.out)
    out.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {out}")
    if gate is not None and gate < 2.0:
        print(f"ACCEPTANCE FAIL: wavefront speedup at n=2048 is "
              f"{gate:.2f}x (< 2x)", file=sys.stderr)
        return 1
    return 0


def split_run_sat(a: np.ndarray, tile_width: int, runs: int = 2
                  ) -> np.ndarray:
    """``a``'s SAT from the row-run kernel driven directly over ``runs``
    runs per tile row, in row-major order, so that every run after a row's
    first starts at ``J0 > 0``."""
    spec = kernel_for(ALGORITHM)
    acc = resolve_policy(None).accumulator(a.dtype)
    grid = TileGrid(rows=a.shape[0], cols=a.shape[1], W=tile_width)
    tr, tc, W = grid.tile_rows, grid.tile_cols, grid.W
    work, _ = prepare_input(a, acc_dtype=acc, grid=grid)
    out = np.empty(work.shape, dtype=acc)
    a4, out4 = work.reshape(tr, W, tc, W), out.reshape(tr, W, tc, W)
    carry = CarryPlanes(tr=tr, tc=tc, W=W, dtype=acc)
    bounds = [tc * k // runs for k in range(runs + 1)]
    for I in range(tr):
        for J0, J1 in zip(bounds, bounds[1:]):
            spec.run(a4, out4, carry, Chunk(row=I, J0=J0, J1=J1), W)
    return out[:a.shape[0], :a.shape[1]]


def run_smoke(args) -> int:
    """Fast gate for ``make test``: correctness plus a loose perf sanity.

    Bit-identity is checked on runs starting at ``J0 > 0`` (the kernel
    driven over two runs per tile row) for a float64 input (the float
    kernel), an int32 input and a uint64 input of values >= 2**60 whose
    sums wrap (the exact integer kernel, whose later runs take the seeded
    path); the perf gate times the engine's warm whole-row runs, which must
    beat the serial per-tile loop.
    """
    n = 512
    a = _matrix(n)
    alg = get_algorithm(ALGORITHM, tile_width=TILE_WIDTH)
    alg.run_host(a)  # warm-up, as the wavefront timing below is warm
    serial = _timed(lambda: alg.run_host(a), 3)["median_s"]

    split_w = 8
    wrapping = np.random.default_rng(7).integers(
        2**60, 2**64 - 1, size=(n, n), dtype=np.uint64, endpoint=True)
    inputs = {"float64": a, "int32": _matrix(n, dtype=np.int32),
              "uint64-wrap": wrapping}
    bits = {}
    with np.errstate(over="ignore"):
        for name, x in inputs.items():
            got = split_run_sat(x, split_w)
            want = get_algorithm(ALGORITHM, tile_width=split_w).run_host(x)
            bits[name] = got.dtype == want.dtype and np.array_equal(got, want)
    ok_bits = all(bits.values())
    with WavefrontEngine() as eng:
        eng.compute(a, algorithm=ALGORITHM, tile_width=TILE_WIDTH)
        warm = _timed(lambda: eng.compute(a, algorithm=ALGORITHM,
                                          tile_width=TILE_WIDTH), 3)["median_s"]

    print(f"smoke n={n}: serial {serial * 1e3:.1f}ms, "
          f"wavefront(warm) {warm * 1e3:.1f}ms, "
          f"bit-identical(2 runs/row, W={split_w})={bits}")
    if not ok_bits:
        print("SMOKE FAIL: split-run result differs from serial host path "
              f"for {[k for k, ok in bits.items() if not ok]}",
              file=sys.stderr)
        return 1
    if warm > serial * 1.5:
        print(f"SMOKE FAIL: warm wavefront {warm:.3f}s > 1.5x serial "
              f"{serial:.3f}s", file=sys.stderr)
        return 1
    print("smoke ok")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="fast correctness/sanity gate; writes no JSON")
    ap.add_argument("--sizes", type=int, nargs="+",
                    default=[512, 1024, 2048, 4096])
    ap.add_argument("--dtypes", nargs="+", default=["int32", "float64"],
                    help="input dtypes of the sweep (one row per size and "
                         "dtype)")
    ap.add_argument("--repeats", type=int, default=7)
    ap.add_argument("--batch", type=int, default=10,
                    help="batch size for the warm-engine amortization run")
    ap.add_argument("--batch-n", type=int, default=256,
                    help="matrix size for the batched run (small enough that "
                         "per-call plan/carry setup is visible)")
    ap.add_argument("--out", default=str(REPO / "BENCH_host_engine.json"))
    args = ap.parse_args(argv)
    return run_smoke(args) if args.smoke else run_full(args)


if __name__ == "__main__":
    sys.exit(main())
