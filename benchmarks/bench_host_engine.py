#!/usr/bin/env python3
"""Benchmark the host execution engines (serial / wavefront).

Times the serial per-algorithm tile loop against the multi-core wavefront
tile engine (:mod:`repro.hostexec`) over a size and worker sweep, with the
plain NumPy double cumsum as the baseline row of every size, and
quantifies the batched-execution amortization (repeated ``compute`` calls
on a warm engine vs one-shot calls that pay pool spin-up and plan
construction every time).  The sweep runs once per ``--dtypes`` entry:
integer inputs take the engine's exact integer kernel, float inputs the
per-algorithm float kernels.  Every time is reported as the median and
interquartile range of ``--repeats`` runs, next to the machine that
produced it (cpu count, NumPy and Python versions) and the engine's default
worker count.

Run modes:

    python benchmarks/bench_host_engine.py            # full sweep, writes
                                                      # BENCH_host_engine.json
    python benchmarks/bench_host_engine.py --smoke    # fast correctness +
                                                      # sanity gate (CI)

The smoke mode is wired into ``make test`` (target ``bench-smoke``): it
asserts the wavefront engine is bit-identical to the serial host path on a
shape whose tile rows split into several runs — for a float64, an int32
and a wrapping uint64 input — and not slower than serial beyond a generous
tolerance, exiting non-zero on failure.  Unlike the
``bench_*`` pytest-benchmark modules, this file is a plain script (it
defines no test functions) so it can emit a committed JSON artefact.
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

from repro.hostexec import WavefrontEngine, default_workers  # noqa: E402
from repro.hostexec.incremental import median_iqr  # noqa: E402
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


def bench_size(n: int, dtype: str, workers_list: list[int],
               repeats: int) -> dict:
    """NumPy vs serial vs wavefront (cold + warm) at one size and input
    dtype."""
    a = _matrix(n, dtype=dtype)
    alg = get_algorithm(ALGORITHM, tile_width=TILE_WIDTH)
    serial_sat = alg.run_host(a)
    numpy = _timed(lambda: a.cumsum(axis=0).cumsum(axis=1), repeats)
    serial = _timed(lambda: alg.run_host(a), repeats)

    row = {"n": n, "dtype": dtype, "accumulator": serial_sat.dtype.name,
           "tile_width": TILE_WIDTH, "algorithm": ALGORITHM,
           "numpy": numpy, "serial": serial, "wavefront": []}
    for w in workers_list:
        with WavefrontEngine(workers=w) as eng:
            wf_sat = eng.compute(a, algorithm=ALGORITHM,
                                 tile_width=TILE_WIDTH)  # warms plan + pool
            if not np.array_equal(wf_sat, serial_sat):
                raise AssertionError(
                    f"wavefront (workers={w}) not bit-identical at n={n}, "
                    f"{dtype}")
            warm = _timed(lambda: eng.compute(a, algorithm=ALGORITHM,
                                              tile_width=TILE_WIDTH), repeats)

        def cold():
            with WavefrontEngine(workers=w) as fresh:
                fresh.compute(a, algorithm=ALGORITHM, tile_width=TILE_WIDTH)
        row["wavefront"].append({
            "workers": w, "warm": warm,
            "cold": _timed(cold, repeats),
            "speedup_vs_serial": serial["median_s"] / warm["median_s"],
            "ratio_vs_numpy": warm["median_s"] / numpy["median_s"]})
    return row


def bench_batched(n: int, batch: int, workers: int, repeats: int) -> dict:
    """Amortization of a warm engine's repeated computes over one-shot
    per-call engines."""
    arrays = [_matrix(n, seed=100 + i) for i in range(batch)]

    with WavefrontEngine(workers=workers) as eng:
        eng.compute(arrays[0], algorithm=ALGORITHM, tile_width=TILE_WIDTH)
        batched = _timed(lambda: [
            eng.compute(a, algorithm=ALGORITHM, tile_width=TILE_WIDTH)
            for a in arrays], repeats)["median_s"]

    def one_shot_all():
        for a in arrays:  # pays pool spin-up + plan build per call
            with WavefrontEngine(workers=workers) as fresh:
                fresh.compute(a, algorithm=ALGORITHM, tile_width=TILE_WIDTH)
    one_shot = _timed(one_shot_all, repeats)["median_s"]
    return {"n": n, "batch": batch, "workers": workers,
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
        "repro_workers_env": os.environ.get("REPRO_WORKERS"),
        "default_workers": default_workers(),
        "repeats": args.repeats,
        "sizes": [],
        "batched": None,
        "acceptance": None,
    }
    for n in args.sizes:
        for dtype in args.dtypes:
            print(f"n={n} {dtype} ...", flush=True)
            row = bench_size(n, dtype, args.workers, args.repeats)
            results["sizes"].append(row)
            wf = ", ".join(f"w={e['workers']}: {e['warm']['median_s']:.3f}s "
                           f"({e['speedup_vs_serial']:.2f}x serial, "
                           f"{e['ratio_vs_numpy']:.2f}x numpy)"
                           for e in row["wavefront"])
            print(f"  numpy {row['numpy']['median_s']:.3f}s | serial "
                  f"{row['serial']['median_s']:.3f}s | wavefront {wf}")

    print(f"batched n={args.batch_n} x{args.batch} ...", flush=True)
    results["batched"] = bench_batched(args.batch_n, args.batch,
                                       max(args.workers), args.repeats)
    b = results["batched"]
    print(f"  per-call batched {b['batched_per_call_s']:.3f}s vs one-shot "
          f"{b['one_shot_per_call_s']:.3f}s "
          f"({b['amortization_speedup']:.2f}x)")

    # Acceptance: >=2x over serial at n=2048, W=32 with >=4 workers, for
    # every dtype.
    gates = []
    for row in results["sizes"]:
        cands = [e["speedup_vs_serial"] for e in row["wavefront"]
                 if e["workers"] >= 4]
        if row["n"] == 2048 and cands:
            gates.append(max(cands))
    gate = min(gates) if gates else None
    results["acceptance"] = {
        "wavefront_2x_at_2048": None if gate is None else gate >= 2.0,
        "best_speedup_at_2048": gate,
        "batched_amortization": b["amortization_speedup"],
    }
    out = Path(args.out)
    out.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {out}")
    if gate is not None and gate < 2.0:
        print(f"ACCEPTANCE FAIL: best wavefront speedup at n=2048 is "
              f"{gate:.2f}x (< 2x)", file=sys.stderr)
        return 1
    return 0


def run_smoke(args) -> int:
    """Fast gate for ``make test``: correctness plus a loose perf sanity.

    Bit-identity is checked on the *threaded* scheduler (workers=4 on split
    rows, real dependency races) for a float64 input (the float kernel), an
    int32 input and a uint64 input of values >= 2**60 whose sums wrap (the
    exact integer kernel); the perf gate uses the deterministic workers=1
    fast path, whose row-run kernels must beat the serial per-tile loop —
    thread timings on shared CI boxes are too noisy to gate on.
    """
    n = 512
    a = _matrix(n)
    alg = get_algorithm(ALGORITHM, tile_width=TILE_WIDTH)
    alg.run_host(a)  # warm-up, as the wavefront timing below is warm
    serial = _timed(lambda: alg.run_host(a), 3)["median_s"]

    # At W=8 a row holds 64 tiles, so four workers split every row into
    # four runs: the check covers split rows and cross-run hand-offs (runs
    # starting at J0 > 0 take the seeded path of the integer kernel).
    split_w = 8
    wrapping = np.random.default_rng(7).integers(
        2**60, 2**64 - 1, size=(n, n), dtype=np.uint64, endpoint=True)
    inputs = {"float64": a, "int32": _matrix(n, dtype=np.int32),
              "uint64-wrap": wrapping}
    bits = {}
    with WavefrontEngine(workers=4) as eng, np.errstate(over="ignore"):
        for name, x in inputs.items():
            got = eng.compute(x, algorithm=ALGORITHM, tile_width=split_w)
            want = get_algorithm(ALGORITHM, tile_width=split_w).run_host(x)
            bits[name] = got.dtype == want.dtype and np.array_equal(got, want)
    ok_bits = all(bits.values())
    with WavefrontEngine(workers=1) as eng:
        eng.compute(a, algorithm=ALGORITHM, tile_width=TILE_WIDTH)
        warm = _timed(lambda: eng.compute(a, algorithm=ALGORITHM,
                                          tile_width=TILE_WIDTH), 3)["median_s"]

    print(f"smoke n={n}: serial {serial * 1e3:.1f}ms, "
          f"wavefront(warm, 1w) {warm * 1e3:.1f}ms, "
          f"bit-identical(4w, W={split_w})={bits}")
    if not ok_bits:
        print("SMOKE FAIL: wavefront result differs from serial host path "
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
    ap.add_argument("--workers", type=int, nargs="+", default=[1, 2, 4, 8])
    ap.add_argument("--dtypes", nargs="+", default=["int32", "float64"],
                    help="input dtypes of the sweep (one row per size and "
                         "dtype)")
    ap.add_argument("--repeats", type=int, default=7)
    ap.add_argument("--batch", type=int, default=10,
                    help="batch size for the warm-engine amortization run")
    ap.add_argument("--batch-n", type=int, default=256,
                    help="matrix size for the batched run (small enough that "
                         "per-call pool/plan setup is visible)")
    ap.add_argument("--out", default=str(REPO / "BENCH_host_engine.json"))
    args = ap.parse_args(argv)
    return run_smoke(args) if args.smoke else run_full(args)


if __name__ == "__main__":
    sys.exit(main())
