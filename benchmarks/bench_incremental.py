#!/usr/bin/env python3
"""Benchmark incremental SAT repair against full wavefront recompute.

Times :class:`repro.hostexec.incremental.IncrementalSAT` edit repair
(rectangle patches of a configurable dirty fraction, cycling
corner/edge/centre placements so
best and worst repair frontiers are both sampled) against recomputing the
whole table on a warm :class:`~repro.hostexec.WavefrontEngine`, across dirty
fractions and both repair strategies, plus a frame-stream scenario
(:func:`repro.apps.video.synthetic_stream`, int32 frames taking the delta
repair and float32 frames the recompute) where only a small block moves
between frames.  Times are medians with their interquartile range, beside
the NumPy double cumsum of a frame of each dtype and the machine's
fingerprint (cpu count, numpy and python versions).

Run modes:

    python benchmarks/bench_incremental.py            # full sweep, writes
                                                      # BENCH_incremental.json
    python benchmarks/bench_incremental.py --smoke    # fast correctness +
                                                      # sanity gate (CI)

The smoke mode is wired into ``make test`` (target ``bench-incremental-
smoke``): it asserts repaired tables are bit-identical to from-scratch
recompute and that repair of a small edit beats full recompute, exiting
non-zero on failure.  The full run enforces the acceptance gate: >=5x mean
speedup for a <=10% dirty area at n=2048 (best-of-``repeats`` full
recompute over the mean repair, as ``repair_benchmark`` reports it).  Like
``bench_host_engine.py`` this is a plain script (no test functions) so it
can emit a committed JSON artefact.
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

from repro.apps.video import synthetic_stream  # noqa: E402
from repro.hostexec.incremental import (IncrementalSAT,  # noqa: E402
                                        median_iqr, repair_benchmark)
from repro.sat.registry import get_algorithm  # noqa: E402

ALGORITHM = "1R1W-SKSS-LB"
TILE_WIDTH = 32
#: The moving block of the stream scenario (satbench ``video`` uses the
#: same block and a step of half of it).
BLOCK = 96
STREAM_DTYPES = ("int32", "float32")


def _timed(fn, repeats: int) -> dict:
    """Median and interquartile range of the wall times (seconds) of
    ``repeats`` calls of ``fn()``."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return median_iqr(times)


def bench_numpy(n: int, dtype: str, repeats: int) -> dict:
    """Baseline: the NumPy double cumsum of one stream frame."""
    a = next(synthetic_stream(n, frames=1, block=BLOCK, dtype=dtype))
    return {"n": n, "dtype": dtype,
            **_timed(lambda: a.cumsum(axis=0).cumsum(axis=1), repeats)}


def bench_stream(n: int, frames: int, repeats: int, dtype: str) -> dict:
    """Video scenario: per-frame advance() vs per-frame full recompute."""
    frame_list = list(synthetic_stream(n, frames=frames, block=BLOCK,
                                       step=BLOCK // 2, dtype=dtype))
    inc = IncrementalSAT(frame_list[0], algorithm=ALGORITHM,
                         tile_width=TILE_WIDTH)
    acc = inc.dtype

    # Full-recompute baseline on the warm resident engine.
    full = _timed(lambda: inc._engine.compute(
        frame_list[0], algorithm=ALGORITHM, tile_width=TILE_WIDTH,
        dtype_policy=acc), repeats)

    per_frame = []
    for frame in frame_list[1:]:
        t0 = time.perf_counter()
        inc.advance(frame)
        per_frame.append(time.perf_counter() - t0)
    ok = bool(np.array_equal(
        inc.sat, get_algorithm(ALGORITHM, tile_width=TILE_WIDTH)
        .run_host(frame_list[-1], dtype_policy=acc)))
    strategy = inc.strategy
    inc.close()
    advance = median_iqr(per_frame)
    return {"n": n, "dtype": dtype, "accumulator": acc.name,
            "strategy": strategy, "frames": frames, "block": BLOCK,
            "full_recompute": full, "advance": advance,
            "advance_mean_s": float(np.mean(per_frame)),
            "advance_worst_s": float(np.max(per_frame)),
            "speedup_median": full["median_s"] / advance["median_s"],
            "bit_identical": ok}


def run_full(args) -> int:
    results = {
        "benchmark": "incremental",
        "algorithm": ALGORITHM,
        "tile_width": TILE_WIDTH,
        "cpu_count": os.cpu_count(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "repeats": args.repeats,
        "numpy_baseline": [],
        "edits": [],
        "streams": [],
        "acceptance": None,
    }
    baseline = {}
    for dtype in ("int32", "float32", "float64"):
        row = bench_numpy(args.size, dtype, args.repeats)
        results["numpy_baseline"].append(row)
        baseline[dtype] = row["median_s"]
        print(f"n={args.size} numpy double cumsum {dtype:<7} "
              f"{1e3 * row['median_s']:7.2f}ms "
              f"(IQR {1e3 * row['iqr_s']:.2f}ms)", flush=True)

    gate = None
    for dirty_frac in args.dirty_fracs:
        for strategy, dtype in (("delta", "int32"), ("recompute", "float64")):
            row = repair_benchmark(
                args.size, dirty_frac=dirty_frac, edits=args.edits,
                tile_width=TILE_WIDTH, algorithm=ALGORITHM, dtype=dtype,
                strategy=strategy, repeats=args.repeats)
            results["edits"].append(row)
            print(f"n={row['n']} dirty={100 * dirty_frac:4.1f}% "
                  f"{strategy:>9}/{dtype:<7} full "
                  f"{1e3 * row['full_recompute']['median_s']:7.2f}ms repair "
                  f"median {1e3 * row['repair']['median_s']:7.2f}ms "
                  f"mean {1e3 * row['repair_mean_s']:7.2f}ms "
                  f"({row['speedup_mean']:5.1f}x) "
                  f"bit-identical={row['bit_identical']}", flush=True)
            if not row["bit_identical"]:
                print("ACCEPTANCE FAIL: repaired SAT is not bit-identical",
                      file=sys.stderr)
                return 1
            if strategy == "delta" and dirty_frac <= 0.1:
                gate = max(gate or 0.0, row["speedup_mean"])

    for dtype in STREAM_DTYPES:
        print(f"stream {dtype} ...", flush=True)
        s = bench_stream(args.size, frames=args.frames,
                         repeats=args.repeats, dtype=dtype)
        s["advance_vs_numpy"] = s["advance"]["median_s"] / baseline[dtype]
        results["streams"].append(s)
        print(f"  {s['frames']} frames, {s['block']}² moving block "
              f"({s['strategy']}): advance "
              f"{1e3 * s['advance']['median_s']:.2f}ms "
              f"(IQR {1e3 * s['advance']['iqr_s']:.2f}ms) vs full "
              f"{1e3 * s['full_recompute']['median_s']:.2f}ms "
              f"({s['speedup_median']:.1f}x; "
              f"{s['advance_vs_numpy']:.2f}x numpy) "
              f"bit-identical={s['bit_identical']}")

    results["acceptance"] = {
        "speedup_5x_at_10pct_dirty": None if gate is None else gate >= 5.0,
        "best_speedup_at_10pct_dirty": gate,
        "stream_speedup": {s["dtype"]: s["speedup_median"]
                           for s in results["streams"]},
        "all_bit_identical": all(
            r["bit_identical"] for r in results["edits"] + results["streams"]),
    }
    out = Path(args.out)
    out.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {out}")
    if gate is not None and gate < 5.0:
        print(f"ACCEPTANCE FAIL: best delta-repair speedup at <=10% dirty "
              f"is {gate:.2f}x (< 5x)", file=sys.stderr)
        return 1
    return 0


def run_smoke(args) -> int:
    """Fast gate for ``make test``: bit-identity on both strategies plus a
    loose perf sanity (a 10% edit must repair faster than full recompute)."""
    n = 512
    row = repair_benchmark(n, dirty_frac=0.1, edits=4, tile_width=TILE_WIDTH,
                           algorithm=ALGORITHM, dtype="int32",
                           strategy="delta", repeats=2)
    rowf = repair_benchmark(n, dirty_frac=0.1, edits=4, tile_width=TILE_WIDTH,
                            algorithm=ALGORITHM, dtype="float64",
                            strategy="recompute", repeats=2)
    print(f"smoke n={n}: delta {row['speedup_mean']:.1f}x "
          f"(bit-identical={row['bit_identical']}), recompute "
          f"{rowf['speedup_mean']:.1f}x "
          f"(bit-identical={rowf['bit_identical']})")
    if not (row["bit_identical"] and rowf["bit_identical"]):
        print("SMOKE FAIL: repaired SAT differs from from-scratch recompute",
              file=sys.stderr)
        return 1
    if row["speedup_mean"] < 1.0:
        print(f"SMOKE FAIL: delta repair slower than full recompute "
              f"({row['speedup_mean']:.2f}x)", file=sys.stderr)
        return 1
    print("smoke ok")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="fast correctness/sanity gate; writes no JSON")
    ap.add_argument("-n", "--size", type=int, default=2048)
    ap.add_argument("--dirty-fracs", type=float, nargs="+",
                    default=[0.01, 0.05, 0.1, 0.25])
    ap.add_argument("--edits", type=int, default=8)
    ap.add_argument("--frames", type=int, default=12)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--out", default=str(REPO / "BENCH_incremental.json"))
    args = ap.parse_args(argv)
    return run_smoke(args) if args.smoke else run_full(args)


if __name__ == "__main__":
    sys.exit(main())
