#!/usr/bin/env python3
"""Benchmark incremental SAT repair against full wavefront recompute.

Times :class:`repro.hostexec.incremental.IncrementalSAT` edit repair
(rectangle patches of a configurable dirty fraction, cycling
corner/edge/centre placements so
best and worst repair frontiers are both sampled) against recomputing the
whole table on a warm :class:`~repro.hostexec.WavefrontEngine`, across dirty
fractions and both repair strategies, plus a frame-stream scenario
(:func:`repro.apps.video.synthetic_stream`) where only a small block moves
between frames.

Run modes:

    python benchmarks/bench_incremental.py            # full sweep, writes
                                                      # BENCH_incremental.json
    python benchmarks/bench_incremental.py --smoke    # fast correctness +
                                                      # sanity gate (CI)

The smoke mode is wired into ``make test`` (target ``bench-incremental-
smoke``): it asserts repaired tables are bit-identical to from-scratch
recompute and that repair of a small edit beats full recompute, exiting
non-zero on failure.  The full run enforces the acceptance gate: >=5x mean
speedup for a <=10% dirty area at n=2048.  Like ``bench_host_engine.py``
this is a plain script (no test functions) so it can emit a committed JSON
artefact.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
if str(REPO / "src") not in sys.path:  # allow running without install
    sys.path.insert(0, str(REPO / "src"))

from repro.apps.video import synthetic_stream  # noqa: E402
from repro.hostexec.incremental import (IncrementalSAT,  # noqa: E402
                                        repair_benchmark)
from repro.sat.registry import get_algorithm  # noqa: E402

ALGORITHM = "1R1W-SKSS-LB"
TILE_WIDTH = 32


def _best(fn, repeats: int) -> float:
    """Best-of-``repeats`` wall time (seconds) of ``fn()``."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def bench_stream(n: int, frames: int, block: int, repeats: int) -> dict:
    """Video scenario: per-frame advance() vs per-frame full recompute."""
    frame_list = list(synthetic_stream(n, frames=frames, block=block,
                                       step=block // 2, dtype=np.int32))
    inc = IncrementalSAT(frame_list[0], algorithm=ALGORITHM,
                         tile_width=TILE_WIDTH)
    acc = inc.dtype

    # Full-recompute baseline on the warm resident engine.
    full_s = _best(lambda: inc._engine.compute(
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
    inc.close()
    mean = float(np.mean(per_frame))
    return {"n": n, "frames": frames, "block": block,
            "full_recompute_s": full_s, "advance_mean_s": mean,
            "advance_worst_s": float(np.max(per_frame)),
            "speedup_mean": full_s / mean, "bit_identical": ok}


def run_full(args) -> int:
    results = {
        "benchmark": "incremental",
        "algorithm": ALGORITHM,
        "tile_width": TILE_WIDTH,
        "cpu_count": os.cpu_count(),
        "repeats": args.repeats,
        "edits": [],
        "stream": None,
        "acceptance": None,
    }
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
                  f"{1e3 * row['full_recompute_s']:7.2f}ms repair "
                  f"{1e3 * row['repair_mean_s']:7.2f}ms "
                  f"({row['speedup_mean']:5.1f}x) "
                  f"bit-identical={row['bit_identical']}", flush=True)
            if not row["bit_identical"]:
                print("ACCEPTANCE FAIL: repaired SAT is not bit-identical",
                      file=sys.stderr)
                return 1
            if strategy == "delta" and dirty_frac <= 0.1:
                gate = max(gate or 0.0, row["speedup_mean"])

    print("stream ...", flush=True)
    results["stream"] = bench_stream(args.size, frames=args.frames,
                                     block=96, repeats=args.repeats)
    s = results["stream"]
    print(f"  {s['frames']} frames, {s['block']}² moving block: "
          f"advance {1e3 * s['advance_mean_s']:.2f}ms vs full "
          f"{1e3 * s['full_recompute_s']:.2f}ms "
          f"({s['speedup_mean']:.1f}x) bit-identical={s['bit_identical']}")

    results["acceptance"] = {
        "speedup_5x_at_10pct_dirty": None if gate is None else gate >= 5.0,
        "best_speedup_at_10pct_dirty": gate,
        "stream_speedup": s["speedup_mean"],
        "all_bit_identical": all(r["bit_identical"]
                                 for r in results["edits"])
        and s["bit_identical"],
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
