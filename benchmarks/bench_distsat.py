#!/usr/bin/env python3
"""Benchmark the sharded distributed executor (``repro.distsat``).

Times the digest-mode (gigapixel-path) executor over a shard-count sweep on
a procedurally generated 8192x8192 uint8 image, measures the overhead of
recovering from an injected worker kill, and emits ``BENCH_distsat.json``.

Run modes:

    python benchmarks/bench_distsat.py             # shard sweep + recovery
                                                   # overhead, writes
                                                   # BENCH_distsat.json
    python benchmarks/bench_distsat.py --smoke     # fast correctness +
                                                   # recovery gate, inline
                                                   # and process transports
                                                   # (CI), writes
                                                   # distsat_smoke.json
    python benchmarks/bench_distsat.py --gigapixel # 65536^2 uint8 (4 Gpx)
                                                   # on a memory-capped
                                                   # worker (slow tier)

The acceptance gate — the best multi-shard throughput must be at least the
single-shard throughput at n=8192 — does not assume extra cores: even on one
CPU, processing the image as smaller bands beats one monolithic pass on
cache locality, which is the same effect the shard sweep measures.

The gigapixel mode streams a :class:`~repro.distsat.SyntheticSource` in
128-row chunks, so no worker ever materialises more than ~75 MB while
computing a 4-gigapixel SAT whose dense int64 form would need 34 GB; the
result is verified against independently regenerated column strips.
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

from repro.distsat import (FaultAction, FaultPlan,  # noqa: E402
                           SyntheticSource, distributed_sat)
from repro.hostexec.incremental import median_iqr  # noqa: E402
from repro.sat import sat_reference  # noqa: E402

SWEEP_N = 8192
SWEEP_SHARDS = (1, 2, 4, 8)
GIGAPIXEL_N = 65536
GIGAPIXEL_CHUNK = 128


def timed(source, **kwargs):
    t0 = time.perf_counter()
    result = distributed_sat(source, **kwargs)
    return time.perf_counter() - t0, result


def machine() -> dict:
    return {"cpu_count": os.cpu_count(),
            "numpy": np.__version__,
            "python": sys.version.split()[0]}


def strip_oracle(source: SyntheticSource, top: int, left: int,
                 bottom: int, right: int) -> int:
    """Rectangle sum by independent regeneration (narrow strips only)."""
    return int(source.rect(top, left, bottom, right).sum(dtype=np.int64))


def run_sweep(n: int, repeats: int) -> dict:
    source = SyntheticSource(n, n)
    megapixels = n * n / 1e6
    kill = FaultPlan(actions=(
        FaultAction(kind="kill", shard=1, attempt=1, phase="apply"),))

    # "seconds" (and the gate's throughput) is the best of ``repeats``
    # runs; the median and interquartile range describe all of them.
    sweep, times = {}, {}
    for shards in SWEEP_SHARDS:
        runs = [timed(source, shards=shards, collect=False)
                for _ in range(repeats)]
        for _, result in runs:
            assert result.stats["recovered_shards"] == []
        times[shards] = [t for t, _ in runs]
        seconds = min(times[shards])
        sweep[shards] = {"seconds": round(seconds, 3),
                         "throughput_mp_s": round(megapixels / seconds, 2),
                         **median_iqr(times[shards])}
        print(f"shards={shards}: {seconds:.2f}s "
              f"({sweep[shards]['throughput_mp_s']} MP/s)")

    # Recovery overhead: same 4-shard run with one worker killed mid-apply.
    clean_s = sweep[4]["seconds"]
    killed = [timed(source, shards=4, collect=False, fault_plan=kill)
              for _ in range(repeats)]
    faulted_s = min(t for t, _ in killed)
    # recovery must be invisible: every killed run ends with the clean
    # run's edge rows
    _, clean = timed(source, shards=4, collect=False)
    for _, faulted in killed:
        assert faulted.stats["recovered_shards"] == [1]
        for edge, row in clean.edge_rows.items():
            assert np.array_equal(row, faulted.edge_rows[edge])
    recovery = {"clean_seconds": round(clean_s, 3),
                "killed_seconds": round(faulted_s, 3),
                "overhead_ratio": round(faulted_s / clean_s, 3),
                "clean": median_iqr(times[4]),
                "killed": median_iqr([t for t, _ in killed])}
    print(f"recovery: clean {clean_s:.2f}s, one kill {faulted_s:.2f}s "
          f"(x{recovery['overhead_ratio']})")

    single = sweep[1]["throughput_mp_s"]
    best_multi = max(sweep[s]["throughput_mp_s"] for s in SWEEP_SHARDS
                     if s > 1)
    gate = best_multi >= single
    print(f"gate: best multi-shard {best_multi} MP/s >= "
          f"single-shard {single} MP/s -> {gate}")
    return {"n": n, "dtype": "uint8", "mode": "digest",
            "transport": "inline", "repeats": repeats,
            "sweep": {str(k): v for k, v in sweep.items()},
            "recovery": recovery,
            "acceptance": {"multi_shard_not_slower": bool(gate),
                           "single_mp_s": single,
                           "best_multi_mp_s": best_multi}}


def run_smoke() -> dict:
    n, shards = 256, 4
    source = SyntheticSource(n, n)
    dense = source.band(0, n)
    want = sat_reference(dense)

    ok_clean = True
    for k in (1, 2, shards):
        result = distributed_sat(source, shards=k)
        ok_clean &= bool(np.array_equal(result.sat, want))

    plan = FaultPlan(actions=(
        FaultAction(kind="kill", shard=2, attempt=1, phase="reduce"),
        FaultAction(kind="corrupt", shard=0, attempt=1, phase="apply")))
    seconds, faulted = timed(source, shards=shards, fault_plan=plan,
                             chunk_rows=32)
    ok_recovered = bool(np.array_equal(faulted.sat, want))
    attempts = faulted.stats["attempts"]
    ok_ledger = all(
        attempts[phase][k] == plan.expected_attempts(k, phase)
        for phase in ("reduce", "apply") for k in range(shards))

    # Real worker processes: shard 1's worker is killed when its carry
    # arrives, while it holds its published band.  A hard death can lose
    # more than the faulted request, so the ledger is a lower bound here.
    kill = FaultPlan(actions=(
        FaultAction(kind="kill", shard=1, attempt=1, phase="apply"),))
    process_s, process = timed(source, shards=shards, transport="process",
                               workers=2, fault_plan=kill, max_attempts=5)
    ok_process = bool(np.array_equal(process.sat, want))
    process_attempts = process.stats["attempts"]
    ok_process_ledger = all(
        process_attempts[phase][k] >= kill.expected_attempts(k, phase)
        for phase in ("reduce", "apply") for k in range(shards))

    print(f"smoke n={n}: clean={ok_clean} recovered={ok_recovered} "
          f"ledger={ok_ledger} ({seconds:.2f}s faulted run); process: "
          f"recovered={ok_process} ledger>={ok_process_ledger} "
          f"({process_s:.2f}s)")
    if not (ok_clean and ok_recovered and ok_ledger and ok_process
            and ok_process_ledger):
        raise SystemExit("distsat smoke gate failed")
    return {"n": n, "shards": shards,
            "clean_bit_identical": ok_clean,
            "recovered_bit_identical": ok_recovered,
            "attempt_ledger_exact": ok_ledger,
            "faulted_seconds": round(seconds, 3),
            "recovered_shards": faulted.stats["recovered_shards"],
            "process": {"workers": process.stats["workers"],
                        "kill": "shard 1, apply, attempt 1",
                        "recovered_bit_identical": ok_process,
                        "attempt_ledger_at_least_expected":
                            ok_process_ledger,
                        "attempts": process_attempts,
                        "seconds": round(process_s, 3)}}


def run_gigapixel() -> dict:
    n, chunk, shards = GIGAPIXEL_N, GIGAPIXEL_CHUNK, 8
    source = SyntheticSource(n, n)
    print(f"gigapixel: {n}x{n} uint8 ({n * n / 1e9:.1f} Gpx), "
          f"{shards} shards, {chunk}-row chunks ...")
    seconds, result = timed(source, shards=shards, chunk_rows=chunk,
                            collect=False)
    # Memory cap: one uint8 chunk + its int64 SAT rows, nothing larger.
    cap_bytes = chunk * n * (1 + 8)
    peak = result.stats["peak_worker_bytes"]
    assert peak <= cap_bytes, (peak, cap_bytes)

    # The SAT total two ways: reduce-side carries vs apply-side edge row.
    total = int(result.rect_sum(0, 0, n - 1, n - 1))
    assert total == int(result.carries.planes()["BCS"].sum(dtype=np.int64))

    # Edge-aligned rectangles vs independently regenerated narrow strips.
    edges = sorted(result.edge_rows)
    checks = [(0, 1000, edges[0], 1010),
              (edges[2] + 1, 0, edges[5], 7),
              (edges[0] + 1, n - 9, edges[1], n - 1)]
    for top, left, bottom, right in checks:
        got = int(result.rect_sum(top, left, bottom, right))
        assert got == strip_oracle(source, top, left, bottom, right)

    mp_s = n * n / 1e6 / seconds
    print(f"gigapixel: {seconds:.1f}s ({mp_s:.1f} MP/s), "
          f"peak worker bytes {peak / 1e6:.1f} MB (cap {cap_bytes / 1e6:.1f})")
    return {"n": n, "shards": shards, "chunk_rows": chunk,
            "seconds": round(seconds, 1),
            "throughput_mp_s": round(mp_s, 2),
            "peak_worker_bytes": int(peak),
            "worker_memory_cap_bytes": int(cap_bytes),
            "rect_checks": len(checks) + 2}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="fast correctness + recovery gate (CI)")
    parser.add_argument("--gigapixel", action="store_true",
                        help="the 4-gigapixel memory-capped demo (slow)")
    parser.add_argument("-n", type=int, default=SWEEP_N,
                        help="sweep image side (default 8192)")
    parser.add_argument("--repeats", type=int, default=5,
                        help="runs per sweep point and of the killed run "
                             "(default 5)")
    parser.add_argument("-o", "--output", default=None,
                        help="output JSON path (defaults per mode)")
    args = parser.parse_args(argv)

    if args.smoke:
        payload = {"benchmark": "distsat-smoke", **machine(),
                   "smoke": run_smoke()}
        out = Path(args.output or REPO / "distsat_smoke.json")
    elif args.gigapixel:
        out = Path(args.output or REPO / "BENCH_distsat.json")
        payload = json.loads(out.read_text()) if out.exists() \
            else {"benchmark": "distsat", **machine()}
        payload["gigapixel"] = run_gigapixel()
    else:
        payload = {"benchmark": "distsat", **machine(),
                   **run_sweep(args.n, args.repeats)}
        out = Path(args.output or REPO / "BENCH_distsat.json")
        if not payload["acceptance"]["multi_shard_not_slower"]:
            out.write_text(json.dumps(payload, indent=2, sort_keys=True)
                           + "\n")
            raise SystemExit("distsat throughput gate failed "
                             "(multi-shard slower than single-shard)")

    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
