#!/usr/bin/env python3
"""Run all seven SAT algorithms of the paper on the simulator and compare.

Prints a measured mini-Table I — kernel launches, peak threads, global
reads/writes per element, spins, fences — plus the emergent simulator cycles,
for a 256x256 matrix at W=32.  A second table times the host execution
engines (serial tile loop, multi-core wavefront, fork/join 2R2W, sharded
bands) on a larger matrix.
"""

import time

import numpy as np

from repro import compute_sat, get_algorithm, sat_reference
from repro.backend.registry import engine_backends
from repro.gpusim import GPU
from repro.perfmodel.table import TABLE3_ORDER


def main() -> None:
    rng = np.random.default_rng(0)
    n = 256
    a = rng.integers(0, 100, size=(n, n)).astype(np.float64)
    ref = sat_reference(a)
    n2 = n * n

    header = (f"{'algorithm':<14} {'ok':<3} {'kernels':>7} {'threads':>8} "
              f"{'rd/elem':>8} {'wr/elem':>8} {'spins':>6} {'fences':>6} "
              f"{'Mcycles':>8}")
    print(f"n = {n}, W = 32, random scheduling, relaxed consistency\n")
    print(header)
    print("-" * len(header))
    for name in TABLE3_ORDER:
        res = get_algorithm(name).run(a, GPU(seed=1,
                                             scheduler_policy="random"))
        t = res.report.traffic
        cycles = sum(k.sim_cycles for k in res.report.kernels) / 1e6
        ok = "yes" if np.array_equal(res.sat, ref) else "NO"
        print(f"{name:<14} {ok:<3} {res.kernel_calls:>7} "
              f"{res.max_threads:>8} {t.global_read_requests / n2:>8.3f} "
              f"{t.global_write_requests / n2:>8.3f} "
              f"{t.spin_iterations:>6} {t.fences:>6} {cycles:>8.2f}")

    print("\nReading the table:")
    print(" * 2R2W/2R2W-optimal move every element twice (rd+wr = 4/elem).")
    print(" * 2R1W reads twice, writes once (3/elem).")
    print(" * the 1R1W family is at the global-memory optimum (~2/elem).")
    print(" * only the SKSS variants spin (single-kernel soft sync); only")
    print("   1R1W-SKSS-LB combines that with full n²/m parallelism.")

    compare_engines()


def compare_engines(n: int = 1024) -> None:
    """Time the host execution engines on the same 1R1W-SKSS-LB dataflow."""
    rng = np.random.default_rng(1)
    a = rng.integers(0, 100, size=(n, n)).astype(np.float64)
    ref = sat_reference(a)

    print(f"\nHost execution engines (n = {n}, W = 32, 1R1W-SKSS-LB):\n")
    print(f"{'engine':<12} {'ok':<3} {'seconds':>8}")
    print("-" * 25)
    for engine in engine_backends():
        t0 = time.perf_counter()
        sat = compute_sat(a, algorithm="1R1W-SKSS-LB", engine=engine).sat
        dt = time.perf_counter() - t0
        ok = "yes" if np.allclose(sat, ref) else "NO"
        print(f"{engine:<12} {ok:<3} {dt:>8.3f}")
    print("\n * serial runs the algorithm's own tile loop;")
    print(" * wavefront dispatches tile-row runs to a pool, each row's")
    print("   look-back a prefix scan (bit-identical to serial);")
    print(" * parallel is the banded fork/join 2R2W scan (plain cumsums);")
    print(" * distributed runs band shards with persisted column carries.")


if __name__ == "__main__":
    main()
