#!/usr/bin/env python3
"""Quickstart: compute a summed area table with the paper's algorithm.

Runs 1R1W-SKSS-LB on the functional GPU simulator, verifies the result
against the NumPy reference, answers a rectangle-sum query in O(1), and
prints the measured launch statistics (the Table I quantities).
"""

import numpy as np

from repro import compute_sat, sat_reference
from repro.gpusim import GPU
from repro.sat.reference import rect_sum


def main() -> None:
    rng = np.random.default_rng(42)
    n = 128
    a = rng.integers(0, 10, size=(n, n)).astype(np.float64)

    # A simulator with an adversarial configuration: random block scheduling
    # and relaxed store visibility - the algorithm must not care.
    gpu = GPU(seed=7, scheduler_policy="random", consistency="relaxed")
    result = compute_sat(a, algorithm="1R1W-SKSS-LB", tile_width=32,
                         engine=gpu)

    ok = np.array_equal(result.sat, sat_reference(a))
    print(f"matrix: {n}x{n}, algorithm: {result.algorithm}")
    print(f"correct vs reference: {ok}")
    print(result.summary())

    t = result.report.traffic
    n2 = n * n
    print(f"reads per element:  {t.global_read_requests / n2:.3f} "
          f"(1R1W optimum: 1 + O(1/W))")
    print(f"writes per element: {t.global_write_requests / n2:.3f}")
    print(f"syncthreads per tile: "
          f"{t.syncthreads / (n // 32) ** 2:.0f} (paper: 3)")

    # The point of the data structure: any rectangle sum in O(1).
    total = rect_sum(result.sat, 10, 20, 90, 110)
    print(f"sum of a[10:91, 20:111] via 4 SAT lookups: {total:.0f} "
          f"(direct: {a[10:91, 20:111].sum():.0f})")

    # The pure-NumPy host path for large matrices (no simulation overhead).
    host = compute_sat(a, engine="serial")
    print(f"host path agrees: {np.array_equal(host.sat, result.sat)}")


if __name__ == "__main__":
    main()
