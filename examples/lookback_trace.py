#!/usr/bin/env python3
"""Inside 1R1W-SKSS-LB: serial numbers, status bytes, and a look-back trace.

Prints the diagonal-major serial numbering of Figure 9, runs the kernel on a
low-residency device, and reports the per-tile spin/look-back statistics that
show *why* the algorithm tolerates any block schedule.
"""

import numpy as np

from repro.gpusim import GPU, TINY_DEVICE
from repro.primitives.tile import TileGrid
from repro.sat import SKSSLB1R1W, sat_reference
from repro.sat.skss_lb import serial_to_tile, tile_serial_number


def main() -> None:
    t = 5
    print(f"=== Figure 9: diagonal-major serial numbers ({t}x{t} tiles) ===")
    for I in range(t):
        print("  ".join(f"{tile_serial_number(I, J, t):2d}" for J in range(t)))
    print("\nacquisition order (atomicAdd returns 0, 1, 2, ...):")
    order = [serial_to_tile(s, t) for s in range(t * t)]
    print("  " + " -> ".join(f"T{ij}" for ij in order[:8]) + " -> ...")
    print("every dependency (left, above, diagonal) has a smaller serial,")
    print("so a spinning block always waits on a resident or retired one.\n")

    n, W = 96, 32
    rng = np.random.default_rng(1)
    a = rng.integers(0, 10, size=(n, n)).astype(np.float64)

    print(f"=== Running on a tiny device (2 SMs, residency 2), n={n} ===")
    gpu = GPU(device=TINY_DEVICE, seed=5, scheduler_policy="lifo",
              max_resident_blocks=2)
    alg = SKSSLB1R1W()
    a_buf = gpu.alloc("_sat_a", (n, n), np.float64, fill=a)
    b_buf = gpu.alloc("_sat_b", (n, n), np.float64)
    alg._run_device(gpu, a_buf, b_buf, TileGrid(n=n, W=W))
    report = gpu.launches

    ok = np.array_equal(gpu.read("_sat_b"), sat_reference(a))
    traffic = report.traffic
    tiles = (n // W) ** 2
    print(f"correct: {ok}")
    print(f"tiles: {tiles}, scheduler steps: {report.kernels[0].scheduler_steps}")
    print(f"spin iterations: {traffic.spin_iterations} "
          f"({traffic.spin_iterations / tiles:.2f} per tile)")
    print(f"fences: {traffic.fences} "
          f"({traffic.fences / tiles:.1f} per tile - one per publish)")

    print("\nfinal status bytes (R should be 4, C should be 2 everywhere):")
    print("R:", gpu.read("_sat_s_R").ravel().tolist())
    print("C:", gpu.read("_sat_s_C").ravel().tolist())

    gs = gpu.read("_sat_s_gs")
    print("\npublished GS (running totals of whole-tile rectangles):")
    for row in gs:
        print("  " + "  ".join(f"{v:7.0f}" for v in row))
    print(f"bottom-right GS equals the matrix total: "
          f"{gs[-1, -1] == a.sum()}")

    print("\n=== Why the look-back wins: dependence depth ===")
    from repro.analysis.waves import (lookback_profile, render_profile,
                                      wavefront_profile)
    print(render_profile(wavefront_profile(16)))
    print()
    print(render_profile(lookback_profile(16)))


if __name__ == "__main__":
    main()
