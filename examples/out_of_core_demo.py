#!/usr/bin/env python3
"""Out-of-core SAT: matrices bigger than device memory (extension demo).

Streams a tall matrix through the banded SAT in row bands, computing each
band's SAT with the paper's algorithm, answering rectangle queries while
streaming, and showing the low-memory mode that retains only band-edge rows.
"""

import numpy as np

from repro.sat import sat_reference
from repro.sat.outofcore import OutOfCoreSAT, band_bounds, out_of_core_sat


def main() -> None:
    rng = np.random.default_rng(11)
    rows, cols = 512, 128
    a = rng.integers(0, 10, size=(rows, cols)).astype(np.float64)
    ref = sat_reference(a)

    print(f"matrix: {rows}x{cols}, processed in 128-row bands")
    print("(each square band's SAT computed by 1R1W-SKSS-LB on the simulator)")
    got = out_of_core_sat(a, band_rows=128, algorithm="1R1W-SKSS-LB",
                          engine="gpusim")
    print(f"matches reference: {np.array_equal(got, ref)}")

    print("\nstreaming mode with queries between bands:")
    oos = OutOfCoreSAT(n_cols=cols)
    for k, (lo, hi) in enumerate(band_bounds(rows, 128)):
        oos.push_band(a[lo:hi])
        q = oos.rect_sum(0, 0, hi - 1, cols - 1)
        print(f"  after band {k}: rows 0..{hi - 1} pushed, "
              f"total-so-far query = {q:.0f} "
              f"(direct: {a[:hi].sum():.0f})")

    print("\nlow-memory mode (keep_sat=False): only band-edge rows retained")
    lite = OutOfCoreSAT(n_cols=cols, keep_sat=False)
    for lo, hi in band_bounds(rows, 128):
        lite.push_band(a[lo:hi])
    q = lite.rect_sum(128, 10, 383, 100)
    print(f"  band-aligned query rows 128..383, cols 10..100: {q:.0f} "
          f"(direct: {a[128:384, 10:101].sum():.0f})")
    resident = cols * len(band_bounds(rows, 128))
    print(f"  retained floats: {resident} vs full SAT {rows * cols} "
          f"({100 * resident / (rows * cols):.1f}%)")


if __name__ == "__main__":
    main()
