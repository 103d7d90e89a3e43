"""Detection-pipeline benchmarks: the downstream payoff of fast SATs.

The cascade's wall-clock is dominated by SAT construction plus O(1) lookups;
these benches measure the dense sliding-window detector and its
early-rejection ratio.
"""

from repro.apps.cascade import detect, squares_scene


def test_cascade_throughput(benchmark):
    img, corners = squares_scene(256, num_squares=4, square=14, seed=1)
    dets, stats = benchmark(detect, img, window=16)
    print(f"\nwindows={stats.windows_total} "
          f"early-reject={stats.early_reject_fraction:.3f} "
          f"detections={len(dets)}")
    assert stats.early_reject_fraction > 0.9
    assert len(dets) >= len(corners) - 1

