#!/usr/bin/env python3
"""SAT applications demo: box blur, adaptive thresholding, local variance.

Renders small ASCII previews of each stage on synthetic scenes.  The SATs are
built by the paper's 1R1W-SKSS-LB algorithm running on the GPU simulator.
"""

import numpy as np

from repro.apps import (adaptive_threshold, box_filter, global_threshold,
                        local_moments)
from repro.apps.synthetic import gaussian_blobs, noisy_document
from repro.gpusim import GPU

RAMP = " .:-=+*#%@"


def ascii_render(img: np.ndarray, width: int = 48) -> str:
    """Downsample an image to a small ASCII block picture."""
    step = max(1, img.shape[0] // (width // 2))
    small = img[::step, ::step]
    lo, hi = small.min(), small.max()
    norm = (small - lo) / (hi - lo) if hi > lo else np.zeros_like(small)
    idx = (norm * (len(RAMP) - 1)).astype(int)
    return "\n".join("".join(RAMP[v] * 2 for v in row) for row in idx)


def main() -> None:
    n = 128
    print("=== Box blur (radius 6) via SAT on the simulator ===")
    img = gaussian_blobs(n, num_blobs=6, seed=7)
    blurred = box_filter(img, 6, algorithm="1R1W-SKSS-LB", engine=GPU(seed=1))
    print("input:")
    print(ascii_render(img))
    print("\nblurred:")
    print(ascii_render(blurred))

    print("\n=== Adaptive vs global thresholding on an unevenly lit page ===")
    doc = noisy_document(n, seed=3)
    adaptive = adaptive_threshold(doc, radius=8, ratio=0.3,
                                  algorithm="1R1W-SKSS-LB",
                                  engine=GPU(seed=2))
    flooded = global_threshold(doc, level=0.5)
    print("document (dark on the left, bright on the right):")
    print(ascii_render(doc))
    print(f"\nadaptive threshold: {adaptive.mean() * 100:.1f}% foreground "
          f"(text on both sides)")
    print(ascii_render(adaptive.astype(float)))
    print(f"\nglobal threshold:   {flooded.mean() * 100:.1f}% foreground "
          f"(dark side floods)")

    print("\n=== Local variance (variance-shadow-map moments) ===")
    mean, var = local_moments(img, 5)
    print(f"mean of means: {mean.mean():.4f}  "
          f"peak local variance: {var.max():.5f}")
    print("variance map (bright = textured):")
    print(ascii_render(var))


if __name__ == "__main__":
    main()
