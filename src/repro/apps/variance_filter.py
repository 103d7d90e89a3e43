"""Local mean/variance filtering via two SATs (variance shadow maps).

Lauritzen's summed-area variance shadow maps [8] store the SATs of ``x`` and
``x²`` so that the mean and variance of any filter rectangle are O(1); the
same trick powers local-contrast normalization and texture analysis.  This
module computes both moments for clamped square windows.
"""

from __future__ import annotations

import numpy as np

from repro.apps.box_filter import window_areas, window_sums_from_sat
from repro.errors import ConfigurationError
from repro.sat.registry import compute_sat


def squared_image(image: np.ndarray) -> np.ndarray:
    """``image * image`` with integer inputs widened first.

    8/16/32-bit pixels overflow when squared in their own dtype (255² alone
    exceeds uint8); widening to ``int64`` keeps the ``x²`` SAT exact.  Floats
    square in place in their own dtype.
    """
    image = np.asarray(image)
    if image.dtype == np.bool_ or np.issubdtype(image.dtype, np.integer):
        wide = image.astype(np.result_type(image.dtype, np.int64))
        return wide * wide
    return image * image


def local_moments(image: np.ndarray, radius: int, *,
                  algorithm: str | None = None, tile_width: int = 32,
                  engine=None,
                  workers: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Per-pixel clamped-window mean and variance via the two-SAT trick.

    Variance is computed as ``E[x²] - E[x]²`` and clipped at zero (the clip
    absorbs the float round-off that can push tiny variances negative —
    the standard caveat of the VSM formulation).

    Both SATs are built exactly as in
    :func:`~repro.apps.box_filter.box_filter`: one
    :func:`~repro.sat.registry.compute_sat` call each, on ``engine``
    (serial by default).  With ``engine="wavefront"`` the two builds share
    the process-wide engine, so the second SAT reuses the tile plan of the
    first.

    Integer images are supported directly: both SATs accumulate exactly
    (``x²`` is widened via :func:`squared_image` before summing) and only the
    final divisions by window area produce floats.
    """
    image = np.asarray(image)
    if image.ndim != 2:
        raise ConfigurationError("local_moments expects a 2-D image")
    if radius < 0:
        raise ConfigurationError("radius must be non-negative")
    sat1, sat2 = (compute_sat(x, algorithm=algorithm, tile_width=tile_width,
                              engine=engine, workers=workers).sat
                  for x in (image, squared_image(image)))
    area = window_areas(*image.shape, radius)
    mean = window_sums_from_sat(sat1, radius) / area
    mean_sq = window_sums_from_sat(sat2, radius) / area
    return mean, np.clip(mean_sq - mean * mean, 0.0, None)


def chebyshev_upper_bound(mean: np.ndarray, variance: np.ndarray,
                          threshold: float) -> np.ndarray:
    """The VSM visibility estimate: ``P(x >= threshold)`` upper bound.

    One-sided Chebyshev: ``σ² / (σ² + (threshold - μ)²)`` where ``threshold >
    μ``, else 1 — exactly the shading formula of GPU Gems 3 chapter 8.
    """
    mean = np.asarray(mean, dtype=np.float64)
    variance = np.asarray(variance, dtype=np.float64)
    diff = threshold - mean  # moments are float already; cast is a no-op there
    with np.errstate(divide="ignore", invalid="ignore"):
        p = variance / (variance + diff * diff)
    return np.where(diff > 0, np.nan_to_num(p), 1.0)


def local_contrast_normalize(image: np.ndarray, radius: int,
                             eps: float = 1e-3) -> np.ndarray:
    """Normalize each pixel by its local mean and standard deviation."""
    mean, var = local_moments(image, radius)
    return (np.asarray(image) - mean) / np.sqrt(var + eps)
