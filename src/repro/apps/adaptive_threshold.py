"""Adaptive (local-mean) thresholding via the summed area table.

The Bradley–Roth binarization used in document processing: a pixel is
foreground when it is more than ``ratio`` darker than the mean of its local
window.  The local means come from a single SAT — the workload that makes
fast SAT construction matter in OCR pipelines.
"""

from __future__ import annotations

import numpy as np

from repro.apps.box_filter import box_filter
from repro.errors import ConfigurationError


def adaptive_threshold(image: np.ndarray, *, radius: int | None = None,
                       ratio: float = 0.15, algorithm: str | None = None,
                       tile_width: int = 32, engine=None) -> np.ndarray:
    """Binarize ``image``: ``True`` where the pixel is ``ratio`` below its
    local clamped-window mean.

    ``radius`` defaults to one eighth of the image side (the Bradley–Roth
    recommendation of a window about ``n/8`` wide).  The local means come
    from :func:`~repro.apps.box_filter.box_filter` on ``engine``.
    """
    image = np.asarray(image)
    if image.ndim != 2:
        raise ConfigurationError("adaptive_threshold expects a 2-D image")
    if not 0.0 <= ratio < 1.0:
        raise ConfigurationError(f"ratio must be in [0, 1), got {ratio}")
    if radius is None:
        radius = max(1, image.shape[0] // 16)
    means = box_filter(image, radius, algorithm=algorithm,
                       tile_width=tile_width, engine=engine)
    return image < means * (1.0 - ratio)


def global_threshold(image: np.ndarray, level: float = 0.5) -> np.ndarray:
    """Naive global threshold (comparison baseline: fails under uneven
    illumination, which is the scenario the adaptive version handles)."""
    return np.asarray(image) < level
