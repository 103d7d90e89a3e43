"""Normalized cross-correlation template matching via summed area tables.

The NCC denominator — per-window mean and energy of the image — is the
textbook integral-image trick (Lewis, "Fast Normalized Cross-Correlation"):
two SATs (of ``x`` and ``x²``) make the normalization O(1) per window, so
only the raw correlation remains data-dependent.  The raw correlation here is
computed directly (the focus of this repository is the SAT part).
"""

from __future__ import annotations

import numpy as np

from repro.apps.variance_filter import squared_image
from repro.errors import ConfigurationError
from repro.sat.registry import compute_sat


def window_stats(image: np.ndarray, th: int, tw: int, *,
                 engine=None,
                 workers: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Per-anchor window sums and sums of squares via two SATs.

    Returns arrays of shape ``(rows-th+1, cols-tw+1)`` where entry ``(i, j)``
    covers ``image[i:i+th, j:j+tw]``.  The two SATs are built by
    :func:`~repro.sat.registry.compute_sat` on the host ``engine`` (serial
    by default); any rectangular image works with every engine.  Integer
    images stay exact: ``x²`` is widened before summing and the returned
    statistics are integer-valued.
    """
    image = np.asarray(image)
    rows, cols = image.shape
    if th > rows or tw > cols or th <= 0 or tw <= 0:
        raise ConfigurationError("template larger than image (or empty)")
    sat1, sat2 = (compute_sat(x, algorithm=None, engine=engine,
                              workers=workers).sat
                  for x in (image, squared_image(image)))

    def sums(sat):
        padded = np.zeros((rows + 1, cols + 1), dtype=sat.dtype)
        padded[1:, 1:] = sat
        return (padded[th:, tw:] - padded[:-th or None, tw:][:rows - th + 1]
                - padded[th:, :-tw or None][:, :cols - tw + 1]
                + padded[:rows - th + 1, :cols - tw + 1])

    return sums(sat1), sums(sat2)


def ncc_match(image: np.ndarray, template: np.ndarray,
              eps: float = 1e-12, *, engine=None,
              workers: int | None = None) -> np.ndarray:
    """Normalized cross-correlation map over all template placements.

    Output in ``[-1, 1]`` (0 where the window is constant).  ``engine``
    selects the host executor for the two window-statistics SATs.
    """
    image = np.asarray(image)
    template = np.asarray(template, dtype=np.float64)
    if image.ndim != 2 or template.ndim != 2:
        raise ConfigurationError("image and template must be 2-D")
    th, tw = template.shape
    area = th * tw
    t_centered = template - template.mean()
    t_norm = np.sqrt((t_centered ** 2).sum())
    win_sum, win_sq = window_stats(image, th, tw, engine=engine,
                                   workers=workers)
    win_var = np.maximum(win_sq - win_sum**2 / area, 0.0)

    # Raw correlation with the zero-mean template (direct evaluation).
    out_r, out_c = win_sum.shape
    raw = np.empty((out_r, out_c))
    for i in range(out_r):
        for j in range(out_c):
            raw[i, j] = (image[i:i + th, j:j + tw] * t_centered).sum()

    denom = np.sqrt(win_var) * t_norm
    with np.errstate(divide="ignore", invalid="ignore"):
        ncc = raw / np.where(denom > eps, denom, np.inf)
    return np.clip(ncc, -1.0, 1.0)


def best_match(image: np.ndarray, template: np.ndarray) -> tuple[int, int, float]:
    """Location (top, left) and score of the best NCC placement."""
    ncc = ncc_match(image, template)
    flat = int(np.argmax(ncc))
    i, j = np.unravel_index(flat, ncc.shape)
    return int(i), int(j), float(ncc[i, j])
