"""Box filtering (mean blur) in O(1) per pixel via the summed area table.

The classic SAT application from Crow [7]: once the SAT is built, the mean of
any ``(2r+1)²`` window is four lookups, independent of the radius.  Windows
are clamped at the image borders (each pixel is averaged over the part of its
window that lies inside the image), so the filter is exactly a normalized
box convolution with border truncation.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.sat.registry import compute_sat


def _window_bounds(n_rows: int, n_cols: int, radius: int):
    ii = np.arange(n_rows)[:, None]
    jj = np.arange(n_cols)[None, :]
    top = np.maximum(ii - radius, 0)
    bottom = np.minimum(ii + radius, n_rows - 1)
    left = np.maximum(jj - radius, 0)
    right = np.minimum(jj + radius, n_cols - 1)
    return (np.broadcast_to(top, (n_rows, n_cols)),
            np.broadcast_to(bottom, (n_rows, n_cols)),
            np.broadcast_to(left, (n_rows, n_cols)),
            np.broadcast_to(right, (n_rows, n_cols)))


def window_sums_from_sat(sat: np.ndarray, radius: int) -> np.ndarray:
    """Clamped-window sums for every pixel, from a prebuilt SAT (vectorised).

    The sums come back in the SAT's own dtype (widened to at least ``int64``
    for integer SATs), so integer pixel data stays exact until a caller
    divides.
    """
    if radius < 0:
        raise ConfigurationError("box-filter radius must be non-negative")
    rows, cols = sat.shape
    top, bottom, left, right = _window_bounds(rows, cols, radius)
    acc = (np.result_type(sat.dtype, np.int64)
           if np.issubdtype(sat.dtype, np.integer) else sat.dtype)
    total = sat[bottom, right].astype(acc, copy=True)
    m = top > 0
    total[m] -= sat[top[m] - 1, right[m]]
    m = left > 0
    total[m] -= sat[bottom[m], left[m] - 1]
    m = (top > 0) & (left > 0)
    total[m] += sat[top[m] - 1, left[m] - 1]
    return total


def window_areas(rows: int, cols: int, radius: int) -> np.ndarray:
    """Number of in-image pixels in each clamped window."""
    top, bottom, left, right = _window_bounds(rows, cols, radius)
    return ((bottom - top + 1) * (right - left + 1)).astype(np.float64)


def box_filter(image: np.ndarray, radius: int, *,
               algorithm: str | None = None, tile_width: int = 32,
               gpu=None, engine=None,
               workers: int | None = None) -> np.ndarray:
    """Mean-filter ``image`` with a clamped ``(2·radius+1)²`` box window.

    The SAT comes from one :func:`~repro.sat.registry.compute_sat` call: on
    the simulator when ``gpu`` is given (mutually exclusive with
    ``engine``), otherwise on the host ``engine`` (serial by default).
    ``algorithm=None`` runs the executor's default — the paper's
    1R1W-SKSS-LB on the simulator and the wavefront engine, the plain double
    scan on the others.

    Any dtype is accepted: integer images accumulate exactly (the SAT stack's
    exact dtype policy) and only the final mean division produces floats.
    """
    image = np.asarray(image)
    if image.ndim != 2:
        raise ConfigurationError("box_filter expects a 2-D image")
    sat = compute_sat(image, algorithm=algorithm, tile_width=tile_width,
                      gpu=gpu, simulate=gpu is not None, engine=engine,
                      workers=workers).sat
    sums = window_sums_from_sat(sat, radius)
    return sums / window_areas(*image.shape, radius)


def box_filter_direct(image: np.ndarray, radius: int) -> np.ndarray:
    """O(r²)-per-pixel direct convolution oracle (for tests; intentionally
    simple and slow)."""
    image = np.asarray(image)
    rows, cols = image.shape
    out = np.empty((rows, cols), dtype=np.float64)
    for i in range(rows):
        for j in range(cols):
            window = image[max(i - radius, 0):i + radius + 1,
                           max(j - radius, 0):j + radius + 1]
            out[i, j] = window.mean()
    return out
