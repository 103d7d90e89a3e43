"""Fork/join parallel host SAT (multi-core CPU execution of the dataflow).

The banded decomposition used on the GPU (and by the out-of-core module) maps
directly onto CPU workers: split the matrix into row bands, cumsum each band's
columns concurrently, add the exclusive carry of the bands above, then do the
same over column bands for the row direction.  NumPy's cumsum releases the
GIL, so a thread pool gives real parallelism without copying.

This is exactly the paper's 2R2W structure executed by P workers instead of
n GPU threads — a useful fast path for hosts without a GPU, and a second,
independently-implemented engine the tests difference against the others.

The two phases each read and write every element once (2R2W on the CPU).

The row phase needs no transpose (and no carry stitching at all): row-wise
prefix sums are independent per row, so each worker simply ``cumsum``\\ s its
band of rows along ``axis=1`` in place.  The whole computation therefore
makes exactly one copy — the defensive copy of the input.

The worker count defaults to the ``REPRO_WORKERS`` environment variable,
falling back to one (shared with the wavefront engine's
:func:`repro.hostexec.default_workers`).

This engine is registered as ``"parallel"`` in the backend registry
(:mod:`repro.backend.registry`) with ``bit_identical=False``: banding the
column scan changes the float reduction order, so float results match the
serial reference only to within rounding (integer inputs are exact).  The
differential layer compares it against the proven rounding budget of
:mod:`repro.analysis.tolerances` accordingly, where the serial and
wavefront engines are held to exact equality.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.backend.core import positive_int
from repro.errors import ConfigurationError
from repro.hostexec.engine import default_workers as _default_workers
from repro.primitives.prefix_sum import partition_bounds
from repro.sat.dtypes import resolve_policy


def _band_edges(n: int, workers: int) -> list[tuple[int, int]]:
    size = (n + workers - 1) // workers
    return [partition_bounds(p, size, n)
            for p in range((n + size - 1) // size)]


def _parallel_cumsum_axis0(a: np.ndarray, pool: ThreadPoolExecutor,
                           workers: int) -> None:
    """In-place column-direction inclusive scan, parallel over row bands."""
    n = a.shape[0]
    bands = _band_edges(n, workers)

    def local(band):
        lo, hi = band
        np.cumsum(a[lo:hi], axis=0, out=a[lo:hi])
    list(pool.map(local, bands))
    # Exclusive carries: last row of each completed band, prefixed serially
    # (cheap: one row per band), then added to each later band in parallel.
    carries = np.zeros((len(bands), a.shape[1]), dtype=a.dtype)
    for k in range(1, len(bands)):
        lo_prev, hi_prev = bands[k - 1]
        carries[k] = carries[k - 1] + a[hi_prev - 1]

    def fix(item):
        k, (lo, hi) = item
        if k:
            a[lo:hi] += carries[k]
    list(pool.map(fix, enumerate(bands)))


def _parallel_cumsum_axis1(a: np.ndarray, pool: ThreadPoolExecutor,
                           workers: int) -> None:
    """In-place row-direction inclusive scan, parallel over row bands.

    Rows are independent, so no carries and no transpose copies are needed —
    each band is one contiguous in-place ``cumsum``.
    """
    bands = _band_edges(a.shape[0], workers)

    def local(band):
        lo, hi = band
        np.cumsum(a[lo:hi], axis=1, out=a[lo:hi])
    list(pool.map(local, bands))


def parallel_sat(a: np.ndarray, *, workers: int | None = None,
                 dtype_policy=None) -> np.ndarray:
    """Compute the SAT with a fork/join thread pool (CPU-parallel 2R2W).

    The defensive copy is made in the accumulator dtype the ``dtype_policy``
    resolves for the input (:mod:`repro.sat.dtypes`).
    """
    a = np.asarray(a)
    if a.ndim != 2:
        raise ConfigurationError("parallel_sat expects a 2-D matrix")
    workers = _default_workers() if workers is None \
        else positive_int(workers, "workers")
    acc = resolve_policy(dtype_policy).accumulator(a.dtype)
    a = np.array(a, dtype=acc, copy=True)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        _parallel_cumsum_axis0(a, pool, workers)
        _parallel_cumsum_axis1(a, pool, workers)
    return a
