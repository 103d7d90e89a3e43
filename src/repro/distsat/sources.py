"""Band sources: where a distributed run's input rows come from.

A :class:`BandSource` hands out horizontal bands of the image on demand.
Two implementations:

:class:`MatrixSource`
    Wraps an in-memory array.  The coordinator slices the band itself and
    embeds it in the ``task`` message — fine for images that fit in RAM,
    and what the :class:`~repro.backend.executors.DistributedBackend`
    adapter uses.

:class:`SyntheticSource`
    A *spec-serializable* procedural image: ``a[i, j] = (ci*i + cj*j + c0)
    % mod`` in ``uint8``.  Because it serializes to a tiny JSON spec, a
    worker regenerates its own rows locally — the coordinator never
    materialises the image, which is how the 65536² (4-gigapixel) demo
    runs on a memory-capped worker.  :meth:`rect` regenerates arbitrary
    sub-patches, so the demo can verify sampled rectangle sums without any
    process ever holding more than a narrow strip.

Specs round-trip through :func:`source_to_spec` / :func:`source_from_spec`
(plain JSON-able dicts), which is what lets a ``task`` message reference
"rows 4096..8192 of synthetic-65536" instead of shipping the pixels.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.errors import ConfigurationError

#: Bytes of ``uint16`` sums :meth:`SyntheticSource.rect` makes at a time
#: (whole rows, at least one): 64 KiB stays in cache and below glibc's
#: default 128 KiB mmap threshold, so each block reuses heap memory.
_BLOCK_BYTES = 1 << 16


class BandSource(ABC):
    """Produces horizontal bands ``[row_lo, row_hi)`` of one fixed image."""

    #: image height / width
    n_rows: int
    n_cols: int

    @property
    @abstractmethod
    def dtype(self) -> np.dtype:
        """Element dtype of the produced bands."""

    @abstractmethod
    def band(self, row_lo: int, row_hi: int) -> np.ndarray:
        """Rows ``[row_lo, row_hi)``, shape ``(row_hi - row_lo, n_cols)``."""

    def rect(self, top: int, left: int, bottom: int, right: int) -> np.ndarray:
        """Inclusive-corner sub-patch (verification helper).

        Default implementation goes through :meth:`band`; subclasses that
        can generate narrow patches directly should override it.
        """
        self._check_range(top, bottom + 1)
        if not (0 <= left <= right < self.n_cols):
            raise ConfigurationError(
                f"columns [{left}, {right}] outside [0, {self.n_cols - 1}]")
        return self.band(top, bottom + 1)[:, left:right + 1]

    def _check_range(self, row_lo: int, row_hi: int) -> None:
        if not (0 <= row_lo < row_hi <= self.n_rows):
            raise ConfigurationError(
                f"band rows [{row_lo}, {row_hi}) outside [0, {self.n_rows})")


class MatrixSource(BandSource):
    """An in-memory array served band by band."""

    def __init__(self, a: np.ndarray) -> None:
        a = np.asarray(a)
        if a.ndim != 2 or a.size == 0:
            raise ConfigurationError(
                f"input must be a non-empty 2-D array, got shape {a.shape}")
        self._a = a
        self.n_rows, self.n_cols = a.shape

    @property
    def dtype(self) -> np.dtype:
        return self._a.dtype

    def band(self, row_lo: int, row_hi: int) -> np.ndarray:
        self._check_range(row_lo, row_hi)
        return self._a[row_lo:row_hi]

    def rect(self, top: int, left: int, bottom: int, right: int) -> np.ndarray:
        self._check_range(top, bottom + 1)
        if not (0 <= left <= right < self.n_cols):
            raise ConfigurationError(
                f"columns [{left}, {right}] outside [0, {self.n_cols - 1}]")
        return self._a[top:bottom + 1, left:right + 1]


class SyntheticSource(BandSource):
    """Procedural uint8 image ``(ci*i + cj*j + c0) % mod``; spec-serializable.

    The coefficients default to values coprime with 251 so neighbouring
    rows and columns differ — a constant image would hide stitching bugs
    (every carry would be a multiple of the same column vector).

    A patch is built from two short vectors, the row terms ``(ci*i + c0)
    % mod`` and the column terms ``(cj*j) % mod`` (in ``int64``, from
    coefficients reduced modulo ``mod`` first, so no product overflows).
    The patch itself takes one ``uint16`` outer add of the two (every sum
    is below ``2*mod <= 512``), one fold back into ``[0, mod)`` without a
    division — ``s - mod`` wraps past ``s`` in ``uint16`` where ``s <
    mod``, so ``minimum(s, s - mod)`` subtracts ``mod`` exactly where ``s
    >= mod`` — and one write of the ``uint8`` result, a block of rows at a
    time, so no band-sized temporary exists beside the result.  Modular
    addition is exact, so the bytes are those of the closed form.
    """

    def __init__(self, n_rows: int, n_cols: int, *, ci: int = 3, cj: int = 7,
                 c0: int = 11, mod: int = 251) -> None:
        if n_rows <= 0 or n_cols <= 0:
            raise ConfigurationError(
                f"synthetic image must be non-empty, got {n_rows}x{n_cols}")
        if not (1 < mod <= 256):
            raise ConfigurationError(
                f"mod must be in (1, 256] for a uint8 image, got {mod}")
        self.n_rows, self.n_cols = int(n_rows), int(n_cols)
        self.ci, self.cj, self.c0, self.mod = int(ci), int(cj), int(c0), int(mod)

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(np.uint8)

    def band(self, row_lo: int, row_hi: int) -> np.ndarray:
        self._check_range(row_lo, row_hi)
        return self.rect(row_lo, 0, row_hi - 1, self.n_cols - 1)

    def rect(self, top: int, left: int, bottom: int, right: int) -> np.ndarray:
        self._check_range(top, bottom + 1)
        if not (0 <= left <= right < self.n_cols):
            raise ConfigurationError(
                f"columns [{left}, {right}] outside [0, {self.n_cols - 1}]")
        m = self.mod
        ci, cj, c0 = self.ci % m, self.cj % m, self.c0 % m
        rows = ((ci * np.arange(top, bottom + 1, dtype=np.int64) + c0)
                % m).astype(np.uint16)
        cols = ((cj * np.arange(left, right + 1, dtype=np.int64))
                % m).astype(np.uint16)
        out = np.empty((rows.size, cols.size), dtype=np.uint8)
        step = max(1, _BLOCK_BYTES // (2 * cols.size))
        for lo in range(0, rows.size, step):
            s = np.add.outer(rows[lo:lo + step], cols)
            np.minimum(s, s - m, out=s)
            out[lo:lo + step] = s
        return out


def source_to_spec(source: BandSource) -> dict:
    """JSON-able spec for sources a worker can regenerate locally.

    :class:`MatrixSource` is deliberately *not* spec-serializable — its
    pixels travel inside the task message instead.
    """
    if isinstance(source, SyntheticSource):
        return {"kind": "synthetic", "n_rows": source.n_rows,
                "n_cols": source.n_cols, "ci": source.ci, "cj": source.cj,
                "c0": source.c0, "mod": source.mod}
    raise ConfigurationError(
        f"{type(source).__name__} cannot be sent as a spec; "
        "embed its bands in the task instead")


def source_from_spec(spec: dict) -> BandSource:
    """Inverse of :func:`source_to_spec` (runs on the worker side)."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigurationError("source spec must be a dict with a 'kind'")
    kind = spec["kind"]
    if kind == "synthetic":
        return SyntheticSource(
            spec["n_rows"], spec["n_cols"], ci=spec.get("ci", 3),
            cj=spec.get("cj", 7), c0=spec.get("c0", 11),
            mod=spec.get("mod", 251))
    raise ConfigurationError(f"unknown source kind {kind!r}")
