"""Streaming video analytics on an incrementally-maintained SAT.

The motivating production workload for :mod:`repro.hostexec.incremental`:
video frames arrive as a stream, successive frames differ only where
something moved, and every frame needs SAT-backed statistics (box-filter
means, rectangle ROI sums).  Rebuilding the table per frame pays the full
``O((n/W)²)`` tile algebra even when one small region changed;
:class:`VideoSAT` instead feeds each frame through
:meth:`IncrementalSAT.advance <repro.hostexec.incremental.IncrementalSAT.advance>`
so a frame costs only its changed tiles' right/down repair frontier — while
staying bit-identical to a from-scratch SAT of that frame.

:func:`synthetic_stream` generates a deterministic "surveillance" sequence
(static background, a small moving block) for demos, benchmarks and tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.apps.box_filter import window_areas, window_sums_from_sat
from repro.errors import ConfigurationError
from repro.hostexec.incremental import IncrementalSAT
from repro.sat.reference import rect_sum


def synthetic_stream(shape: int | tuple[int, int] = 256, *, frames: int = 16,
                     block: int = 24, step: int = 8, seed: int = 0,
                     dtype=np.int32) -> Iterator[np.ndarray]:
    """Yield ``frames`` frames of a static scene with one moving block.

    The background is fixed random "texture"; a bright ``block x block``
    square walks diagonally ``step`` pixels per frame (wrapping around), so
    consecutive frames differ on at most two block-sized patches — the sparse
    inter-frame support incremental repair exploits.
    """
    rows, cols = (shape, shape) if isinstance(shape, int) else shape
    if block > min(rows, cols):
        raise ConfigurationError("moving block must fit inside the frame")
    rng = np.random.default_rng(seed)
    background = rng.integers(0, 128, size=(rows, cols)).astype(dtype)
    for t in range(frames):
        frame = background.copy()
        top = (t * step) % (rows - block + 1)
        left = (t * step) % (cols - block + 1)
        frame[top:top + block, left:left + block] = 255
        yield frame


@dataclass
class FrameStats:
    """Per-frame summary returned by :meth:`VideoSAT.process`."""

    index: int
    mean: float                 #: global frame mean (one SAT corner lookup)
    roi_sums: tuple[float, ...]  #: sum over each tracked ROI rectangle
    dirty_tiles: int            #: tiles whose input changed vs previous frame
    repaired_tiles: int         #: tiles the repair actually touched
    total_tiles: int

    @property
    def repaired_fraction(self) -> float:
        return self.repaired_tiles / self.total_tiles if self.total_tiles \
            else 0.0


class VideoSAT:
    """SAT-backed per-frame analytics over a frame stream.

    Parameters mirror :class:`~repro.hostexec.incremental.IncrementalSAT`;
    ``rois`` is an optional sequence of ``(top, left, bottom, right)``
    inclusive rectangles whose sums are reported for every frame (each is
    four SAT lookups regardless of size).
    """

    def __init__(self, first_frame: np.ndarray, *,
                 rois: Sequence[tuple[int, int, int, int]] = (),
                 algorithm: str = "1R1W-SKSS-LB", tile_width: int = 32,
                 dtype_policy=None, workers: int | None = None,
                 strategy: str = "auto") -> None:
        self._inc = IncrementalSAT(first_frame, algorithm=algorithm,
                                   tile_width=tile_width,
                                   dtype_policy=dtype_policy, workers=workers,
                                   strategy=strategy)
        for r0, c0, r1, c1 in rois:
            if not (0 <= r0 <= r1 < self._inc.rows
                    and 0 <= c0 <= c1 < self._inc.cols):
                raise ConfigurationError(
                    f"ROI ({r0}, {c0}, {r1}, {c1}) exceeds the "
                    f"{self._inc.rows}x{self._inc.cols} frame")
        self.rois = tuple(rois)
        self._index = 0

    @property
    def engine(self) -> IncrementalSAT:
        return self._inc

    @property
    def sat(self) -> np.ndarray:
        return self._inc.sat

    def close(self) -> None:
        self._inc.close()

    def __enter__(self) -> "VideoSAT":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def process(self, frame: np.ndarray) -> FrameStats:
        """Absorb the next frame and return its SAT-derived statistics."""
        if self._index == 0 and not self._inc.changed_tiles(frame).any():
            sat = self._inc.sat  # the constructor already built frame 0
        else:
            sat = self._inc.advance(frame)
        stats = self._inc.stats
        rows, cols = self._inc.shape
        result = FrameStats(
            index=self._index,
            mean=float(sat[-1, -1]) / (rows * cols),
            roi_sums=tuple(float(rect_sum(sat, r0, c0, r1, c1))
                           for r0, c0, r1, c1 in self.rois),
            dirty_tiles=stats.dirty_tiles,
            repaired_tiles=stats.repaired_tiles,
            total_tiles=stats.total_tiles,
        )
        self._index += 1
        return result

    def box_filter(self, radius: int) -> np.ndarray:
        """Mean-filter the *current* frame from the resident SAT — no
        rebuild; the table is already up to date."""
        sums = window_sums_from_sat(self.sat, radius)
        return sums / window_areas(self._inc.rows, self._inc.cols, radius)


def process_stream(frames: Iterable[np.ndarray], *,
                   rois: Sequence[tuple[int, int, int, int]] = (),
                   algorithm: str = "1R1W-SKSS-LB", tile_width: int = 32,
                   strategy: str = "auto") -> list[FrameStats]:
    """Run a whole frame stream through :class:`VideoSAT`; returns the
    per-frame statistics (first frame reports a full build)."""
    it = iter(frames)
    try:
        first = next(it)
    except StopIteration:
        return []
    with VideoSAT(first, rois=rois, algorithm=algorithm,
                  tile_width=tile_width, strategy=strategy) as video:
        out = [video.process(first)]
        for frame in it:
            out.append(video.process(frame))
    return out
