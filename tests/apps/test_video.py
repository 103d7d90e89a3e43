"""Streaming-video analytics on the incremental SAT."""

import numpy as np
import pytest

from repro.apps.box_filter import box_filter
from repro.apps.video import (FrameStats, VideoSAT, process_stream,
                              synthetic_stream)
from repro.errors import ConfigurationError
from repro.sat import sat_reference


class TestSyntheticStream:
    def test_deterministic_and_sparse_diffs(self):
        f1 = list(synthetic_stream(64, frames=4, block=8, step=4, seed=3))
        f2 = list(synthetic_stream(64, frames=4, block=8, step=4, seed=3))
        assert len(f1) == 4
        for a, b in zip(f1, f2):
            assert np.array_equal(a, b)
        # consecutive frames differ on at most two block-sized patches
        changed = np.count_nonzero(f1[0] != f1[1])
        assert 0 < changed <= 2 * 8 * 8

    def test_rectangular_and_errors(self):
        frames = list(synthetic_stream((40, 72), frames=2, block=8))
        assert frames[0].shape == (40, 72)
        with pytest.raises(ConfigurationError):
            list(synthetic_stream(16, frames=1, block=32))


class TestVideoSAT:
    def test_stats_match_direct_computation(self):
        frames = list(synthetic_stream(96, frames=5, block=16, step=8))
        rois = [(0, 0, 31, 31), (40, 40, 95, 80)]
        stats = process_stream(frames, rois=rois, tile_width=32)
        assert len(stats) == len(frames)
        for s, frame in zip(stats, frames):
            assert isinstance(s, FrameStats)
            assert s.mean == pytest.approx(frame.mean())
            for (r0, c0, r1, c1), got in zip(rois, s.roi_sums):
                assert got == frame[r0:r1 + 1, c0:c1 + 1].sum()
        # after the first (full-build) frame, repair stays partial
        assert all(s.repaired_fraction <= 1.0 for s in stats)
        assert stats[0].repaired_tiles == stats[0].total_tiles

    def test_sat_stays_bit_identical_across_stream(self):
        frames = list(synthetic_stream((80, 112), frames=4, block=12, step=6))
        with VideoSAT(frames[0], tile_width=32) as video:
            for frame in frames:
                video.process(frame)
                assert np.array_equal(
                    video.sat, sat_reference(frame.astype(video.engine.dtype)))

    @pytest.mark.parametrize("strategy", ["delta", "recompute"])
    def test_dirty_tiles_counts_changed_tiles(self, strategy):
        """``FrameStats.dirty_tiles`` is the number of tiles whose input
        changed on every strategy, not the tile count of their bounding
        rectangle (on this stream 5, 5, 2, 5, 5 tiles change; their
        bounding rectangles hold 16, 16, 36, 16, 16)."""
        frames = list(synthetic_stream(256, frames=6, block=24, step=80,
                                       dtype=np.int32))
        with VideoSAT(frames[0], tile_width=32, workers=1,
                      strategy=strategy) as video:
            video.process(frames[0])
            counts = []
            for frame in frames[1:]:
                changed = int(video.engine.changed_tiles(frame).sum())
                counts.append(video.process(frame).dirty_tiles)
                assert counts[-1] == changed
            assert counts == [5, 5, 2, 5, 5]

    def test_box_filter_matches_batch_path(self):
        frames = list(synthetic_stream(64, frames=2, block=8))
        with VideoSAT(frames[0]) as video:
            video.process(frames[0])
            video.process(frames[1])
            want = box_filter(frames[1], 3)
            assert np.allclose(video.box_filter(3), want)

    def test_roi_validation(self):
        frame = next(synthetic_stream(32, frames=1, block=4))
        with pytest.raises(ConfigurationError):
            VideoSAT(frame, rois=[(0, 0, 32, 10)])

    def test_empty_stream(self):
        assert process_stream([]) == []
