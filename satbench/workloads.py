"""The four workloads: inputs made from a seed, a timed operation, a check.

Each workload replays a scenario the repository already measures or names,
at a size one benchmark run can repeat many times:

``large``
    ``compute_sat`` on a 4096 x 4096 int32 input on a warm one-worker
    ``WavefrontEngine`` — the row of the ROADMAP's
    n in {1024, 4096} x {int32, float32} grid where the one-worker
    wavefront and the NumPy double cumsum were first compared.  Values are
    drawn like ``benchmarks/bench_host_engine.py`` draws them (integers in
    [0, 100)).  The int64 table alone is 134 MB, beyond the last-level cache.
``small``
    The same path at the grid's n=1024, int32 and float32 alternating: a
    working set that fits in cache, so fixed per-call costs (planning,
    validation, padding, cropping) weigh more.
``video``
    ``VideoSAT.process`` over two :func:`repro.apps.video.synthetic_stream`
    frame streams with the parameters of ``benchmarks/bench_incremental.py``'s
    stream scenario (2048 x 2048, a 96-pixel block moving 48 pixels a
    frame): one int32 stream, which the incremental engine repairs by exact
    delta updates, and one float32 stream, which it repairs by re-running
    the chunk kernels on the dirty closure.
``sharded``
    ``distributed_sat`` in digest mode over the procedural
    ``SyntheticSource``, as the shard sweep of ``benchmarks/bench_distsat.py``
    runs it, in four shards (one of its sweep points), at 2048 x 2048 (a
    quarter of its 8192 side, so one run repeats it many times), with a
    checkpoint directory and each band computed on the shared wavefront
    engine: reduce and apply phases, every message encoded to bytes and
    back, carries persisted to disk, band stitching and digests.

Every operation is paired with the plain single-threaded NumPy double
cumsum of the same input (:meth:`Workload.baseline`), timed on its own, so
the benchmark can report the program's time relative to it.  The seed
determines every input; the program receives only the generated inputs.  A
workload's :meth:`Workload.setup` builds the program's state from nothing —
engines, plan caches, resident tables — and serves one operation of each
input class cold; that is the set-up time the benchmark reports.
"""

from __future__ import annotations

import os
import shutil
import zlib

import numpy as np

ALGORITHM = "1R1W-SKSS-LB"
TILE_WIDTH = 32
#: Pool size of every wavefront engine the benchmark creates (and, through
#: ``REPRO_WORKERS``, of the shared engine distsat bands run on).  One
#: worker runs the engine's batched serial sweep: on the two-vCPU machine the
#: bounds were set on, two-worker pool hand-offs made run-to-run times swing
#: by up to 60% with the neighbours' load, one worker by under 10%.
WORKERS = 1
#: Rows compared at a time when a float result is checked, to bound the
#: float64 temporaries of the check.
CHECK_ROWS = 512


def accumulator(dtype) -> np.dtype:
    from repro.sat.dtypes import accumulator_dtype
    return accumulator_dtype(dtype)


def numpy_sat(a: np.ndarray) -> np.ndarray:
    """The plain NumPy double cumsum in the default accumulator dtype."""
    return a.astype(accumulator(a.dtype)).cumsum(axis=0).cumsum(axis=1)


def sat_matches(result: np.ndarray, base: np.ndarray) -> bool:
    """Whether ``result`` is the SAT whose NumPy double cumsum is ``base``:
    equal for integer accumulators, within the proven rounding budget of
    both (``oracle="reference"``) for floats."""
    if result.dtype != base.dtype or result.shape != base.shape:
        return False
    from repro.analysis.tolerances import derived_tolerance, sat_close
    tol = derived_tolerance(ALGORITHM, result.shape, result.dtype,
                            tile_width=TILE_WIDTH, oracle="reference")
    if tol.exact:
        return bool(np.array_equal(result, base))
    # Inputs are non-negative, so each block's own maximum bounds the mass
    # SAT(|a|) of its elements.
    return all(sat_close(result[r:r + CHECK_ROWS], base[r:r + CHECK_ROWS],
                         tol)
               for r in range(0, result.shape[0], CHECK_ROWS))


class Workload:
    """One benchmark workload (subclasses fill in the hooks)."""

    name = ""
    #: Operations in one full cycle of the input classes; a run ends on a
    #: cycle boundary, so every run weighs the classes alike.
    period = 1

    def setup(self) -> list:
        """Build the program's state from nothing; return the results of one
        cold operation per input class (checked by :meth:`check_setup`)."""
        raise NotImplementedError

    def check_setup(self, results: list) -> bool:
        return all(self.check(i, r, self.baseline(i))
                   for i, r in enumerate(results))

    def teardown(self) -> None:
        """Release the state :meth:`setup` built."""

    def case(self, i: int) -> int:
        """The input class of operation ``i``: ratios are summarized per
        class first, so a mix of unlike inputs is weighed class by class."""
        return i % self.period

    def stage(self, i: int) -> None:
        """Make the input of operation ``i`` ready (untimed)."""

    def op(self, i: int):
        """Operation ``i`` (timed)."""
        raise NotImplementedError

    def baseline(self, i: int) -> np.ndarray:
        """NumPy double cumsum of operation ``i``'s input (timed apart)."""
        raise NotImplementedError

    def check(self, i: int, result, base: np.ndarray) -> bool:
        """Whether operation ``i`` returned the correct result, given its
        :meth:`baseline` output (untimed)."""
        raise NotImplementedError

    def after(self, i: int, result) -> None:
        """Untimed clean-up after operation ``i`` has been checked."""


class SquareFrames(Workload):
    """``compute_sat`` on one n x n input per dtype, alternating."""

    N = 0
    DTYPES = (np.int32, np.float32)
    period = len(DTYPES)

    def __init__(self, seed: int, workdir: str) -> None:
        rng = np.random.default_rng(seed)
        self.inputs = [rng.integers(0, 100, size=(self.N, self.N)).astype(dt)
                       for dt in self.DTYPES]
        self.engine = None

    def setup(self) -> list:
        from repro.hostexec import WavefrontEngine
        self.engine = WavefrontEngine(workers=WORKERS)
        return [self.op(i) for i in range(self.period)]

    def teardown(self) -> None:
        if self.engine is not None:
            self.engine.close()
            self.engine = None

    def op(self, i: int):
        from repro import compute_sat
        return compute_sat(self.inputs[self.case(i)], algorithm=ALGORITHM,
                           tile_width=TILE_WIDTH, engine=self.engine).sat

    def baseline(self, i: int) -> np.ndarray:
        return numpy_sat(self.inputs[self.case(i)])

    def check(self, i: int, result, base: np.ndarray) -> bool:
        return sat_matches(result, base)


class LargeFrames(SquareFrames):
    name = "large"
    N = 4096
    #: The ROADMAP's measured n=4096 row is int32; float32 at this size would
    #: halve the samples per class in a run (float32 is measured by
    #: ``small`` and ``video``).
    DTYPES = (np.int32,)
    period = len(DTYPES)


class SmallFrames(SquareFrames):
    name = "small"
    N = 1024


class VideoStreams(Workload):
    name = "video"
    N = 2048
    BLOCK = 96
    STEP = BLOCK // 2
    #: int32 frames take the exact delta repair, float32 frames the
    #: chunk-kernel recompute of the dirty closure.
    DTYPES = (np.int32, np.float32)
    period = len(DTYPES)

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.videos: list = []
        self.streams: list = []
        self.frames: list = []

    def setup(self) -> list:
        from repro.apps.video import VideoSAT, synthetic_stream
        # Each set-up replays the streams from their first frame.
        self.streams = [synthetic_stream(self.N, frames=1 << 30,
                                         block=self.BLOCK, step=self.STEP,
                                         seed=self.seed, dtype=dt)
                        for dt in self.DTYPES]
        self.frames = [next(s) for s in self.streams]
        self.videos = [VideoSAT(f, algorithm=ALGORITHM, tile_width=TILE_WIDTH,
                                workers=WORKERS) for f in self.frames]
        return [v.process(f) for v, f in zip(self.videos, self.frames)]

    def check_setup(self, results: list) -> bool:
        return all(stats.index == 0 and sat_matches(
            video.sat, numpy_sat(frame))
            for stats, video, frame in zip(results, self.videos, self.frames))

    def teardown(self) -> None:
        for video in self.videos:
            video.close()
        self.videos = []

    def stage(self, i: int) -> None:
        # Frame 0 of each stream was served by setup: operation i serves
        # frame i // period + 1 of stream i % period.
        k = self.case(i)
        self.frames[k] = next(self.streams[k])

    def op(self, i: int):
        k = self.case(i)
        return self.videos[k].process(self.frames[k])

    def baseline(self, i: int) -> np.ndarray:
        return numpy_sat(self.frames[self.case(i)])

    def check(self, i: int, result, base: np.ndarray) -> bool:
        return (result.index == i // self.period + 1
                and sat_matches(self.videos[self.case(i)].sat, base))


class ShardedRuns(Workload):
    name = "sharded"
    N = 2048
    SHARDS = 4

    def __init__(self, seed: int, workdir: str) -> None:
        from repro.distsat import SyntheticSource
        rng = np.random.default_rng(seed)
        # 251 is prime: every coefficient in [1, 251) keeps neighbouring
        # rows and columns distinct, as the source's defaults do.
        ci, cj = (int(c) for c in rng.integers(1, 251, size=2))
        self.source = SyntheticSource(self.N, self.N, ci=ci, cj=cj,
                                      c0=int(rng.integers(0, 251)))
        self.image = self.source.rect(0, 0, self.N - 1, self.N - 1)
        self.workdir = workdir
        self._runs = 0

    @staticmethod
    def _close_shared_engine() -> None:
        from repro.hostexec.engine import shared_engine
        shared_engine().close()

    def setup(self) -> list:
        # The bands run on the process-wide wavefront engine: start it, and
        # its plan cache, from nothing.
        self._close_shared_engine()
        return [self.op(0)]

    def check_setup(self, results: list) -> bool:
        ok = super().check_setup(results)
        self.after(0, results[0])
        return ok

    def teardown(self) -> None:
        self._close_shared_engine()

    def op(self, i: int):
        from repro.distsat import distributed_sat
        # A fresh checkpoint directory: a reused one would resume the run.
        self._runs += 1
        return distributed_sat(
            self.source, shards=self.SHARDS, algorithm=ALGORITHM,
            tile_width=TILE_WIDTH, inner_engine="wavefront", collect=False,
            checkpoint_dir=os.path.join(self.workdir, f"run-{self._runs}"))

    def baseline(self, i: int) -> np.ndarray:
        return numpy_sat(self.image)

    def check(self, i: int, result, base: np.ndarray) -> bool:
        # Digest mode keeps each shard's CRC32 of its stitched rows and the
        # global SAT row at its bottom edge.
        attempts = result.stats["attempts"]
        return (all(result.digests[k] == zlib.crc32(
                        np.ascontiguousarray(base[lo:hi]).tobytes())
                    and np.array_equal(result.edge_rows[hi - 1], base[hi - 1])
                    for k, (lo, hi) in enumerate(result.bounds))
                and np.array_equal(result.carries.column_sums,
                                   np.diff(base[-1], prepend=0))
                and all(n == 1 for phase in attempts.values()
                        for n in phase.values()))

    def after(self, i: int, result) -> None:
        shutil.rmtree(result.checkpoint.directory)


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (LargeFrames, SmallFrames, VideoStreams, ShardedRuns)}
