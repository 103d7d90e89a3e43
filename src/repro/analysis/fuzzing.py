"""Differential fuzzing of the SAT algorithms.

Randomly samples (matrix, algorithm, tile width, scheduler policy, seed,
residency, consistency) configurations, runs the simulator, and checks the
result bit-for-bit against the NumPy reference (inputs are integer-valued so
float64 arithmetic is exact).  Any surviving discrepancy or unexpected
exception is reported with its full configuration for replay.

Used by the test suite (short budget) and the ``repro fuzz`` CLI command
(arbitrary budgets).

The modes share one harness (``repro fuzz --mode``, :data:`FUZZ_MODES`):

``simulate``
    The original algorithm-vs-reference check on the GPU simulator.

``incremental``
    Edit-sequence fuzzing of
    :class:`~repro.hostexec.incremental.IncrementalSAT`: a random frame
    takes a random sequence of rectangle writes, tile writes,
    sparse frame deltas and frame advances (half of them with the frame in
    the input dtype, as :class:`~repro.apps.video.VideoSAT` passes it), and
    after *every* edit the resident input must equal the edited frame and
    the resident table must be bit-identical to a from-scratch host
    computation of it (same accumulator dtype), with the carry planes
    matching their Table II oracles at the end.  Shapes are rectangular
    (ragged tile edges included) and dtypes span integer and float
    accumulators, so both repair strategies get adversarial coverage; float
    data is genuinely fractional at mixed magnitudes so rounding behavior
    is exercised, not just exact arithmetic.

``engine``
    Backend differential fuzzing: a random (algorithm, dtype, ragged
    shape) configuration runs through a randomly chosen non-serial
    backend from the unified registry (:mod:`repro.backend.registry` —
    wavefront, plus the gpusim simulator at small warp-aligned shapes and
    the banded distributed streamer) and is compared against the serial
    oracle.  Backends whose spec declares ``bit_identical=True`` are held
    to ``np.array_equal``; every backend is held to exact equality on
    integer accumulators; the rest (band stitching, simulator-side float64
    accumulation) are held to the proven rounding budget from
    :mod:`repro.analysis.tolerances`.  The pool is resolved from the
    registry at sampling time, so registering a new backend automatically
    puts it under differential fire.

``distsat``
    Differential fuzzing of the sharded distributed executor
    (:func:`repro.distsat.distributed_sat`): random shard counts, worker
    chunk heights, dtypes and ragged shapes run through the inline
    work-queue transport — more than half the runs under a deterministic
    fault plan (worker kills, corrupted carry payloads, delays) — and the
    stitched result must match the serial oracle under the same
    exact/derived-tolerance contract as ``engine`` mode.  Recovery must be
    invisible in the output *and* exact in the books: every shard's
    per-phase attempt counter must equal
    :meth:`~repro.distsat.FaultPlan.expected_attempts`, so a silently
    swallowed fault or a spurious retry fails even when the numbers agree.

``cost``
    Planted traffic-regression replay: each :data:`~repro.analysis.bugcorpus
    .COST_CORPUS` kernel (a store re-issued inside a spin loop, back-to-back
    fences, a duplicated global read) runs through the *static* cost checker
    (:func:`repro.analysis.costcheck.find_cost_bugs`) and the KL006 lint and
    must be rejected with exactly its declared finding kinds — while the
    control kernel stays clean.  This is the regression harness for the
    Table I verifier: a checker change that stops catching a planted cost
    bug fails here even though every tier-1 numeric test still passes.

``numeric``
    The accuracy analogue of ``cost``: roughly half the runs replay a
    :data:`~repro.analysis.bugcorpus.NUMERIC_CORPUS` kernel (or the clean
    control) through the static rounding-bug detector
    (:func:`repro.analysis.numcheck.find_numeric_bugs`) and the KL007 lint;
    the other half spot-check a sampled (algorithm, size, dtype) point of
    the proven error bounds empirically via
    :func:`repro.analysis.numcheck.validate_bounds` — a regression in
    either the error model or an algorithm's actual accuracy fails here.

All modes replay from the same :class:`FuzzConfig` JSON round-trip; the
mode-specific fields default to inert values so pre-existing replay files
keep working.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.analysis.tolerances import derived_tolerance, sat_close
from repro.errors import ConfigurationError
from repro.gpusim import GPU, TINY_DEVICE, TITAN_V
from repro.sat import get_algorithm, sat_reference

#: Algorithms eligible for fuzzing (all of them).
FUZZ_ALGORITHMS = ("2R2W", "2R2W-optimal", "2R1W", "1R1W", "(1+r)R1W",
                   "1R1W-SKSS", "1R1W-SKSS-LB")

#: Backends exercised by engine-mode fuzzing (everything registered except
#: the serial oracle itself; resolved lazily so sampling reflects the
#: unified backend registry, not a second hand-maintained list).
def _engine_fuzz_engines() -> tuple[str, ...]:
    from repro.backend.registry import known_backends
    return tuple(b for b in known_backends() if b != "serial")

#: Tile-based algorithms the incremental engine can maintain (the wavefront
#: kernel set — 2R2W variants have no tile carry state to repair).
INCREMENTAL_ALGORITHMS = ("2R1W", "1R1W", "(1+r)R1W", "1R1W-SKSS",
                          "1R1W-SKSS-LB")

#: Input dtypes exercised by incremental-mode fuzzing (integer accumulators
#: take the exact delta path, float accumulators the recompute path).
INCREMENTAL_DTYPES = ("uint8", "int32", "float32", "float64")


def _fuzz_values(rng: np.random.Generator, shape, dtype,
                 low: int = 0, high: int = 100) -> np.ndarray:
    """Random data in ``[low, high)`` for one edit or frame.

    Float dtypes get genuinely fractional values at a randomly drawn
    magnitude: integer-valued float data makes every add/subtract in the
    suite exact, which would leave float round-trip bugs (e.g. an edit
    reconstructed as ``work += values - work``) structurally undetectable
    despite the bit-identity oracle.
    """
    dt = np.dtype(dtype)
    if np.issubdtype(dt, np.floating):
        scale = float(rng.choice([1e-2, 1.0, 1e6]))
        return ((low + (high - low) * rng.random(size=shape)) * scale) \
            .astype(dt)
    return rng.integers(low, high, size=shape).astype(dt)


@dataclass(frozen=True)
class FuzzConfig:
    """One sampled configuration (sufficient to replay a failure)."""

    algorithm: str
    n: int
    tile_width: int
    policy: str
    sim_seed: int
    data_seed: int
    residency: int | None
    consistency: str
    tiny_device: bool
    r: float = 0.25
    # Incremental-mode fields (defaults keep pre-existing replay JSON valid).
    mode: str = "simulate"
    dtype: str = "float64"
    rows: int | None = None
    cols: int | None = None
    edits: int = 0
    workers: int = 1                # unused; kept for replay
    strategy: str = "auto"
    # Sanitize-mode fields (defaults keep pre-existing replay JSON valid).
    kernel: str | None = None       # bug-corpus entry instead of an algorithm
    acquisition: str = "diagonal"   # 1R1W-SKSS-LB tile acquisition order
    spin_bound: int | None = None   # DeadlockSuspectedError after this many spins
    # Engine-mode fields (defaults keep pre-existing replay JSON valid).
    engine: str = "wavefront"       # backend differenced vs the serial oracle
    band_rows: int | None = None    # distributed backend's band height
    # Distsat-mode fields (defaults keep pre-existing replay JSON valid).
    shards: int | None = None       # distributed executor's band-shard count
    fault: dict | None = None       # FaultPlan.to_dict() payload to inject

    def build_gpu(self) -> GPU:
        return GPU(device=TINY_DEVICE if self.tiny_device else TITAN_V,
                   scheduler_policy=self.policy, seed=self.sim_seed,
                   consistency=self.consistency,
                   max_resident_blocks=self.residency,
                   spin_bound=self.spin_bound)

    def build_matrix(self) -> np.ndarray:
        rng = np.random.default_rng(self.data_seed)
        if self.mode in ("incremental", "engine", "distsat"):
            shape = (self.rows or self.n, self.cols or self.n)
            return _fuzz_values(rng, shape, self.dtype)
        return rng.integers(-50, 50, size=(self.n, self.n)).astype(np.float64)

    def to_json(self) -> str:
        """Serialize for ``repro fuzz --replay`` (stable key order)."""
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FuzzConfig":
        """Inverse of :meth:`to_json`; rejects unknown/missing fields."""
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"invalid replay config JSON: {exc}") \
                from None
        if not isinstance(raw, dict):
            raise ConfigurationError(
                "replay config must be a JSON object of FuzzConfig fields")
        fields = {f for f in cls.__dataclass_fields__}
        unknown = set(raw) - fields
        if unknown:
            raise ConfigurationError(
                f"unknown replay config field(s): {sorted(unknown)}")
        try:
            return cls(**raw)
        except TypeError as exc:
            raise ConfigurationError(f"incomplete replay config: {exc}") \
                from None


def load_replay_config(spec: str) -> FuzzConfig:
    """Parse a ``--replay`` argument: a JSON file path or an inline JSON object."""
    text = spec
    if not spec.lstrip().startswith("{"):
        path = Path(spec)
        if not path.is_file():
            raise ConfigurationError(
                f"replay config '{spec}' is neither a file nor inline JSON")
        text = path.read_text()
    return FuzzConfig.from_json(text)


@dataclass
class FuzzReport:
    """Outcome of a fuzzing session."""

    runs: int = 0
    failures: list[tuple[FuzzConfig, str]] = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.failures)} FAILURES"
        return (f"fuzz: {self.runs} runs in {self.elapsed_s:.1f}s -> {status}")


def sample_config(rng: np.random.Generator) -> FuzzConfig:
    """Draw one random configuration (sizes kept simulator-friendly)."""
    tile_width = int(rng.choice([32, 64]))
    t = int(rng.integers(1, 4))
    algorithm = str(rng.choice(FUZZ_ALGORITHMS))
    tiny = bool(rng.random() < 0.4)
    residency = int(rng.integers(1, 7)) if rng.random() < 0.6 else None
    return FuzzConfig(
        algorithm=algorithm,
        n=t * tile_width,
        tile_width=tile_width,
        policy=str(rng.choice(["round_robin", "random", "lifo"])),
        sim_seed=int(rng.integers(0, 2**31)),
        data_seed=int(rng.integers(0, 2**31)),
        residency=residency,
        consistency=str(rng.choice(["relaxed", "relaxed", "strong"])),
        tiny_device=tiny,
        r=float(rng.choice([0.0, 0.25, 0.5, 1.0])),
    )


def sample_incremental_config(rng: np.random.Generator) -> FuzzConfig:
    """Draw one random edit-sequence configuration.

    Rectangular shapes (ragged tile edges with probability well above half),
    all four input dtypes and both repair strategies where legal.
    """
    tile_width = int(rng.choice([16, 32]))
    rows = int(rng.integers(1, 5)) * tile_width + int(rng.integers(0, tile_width))
    cols = int(rng.integers(1, 5)) * tile_width + int(rng.integers(0, tile_width))
    dtype = str(rng.choice(INCREMENTAL_DTYPES))
    is_int = np.issubdtype(np.dtype(dtype), np.integer)
    strategies = ["auto", "recompute"] + (["delta"] if is_int else [])
    return FuzzConfig(
        algorithm=str(rng.choice(INCREMENTAL_ALGORITHMS)),
        n=max(rows, cols),
        tile_width=tile_width,
        policy="round_robin",       # unused off-simulator; kept for replay
        sim_seed=int(rng.integers(0, 2**31)),
        data_seed=int(rng.integers(0, 2**31)),
        residency=None,
        consistency="strong",
        tiny_device=False,
        r=float(rng.choice([0.0, 0.25, 1.0])),
        mode="incremental",
        dtype=dtype,
        rows=rows,
        cols=cols,
        edits=int(rng.integers(2, 7)),
        strategy=str(rng.choice(strategies)),
    )


def sample_engine_config(rng: np.random.Generator) -> FuzzConfig:
    """Draw one random backend differential configuration.

    Ragged rectangular shapes, all four differential dtypes and a backend
    drawn from the unified registry (everything but the serial oracle).
    Each backend's algorithm pool comes from its spec — wavefront
    only executes the five tile algorithms; gpusim and distributed cover
    all seven.  The gpusim backend gets small warp-aligned shapes (its
    collectives need ``tile_width`` to be a whole number of 32-lane warps,
    and the simulator pays per instruction); the distributed backend gets a
    random band height.
    """
    from repro.backend.registry import get_spec

    engine = str(rng.choice(_engine_fuzz_engines()))
    spec = get_spec(engine)
    if spec.kind == "device":
        tile_width = 32             # warp-width multiple; see GpusimBackend
        rows = tile_width + int(rng.integers(0, tile_width + 1))
        cols = tile_width + int(rng.integers(0, tile_width + 1))
    else:
        tile_width = int(rng.choice([16, 32]))
        rows = int(rng.integers(1, 5)) * tile_width \
            + int(rng.integers(0, tile_width))
        cols = int(rng.integers(1, 5)) * tile_width \
            + int(rng.integers(0, tile_width))
    pool = spec.algorithms if spec.algorithms is not None else FUZZ_ALGORITHMS
    band_rows = int(rng.integers(1, rows + 1)) \
        if spec.kind == "streaming" else None
    return FuzzConfig(
        algorithm=str(rng.choice(pool)),
        n=max(rows, cols),
        tile_width=tile_width,
        policy="round_robin",       # unused off-simulator; kept for replay
        sim_seed=int(rng.integers(0, 2**31)),
        data_seed=int(rng.integers(0, 2**31)),
        residency=None,
        consistency="strong",
        tiny_device=False,
        mode="engine",
        dtype=str(rng.choice(INCREMENTAL_DTYPES)),
        rows=rows,
        cols=cols,
        engine=engine,
        band_rows=band_rows,
    )


def sample_distsat_config(rng: np.random.Generator) -> FuzzConfig:
    """Draw one random sharded-executor configuration.

    Ragged rectangular shapes, all four differential dtypes, 1-5 band
    shards, a random worker chunk height about half the time, and — with
    probability 0.6 — a deterministic fault plan of one or two
    kill/corrupt/delay actions aimed at random (shard, attempt, phase)
    coordinates.  At most two lossy actions are sampled, so the
    coordinator's retry budget of four in :func:`_run_distsat` always
    suffices; what is under test is that recovery is silent in the output
    and exact in the attempt ledger.
    """
    from repro.distsat import FaultAction, FaultPlan

    tile_width = int(rng.choice([16, 32]))
    rows = int(rng.integers(1, 4)) * tile_width + int(rng.integers(0, tile_width))
    cols = int(rng.integers(1, 4)) * tile_width + int(rng.integers(0, tile_width))
    shards = int(rng.integers(1, 6))
    fault = None
    if rng.random() < 0.6:
        actions = []
        for _ in range(int(rng.integers(1, 3))):
            kind = str(rng.choice(["kill", "corrupt", "delay"]))
            actions.append(FaultAction(
                kind=kind,
                shard=int(rng.integers(0, shards)),
                attempt=1 if rng.random() < 0.8 else 2,
                phase=str(rng.choice(["reduce", "apply"])),
                seconds=0.002 if kind == "delay" else 0.0))
        fault = FaultPlan(actions=tuple(actions)).to_dict()
    return FuzzConfig(
        algorithm=str(rng.choice(FUZZ_ALGORITHMS)),
        n=max(rows, cols),
        tile_width=tile_width,
        policy="round_robin",       # unused off-simulator; kept for replay
        sim_seed=int(rng.integers(0, 2**31)),
        data_seed=int(rng.integers(0, 2**31)),
        residency=None,
        consistency="strong",
        tiny_device=False,
        mode="distsat",
        dtype=str(rng.choice(INCREMENTAL_DTYPES)),
        rows=rows,
        cols=cols,
        band_rows=int(rng.integers(1, rows + 1))
        if rng.random() < 0.5 else None,
        shards=shards,
        fault=fault,
    )


def sample_cost_config(rng: np.random.Generator) -> FuzzConfig:
    """Draw one planted traffic regression (or the clean control) to replay.

    The check is static, so the only sampled dimension is *which* corpus
    kernel to replay; the numeric fields are inert but keep the replay JSON
    round-trip uniform with every other mode.
    """
    from repro.analysis.bugcorpus import CONTROL, COST_CORPUS

    names = tuple(s.name for s in COST_CORPUS) + (CONTROL.name,)
    return FuzzConfig(
        algorithm="1R1W-SKSS-LB",   # unused; kept for replay uniformity
        n=32, tile_width=32, policy="round_robin",
        sim_seed=int(rng.integers(0, 2**31)),
        data_seed=int(rng.integers(0, 2**31)),
        residency=None, consistency="relaxed", tiny_device=False,
        mode="cost", kernel=str(rng.choice(names)),
    )


def sample_numeric_config(rng: np.random.Generator) -> FuzzConfig:
    """Draw one numeric-layer check: a planted rounding bug to replay (or
    the clean control), or an empirical spot-check of one proven error
    bound at a sampled (algorithm, size, dtype) point."""
    from repro.analysis.bugcorpus import CONTROL, NUMERIC_CORPUS

    if rng.random() < 0.5:
        names = tuple(s.name for s in NUMERIC_CORPUS) + (CONTROL.name,)
        kernel, algorithm, n = str(rng.choice(names)), "1R1W-SKSS-LB", 32
        dtype = "float64"
    else:
        kernel = None
        algorithm = str(rng.choice(FUZZ_ALGORITHMS))
        n = int(rng.choice([64, 96, 128]))
        dtype = str(rng.choice(["float32", "float64"]))
    return FuzzConfig(
        algorithm=algorithm, n=n, tile_width=32, policy="round_robin",
        sim_seed=int(rng.integers(0, 2**31)),
        data_seed=int(rng.integers(0, 2**31)),
        residency=None, consistency="relaxed", tiny_device=False,
        mode="numeric", dtype=dtype, kernel=kernel,
    )


def _oracle_mismatch(subject: str, got: np.ndarray, want: np.ndarray,
                     a: np.ndarray, *, exact: bool, algorithm: str,
                     tile_width: int, extra_depth: int = 0) -> str | None:
    """Compare ``got`` with the serial oracle's ``want``; an error or ``None``.

    The comparison is exact when ``exact`` is set (bit-identical backends)
    and on integer accumulators; otherwise it uses the proven mass-relative
    budget of :func:`repro.analysis.tolerances.derived_tolerance` for
    ``algorithm``, with oracle ``"host"`` because both legs round, plus
    ``extra_depth`` roundings the static model cannot see.
    """
    exact = exact or np.issubdtype(got.dtype, np.integer)
    if exact:
        ok = np.array_equal(got, want)
    elif got.shape != want.shape:
        ok = False
    else:
        tol = derived_tolerance(algorithm, got.shape, got.dtype,
                                tile_width=tile_width, oracle="host",
                                extra_depth=extra_depth)
        ok = sat_close(got, want, tol, abs_input=a)
    if not ok:
        bad = int(np.argmax(got != want)) if got.shape == want.shape else -1
        kind = "exact" if exact else "derived-tolerance"
        return (f"{subject} diverged from the serial oracle ({kind} "
                f"comparison, first mismatch at flat index {bad})")
    if got.dtype != want.dtype:
        return (f"{subject} accumulator dtype {got.dtype} != oracle "
                f"{want.dtype}")
    return None


def _run_engine(config: FuzzConfig) -> str | None:
    """Difference one registered backend against the serial oracle.

    Bit-identical backends (``bit_identical=True`` in the registry — the
    wavefront engine) must satisfy ``np.array_equal``, as must every backend
    on integer accumulators.  Float results from the rest (gpusim's
    simulator-side float64 accumulation, distributed's band stitching)
    reorder reductions, so they are held to the algorithm's proven
    rounding budget.
    """
    from repro.backend.registry import get_backend

    backend = get_backend(config.engine)
    spec = backend.spec
    a = config.build_matrix()
    kwargs: dict = {"algorithm": config.algorithm,
                    "tile_width": config.tile_width}
    if spec.kind == "streaming":
        kwargs["band_rows"] = config.band_rows
    got = backend.compute(a, **kwargs)
    want = get_algorithm(config.algorithm,
                         tile_width=config.tile_width).run_host(a)
    return _oracle_mismatch(
        f"backend {config.engine!r}", got, want, a,
        exact=spec.bit_identical, algorithm=config.algorithm,
        tile_width=config.tile_width)


def _run_distsat(config: FuzzConfig) -> str | None:
    """Difference the sharded distributed executor against the serial oracle.

    The executor runs through the inline transport (deaths are precise, so
    attempt accounting is exact) with the configured shard count, chunk
    height and fault plan.  The stitched SAT must match the serial oracle —
    exactly on integer accumulators, within the derived rounding budget on
    floats (band stitching accumulates a carry add per chunk and a
    cols-length cumsum of the carry vector, charged as ``extra_depth``) —
    and every shard's per-phase attempt counter must equal
    :meth:`~repro.distsat.FaultPlan.expected_attempts`: recovery invisible
    in the output, exact in the books.
    """
    from repro.distsat import FaultPlan, distributed_sat

    a = config.build_matrix()
    plan = FaultPlan.from_dict(config.fault) if config.fault else FaultPlan()
    result = distributed_sat(
        a, shards=config.shards or 2, algorithm=config.algorithm,
        tile_width=config.tile_width, chunk_rows=config.band_rows,
        fault_plan=plan, max_attempts=4)
    want = get_algorithm(config.algorithm,
                         tile_width=config.tile_width).run_host(a)
    error = _oracle_mismatch("distributed executor", result.sat, want, a,
                             exact=False, algorithm=config.algorithm,
                             tile_width=config.tile_width,
                             extra_depth=sum(result.sat.shape))
    if error is not None:
        return error
    for phase, counters in result.stats["attempts"].items():
        for shard, n in counters.items():
            expect = plan.expected_attempts(shard, phase)
            if n != expect:
                return (f"shard {shard} {phase} took {n} attempt(s), fault "
                        f"plan predicts {expect} (recovery bookkeeping drift)")
    return None


def _run_incremental(config: FuzzConfig) -> str | None:
    """Replay one edit sequence, checking the resident input and the
    table's bit-identity after every edit."""
    from repro.hostexec.incremental import IncrementalSAT, verify_state

    a = config.build_matrix()
    rows, cols = a.shape
    rng = np.random.default_rng(config.sim_seed)
    kwargs = {}
    if config.algorithm == "(1+r)R1W":
        kwargs["r"] = config.r
    oracle = get_algorithm(config.algorithm, tile_width=config.tile_width,
                           **kwargs)
    with IncrementalSAT(a, algorithm=config.algorithm,
                        tile_width=config.tile_width,
                        strategy=config.strategy) as inc:
        current = a.astype(inc.dtype)
        for e in range(config.edits):
            kind = rng.choice(["rect", "rect", "tiles", "delta", "advance"])
            if kind == "rect":
                h = int(rng.integers(1, rows + 1))
                w = int(rng.integers(1, cols + 1))
                top = int(rng.integers(0, rows - h + 1))
                left = int(rng.integers(0, cols - w + 1))
                vals = _fuzz_values(rng, (h, w), a.dtype)
                inc.update(top, left, vals)
                current[top:top + h, left:left + w] = vals
            elif kind == "tiles":
                grid = inc.grid
                k = int(rng.integers(1, min(3, grid.num_tiles) + 1))
                edits = []
                for _ in range(k):
                    I = int(rng.integers(0, grid.tile_rows))
                    J = int(rng.integers(0, grid.tile_cols))
                    shape = (grid.tile_height(I), grid.tile_width_at(J))
                    edits.append((I, J, _fuzz_values(rng, shape, a.dtype)))
                inc.update_tiles(edits)
                W = config.tile_width
                for I, J, vals in edits:
                    current[W * I:W * I + vals.shape[0],
                            W * J:W * J + vals.shape[1]] = vals
            elif kind == "delta":
                d = np.zeros((rows, cols), dtype=inc.dtype)
                h = int(rng.integers(1, rows + 1))
                w = int(rng.integers(1, cols + 1))
                top = int(rng.integers(0, rows - h + 1))
                left = int(rng.integers(0, cols - w + 1))
                d[top:top + h, left:left + w] = \
                    _fuzz_values(rng, (h, w), inc.dtype, -20, 20)
                inc.delta(d)
                current += d
            else:  # advance
                h = int(rng.integers(1, rows + 1))
                w = int(rng.integers(1, cols + 1))
                top = int(rng.integers(0, rows - h + 1))
                left = int(rng.integers(0, cols - w + 1))
                if rng.random() < 0.5:
                    # VideoSAT's path: a frame in the input dtype, compared
                    # with the resident input through the accumulator cast.
                    frame = current.astype(a.dtype)
                    frame[top:top + h, left:left + w] = \
                        _fuzz_values(rng, (h, w), a.dtype)
                else:
                    frame = current.copy()
                    frame[top:top + h, left:left + w] += \
                        _fuzz_values(rng, (h, w), inc.dtype, 1, 20)
                inc.advance(frame)
                current = frame.astype(inc.dtype)
            where = f"edit {e} ({kind}, strategy={inc.strategy})"
            if not np.array_equal(inc.input, current):
                bad = int(np.argmax(inc.input != current))
                return (f"{where}: resident input diverged from the edited "
                        f"frame (first mismatch at flat index {bad})")
            want = oracle.run_host(current, dtype_policy=inc.dtype)
            if not np.array_equal(inc.sat, want):
                bad = int(np.argmax(inc.sat != want))
                return (f"{where}: SAT diverged from full recompute "
                        f"(first mismatch at flat index {bad})")
        findings = verify_state(inc, check_sat=False)
        if findings:
            return f"stale carry state after edits: {findings[0]}"
    return None


def _run_simulate(config: FuzzConfig, sanitizer=None) -> str | None:
    """Run the configured algorithm on the simulator against the NumPy
    reference, under ``sanitizer`` when one is given (any finding fails)."""
    a = config.build_matrix()
    kwargs: dict = {"tile_width": config.tile_width}
    if config.algorithm == "(1+r)R1W":
        kwargs["r"] = config.r
    if config.algorithm == "1R1W-SKSS-LB":
        kwargs["acquisition"] = config.acquisition
    gpu = config.build_gpu()
    if sanitizer is not None:
        gpu.attach_sanitizer(sanitizer)
    result = get_algorithm(config.algorithm, **kwargs).run(a, gpu)
    want = sat_reference(a)
    if not np.array_equal(result.sat, want):
        bad = int(np.argmax(result.sat != want))
        return f"wrong SAT (first mismatch at flat index {bad})"
    if sanitizer is not None and not sanitizer.ok:
        return f"{sanitizer.summary()}; first: {sanitizer.findings[0]}"
    return None


def _run_sanitize(config: FuzzConfig) -> str | None:
    """Replay one model-checker counterexample under the dynamic sanitizer.

    With ``kernel`` set, the named bug-corpus entry runs over five scheduler
    seeds; otherwise the configured algorithm runs once with the configured
    residency/acquisition.  Any sanitizer finding — or a deadlock, which
    surfaces as an exception through :func:`run_one`'s handler — is the
    dynamic confirmation of the static counterexample.
    """
    from repro.analysis.sanitizer import Sanitizer

    if config.kernel is not None:
        from repro.analysis.bugcorpus import get_spec, run_spec
        spec = get_spec(config.kernel)
        rules: set[str] = set()
        for seed in range(config.sim_seed, config.sim_seed + 5):
            s = run_spec(spec, seed=seed, consistency=config.consistency,
                         policy=config.policy, spin_bound=config.spin_bound)
            rules |= {f.rule for f in s.findings}
        if rules:
            return f"corpus '{spec.name}': sanitizer rules {sorted(rules)}"
        return None
    return _run_simulate(config, Sanitizer())


def _sample_sanitize_config(rng: np.random.Generator) -> FuzzConfig:
    """A :func:`sample_config` draw replayed under the sanitizer with a
    bounded spin budget."""
    return replace(sample_config(rng), mode="sanitize", spin_bound=200_000)


def _replay_corpus(spec: Any, layer: str, expected: str,
                   findings: list[dict]) -> str | None:
    """One planted-bug replay through a static layer: the kernel must yield
    the ``expected`` finding kind with a source line on every finding (a
    clean spec, no finding), and the lint must produce the spec's
    ``expected_lint`` rules."""
    import repro.analysis.bugcorpus as bugcorpus
    from repro.analysis.kernellint import lint_file

    kinds = sorted({f["kind"] for f in findings})
    if expected:
        if expected not in kinds:
            return (f"corpus '{spec.name}': {layer} expected '{expected}', "
                    f"found {kinds or 'nothing'}")
        if any(not f.get("line") for f in findings):
            return f"corpus '{spec.name}': finding without a source line"
    elif findings:
        return (f"corpus '{spec.name}': {layer} flagged a clean kernel: "
                f"{kinds}")
    lint_rules = {f.rule for f in lint_file(bugcorpus.__file__)
                  if f.function == spec.kernel.__name__}
    missing = set(spec.expected_lint) - lint_rules
    if missing:
        return (f"corpus '{spec.name}': lint missed expected rule(s) "
                f"{sorted(missing)} (got {sorted(lint_rules) or 'none'})")
    return None


def _run_cost(config: FuzzConfig) -> str | None:
    """Replay one planted traffic regression through the static cost layer.

    ``config.kernel`` names a :data:`~repro.analysis.bugcorpus.COST_CORPUS`
    entry (or the clean control).  The kernel must be rejected by
    :func:`repro.analysis.costcheck.find_cost_bugs` with its declared
    ``expected_cost`` kind at a concrete source location, and the KL006-era
    lint must produce exactly the spec's ``expected_lint`` rules; the
    control must survive both untouched.
    """
    from repro.analysis.bugcorpus import get_spec
    from repro.analysis.costcheck import find_cost_bugs

    spec = get_spec(config.kernel or "store-in-spin")
    return _replay_corpus(spec, "costcheck", spec.expected_cost,
                          find_cost_bugs(spec.kernel))


def _run_numeric(config: FuzzConfig) -> str | None:
    """Replay one numeric-layer check (see ``numeric`` in the module doc).

    With ``config.kernel`` set, the named
    :data:`~repro.analysis.bugcorpus.NUMERIC_CORPUS` entry must be rejected
    by :func:`repro.analysis.numcheck.find_numeric_bugs` with its declared
    ``expected_numeric`` kind at a concrete source location, and the lint
    must produce the spec's expected rules (KL007) — while the control
    stays clean both ways.  Without it, the sampled (algorithm, n, dtype)
    point's measured worst-case error on adversarial inputs must sit under
    the statically proven bound.
    """
    from repro.analysis.numcheck import find_numeric_bugs, validate_bounds

    if config.kernel is not None:
        from repro.analysis.bugcorpus import get_spec
        spec = get_spec(config.kernel)
        return _replay_corpus(spec, "numcheck", spec.expected_numeric,
                              find_numeric_bugs(spec.kernel))
    rows = validate_bounds([config.algorithm], sizes=(config.n,),
                           dtypes=(config.dtype,), device=False,
                           seed=config.data_seed)
    bad = [r for r in rows if not r["ok"]]
    if bad:
        r = bad[0]
        return (f"{r['algorithm']} {r['dtype']} n={r['n']}: measured depth "
                f"{r['measured_depth']:.1f} vs proven {r['proven_depth']} "
                f"(tightness {r['tightness']:.1f})")
    return None


#: Fuzzing modes accepted by :func:`fuzz` / ``repro fuzz --mode``: each name
#: maps to its ``(sampler, runner)`` pair.  A sampler draws one
#: :class:`FuzzConfig` from a generator; a runner replays one and returns an
#: error description or ``None``.  ``sanitize`` replays a configuration under
#: the concurrency sanitizer with a bounded spin budget — the dynamic half of
#: the model checker's counterexamples (:mod:`repro.analysis.modelcheck`
#: emits replay configs in this mode, including bug-corpus kernels via the
#: ``kernel`` field).
FUZZ_MODES: dict[str, tuple[Callable[[np.random.Generator], FuzzConfig],
                            Callable[[FuzzConfig], str | None]]] = {
    "simulate": (sample_config, _run_simulate),
    "incremental": (sample_incremental_config, _run_incremental),
    "sanitize": (_sample_sanitize_config, _run_sanitize),
    "engine": (sample_engine_config, _run_engine),
    "cost": (sample_cost_config, _run_cost),
    "distsat": (sample_distsat_config, _run_distsat),
    "numeric": (sample_numeric_config, _run_numeric),
}


def run_one(config: FuzzConfig, *, sanitize: bool = False) -> str | None:
    """Run one configuration; returns an error description or ``None``.

    The config's ``mode`` picks the runner from :data:`FUZZ_MODES`.  With
    ``sanitize=True`` a ``simulate`` config runs under the concurrency
    sanitizer (:mod:`repro.analysis.sanitizer`), so any race or protocol
    finding counts as a failure even when the numeric result happens to be
    right; the flag does not apply to the other modes.  An exception from
    the runner is reported, not raised (a deadlock counts as a finding).
    """
    mode = "sanitize" if sanitize and config.mode == "simulate" \
        else config.mode
    if mode not in FUZZ_MODES:
        return (f"unknown fuzz mode {config.mode!r}; "
                f"known: {tuple(FUZZ_MODES)}")
    _, runner = FUZZ_MODES[mode]
    try:
        return runner(config)
    except Exception as exc:  # noqa: BLE001 - the fuzzer reports
        return f"exception: {type(exc).__name__}: {exc}"


def fuzz(num_runs: int = 50, *, seed: int = 0,
         time_budget_s: float | None = None,
         sanitize: bool = False, mode: str = "simulate") -> FuzzReport:
    """Run ``num_runs`` random configurations (or until the time budget).

    ``mode`` selects the harness from :data:`FUZZ_MODES` (see the module
    docstring): its sampler draws each configuration and :func:`run_one`
    replays it.
    """
    if mode not in FUZZ_MODES:
        raise ConfigurationError(
            f"unknown fuzz mode {mode!r}; known: {tuple(FUZZ_MODES)}")
    sample, _ = FUZZ_MODES[mode]
    rng = np.random.default_rng(seed)
    report = FuzzReport()
    start = time.perf_counter()
    for _ in range(num_runs):
        if time_budget_s is not None \
                and time.perf_counter() - start > time_budget_s:
            break
        config = sample(rng)
        error = run_one(config, sanitize=sanitize)
        report.runs += 1
        if error is not None:
            report.failures.append((config, error))
    report.elapsed_s = time.perf_counter() - start
    return report
