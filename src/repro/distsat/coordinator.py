"""The distributed coordinator: shard, fan out, stitch, recover.

:func:`distributed_sat` splits the image into contiguous band shards
(:func:`~repro.distsat.protocol.shard_bounds`), fans them out to a worker
pool over a transport, and stitches the results with the same carry algebra
:class:`~repro.sat.outofcore.OutOfCoreSAT` threads between bands — the
SKSS look-back carries, one level up.  Two phases:

1. **reduce** — every shard's column sums, computed in parallel (each shard
   only needs its own rows).  Each verified carry is committed to the
   :class:`~repro.distsat.checkpoint.CheckpointStore` the moment it
   arrives, so the persisted frontier grows shard by shard.
2. **apply** — every shard's rows of the global SAT, computed in parallel
   once all carries are committed: the carry-in of shard *k* is the sum of
   carries *0..k-1* and the stitch is
   ``sat[i][j] = band_sat[i][j] + cumsum(carry_in)[j]``.

Failure handling (all deterministic under a
:class:`~repro.distsat.protocol.FaultPlan`):

* a **dead worker** loses only its in-flight task; the coordinator
  resubmits that shard with the next attempt number.  A resubmitted
  *apply* takes its carry-in from
  :meth:`~repro.distsat.checkpoint.CheckpointStore.load_carry_before` —
  re-read from the checkpoint files, not from any in-memory state — so
  recovery provably resumes from what was persisted;
* a **corrupt result** (payload fails its own checksum) is rejected and
  the shard retried, identically to a death;
* a shard that exhausts ``max_attempts`` raises
  :class:`~repro.errors.ShardFailedError`;
* ``fault_plan.abort_after_shard = k`` simulates a **coordinator crash**:
  :class:`~repro.errors.CoordinatorAborted` is raised right after shard
  *k*'s carry is persisted.  A new call pointed at the same
  ``checkpoint_dir`` resumes: committed shards skip their reduce entirely
  (pinned by ``stats["resumed_shards"]`` and the persisted attempt
  counters).
"""

from __future__ import annotations

import collections
import time
from dataclasses import dataclass, field

import numpy as np

from repro.backend.carries import BandCarrySet
from repro.distsat.checkpoint import CheckpointStore
from repro.distsat.protocol import FaultPlan, checksum, decode_message, \
    encode_message, shard_bounds
from repro.distsat.sources import BandSource, MatrixSource, source_to_spec
from repro.distsat.transport import make_transport
from repro.errors import ConfigurationError, CoordinatorAborted, \
    DistributedError, ShardFailedError
from repro.sat.outofcore import rect_sum_from_rows


@dataclass
class DistributedResult:
    """What one distributed run produced.

    ``sat`` is the assembled global SAT in collect mode, ``None`` in digest
    mode (the gigapixel path), where ``digests`` (per-shard CRC32 of the
    stitched rows) and ``edge_rows`` (the global SAT row at each shard's
    bottom edge) stand in for it.  ``carries`` is the run's total
    :class:`~repro.backend.carries.BandCarrySet` — the column sums of the
    whole image, exactly what ``OutOfCoreSAT`` would have accumulated.
    """

    sat: np.ndarray | None
    carries: BandCarrySet
    bounds: tuple[tuple[int, int], ...]
    stats: dict
    checkpoint: CheckpointStore
    edge_rows: dict[int, np.ndarray] = field(default_factory=dict)
    digests: dict[int, int] = field(default_factory=dict)

    def rect_sum(self, top: int, left: int, bottom: int, right: int):
        """Inclusive rectangle sum via the GCP identity.

        With a collected ``sat`` any rectangle works; in digest mode only
        rectangles whose ``top - 1`` and ``bottom`` rows are shard bottom
        edges (or ``top == 0``) are answerable — the rows the run kept.
        """
        def row(i: int) -> np.ndarray:
            if self.sat is not None:
                if i >= len(self.sat):
                    raise ConfigurationError(
                        f"row {i} is outside the table's {len(self.sat)} "
                        "rows")
                return self.sat[i]
            if i not in self.edge_rows:
                raise ConfigurationError(
                    f"row {i} is not a retained shard edge; digest-mode "
                    f"rect_sum needs edge-aligned rows "
                    f"(have {sorted(self.edge_rows)})")
            return self.edge_rows[i]

        return rect_sum_from_rows(row, top, left, bottom, right)


def distributed_sat(a, *, shards: int = 2, algorithm: str | None = None,
                    tile_width: int = 32, dtype_policy=None,
                    inner_engine: str = "serial",
                    transport: str = "inline", workers: int | None = None,
                    checkpoint_dir=None, fault_plan=None,
                    chunk_rows: int | None = None, collect: bool = True,
                    max_attempts: int = 3) -> DistributedResult:
    """Compute the SAT of ``a`` across ``shards`` band shards.

    ``a`` is a 2-D array or a :class:`~repro.distsat.sources.BandSource`
    (a spec-serializable source streams: workers regenerate their own rows
    and the coordinator never holds the image).  ``inner_engine`` names the
    registered backend each worker runs its band through; ``chunk_rows``
    bounds worker memory by processing each shard that many rows at a
    time.  ``collect=False`` switches to digest mode.  Faults are injected
    via ``fault_plan`` (a :class:`~repro.distsat.protocol.FaultPlan` or its
    dict form).
    """
    if isinstance(a, BandSource):
        source = a
    else:
        source = MatrixSource(np.asarray(a))
    if not isinstance(shards, int) or isinstance(shards, bool) or shards <= 0:
        raise ConfigurationError(
            f"shards must be a positive integer, got {shards!r}")
    if not isinstance(max_attempts, int) or isinstance(max_attempts, bool) \
            or max_attempts <= 0:
        raise ConfigurationError("max_attempts must be a positive integer")
    if chunk_rows is not None and (not isinstance(chunk_rows, int)
                                   or isinstance(chunk_rows, bool)
                                   or chunk_rows <= 0):
        raise ConfigurationError(
            f"chunk_rows must be a positive integer, got {chunk_rows!r}")
    if fault_plan is None:
        plan = None
    elif isinstance(fault_plan, FaultPlan):
        plan = fault_plan
    else:
        plan = FaultPlan.from_dict(fault_plan)
    if inner_engine == "distributed":
        raise ConfigurationError(
            "the distributed executor cannot use itself as the per-band "
            "engine; pick a host engine (serial/wavefront/parallel)")
    from repro.backend.registry import resolve_backend
    inner = resolve_backend(inner_engine)  # validates the engine name
    canonical = None
    if algorithm is not None:
        from repro.sat.registry import get_algorithm
        canonical = get_algorithm(algorithm).name
    # Plan the inner configuration once up front so configuration mistakes
    # (bad tile width, unsupported dtype, ...) fail here, not inside a worker.
    inner.plan((source.n_rows, source.n_cols), source.dtype,
               algorithm=canonical, tile_width=tile_width,
               dtype_policy=dtype_policy)
    from repro.sat.dtypes import resolve_policy
    acc = resolve_policy(dtype_policy).accumulator(np.dtype(source.dtype))

    bounds = tuple(shard_bounds(source.n_rows, shards))
    n_shards = len(bounds)
    store = CheckpointStore(checkpoint_dir)
    store.open_run(rows=source.n_rows, cols=source.n_cols, shards=n_shards,
                   acc_dtype=acc.name, algorithm=canonical or "plain",
                   tile_width=tile_width)

    try:
        spec = source_to_spec(source)
        embed = False
    except ConfigurationError:
        spec, embed = None, True

    t0 = time.perf_counter()
    tx = make_transport(transport, workers)
    peak_bytes = 0
    try:
        unacked: dict[int, collections.deque] = \
            {w: collections.deque() for w in range(tx.n_workers)}
        tasks: dict[tuple[str, int], dict] = {}

        def submit(phase: str, shard: int, *, recovery: bool = False) -> None:
            attempt = store.record_attempt(phase, shard)
            if attempt > max_attempts:
                raise ShardFailedError(
                    f"shard {shard} ({phase}) failed {attempt - 1} attempts "
                    f"(budget {max_attempts})", shard=shard,
                    attempts=attempt - 1)
            lo, hi = bounds[shard]
            task = {"type": "task", "phase": phase, "shard": shard,
                    "row_lo": lo, "row_hi": hi, "attempt": attempt,
                    "algorithm": canonical, "tile_width": tile_width,
                    "acc_dtype": acc.name, "engine": inner_engine,
                    "chunk_rows": chunk_rows, "collect": collect}
            if embed:
                task["band"] = np.ascontiguousarray(source.band(lo, hi))
            else:
                task["source"] = spec
            if plan is not None:
                task["fault"] = plan.to_dict()
            if phase == "apply":
                # The recovery seam: a retried apply re-reads its carry-in
                # from the checkpoint files, never from in-memory state.
                carry = store.load_carry_before(shard) if recovery \
                    else store.carry_before(shard)
                task["carry_in"] = carry
                task["carry_checksum"] = checksum(carry)
            worker = shard % tx.n_workers
            tasks[(phase, shard)] = task
            unacked[worker].append((phase, shard))
            tx.send(worker, encode_message(task))

        def pump(want_phase: str, outstanding: set[int], on_result) -> None:
            nonlocal peak_bytes
            while outstanding:
                msg = decode_message(tx.recv())
                if msg["type"] == "died":
                    worker = msg["worker"]
                    if "shard" in msg:
                        # Precise death (inline kill, reported exception):
                        # exactly one named task was lost.
                        lost = [(msg["phase"], msg["shard"])]
                        try:
                            unacked[worker].remove(lost[0])
                        except ValueError:  # pragma: no cover - stale death
                            continue
                    else:
                        # A hard process death can lose results that were
                        # computed but never flushed to the queue, so every
                        # unacked task of that worker is resubmitted (a
                        # surviving duplicate result is simply ignored).
                        lost = list(unacked[worker])
                        unacked[worker].clear()
                        if not lost:
                            continue  # died while idle
                    for phase, shard in lost:
                        submit(phase, shard, recovery=True)
                    continue
                phase, shard = msg["phase"], msg["shard"]
                try:
                    unacked[msg["worker"]].remove((phase, shard))
                except ValueError:  # pragma: no cover - duplicate result
                    continue
                payload = msg["rows"] if "rows" in msg else \
                    msg["col_sums"] if "col_sums" in msg else msg["bottom_row"]
                if checksum(payload) != msg["checksum"]:
                    # Corrupt-then-detect: reject and retry the shard.
                    submit(phase, shard, recovery=True)
                    continue
                if phase != want_phase:  # pragma: no cover - phase mixing
                    raise DistributedError(
                        f"unexpected {phase} result during {want_phase}")
                peak_bytes = max(peak_bytes, msg.get("peak_bytes", 0))
                on_result(shard, msg)
                outstanding.discard(shard)

        # -- phase 1: reduce (skip shards whose carry is already persisted) ----
        todo = [k for k in range(n_shards) if k not in store.committed]
        for k in todo:
            submit("reduce", k)

        def commit(shard: int, msg: dict) -> None:
            store.commit_carry(shard, msg["col_sums"])
            if plan is not None and plan.abort_after_shard == shard:
                raise CoordinatorAborted(
                    f"fault plan aborted the coordinator after shard "
                    f"{shard}'s carry was persisted",
                    committed_shards=len(store.committed))

        pump("reduce", set(todo), commit)

        # -- phase 2: apply ----------------------------------------------------
        sat = np.empty((source.n_rows, source.n_cols), dtype=acc) \
            if collect else None
        edge_rows: dict[int, np.ndarray] = {}
        digests: dict[int, int] = {}

        for k in range(n_shards):
            submit("apply", k)

        def assemble(shard: int, msg: dict) -> None:
            lo, hi = bounds[shard]
            if sat is not None:
                sat[lo:hi] = msg["rows"]
            else:
                digests[shard] = msg["digest"]
            edge_rows[hi - 1] = msg["bottom_row"]
            store.mark_applied(shard)

        pump("apply", set(range(n_shards)), assemble)
    finally:
        tx.close()

    total = store.carry_before(n_shards)
    attempts = {"reduce": {k: store.attempts("reduce", k)
                           for k in range(n_shards)},
                "apply": {k: store.attempts("apply", k)
                          for k in range(n_shards)}}
    recovered = sorted({k for phase in attempts.values()
                        for k, n in phase.items() if n > 1})
    stats = {"shards": n_shards, "rows": source.n_rows,
             "cols": source.n_cols, "transport": transport,
             "workers": tx.n_workers, "attempts": attempts,
             "recovered_shards": recovered,
             "resumed_shards": list(store.resumed_shards),
             "peak_worker_bytes": int(peak_bytes),
             "elapsed_s": time.perf_counter() - t0}
    return DistributedResult(sat=sat, carries=BandCarrySet(column_sums=total),
                             bounds=bounds, stats=stats, checkpoint=store,
                             edge_rows=edge_rows, digests=digests)
