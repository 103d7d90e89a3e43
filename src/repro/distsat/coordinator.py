"""The distributed coordinator: shard, fan out, look back, recover.

:func:`distributed_sat` splits the image into contiguous band shards
(:func:`~repro.distsat.protocol.shard_bounds`) and runs **one task per
shard** on a worker pool over a transport — the source paper's
single-pass look-back (1R1W-SKSS-LB), one level up:

1. **publish** — the worker reads its band once, computes the band's SAT
   and column sums, holds both and publishes the sums (a ``reduce``
   result).  Each verified sum is committed to the
   :class:`~repro.distsat.checkpoint.CheckpointStore` the moment it
   arrives, so the persisted frontier grows shard by shard.
2. **look back** — once every shard above a waiting shard has published,
   the coordinator sends its worker a ``carry`` message: the prefix over
   the committed sums, ``carry_in = sum(sums[0..k-1])``.
3. **stitch** — the worker adds ``cumsum(carry_in)`` to the band SAT it
   holds and returns the shard's rows of the global SAT (an ``apply``
   result).

Shards are dispatched in order and each worker has at most one unfinished
shard, so no worker holds two bands, and every wait points at a lower shard
that is already dispatched and will publish: dispatch cannot deadlock (the
argument SKSS makes for serial tile acquisition).  On the inline transport
the run is a chained scan.

Failure handling (all deterministic under a
:class:`~repro.distsat.protocol.FaultPlan`; attempts are counted per phase —
``reduce`` each time a shard's sums are requested, ``apply`` each time its
rows are):

* a **dead worker** loses only the shard it held; the coordinator
  resubmits that shard with the next attempt number.  A shard whose sums
  were already committed does not publish again: it is resubmitted as an
  ``apply`` task carrying its carry-in from
  :meth:`~repro.distsat.checkpoint.CheckpointStore.load_carry_before` —
  re-read from the checkpoint files, not from any in-memory state — so
  recovery provably resumes from what was persisted;
* a **corrupt result** (payload fails its own checksum), or a worker
  answering a ``carry`` for a band it no longer holds, is treated like a
  death: the shard is resubmitted;
* a shard that exhausts ``max_attempts`` raises
  :class:`~repro.errors.ShardFailedError`;
* ``fault_plan.abort_after_shard = k`` simulates a **coordinator crash**:
  :class:`~repro.errors.CoordinatorAborted` is raised right after shard
  *k*'s sums are persisted.  A new call pointed at the same
  ``checkpoint_dir`` resumes: committed shards never publish again (pinned
  by ``stats["resumed_shards"]`` and the persisted attempt counters).
"""

from __future__ import annotations

import bisect
import time
from dataclasses import dataclass, field

import numpy as np

from repro.backend.carries import BandCarrySet
from repro.backend.core import positive_int
from repro.distsat.checkpoint import CheckpointStore
from repro.distsat.protocol import FaultPlan, checksum, decode_message, \
    encode_message, shard_bounds
from repro.distsat.sources import BandSource, MatrixSource, source_to_spec
from repro.distsat.transport import make_transport
from repro.errors import ConfigurationError, CoordinatorAborted, \
    ShardFailedError
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
                    inner_engine: str | None = "serial",
                    transport: str = "inline", workers: int | None = None,
                    checkpoint_dir=None, fault_plan=None,
                    chunk_rows: int | None = None, collect: bool = True,
                    max_attempts: int = 3) -> DistributedResult:
    """Compute the SAT of ``a`` across ``shards`` band shards.

    ``a`` is a 2-D array or a :class:`~repro.distsat.sources.BandSource`
    (a spec-serializable source streams: workers regenerate their own rows
    and the coordinator never holds the image).  ``inner_engine`` names the
    registered backend each worker runs its band through (``None``: the
    serial oracle); task messages carry it by name, so engine instances are
    refused.  ``chunk_rows`` bounds worker memory by processing each shard
    that many rows at a time.  ``transport`` and ``workers`` pick the pool
    (``workers=None``: one inline worker, or two processes).
    ``collect=False`` switches to digest mode.  Faults are injected via
    ``fault_plan`` (a :class:`~repro.distsat.protocol.FaultPlan` or its dict
    form).
    """
    if isinstance(a, BandSource):
        source = a
    else:
        source = MatrixSource(np.asarray(a))
    shards = positive_int(shards, "shards")
    max_attempts = positive_int(max_attempts, "max_attempts")
    if chunk_rows is not None:
        chunk_rows = positive_int(chunk_rows, "chunk_rows")
    if workers is not None:  # None: the transport's default pool
        workers = positive_int(workers, "workers")
    if fault_plan is None:
        plan = None
    elif isinstance(fault_plan, FaultPlan):
        plan = fault_plan
    else:
        plan = FaultPlan.from_dict(fault_plan)
    from repro.backend.registry import known_backends, resolve_backend
    if inner_engine is not None and not isinstance(inner_engine, str):
        raise ConfigurationError(
            f"inner_engine must be a registered backend name or None, not a "
            f"{type(inner_engine).__name__}: task messages name the engine")
    if inner_engine == "distributed":
        others = [b for b in known_backends() if b != "distributed"]
        raise ConfigurationError(
            "the distributed executor cannot use itself as the per-band "
            f"engine; pick one of {', '.join(others)}")
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
    sat = np.empty((source.n_rows, source.n_cols), dtype=acc) \
        if collect else None
    edge_rows: dict[int, np.ndarray] = {}
    digests: dict[int, int] = {}
    peak_bytes = 0
    todo = list(range(n_shards))       # shards to (re)dispatch, ascending
    busy: dict[int, int] = {}          # worker -> its unfinished shard
    asked: dict[int, tuple] = {}       # worker -> (phase, shard, attempt)
    try:
        def request(worker: int, msg: dict) -> None:
            phase, shard = msg["phase"], msg["shard"]
            attempt = store.record_attempt(phase, shard)
            if attempt > max_attempts:
                raise ShardFailedError(
                    f"shard {shard} ({phase}) failed {attempt - 1} attempts "
                    f"(budget {max_attempts})", shard=shard,
                    attempts=attempt - 1)
            msg["attempt"] = attempt
            if "carry_in" in msg:
                msg["carry_checksum"] = checksum(msg["carry_in"])
            asked[worker] = (phase, shard, attempt)
            tx.send(worker, encode_message(msg))

        def advance() -> None:
            """Send every carry that is ready, then the next shards in order
            to the free workers."""
            committed = set(store.committed)
            ready = 0        # shards 0..ready-1 have all published
            while ready in committed:
                ready += 1
            for worker in range(tx.n_workers):
                shard = busy.get(worker)
                if shard is not None:
                    if worker not in asked and shard <= ready:
                        # The look-back: the prefix over the persisted sums.
                        request(worker, {"type": "carry", "phase": "apply",
                                         "shard": shard, "carry_in":
                                         store.carry_before(shard)})
                    continue
                # A committed shard skips publishing, so it waits for its
                # carry-in before it is dispatched.
                if not todo or (todo[0] in committed and todo[0] > ready):
                    continue
                shard = busy[worker] = todo.pop(0)
                lo, hi = bounds[shard]
                task = {"type": "task", "phase": "reduce", "shard": shard,
                        "row_lo": lo, "row_hi": hi, "algorithm": canonical,
                        "tile_width": tile_width, "acc_dtype": acc.name,
                        "engine": inner_engine, "chunk_rows": chunk_rows,
                        "collect": collect}
                if embed:
                    task["band"] = np.ascontiguousarray(source.band(lo, hi))
                else:
                    task["source"] = spec
                if plan is not None:
                    task["fault"] = plan.to_dict()
                if shard in committed:
                    # The recovery seam: the carry-in is re-read from the
                    # checkpoint files, never from in-memory state.
                    task["phase"] = "apply"
                    task["carry_in"] = store.load_carry_before(shard)
                request(worker, task)

        advance()
        done = 0
        while done < n_shards:
            msg = decode_message(tx.recv())
            worker = msg["worker"]
            if "shard" in msg:
                if asked.get(worker) != (msg["phase"], msg["shard"],
                                         msg["attempt"]):
                    continue  # a stale reply to a superseded request
            elif worker not in busy:
                continue  # a hard death while idle
            shard = busy[worker]
            payload = msg.get("rows", msg.get("col_sums",
                                              msg.get("bottom_row")))
            if payload is None or checksum(payload) != msg["checksum"]:
                # Lost: a dead worker (a hard process death names no
                # request), a corrupt payload or a band no longer held.
                del busy[worker]
                asked.pop(worker, None)
                bisect.insort(todo, shard)
            elif msg["phase"] == "reduce":
                del asked[worker]
                peak_bytes = max(peak_bytes, msg["peak_bytes"])
                store.commit_carry(shard, msg["col_sums"])
                if plan is not None and plan.abort_after_shard == shard:
                    raise CoordinatorAborted(
                        f"fault plan aborted the coordinator after shard "
                        f"{shard}'s carry was persisted",
                        committed_shards=len(store.committed))
            else:
                del busy[worker], asked[worker]
                peak_bytes = max(peak_bytes, msg["peak_bytes"])
                lo, hi = bounds[shard]
                if sat is not None:
                    sat[lo:hi] = msg["rows"]
                else:
                    digests[shard] = msg["digest"]
                edge_rows[hi - 1] = msg["bottom_row"]
                store.mark_applied(shard)
                done += 1
            advance()
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
