"""Worker-side logic of the distributed executor.

A worker is a loop over the transport: decode a ``task`` message, run
:func:`handle_task`, encode the ``result`` back.  Tasks are fully
self-contained — the band (or a regenerable source spec), the carry-in, the
execution configuration and the fault plan all ride in the message — so a
worker holds **no** state between tasks.  That is what makes recovery
trivial to reason about: a replacement worker given the same task bytes
produces the same result bytes.

Two phases (see :mod:`repro.distsat.protocol`):

``reduce``
    Column sums of the shard's band — its carry contribution.  Chunked
    (``chunk_rows`` rows at a time) when the band comes from a source spec,
    so a memory-capped worker never materialises its whole shard.

``apply``
    The shard's rows of the *global* SAT: the band's local SAT (computed
    through any registered backend — the ``engine`` task field) stitched
    with the coordinator-supplied carry-in by the band identity
    ``sat[i][j] = band_sat[i][j] + cumsum(carry)[j]``
    (:func:`~repro.sat.outofcore.stitch_band`, the step the out-of-core
    streamer runs between its bands) — the SKSS look-back algebra one
    level up.  In ``collect`` mode the stitched rows travel back in the
    result; in digest mode (the gigapixel demo) only a CRC32 of the
    stitched bytes and the shard's bottom SAT row do.

The fault seam lives here and only here: :func:`handle_task` consults the
task's fault plan once, before doing any work for ``kill``/``delay`` and
after checksumming for ``corrupt`` — so every injected failure is a
deterministic function of ``(shard, attempt, phase)``.
"""

from __future__ import annotations

import time
import zlib
from typing import Callable

import numpy as np

from repro.backend.registry import resolve_backend
from repro.distsat.protocol import FaultPlan, checksum, decode_message, \
    encode_message
from repro.distsat.sources import source_from_spec
from repro.errors import ConfigurationError
from repro.sat.outofcore import stitch_band


class InjectedKill(Exception):
    """Raised by the in-process transport's kill seam in place of a real
    worker death (the process transport calls ``os._exit`` instead)."""


def _iter_chunks(task: dict):
    """Yield the shard's band ``chunk_rows`` rows at a time.

    An embedded band is yielded in chunks too (same code path); a source
    spec is regenerated chunk by chunk so only one chunk is ever live.
    """
    row_lo, row_hi = task["row_lo"], task["row_hi"]
    chunk = task.get("chunk_rows") or (row_hi - row_lo)
    if "band" in task:
        band = task["band"]
        if band.shape[0] != row_hi - row_lo:
            raise ConfigurationError(
                f"task band has {band.shape[0]} rows, expected "
                f"{row_hi - row_lo}")
        for lo in range(0, band.shape[0], chunk):
            yield band[lo:lo + chunk]
    elif "source" in task:
        source = source_from_spec(task["source"])
        for lo in range(row_lo, row_hi, chunk):
            yield source.band(lo, min(lo + chunk, row_hi))
    else:
        raise ConfigurationError("task carries neither a band nor a source")


def handle_task(task: dict, *,
                on_kill: Callable[[], None] | None = None) -> dict:
    """Execute one task message; returns the result message.

    ``on_kill`` is what an injected ``kill`` does — the inline transport
    leaves the default (raise :class:`InjectedKill`), the process worker
    passes a hard ``os._exit``.
    """
    phase = task["phase"]
    shard, attempt = task["shard"], task["attempt"]
    plan = FaultPlan.from_dict(task["fault"]) if task.get("fault") else None
    action = plan.action_for(shard, attempt, phase) if plan else None
    if action is not None and action.kind == "kill":
        if on_kill is not None:
            on_kill()
        raise InjectedKill(
            f"injected kill: shard {shard} attempt {attempt} ({phase})")
    if action is not None and action.kind == "delay":
        time.sleep(action.seconds)

    acc = np.dtype(task["acc_dtype"])
    result: dict = {"type": "result", "phase": phase, "shard": shard,
                    "attempt": attempt, "worker": task.get("worker", 0)}
    peak = 0
    if phase == "reduce":
        col_sums = None
        for chunk in _iter_chunks(task):
            peak = max(peak, chunk.nbytes)
            s = chunk.sum(axis=0, dtype=acc)
            col_sums = s if col_sums is None else col_sums + s
        assert col_sums is not None
        result["col_sums"] = col_sums
        result["checksum"] = checksum(col_sums)
        corruptible = col_sums
    elif phase == "apply":
        carry = task["carry_in"].astype(acc, copy=True)
        if checksum(task["carry_in"]) != task["carry_checksum"]:
            raise ConfigurationError(
                f"carry-in for shard {shard} failed its checksum in flight")
        collect = task.get("collect", True)
        inner = resolve_backend(task["engine"])
        pieces: list[np.ndarray] = []
        digest = 0
        bottom = None
        for chunk in _iter_chunks(task):
            local = inner.compute(chunk, algorithm=task["algorithm"],
                                  tile_width=task["tile_width"],
                                  dtype_policy=acc)
            peak = max(peak, chunk.nbytes + local.nbytes)
            stitched, carry = stitch_band(local, chunk, carry)
            bottom = stitched[-1].copy()
            if collect:
                pieces.append(stitched)
            else:
                digest = zlib.crc32(stitched, digest)
        assert bottom is not None
        result["bottom_row"] = bottom
        result["checksum"] = checksum(bottom)
        corruptible = bottom
        if collect:
            rows = pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
            result["rows"] = rows
            result["checksum"] = checksum(rows)
            corruptible = rows
        else:
            result["digest"] = digest & 0xFFFFFFFF
    else:  # pragma: no cover - protocol guards phases upstream
        raise ConfigurationError(f"unknown phase {phase!r}")

    result["peak_bytes"] = peak
    if action is not None and action.kind == "corrupt":
        # Damage the payload *after* its checksum was computed: the
        # coordinator must notice the mismatch and retry the shard.  A bit
        # flip, not an add — an add can be absorbed by float rounding at
        # large magnitudes, turning the injected fault into a silent no-op.
        corruptible.reshape(-1)[:1].view(np.uint8)[0] ^= 0xFF
    return result


def worker_main(worker_id: int, task_q, result_q) -> None:
    """Entry point of one pool process: drain tasks until ``shutdown``.

    Runs in a child process: receives/sends protocol *bytes* only.  An
    injected kill hard-exits the process (exit code 17); the transport
    notices the death and synthesizes a ``died`` message for the
    coordinator.  Any other exception also ends the worker, but politely —
    it reports ``died`` with the reason first, so configuration mistakes
    surface as messages instead of silent exits.
    """
    import os
    while True:
        raw = task_q.get()
        msg = decode_message(raw)
        if msg["type"] == "shutdown":
            break
        msg["worker"] = worker_id
        try:
            result = handle_task(msg, on_kill=lambda: os._exit(17))
        except BaseException as exc:  # noqa: BLE001 - report, then die
            result_q.put(encode_message(
                {"type": "died", "worker": worker_id,
                 "phase": msg["phase"], "shard": msg["shard"],
                 "reason": f"{type(exc).__name__}: {exc}"}))
            raise SystemExit(1) from exc
        result_q.put(encode_message(result))
