"""Worker-side logic of the distributed executor.

A worker is a loop over the transport: decode a message, run
:func:`handle_task`, encode the reply back.  It serves one shard at a time,
in two steps — the shard-level look-back (see :mod:`repro.distsat.protocol`):

``reduce`` (publish)
    On a ``task`` the worker reads its band once, computes the band's local
    SAT through any registered backend (the ``engine`` task field) and the
    band's column sums, *holds* both and publishes the sums — its carry
    contribution, as an SKSS-LB tile publishes its local aggregate.

``apply`` (stitch)
    When the ``carry`` message arrives — the prefix over the committed sums
    of every shard above, the look-back — the worker stitches the band it
    holds by the band identity ``sat[i][j] = band_sat[i][j] +
    cumsum(carry)[j]`` (:func:`~repro.sat.outofcore.stitch_band`, the step
    the out-of-core streamer runs between its bands).  In ``collect`` mode
    the stitched rows travel back in the result; in digest mode (the
    gigapixel demo) only a CRC32 of the stitched bytes and the shard's
    bottom SAT row do.  A shard whose sums are already committed arrives as
    an ``apply`` task carrying its carry-in and is stitched without
    publishing again.

What a worker holds between the steps lives in a ``held`` map (shard →
band) owned by its transport loop.  A new task empties it, so a worker
never holds more than one band's SAT.  A chunked shard (``chunk_rows``
below its height) holds only its task: its sums are computed chunk by
chunk and the chunks are read again for the stitch, so a memory-capped
worker never materialises its whole shard.  A held band is a pure function
of its task, so a replacement worker given the same task bytes produces the
same result bytes; one sent a ``carry`` for a band it never held says so,
and the coordinator resubmits the shard.

The fault seam lives here and only here: :func:`handle_task` consults the
task's fault plan once per step, before doing any work for
``kill``/``delay`` and after checksumming for ``corrupt`` — so every
injected failure is a deterministic function of ``(shard, attempt, phase)``.
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


def _holds_sat(task: dict) -> bool:
    """Whether the band is processed whole, so its SAT is held between the
    steps (a smaller ``chunk_rows`` caps memory below one band)."""
    rows = task["row_hi"] - task["row_lo"]
    return (task.get("chunk_rows") or rows) >= rows


def _band_sats(task: dict, acc: np.dtype):
    """Yield ``(chunk, chunk_sat)`` over the shard's band, chunk by chunk."""
    inner = resolve_backend(task["engine"])
    for chunk in _iter_chunks(task):
        yield chunk, inner.compute(chunk, algorithm=task["algorithm"],
                                   tile_width=task["tile_width"],
                                   dtype_policy=acc)


def handle_task(msg: dict, held: dict[int, tuple], *,
                on_kill: Callable[[], None] | None = None) -> dict:
    """Execute one ``task`` or ``carry`` message; returns the reply.

    ``held`` is the worker's map of the shards it holds between publishing
    and stitching.  ``on_kill`` is what an injected ``kill`` does — the
    inline transport leaves the default (raise :class:`InjectedKill`), the
    process worker passes a hard ``os._exit``.
    """
    phase, shard, attempt = msg["phase"], msg["shard"], msg["attempt"]
    result: dict = {"type": "result", "phase": phase, "shard": shard,
                    "attempt": attempt, "worker": msg.get("worker", 0)}
    if msg["type"] == "carry":
        if shard not in held:
            result["reason"] = f"shard {shard} is not held by this worker"
            return result
        task, pieces = held.pop(shard)
    else:
        held.clear()
        task, pieces = msg, None
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
    peak = 0
    if phase == "reduce":
        if _holds_sat(task):
            ((band, band_sat),) = _band_sats(task, acc)
            peak = band.nbytes + band_sat.nbytes
            col_sums = band.sum(axis=0, dtype=acc)
            # The stitch needs the band only for its column sums: they
            # stand in for it as a one-row band (summing one row is exact),
            # so the band is not read again.
            held[shard] = (task, [(col_sums[None], band_sat)])
        else:
            col_sums = None
            for chunk in _iter_chunks(task):
                peak = max(peak, chunk.nbytes)
                s = chunk.sum(axis=0, dtype=acc)
                col_sums = s if col_sums is None else col_sums + s
            held[shard] = (task, None)
        assert col_sums is not None
        result["col_sums"] = col_sums
        result["checksum"] = checksum(col_sums)
        corruptible = col_sums
    else:
        carry = msg["carry_in"].astype(acc, copy=True)
        if checksum(msg["carry_in"]) != msg["carry_checksum"]:
            raise ConfigurationError(
                f"carry-in for shard {shard} failed its checksum in flight")
        collect = task.get("collect", True)
        chunks: list[np.ndarray] = []
        digest = 0
        bottom = None
        for band, band_sat in pieces if pieces is not None \
                else _band_sats(task, acc):
            peak = max(peak, band.nbytes + band_sat.nbytes)
            # The band SAT is the worker's own, so it takes the rows in
            # place: no fresh band-sized array per stitch.
            stitched, carry = stitch_band(band_sat, band, carry,
                                          out=band_sat)
            bottom = stitched[-1].copy()
            if collect:
                chunks.append(stitched)
            else:
                digest = zlib.crc32(stitched, digest)
        assert bottom is not None
        result["bottom_row"] = bottom
        result["checksum"] = checksum(bottom)
        corruptible = bottom
        if collect:
            rows = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
            result["rows"] = rows
            result["checksum"] = checksum(rows)
            corruptible = rows
        else:
            result["digest"] = digest & 0xFFFFFFFF

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
    held: dict[int, tuple] = {}
    while True:
        raw = task_q.get()
        msg = decode_message(raw)
        if msg["type"] == "shutdown":
            break
        msg["worker"] = worker_id
        try:
            result = handle_task(msg, held, on_kill=lambda: os._exit(17))
        except BaseException as exc:  # noqa: BLE001 - report, then die
            result_q.put(encode_message(
                {"type": "died", "worker": worker_id, "phase": msg["phase"],
                 "shard": msg["shard"], "attempt": msg["attempt"],
                 "reason": f"{type(exc).__name__}: {exc}"}))
            raise SystemExit(1) from exc
        result_q.put(encode_message(result))
