"""The distsat work-queue protocol: messages, checksums, fault injection.

Workers and the coordinator exchange *messages*: plain dicts with a
``"type"`` key, numpy arrays allowed as values.  Every message crosses the
transport as **bytes** (:func:`encode_message` / :func:`decode_message` — a
JSON header plus base64 ``.npy`` payloads), so the queue pair used today
(:mod:`repro.distsat.transport`) could be replaced by a socket without
touching the coordinator or the worker: neither ever sees a live Python
object from the other side.

Message vocabulary (the full protocol):

``task``
    Coordinator → worker.  One shard: its row range, the per-band execution
    configuration, the input (an embedded band or a band-source spec), the
    attempt number and the fault plan.  A ``"reduce"`` task asks the worker
    to read its band, compute the band's SAT, hold it and *publish* the
    band's column sums; an ``"apply"`` task (a shard whose sums are already
    committed) brings its carry-in along and asks for the stitched rows
    straight away.
``carry``
    Coordinator → worker.  The look-back answer for a shard the worker
    holds: the prefix over the committed column sums of every shard above
    it, with its checksum.  The worker stitches the held band and replies
    with its ``"apply"`` result.
``result``
    Worker → coordinator.  Phase payload (column sums, stitched rows or a
    digest) plus a checksum over the carry-bearing arrays — the coordinator
    rejects any result whose payload does not match its checksum and
    retries the shard (the corrupt-then-detect seam).  A worker sent a
    ``carry`` for a shard it does not hold (a replacement process) answers
    with a payload-less result giving the ``reason``; the coordinator
    retries that shard too.
``died``
    Synthesized by the transport when a worker is lost (an injected kill or
    a real process death); names the worker, and the request it was
    serving when that is known, so the coordinator can resubmit the shard
    it held.
``shutdown``
    Coordinator → worker: drain and exit.

:class:`FaultPlan` is the deterministic fault-injection seam.  It is data —
it rides inside ``task`` messages and JSON round-trips through the fuzzer's
replay configs — and is consulted at exactly one point in the worker
(:func:`repro.distsat.worker.handle_task`), so every injected failure is
reproducible: *kill shard k on attempt j*, delay it, or corrupt its carry
payload after the checksum is computed (which the coordinator must detect).
"""

from __future__ import annotations

import base64
import io
import json
import math
import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError

#: Every message type the protocol admits.
MESSAGE_TYPES = ("task", "carry", "result", "died", "shutdown")

#: Phases of one shard's computation, and the two fault points of its
#: worker.  ``reduce`` publishes the shard's column sums (its carry
#: contribution); ``apply`` returns the stitched SAT rows once the carry
#: from every shard above has been committed.
PHASES = ("reduce", "apply")

#: Kinds of injectable faults.
FAULT_KINDS = ("kill", "delay", "corrupt")


def checksum(a: np.ndarray) -> int:
    """CRC32 over an array's dtype, shape and bytes (carry integrity)."""
    a = np.ascontiguousarray(a)
    header = f"{a.dtype.str}|{a.shape}".encode()
    return zlib.crc32(a.tobytes(), zlib.crc32(header)) & 0xFFFFFFFF


def shard_bounds(n_rows: int, shards: int) -> list[tuple[int, int]]:
    """Half-open row ranges of each shard (near-equal contiguous bands).

    ``shards`` is clamped to ``n_rows`` so every shard owns at least one
    row; the first ``n_rows % shards`` shards get the extra row.
    """
    if n_rows <= 0:
        raise ConfigurationError("n_rows must be positive")
    if shards <= 0:
        raise ConfigurationError("shards must be positive")
    shards = min(shards, n_rows)
    base, extra = divmod(n_rows, shards)
    bounds, lo = [], 0
    for k in range(shards):
        hi = lo + base + (1 if k < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class FaultAction:
    """One deterministic fault: fires for exactly one (shard, attempt, phase).

    ``kind`` is ``"kill"`` (the worker dies before replying), ``"delay"``
    (sleep ``seconds`` before replying) or ``"corrupt"`` (the carry payload
    is damaged *after* its checksum is computed, so the coordinator must
    detect the mismatch and retry).  ``phase`` defaults to ``"reduce"``.
    """

    kind: str
    shard: int
    attempt: int = 1
    phase: str = "reduce"
    seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; known: {FAULT_KINDS}")
        if self.phase not in PHASES:
            raise ConfigurationError(
                f"unknown fault phase {self.phase!r}; known: {PHASES}")
        if not (_is_int(self.shard) and self.shard >= 0
                and _is_int(self.attempt) and self.attempt >= 1):
            raise ConfigurationError(
                "fault shard must be >= 0 and attempt >= 1, both integers; "
                f"got shard={self.shard!r}, attempt={self.attempt!r}")
        if not (isinstance(self.seconds, (int, float))
                and not isinstance(self.seconds, bool)
                and math.isfinite(self.seconds) and self.seconds >= 0):
            raise ConfigurationError(
                f"fault seconds must be a finite number >= 0, got "
                f"{self.seconds!r}")


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic set of injected faults for one distributed run.

    ``actions`` fire inside workers (through the task messages);
    ``abort_after_shard`` fires in the coordinator — it raises
    :class:`~repro.errors.CoordinatorAborted` immediately after that shard's
    carry is persisted, simulating a coordinator crash that a later run must
    recover from via the checkpoint directory.
    """

    actions: tuple[FaultAction, ...] = field(default=())
    abort_after_shard: int | None = None

    def __post_init__(self) -> None:
        if self.abort_after_shard is not None and not (
                _is_int(self.abort_after_shard)
                and self.abort_after_shard >= 0):
            raise ConfigurationError(
                "abort_after_shard must be None or an integer >= 0, got "
                f"{self.abort_after_shard!r}")

    def action_for(self, shard: int, attempt: int,
                   phase: str) -> FaultAction | None:
        """The single action firing for this (shard, attempt, phase), if any."""
        for action in self.actions:
            if (action.shard, action.attempt, action.phase) \
                    == (shard, attempt, phase):
                return action
        return None

    def expected_attempts(self, shard: int, phase: str) -> int:
        """How many attempts this shard's phase takes under the plan.

        Attempt ``j`` is lost exactly when a kill/corrupt action targets
        ``(shard, j, phase)``; the count grows until the first clean attempt.
        (Delays do not consume an attempt.)
        """
        attempt = 1
        while True:
            action = self.action_for(shard, attempt, phase)
            if action is None or action.kind == "delay":
                return attempt
            attempt += 1

    def to_dict(self) -> dict:
        """JSON-able form (rides in fuzz replay configs)."""
        return {
            "actions": [{"kind": a.kind, "shard": a.shard,
                         "attempt": a.attempt, "phase": a.phase,
                         "seconds": a.seconds} for a in self.actions],
            "abort_after_shard": self.abort_after_shard,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "FaultPlan":
        """Inverse of :meth:`to_dict`; rejects unknown fields."""
        if not isinstance(raw, dict):
            raise ConfigurationError("fault plan must be a JSON object")
        unknown = set(raw) - {"actions", "abort_after_shard"}
        if unknown:
            raise ConfigurationError(
                f"unknown fault plan field(s): {sorted(unknown)}")
        try:
            actions = tuple(FaultAction(**a) for a in raw.get("actions", ()))
        except TypeError as exc:
            raise ConfigurationError(f"invalid fault action: {exc}") from None
        return cls(actions=actions,
                   abort_after_shard=raw.get("abort_after_shard"))


# -- wire format ---------------------------------------------------------------
#
# A message dict becomes one JSON document; every ndarray value is replaced
# by {"__ndarray__": <base64 .npy>}.  Using the .npy container (instead of
# raw bytes + side-channel dtype/shape) keeps the wire format self-describing
# — the property a socket transport would need.

_ND_KEY = "__ndarray__"


def _pack(value):
    if isinstance(value, np.ndarray):
        buf = io.BytesIO()
        np.save(buf, np.ascontiguousarray(value), allow_pickle=False)
        return {_ND_KEY: base64.b64encode(buf.getvalue()).decode("ascii")}
    if isinstance(value, dict):
        if _ND_KEY in value:
            raise ConfigurationError(
                f"message dicts must not use the reserved key {_ND_KEY!r}")
        return {k: _pack(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_pack(v) for v in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    return value


def _unpack(value):
    if isinstance(value, dict):
        if set(value) == {_ND_KEY}:
            raw = base64.b64decode(value[_ND_KEY])
            return np.load(io.BytesIO(raw), allow_pickle=False)
        return {k: _unpack(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_unpack(v) for v in value]
    return value


def encode_message(msg: dict) -> bytes:
    """Serialize a protocol message to transport bytes."""
    mtype = msg.get("type")
    if mtype not in MESSAGE_TYPES:
        raise ConfigurationError(
            f"unknown message type {mtype!r}; known: {MESSAGE_TYPES}")
    return json.dumps(_pack(msg), sort_keys=True).encode()


def decode_message(raw: bytes) -> dict:
    """Inverse of :func:`encode_message`."""
    try:
        msg = _unpack(json.loads(raw.decode()))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"undecodable message: {exc}") from None
    if not isinstance(msg, dict) or msg.get("type") not in MESSAGE_TYPES:
        raise ConfigurationError("decoded message is not a protocol message")
    return msg
