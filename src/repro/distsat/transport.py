"""Transports: how coordinator and workers exchange protocol bytes.

Both transports expose the same tiny surface — ``send(worker, raw)``,
``recv(deadline) -> raw``, ``close()`` — and both carry **encoded message
bytes only** (see :mod:`repro.distsat.protocol`), so a socket-based
transport would slot in without touching the coordinator or the worker.

:class:`InlineTransport`
    Deterministic in-process execution: messages run in submission order,
    one per :meth:`~InlineTransport.recv`, through the same encode/decode
    round trip the process transport pays — the wire format is always
    exercised.  Each worker's ``held`` map lives in the transport.  An
    injected ``kill`` surfaces as :class:`~repro.distsat.worker.InjectedKill`
    and is converted to the same ``died`` message a real worker death
    produces.  This is what tests, conformance and the fuzzer use: zero
    process overhead, fully reproducible scheduling — with plain FIFO
    queues the look-back runs as a chained scan.

:class:`ProcessTransport`
    A real ``multiprocessing`` pool: one task queue per worker and one
    shared result queue; each process keeps its own held map.  Worker death
    — injected ``os._exit(17)`` or anything else — is detected by liveness
    polling; the transport synthesizes the ``died`` message and respawns a
    replacement on a fresh task queue (a process killed while it waits in
    ``get()`` dies holding the old queue's read lock).  Messages still
    queued for the dead worker are dropped with its queue: the coordinator
    resubmits the shard that worker held.
"""

from __future__ import annotations

import collections
import queue as queue_mod
import time

from repro.backend.core import positive_int
from repro.distsat.protocol import decode_message, encode_message
from repro.distsat.worker import InjectedKill, handle_task, worker_main
from repro.errors import ConfigurationError, DistributedError


class InlineTransport:
    """Deterministic in-process transport (the default)."""

    def __init__(self, workers: int = 1) -> None:
        self.n_workers = positive_int(workers, "workers")
        self._pending: collections.deque[tuple[int, bytes]] \
            = collections.deque()
        self._held: list[dict[int, tuple]] = \
            [{} for _ in range(self.n_workers)]

    def send(self, worker: int, raw: bytes) -> None:
        if not 0 <= worker < self.n_workers:
            raise ConfigurationError(
                f"no such worker {worker} (have {self.n_workers})")
        self._pending.append((worker, raw))

    def recv(self, deadline: float | None = None) -> bytes:
        if not self._pending:
            raise DistributedError(
                "recv() with no task in flight: the coordinator queued "
                "nothing for the inline transport")
        worker, raw = self._pending.popleft()
        msg = decode_message(raw)
        if msg["type"] not in ("task", "carry"):
            raise ConfigurationError(
                f"inline transport got a {msg['type']!r} message; only "
                "tasks and carries are executable")
        msg["worker"] = worker
        try:
            result = handle_task(msg, self._held[worker])
        except InjectedKill as exc:
            # Inline deaths are precise: exactly this request was in
            # flight, so the died message names it.
            return encode_message({"type": "died", "worker": worker,
                                   "phase": msg["phase"],
                                   "shard": msg["shard"],
                                   "attempt": msg["attempt"],
                                   "reason": str(exc)})
        return encode_message(result)

    def close(self) -> None:
        self._pending.clear()
        for held in self._held:
            held.clear()


class ProcessTransport:
    """Real worker processes behind per-worker task queues."""

    #: Exit code of an injected hard kill (``os._exit`` in the worker).
    KILL_EXIT_CODE = 17

    def __init__(self, workers: int = 2) -> None:
        import multiprocessing as mp
        self.n_workers = positive_int(workers, "workers")
        self._mp = mp
        self._result_q = mp.Queue()
        self._task_qs = [mp.Queue() for _ in range(self.n_workers)]
        self._procs = [self._spawn(w) for w in range(self.n_workers)]

    def _spawn(self, worker: int):
        proc = self._mp.Process(target=worker_main,
                                args=(worker, self._task_qs[worker],
                                      self._result_q), daemon=True)
        proc.start()
        return proc

    def send(self, worker: int, raw: bytes) -> None:
        if not 0 <= worker < self.n_workers:
            raise ConfigurationError(
                f"no such worker {worker} (have {self.n_workers})")
        self._task_qs[worker].put(raw)

    def recv(self, deadline: float | None = None) -> bytes:
        """Next result/died message; respawns any worker found dead.

        ``deadline`` is an absolute ``time.monotonic()`` bound; ``None``
        means 120 s from now.  A quiet transport past the deadline raises
        :class:`DistributedError` rather than hanging the coordinator.
        """
        if deadline is None:
            deadline = time.monotonic() + 120.0
        while True:
            try:
                raw = self._result_q.get(timeout=0.05)
            except queue_mod.Empty:
                raw = None
            if raw is not None:
                msg = decode_message(raw)
                if msg["type"] == "died":
                    # The worker announced its own death (a reported
                    # exception): its process is gone too — replace it
                    # before the coordinator resubmits anything.
                    self._replace(msg["worker"])
                return raw
            for worker, proc in enumerate(self._procs):
                if not proc.is_alive():
                    code = proc.exitcode
                    self._replace(worker)
                    return encode_message(
                        {"type": "died", "worker": worker,
                         "reason": f"worker process exited with code {code}"})
            if time.monotonic() > deadline:
                raise DistributedError(
                    "no worker produced a result before the deadline")

    def _replace(self, worker: int) -> None:
        proc = self._procs[worker]
        if proc.is_alive():  # polite 'died': give the exit a moment
            proc.join(timeout=5.0)
        stale = self._task_qs[worker]
        stale.close()
        stale.cancel_join_thread()
        self._task_qs[worker] = self._mp.Queue()
        self._procs[worker] = self._spawn(worker)

    def close(self) -> None:
        for worker in range(self.n_workers):
            try:
                self._task_qs[worker].put(encode_message({"type": "shutdown"}))
            except (OSError, ValueError):  # pragma: no cover - teardown race
                pass
        for proc in self._procs:
            proc.join(timeout=10.0)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
        for q in (*self._task_qs, self._result_q):
            q.close()
            # Unread leftovers (e.g. results queued after an abort) must not
            # block interpreter exit on the feeder thread.
            q.cancel_join_thread()


def make_transport(name: str, workers: int | None):
    """Transport factory used by the coordinator (``inline``/``process``);
    ``workers=None`` picks the transport's default pool size."""
    if name == "inline":
        return InlineTransport(1 if workers is None else workers)
    if name == "process":
        return ProcessTransport(2 if workers is None else workers)
    raise ConfigurationError(
        f"unknown transport {name!r}; known: inline, process")
