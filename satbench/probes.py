"""Layer probes: timed wrappers installed around the calls into each layer.

The benchmark measures end-to-end metrics with no probes installed.  For a
``--trace 1`` run, :func:`install` replaces the entry point of every layer
with a thin wrapper that records a span (its duration and the part of it
covered by nested spans), so each layer's *self time* can
be attributed.  Nothing in the program is edited: the wrappers live here and
are removed again by :meth:`Probes.uninstall`.

Layers, by the module that owns them:

==========  ==================================================================
plan        ``Backend.plan`` (configuration validation) and
            ``WavefrontEngine.plan`` (chunked wavefront schedule, cached)
prepare     ``prepare_input`` — cast to the accumulator dtype, zero-pad to
            whole tiles
kernel      the tile-chunk kernels (``KernelSpec.run``)
output      ``finalize_output`` — crop the padded result, ``out=`` copy
detect      ``IncrementalSAT.advance`` self time — frame cast, difference
            and dirty-tile mask
repair      ``IncrementalSAT._repair_recompute`` self time (float frames:
            dirty closure, diagonal ordering) and ``_repair_rect`` (integer
            frames: delta quadrant and carry-plane updates)
codec       distsat ``encode_message`` / ``decode_message`` (both sides)
checkpoint  distsat ``CheckpointStore`` manifest and carry-file writes
stitch      distsat worker ``handle_task`` self time — column-sum reduce,
            carry stitch, checksums
==========  ==================================================================
"""

from __future__ import annotations

import dataclasses
import functools
import time
from collections import defaultdict

#: Every layer a span can be attributed to (see the module docstring).
LAYERS = ("plan", "prepare", "kernel", "output", "detect", "repair", "codec",
          "checkpoint", "stitch")


class Recorder:
    """Accumulates span self times per layer.

    A span's self time is its duration minus the durations of the spans it
    directly encloses.  Every engine the benchmark builds runs one worker,
    so every span runs on the thread that drives the benchmark, nests
    strictly, and the self times partition the wall time of its operations.
    """

    def __init__(self) -> None:
        #: Time covered by child spans, one entry per open span.
        self._stack: list[float] = []
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        #: Spans are recorded only while set (during timed operations).
        self.enabled = False

    def reset(self) -> None:
        self.self_time.clear()
        self.calls.clear()
        self.counters.clear()

    def count(self, name: str, value: float) -> None:
        if self.enabled:
            self.counters[name] += value

    def call(self, layer: str, fn, args, kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        stack = self._stack
        stack.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - t0
            child = stack.pop()
            if stack:
                stack[-1] += dur
            self.self_time[layer] += dur - child
            self.calls[layer] += 1


def _span(rec: Recorder, layer: str, fn):
    """``fn`` recording one ``layer`` span per call."""
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return rec.call(layer, fn, args, kwargs)
    return traced


def _encoder(rec: Recorder, encode):
    """``encode_message`` as a codec span that also counts wire bytes."""
    @functools.wraps(encode)
    def traced(msg):
        raw = rec.call("codec", encode, (msg,), {})
        rec.count("wire_bytes", len(raw))
        return raw
    return traced


def _kernel(rec: Recorder, run):
    """A chunk kernel as a kernel span that also counts tiles."""
    @functools.wraps(run)
    def traced(a4, out4, carry, chunk, W):
        rec.count("tiles", chunk.num_tiles)
        return rec.call("kernel", run, (a4, out4, carry, chunk, W), {})
    return traced


class Probes:
    """The installed wrappers; :meth:`uninstall` puts the originals back."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make) -> None:
        """Set ``owner.attr`` (a dict key if ``owner`` is a dict) to
        ``make(original)``."""
        if isinstance(owner, dict):
            original = owner[attr]
            owner[attr] = make(original)
        else:
            # A class attribute is read from the class's own namespace so
            # that restoring it never turns an inherited name into an own.
            original = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            setattr(owner, attr, make(original))
        self._saved.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._saved.clear()


def install(rec: Recorder) -> Probes:
    """Wrap every layer entry point; must run before engines are built
    (incremental engines capture their chunk kernel at construction)."""
    from repro.backend import core as backend_core
    from repro.distsat import checkpoint, coordinator, transport
    from repro.hostexec import engine, incremental, kernels

    probes = Probes()

    def span(owner, attr: str, layer: str) -> None:
        probes.replace(owner, attr, lambda fn: _span(rec, layer, fn))

    span(backend_core.Backend, "plan", "plan")
    span(engine.WavefrontEngine, "plan", "plan")
    span(engine, "prepare_input", "prepare")
    span(engine, "finalize_output", "output")
    span(incremental.IncrementalSAT, "advance", "detect")
    span(incremental.IncrementalSAT, "_repair_recompute", "repair")
    span(incremental.IncrementalSAT, "_repair_rect", "repair")
    for module in (coordinator, transport):
        span(module, "decode_message", "codec")
        probes.replace(module, "encode_message",
                       lambda fn: _encoder(rec, fn))
    span(transport, "handle_task", "stitch")
    for method in ("open_run", "record_attempt", "commit_carry",
                   "mark_applied", "load_carry_before"):
        span(checkpoint.CheckpointStore, method, "checkpoint")
    for name in list(kernels.KERNELS):
        probes.replace(kernels.KERNELS, name, lambda spec: dataclasses.replace(
            spec, run=_kernel(rec, spec.run)))
    return probes
