"""Incremental SAT maintenance: dirty-tile invalidation and carry repair.

The paper's look-back decomposition makes the summed area table *repairable*:
every tile publishes a small set of aggregates (LRS/LCS feeding GRS/GCS/GS,
or the GCP chain), and each published value is a pure function of the tile's
own elements plus its left/up/up-left producers.  When an edit touches only a
few tiles, every aggregate outside the edit's influence region is still
valid, so a service handling video-style or interactive-edit traffic never
needs to recompute the full table — it repairs the *dirty tiles plus the
right/down carry frontier they invalidate*.

:class:`IncrementalSAT` builds one frame's tile-grid state and keeps it
resident between calls (:class:`RetainedState`): the padded working matrix,
the committed SAT, and the kernel's carry planes, all its own, filled by the
same row-run kernels the wavefront engine runs.  Edits arrive as
rectangle writes (:meth:`IncrementalSAT.update`), tile writes
(:meth:`IncrementalSAT.update_tiles`), whole-frame additive deltas
(:meth:`IncrementalSAT.delta`) or successive frames
(:meth:`IncrementalSAT.advance`), and are repaired by one of two strategies:

``delta`` (integer accumulators)
    The SAT is linear in its input, so ``SAT(a + d) = SAT(a) + SAT(d)`` —
    and in a fixed-width integer dtype this identity is *exact* (including
    wrap-around: addition mod 2^k is a commutative ring, so the repaired
    table is bit-identical to a from-scratch recomputation).  ``SAT(d)`` of a
    ``h x w`` dirty rectangle is one small double cumsum plus three
    broadcast adds over the down-right quadrant, and the carry planes take
    the matching row/column/corner prefix deltas.  Cost: one pass over the
    quadrant instead of the full tile algebra over the whole matrix.

``recompute`` (float accumulators, or forced)
    Floating-point addition does not associate, so delta repair would change
    low bits.  Instead the engine re-executes the wavefront row-run kernels
    (:mod:`repro.hostexec.kernels`) over exactly the *closure* of the dirty
    tiles — the down-right staircase ``Q = {(I, J) : some dirty (I₀, J₀) has
    I₀ ≤ I, J₀ ≤ J}`` — one run per tile row, top to bottom: row ``I`` of
    ``Q`` is the suffix ``[J₀(I), tc)``.  Every recomputed tile reads
    either retained (still valid) or freshly recomputed producer values, so
    the repaired table is bit-identical to a full recompute for every dtype.

Both strategies maintain the invariant checked by :func:`verify_state`: after
every edit the resident carry planes equal the Table II oracles of the
current working matrix, and the committed SAT equals a from-scratch
computation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.backend.plan import prepare_input
from repro.errors import ConfigurationError
from repro.hostexec.engine import WavefrontEngine, check_workers
from repro.hostexec.kernels import (DEPS_LEFT_UP, CarryPlanes, Chunk,
                                    KernelSpec, kernel_for)
from repro.primitives.tile import TileGrid
from repro.sat.dtypes import resolve_policy

#: Repair strategies accepted by :class:`IncrementalSAT`.
STRATEGIES = ("auto", "delta", "recompute")


@dataclass
class RetainedState:
    """The resident tile-grid state of an :class:`IncrementalSAT`.

    Everything it needs to *repair* a SAT instead of recomputing it: the
    padded working matrix, the committed (padded) SAT, and the inter-tile
    carry planes — all privately owned, so they stay valid between calls and
    may be edited in place.
    """

    spec: KernelSpec
    grid: TileGrid
    #: Padded working matrix in the accumulator dtype (the current input).
    work: np.ndarray
    #: Padded committed SAT of :attr:`work`.
    out: np.ndarray
    #: Inter-tile carry planes (GRS/GCS/GS family or GRS/GCP).
    carry: CarryPlanes

    @property
    def a4(self) -> np.ndarray:
        """``(tr, W, tc, W)`` tile view of the working matrix."""
        g = self.grid
        return self.work.reshape(g.tile_rows, g.W, g.tile_cols, g.W)

    @property
    def out4(self) -> np.ndarray:
        """``(tr, W, tc, W)`` tile view of the committed SAT."""
        g = self.grid
        return self.out.reshape(g.tile_rows, g.W, g.tile_cols, g.W)

    def run_rows(self, starts: Iterable[tuple[int, int]]) -> None:
        """Run the kernel over tile row ``I`` from tile column ``J0`` to the
        row's end, for each ``(I, J0)`` of ``starts`` in order (rows top to
        bottom)."""
        a4, out4, grid = self.a4, self.out4, self.grid
        for I, J0 in starts:
            self.spec.run(a4, out4, self.carry,
                          Chunk(row=int(I), J0=int(J0), J1=grid.tile_cols),
                          grid.W)

    def planes(self) -> dict[str, np.ndarray]:
        """The carry planes keyed by their role for this kernel's dataflow.

        The GRS/GCS/GS family publishes row sums, column sums and the corner
        scalar; 1R1W-SKSS publishes row sums and the GCP bottom row instead
        (``2R1W`` additionally carries its column-accumulated scalar chain).
        """
        if self.spec.deps == DEPS_LEFT_UP:
            return {"GRS": self.carry.vec_row, "GCP": self.carry.vec_col}
        planes = {"GRS": self.carry.vec_row, "GCS": self.carry.vec_col,
                  "GS": self.carry.scal}
        if self.spec.name == "2R1W":
            planes["GS-col"] = self.carry.scal2
        return planes


@dataclass
class RepairStats:
    """What the last repair did (and the running totals).

    ``repaired_tiles`` counts tiles whose committed SAT block was touched —
    for the ``delta`` strategy that is the whole down-right quadrant (the SAT
    value itself changes there), for ``recompute`` the dirty-closure
    staircase.  ``dirty_tiles`` counts tiles whose *input* changed.
    """

    strategy: str = "none"
    dirty_tiles: int = 0
    repaired_tiles: int = 0
    total_tiles: int = 0
    edits: int = 0
    full_rebuilds: int = 0
    tiles_repaired_total: int = 0
    tiles_if_recomputed_total: int = 0

    @property
    def repaired_fraction(self) -> float:
        """Repaired share of the grid in the last repair (0 for a no-op)."""
        return self.repaired_tiles / self.total_tiles if self.total_tiles \
            else 0.0

    @property
    def savings(self) -> float:
        """Lifetime fraction of tile work avoided vs full recomputes."""
        if not self.tiles_if_recomputed_total:
            return 0.0
        return 1.0 - (self.tiles_repaired_total
                      / self.tiles_if_recomputed_total)


class IncrementalSAT:
    """A resident SAT that absorbs edits by repairing only what they dirty.

    Parameters
    ----------
    a:
        The initial 2-D frame (any rectangle; ragged tile edges follow the
        zero-padding convention).
    algorithm:
        Tile-based algorithm whose dataflow maintains the carries (any of the
        wavefront engine's five; default the paper's 1R1W-SKSS-LB).
    tile_width, dtype_policy:
        As in :func:`~repro.sat.registry.compute_sat`.
    workers:
        ``None`` or ``1``: repairs run on the caller's thread; any other
        count raises :class:`~repro.errors.ConfigurationError`.
    strategy:
        ``"auto"`` (default) picks exact ``delta`` repair for integer
        accumulator dtypes and bit-faithful ``recompute`` for floats;
        ``"recompute"`` forces the chunk-kernel path; ``"delta"`` is only
        accepted for integer accumulators (float delta repair would not be
        bit-identical to a from-scratch computation).
    """

    def __init__(self, a: np.ndarray, *, algorithm: str = "1R1W-SKSS-LB",
                 tile_width: int = 32, dtype_policy=None,
                 workers: int | None = None,
                 strategy: str = "auto") -> None:
        if strategy not in STRATEGIES:
            raise ConfigurationError(
                f"unknown repair strategy {strategy!r}; known: {STRATEGIES}")
        check_workers(workers)
        self._spec = kernel_for(algorithm)
        self.algorithm = self._spec.name
        self.tile_width = tile_width
        self._policy = resolve_policy(dtype_policy)
        self._requested_strategy = strategy
        self._state: RetainedState | None = None
        self.stats = RepairStats()
        self._build(a)

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Release the resident state."""
        self._state = None

    def __enter__(self) -> "IncrementalSAT":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- introspection -----------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def dtype(self) -> np.dtype:
        """The accumulator dtype the SAT is maintained in."""
        return self._required_state().work.dtype

    @property
    def strategy(self) -> str:
        """The resolved repair strategy (``delta`` or ``recompute``)."""
        return self._strategy

    @property
    def grid(self):
        return self._required_state().grid

    @property
    def sat(self) -> np.ndarray:
        """The current SAT (read-only view of the resident table, cropped)."""
        view = self._required_state().out[:self.rows, :self.cols]
        view.setflags(write=False)
        return view

    @property
    def input(self) -> np.ndarray:
        """The current input frame in the accumulator dtype (read-only view)."""
        view = self._required_state().work[:self.rows, :self.cols]
        view.setflags(write=False)
        return view

    def carry_planes(self) -> dict[str, np.ndarray]:
        """The resident carry planes, keyed by role (GRS/GCS/GS or GRS/GCP)."""
        return self._required_state().planes()

    def _required_state(self) -> RetainedState:
        if self._state is None:
            raise ConfigurationError("incremental engine is closed")
        return self._state

    # -- full (re)builds ---------------------------------------------------------

    def rebuild(self, a: np.ndarray | None = None) -> np.ndarray:
        """Recompute everything from scratch (a new frame, or ``None`` to
        rebuild from the current input — useful to re-verify the state)."""
        resident = self._required_state().work[:self.rows, :self.cols]
        return self._build(resident if a is None else a)

    def _build(self, a) -> np.ndarray:
        """Build the resident state of frame ``a``: its padded working
        matrix, table and carry planes, each tile row as one run."""
        a = np.asarray(a)
        if a.ndim != 2:
            raise ConfigurationError(
                f"IncrementalSAT expects a 2-D matrix, got shape {a.shape}")
        self.rows, self.cols = a.shape
        acc = self._policy.accumulator(a.dtype)
        if self._requested_strategy == "delta" \
                and not np.issubdtype(acc, np.integer):
            raise ConfigurationError(
                f"strategy='delta' requires an integer accumulator dtype "
                f"(got {acc.name}); float repair must recompute to stay "
                "bit-identical")
        self._strategy = self._requested_strategy
        if self._strategy == "auto":
            self._strategy = "delta" if np.issubdtype(acc, np.integer) \
                else "recompute"
        grid = TileGrid(rows=self.rows, cols=self.cols, W=self.tile_width)
        work, _ = prepare_input(a, acc_dtype=acc, grid=grid, force_copy=True)
        state = RetainedState(
            spec=self._spec, grid=grid, work=work, out=np.empty_like(work),
            carry=CarryPlanes(tr=grid.tile_rows, tc=grid.tile_cols,
                              W=grid.W, dtype=acc))
        state.run_rows((I, 0) for I in range(grid.tile_rows))
        self._state = state
        self.stats.full_rebuilds += 1
        self.stats.total_tiles = grid.num_tiles
        self._record(grid.num_tiles, grid.num_tiles, "rebuild")
        return self.sat

    def _record(self, dirty: int, repaired: int, strategy: str) -> None:
        s = self.stats
        s.strategy = strategy
        s.dirty_tiles = dirty
        s.repaired_tiles = repaired
        s.edits += 1
        s.tiles_repaired_total += repaired
        s.tiles_if_recomputed_total += s.total_tiles

    # -- edits -------------------------------------------------------------------

    def update(self, top: int, left: int, values: np.ndarray) -> np.ndarray:
        """Overwrite the rectangle at ``(top, left)`` and repair the SAT.

        ``values`` may be any 2-D block (cast to the accumulator dtype) that
        lies inside the frame.  Returns the repaired SAT view.
        """
        state = self._required_state()
        values = np.asarray(values)
        if values.ndim != 2:
            raise ConfigurationError(
                f"update expects a 2-D block, got shape {values.shape}")
        h, w = values.shape
        if not (0 <= top and 0 <= left and top + h <= self.rows
                and left + w <= self.cols):
            raise ConfigurationError(
                f"edit block {h}x{w} at ({top}, {left}) exceeds the "
                f"{self.rows}x{self.cols} frame")
        if h == 0 or w == 0:
            return self.sat
        if self._strategy == "delta":
            d = values.astype(state.work.dtype, copy=False) \
                - state.work[top:top + h, left:left + w]
            self._repair_rect(top, left, d)
        else:
            state.work[top:top + h, left:left + w] = \
                values.astype(state.work.dtype, copy=False)
            grid = state.grid
            W = grid.W
            mask = np.zeros((grid.tile_rows, grid.tile_cols), dtype=bool)
            mask[top // W:(top + h - 1) // W + 1,
                 left // W:(left + w - 1) // W + 1] = True
            self._repair_recompute(mask)
        return self.sat

    def update_tiles(self, edits: Iterable[tuple[int, int, np.ndarray]]
                     ) -> np.ndarray:
        """Overwrite whole tiles and repair once for the combined dirty set.

        ``edits`` yields ``(I, J, values)`` triples; ``values`` covers the
        tile's *valid* extent (``tile_height(I) x tile_width_at(J)``, which
        is ``W x W`` away from ragged edges).  Duplicate tiles are allowed —
        the last write wins.  A k-tile edit costs one combined repair of the
        union frontier, not k repairs.
        """
        state = self._required_state()
        grid = state.grid
        W = grid.W
        dedup: dict[tuple[int, int], np.ndarray] = {}
        for I, J, values in edits:
            grid.check_tile(I, J)
            values = np.asarray(values)
            want = (grid.tile_height(I), grid.tile_width_at(J))
            if values.shape != want:
                raise ConfigurationError(
                    f"tile ({I}, {J}) edit must have the tile's valid shape "
                    f"{want}, got {values.shape}")
            dedup[(int(I), int(J))] = values
        items = [(I, J, values) for (I, J), values in dedup.items()]
        if not items:
            return self.sat
        if self._strategy == "delta":
            # Combine all tile deltas into one bounding-rectangle delta so a
            # k-tile edit pays one quadrant repair.
            r0 = min(W * I for I, _, _ in items)
            c0 = min(W * J for _, J, _ in items)
            r1 = max(W * I + v.shape[0] for I, _, v in items)
            c1 = max(W * J + v.shape[1] for _, J, v in items)
            d = np.zeros((r1 - r0, c1 - c0), dtype=state.work.dtype)
            for I, J, values in items:
                rr, cc = W * I - r0, W * J - c0
                block = d[rr:rr + values.shape[0], cc:cc + values.shape[1]]
                block += values.astype(state.work.dtype, copy=False)
                block -= state.work[W * I:W * I + values.shape[0],
                                    W * J:W * J + values.shape[1]]
            self._repair_rect(r0, c0, d, dirty_tiles=len(items))
        else:
            # Write each tile's values directly: reconstructing them as
            # work += (values - work) would perturb float low bits, breaking
            # the overwrite semantics and bit-identity to a from-scratch SAT
            # of the intended input.
            mask = np.zeros((grid.tile_rows, grid.tile_cols), dtype=bool)
            for I, J, values in items:
                state.work[W * I:W * I + values.shape[0],
                           W * J:W * J + values.shape[1]] = \
                    values.astype(state.work.dtype, copy=False)
                mask[I, J] = True
            self._repair_recompute(mask)
        return self.sat

    def delta(self, d: np.ndarray) -> np.ndarray:
        """Whole-frame additive fast path: apply ``a += d`` and repair.

        ``d`` is compared with zero once, in the accumulator dtype and
        without a cast copy, and reduced straight to the dirty-tile mask.
        Only the dirty tiles are read again: the ``delta`` strategy casts
        their tile-aligned bounding rectangle and repairs its quadrant;
        ``recompute`` adds ``d`` into each dirty tile and repairs their
        exact closure.  An all-zero delta is a no-op.
        """
        state = self._required_state()
        d = self._frame_shaped(d, "frame delta")
        acc = state.work.dtype
        mask = self._tile_any(np.not_equal(
            d, 0, signature=(acc, acc, np.bool_), casting="unsafe"))
        if not mask.any():
            self._record(0, 0, self._strategy)
            return self.sat
        if self._strategy == "delta":
            rows, cols = self._dirty_span(mask)
            self._repair_rect(rows.start, cols.start,
                              d[rows, cols].astype(acc, copy=False),
                              dirty_tiles=int(mask.sum()))
        else:
            resident = state.work[:self.rows, :self.cols]
            for tile in self._dirty_slices(mask):
                resident[tile] += d[tile].astype(acc, copy=False)
            self._repair_recompute(mask)
        return self.sat

    def advance(self, frame: np.ndarray) -> np.ndarray:
        """Replace the whole input with ``frame``, repairing only what moved.

        The video entry point: successive frames usually differ on a small
        support, and the repair cost scales with that support's frontier,
        not with the frame.  Detection is one pass: :meth:`changed_tiles`
        compares the frame with the resident input in the accumulator
        dtype, without a cast copy.  After it, only the dirty tiles are
        read again:

        * integer accumulators build the exact delta over the tile-aligned
          bounding rectangle of the dirty tiles and repair its quadrant
          (exact, wrap-around included);
        * float accumulators write the dirty tiles of the frame into the
          resident input and recompute their closure.  The subtract-then-
          re-add round trip ``work += (frame - work)`` would perturb low
          bits (and with cancellation, e.g. ``work=1e16, frame=1.0``, whole
          bits), so the frame is assigned, never reconstructed.

        Either way the frame becomes the resident input bit-exactly where
        it differs; a tile whose elements all compare equal is left alone
        (so a sign-of-zero flip alone, ``-0.0 == 0.0``, changes nothing,
        and a tile holding a NaN, which never equals itself, is rewritten
        and recomputed on every frame).
        """
        state = self._required_state()
        frame = np.asarray(frame)
        mask = self.changed_tiles(frame)
        if not mask.any():
            self._record(0, 0, self._strategy)
            return self.sat
        resident = state.work[:self.rows, :self.cols]
        if self._strategy == "delta":
            rows, cols = self._dirty_span(mask)
            self._repair_rect(rows.start, cols.start, np.subtract(
                frame[rows, cols], resident[rows, cols],
                dtype=resident.dtype, casting="unsafe"),
                dirty_tiles=int(mask.sum()))
        else:
            for tile in self._dirty_slices(mask):
                resident[tile] = frame[tile]
            self._repair_recompute(mask)
        return self.sat

    # -- dirty-tile detection ----------------------------------------------------

    def changed_tiles(self, frame: np.ndarray) -> np.ndarray:
        """The ``(tile_rows, tile_cols)`` mask of tiles where ``frame``
        differs from the resident input.

        An element differs when ``frame.astype(acc) != input`` in the
        accumulator dtype ``acc``; the comparison casts element by element
        (the same cast as ``astype``, unsafe ones included) instead of
        materialising a cast copy, so it is one read of each operand.
        """
        state = self._required_state()
        frame = self._frame_shaped(frame, "frame")
        acc = state.work.dtype
        return self._tile_any(np.not_equal(
            frame, state.work[:self.rows, :self.cols],
            signature=(acc, acc, np.bool_), casting="unsafe"))

    def _frame_shaped(self, a, what: str) -> np.ndarray:
        """``a`` as an array once it has the frame's shape."""
        a = np.asarray(a)
        if a.shape != self.shape:
            raise ConfigurationError(
                f"{what} must have the frame shape {self.shape}, "
                f"got {a.shape}")
        return a

    def _tile_any(self, changed: np.ndarray) -> np.ndarray:
        """Collapse an element-level changed mask to the dirty-tile mask.

        Each tile row's ``W`` element rows are OR-ed through a
        ``(tile_rows, W, cols)`` view, then each tile's ``W`` columns; only
        a ragged frame pays a zero-padded copy first.
        """
        grid = self._required_state().grid
        W, padded = grid.W, (grid.padded_rows, grid.padded_cols)
        if changed.shape != padded:
            pad = np.zeros(padded, dtype=bool)
            pad[:self.rows, :self.cols] = changed
            changed = pad
        return changed.reshape(grid.tile_rows, W, -1).any(axis=1) \
            .reshape(grid.tile_rows, grid.tile_cols, W).any(axis=2)

    def _dirty_span(self, mask: np.ndarray) -> tuple[slice, slice]:
        """Element slices of the dirty tiles' bounding rectangle (cropped to
        the frame at ragged edges)."""
        W = self._required_state().grid.W
        I = np.flatnonzero(mask.any(axis=1))
        J = np.flatnonzero(mask.any(axis=0))
        return (slice(W * int(I[0]), min(W * (int(I[-1]) + 1), self.rows)),
                slice(W * int(J[0]), min(W * (int(J[-1]) + 1), self.cols)))

    def _dirty_slices(self, mask: np.ndarray):
        """Element slices of each dirty tile (ragged edges crop themselves:
        they index frame-shaped arrays)."""
        W = self._required_state().grid.W
        for I, J in zip(*np.nonzero(mask)):
            yield np.s_[W * I:W * I + W, W * J:W * J + W]

    # -- repair strategies -------------------------------------------------------

    def _repair_rect(self, r0: int, c0: int, d: np.ndarray,
                     dirty_tiles: int | None = None) -> None:
        """Exact additive repair (integer accumulators only).

        ``d`` is the not-yet-applied delta of the rectangle at ``(r0, c0)``.
        ``SAT(a + d) - SAT(a) = SAT(d)`` is constant along rows right of the
        rectangle and along columns below it, so the committed table takes
        one small double cumsum plus three broadcast adds, and each carry
        plane takes the matching prefix deltas on its dirty strips.
        ``dirty_tiles`` is the number of tiles whose input changed (default:
        every tile the rectangle overlaps).
        """
        state = self._required_state()
        grid, W = state.grid, state.grid.W
        work, out, carry = state.work, state.out, state.carry
        h, w = d.shape
        r1, c1 = r0 + h - 1, c0 + w - 1
        work[r0:r1 + 1, c0:c1 + 1] += d

        # Committed SAT: the quadrant update.
        A = d.cumsum(axis=0).cumsum(axis=1)
        out[r0:r1 + 1, c0:c1 + 1] += A
        out[r0:r1 + 1, c1 + 1:] += A[:, -1:]
        out[r1 + 1:, c0:c1 + 1] += A[-1:, :]
        out[r1 + 1:, c1 + 1:] += A[-1, -1]

        # Tile-aligned embedding of the delta for the carry-plane prefixes.
        I0, I1 = r0 // W, r1 // W
        J0, J1 = c0 // W, c1 // W
        tI, tJ = I1 - I0 + 1, J1 - J0 + 1
        P = np.zeros((tI * W, tJ * W), dtype=work.dtype)
        P[r0 - I0 * W:r0 - I0 * W + h, c0 - J0 * W:c0 - J0 * W + w] = d
        # Per-row prefixes at each tile's right edge -> GRS deltas.
        dgrs = P.cumsum(axis=1)[:, W - 1::W].reshape(tI, W, tJ) \
            .transpose(0, 2, 1)                       # (tI, tJ, W)
        grs = carry.vec_row
        grs[I0:I1 + 1, J0:J1 + 1] += dgrs
        grs[I0:I1 + 1, J1 + 1:] += dgrs[:, -1][:, None, :]
        # Per-tile delta totals -> GS (and 2R1W column-chain) deltas.
        ts = P.reshape(tI, W, tJ, W).sum(axis=(1, 3))
        cs = ts.cumsum(axis=0).cumsum(axis=1)
        if self._spec.deps == DEPS_LEFT_UP:
            # 1R1W-SKSS: vec_col holds GCP — the bottom row of each tile's
            # GSAT, which the quadrant update above just repaired; refresh it
            # from the committed table.
            out4 = state.out4
            carry.vec_col[I0:, J0:] = out4[I0:, W - 1, J0:, :]
        else:
            dgcs = P.cumsum(axis=0)[W - 1::W, :].reshape(tI, tJ, W)
            gcs = carry.vec_col
            gcs[I0:I1 + 1, J0:J1 + 1] += dgcs
            gcs[I1 + 1:, J0:J1 + 1] += dgcs[-1][None, :, :]
            gs = carry.scal
            gs[I0:I1 + 1, J0:J1 + 1] += cs
            gs[I0:I1 + 1, J1 + 1:] += cs[:, -1:]
            gs[I1 + 1:, J0:J1 + 1] += cs[-1:, :]
            gs[I1 + 1:, J1 + 1:] += cs[-1, -1]
            if self._spec.name == "2R1W":
                dcol = ts.cumsum(axis=0)
                carry.scal2[I0:I1 + 1, J0:J1 + 1] += dcol
                carry.scal2[I1 + 1:, J0:J1 + 1] += dcol[-1:, :]
        repaired = (grid.tile_rows - I0) * (grid.tile_cols - J0)
        self._record(tI * tJ if dirty_tiles is None else dirty_tiles,
                     repaired, "delta")

    def _repair_recompute(self, dirty_mask: np.ndarray) -> None:
        """Bit-faithful repair: re-run the row-run kernels on the dirty closure.

        ``dirty_mask`` marks tiles whose input has already been written into
        the working matrix.  Each tile row of the closure (down-right
        staircase) is a suffix ``[J0(I), tc)``, executed as one run, rows top
        to bottom — each recomputed tile reads either retained or
        just-recomputed producer values, so every published quantity comes
        out of the exact same floating-point operation sequence as a full
        recompute.
        """
        closure = np.logical_or.accumulate(
            np.logical_or.accumulate(dirty_mask, axis=0), axis=1)
        starts = closure.argmax(axis=1)
        self._required_state().run_rows(
            (I, starts[I]) for I in np.flatnonzero(closure[:, -1]))
        self._record(int(dirty_mask.sum()), int(closure.sum()), "recompute")


# -- state verification (used by tests and ``repro sanitize``) -----------------


def verify_state(inc: IncrementalSAT, *, check_sat: bool = True) -> list[str]:
    """Check the resident state against the Table II oracles.

    Returns a list of human-readable findings (empty = clean):

    * every carry plane must equal its region-sum oracle on the *current*
      working matrix (exact for integer accumulators; floats are held to the
      proven rounding budget of :mod:`repro.analysis.tolerances` — the
      oracles sum in a different order);
    * with ``check_sat=True``, the committed table must be **bit-identical**
      to a from-scratch wavefront computation of the current input.
    """
    from repro.primitives.tile import (global_col_prefixes, global_col_sums,
                                       global_row_sums, global_sum)

    state = inc._required_state()
    grid, work = state.grid, state.work
    exact = np.issubdtype(work.dtype, np.integer)
    if not exact:
        # Derived budget: the planes were accumulated by the algorithm's
        # dataflow and the oracles re-reduce the same regions in a different
        # order, so both legs carry the algorithm-depth rounding bound from
        # the static error model (a fixed 1e-6 would flag healthy float32
        # states at larger sizes).  Every addend of every plane entry flows
        # through |work|, so gamma times the total absolute mass bounds any
        # legitimate discrepancy elementwise.
        from repro.analysis.tolerances import derived_tolerance

        tol = derived_tolerance(inc.algorithm,
                                (grid.padded_rows, grid.padded_cols),
                                work.dtype, tile_width=inc.tile_width,
                                oracle="reference")
        budget = tol.gamma * max(1.0, float(np.sum(np.abs(
            np.asarray(work, dtype=np.float64)))))

    def close(got, want) -> bool:
        if exact:
            return np.array_equal(got, want)
        diff = np.abs(np.asarray(got, dtype=np.float64)
                      - np.asarray(want, dtype=np.float64))
        return bool(np.all(diff <= budget))

    findings: list[str] = []
    planes = state.planes()
    for I in range(grid.tile_rows):
        for J in range(grid.tile_cols):
            checks = [("GRS", planes["GRS"][I, J],
                       global_row_sums(work, grid, I, J))]
            if "GCP" in planes:
                checks.append(("GCP", planes["GCP"][I, J],
                               global_col_prefixes(work, grid, I, J)))
            else:
                checks.append(("GCS", planes["GCS"][I, J],
                               global_col_sums(work, grid, I, J)))
                checks.append(("GS", planes["GS"][I, J],
                               global_sum(work, grid, I, J)))
            for name, got, want in checks:
                if not close(got, want):
                    findings.append(
                        f"carry-plane {name} stale at tile ({I}, {J})")
    if check_sat:
        fresh = WavefrontEngine().compute(work, algorithm=inc.algorithm,
                                          tile_width=inc.tile_width,
                                          dtype_policy=work.dtype)
        if not np.array_equal(state.out, fresh):
            bad = int(np.argmax(state.out != fresh))
            findings.append(
                f"committed SAT diverges from full recompute "
                f"(first mismatch at flat index {bad})")
    return findings


def sanitize_incremental(*, n: int = 96, tile_width: int = 32,
                         edits: int = 6, seed: int = 0) -> list[str]:
    """State-retention smoke for ``repro sanitize``: run a deterministic edit
    sequence under both repair strategies and both carry families, verifying
    the plane invariants and full-recompute bit-identity after every edit."""
    findings: list[str] = []
    rng = np.random.default_rng(seed)
    base = rng.integers(0, 100, size=(n, n - tile_width // 2)).astype(np.int64)
    for algorithm in ("1R1W-SKSS-LB", "1R1W-SKSS"):
        for strategy in ("delta", "recompute"):
            with IncrementalSAT(base, algorithm=algorithm,
                                tile_width=tile_width,
                                strategy=strategy) as inc:
                for e in range(edits):
                    h = int(rng.integers(1, n // 2))
                    w = int(rng.integers(1, n // 2))
                    top = int(rng.integers(0, inc.rows - h + 1))
                    left = int(rng.integers(0, inc.cols - w + 1))
                    inc.update(top, left,
                               rng.integers(-50, 50, size=(h, w)))
                    for f in verify_state(inc):
                        findings.append(
                            f"{algorithm}/{strategy} edit {e}: {f}")
    return findings


# -- repair benchmark (used by the CLI and ``benchmarks/bench_incremental``) ---


def median_iqr(times: Sequence[float]) -> dict:
    """Median and interquartile range of wall times (seconds)."""
    q1, median, q3 = np.percentile(times, [25, 50, 75])
    return {"median_s": float(median), "iqr_s": float(q3 - q1)}


def repair_benchmark(n: int = 1024, *, dirty_frac: float = 0.1,
                     edits: int = 8, tile_width: int = 32,
                     algorithm: str = "1R1W-SKSS-LB", dtype: str = "int32",
                     strategy: str = "auto", seed: int = 0, repeats: int = 3,
                     positions: Sequence[tuple[float, float]] | None = None,
                     ) -> dict:
    """Time incremental repair against full wavefront recompute.

    Each edit overwrites a square patch of ``dirty_frac`` of the frame area
    at a position cycling through ``positions`` (fractions of the free range;
    default spans corners, edges and the centre, so the reported mean covers
    best and worst frontier placements).  Repairs are verified bit-identical
    to a serial from-scratch recompute on the final state.

    ``full_recompute_s`` is the best of ``repeats`` full recomputes and
    ``speedup_mean`` divides it by the mean repair; ``full_recompute`` and
    ``repair`` give the median and interquartile range of the same samples
    (for ``repair`` the spread is over the edit placements).
    """
    if not 0.0 < dirty_frac <= 1.0:
        raise ConfigurationError("dirty_frac must be in (0, 1]")
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 100, size=(n, n)).astype(np.dtype(dtype))
    side = max(1, int(round(n * np.sqrt(dirty_frac))))
    if positions is None:
        positions = ((0.0, 0.0), (1.0, 1.0), (0.5, 0.5), (0.0, 1.0),
                     (1.0, 0.0), (0.25, 0.75), (0.75, 0.25), (0.5, 0.0))
    patches = []
    for e in range(edits):
        fy, fx = positions[e % len(positions)]
        top = int(round(fy * (n - side)))
        left = int(round(fx * (n - side)))
        patches.append((top, left,
                        rng.integers(0, 100, size=(side, side))
                        .astype(a.dtype)))

    inc = IncrementalSAT(a, algorithm=algorithm, tile_width=tile_width,
                         strategy=strategy)
    # Full-recompute baseline on a wavefront engine.
    acc = inc.dtype
    engine = WavefrontEngine()
    t_full = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        engine.compute(a, algorithm=inc.algorithm, tile_width=tile_width,
                       dtype_policy=acc)
        t_full.append(time.perf_counter() - t0)
    full_s = min(t_full)

    per_edit = []
    repaired_fracs = []
    for top, left, values in patches:
        t0 = time.perf_counter()
        inc.update(top, left, values)
        per_edit.append(time.perf_counter() - t0)
        repaired_fracs.append(inc.stats.repaired_fraction)

    # Differential gate: the final repaired table vs a from-scratch compute.
    final = a.copy()
    for top, left, values in patches:
        final[top:top + side, left:left + side] = values
    from repro.sat.registry import get_algorithm
    ok = bool(np.array_equal(
        inc.sat, get_algorithm(algorithm, tile_width=tile_width)
        .run_host(final, dtype_policy=acc)))
    result = {
        "n": n, "tile_width": tile_width, "algorithm": inc.algorithm,
        "dtype": str(np.dtype(dtype)), "accumulator": acc.name,
        "strategy": inc.strategy, "dirty_frac": dirty_frac,
        "patch_side": side, "edits": edits,
        "full_recompute_s": full_s,
        "repair_mean_s": float(np.mean(per_edit)),
        "repair_worst_s": float(np.max(per_edit)),
        "repair_best_s": float(np.min(per_edit)),
        "speedup_mean": full_s / float(np.mean(per_edit)),
        "speedup_worst_case": full_s / float(np.max(per_edit)),
        "full_recompute": median_iqr(t_full),
        "repair": median_iqr(per_edit),
        "repaired_tile_fraction_mean": float(np.mean(repaired_fracs)),
        "bit_identical": ok,
    }
    inc.close()
    return result
