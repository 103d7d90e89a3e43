"""Batched chunk kernels: the tile algebra of each algorithm over tile stacks.

Each kernel executes one :class:`~repro.hostexec.plan.Chunk` — a run of tiles
on a single anti-diagonal — for its algorithm, producing exactly the same
published quantities (and in exactly the same floating-point order) as that
algorithm's serial ``_run_host`` loop, but over a ``(k, W, W)`` *stack* of
tiles in a handful of NumPy calls instead of ``k`` trips through the
interpreter.  That batching is where the engine's single-core speedup comes
from; bit-identity is what lets the wavefront engine replace the serial path
under the tests.

Bit-identity holds because every per-tile operation maps to an elementwise or
per-lane stacked operation with an unchanged reduction order: ``cumsum`` is a
strictly sequential recurrence per lane on either shape, and NumPy's pairwise
``sum`` reduction tree depends only on the reduced length ``W``, not on the
strides or the number of stacked tiles.  The equivalence tests assert
``np.array_equal`` (not ``allclose``) against the serial path for every
algorithm.

Matrix access is via ``(t, W, t, W)`` reshaped views: gathering a chunk's
tiles is one advanced-indexing expression ``a4[Is, :, Js, :]`` (a fresh
C-contiguous ``(k, W, W)`` stack) and scattering the finished GSAT tiles back
is the symmetric assignment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.errors import ConfigurationError
from repro.hostexec.plan import DEPS_LEFT_UP, DEPS_LEFT_UP_CORNER, Chunk
from repro.primitives.tile import TileGrid


@dataclass
class CarryPlanes:
    """Preallocated inter-tile carry planes, reused across repeated calls.

    ``vec_row``/``vec_col`` hold the GRS / GCS planes (``vec_col`` doubles as
    the GCP plane for 1R1W-SKSS); ``scal`` holds GS and ``scal2`` the 2R1W
    column-carry of the tile-sum SAT.  Planes are allocated in the run's
    accumulator dtype so carries never round-trip through a wider type.
    Planes are never cleared between calls: the wavefront order guarantees
    every gathered entry was written earlier in the *same* call, and border
    gathers synthesise zeros instead of reading the planes.
    """

    tr: int
    tc: int
    W: int
    dtype: np.dtype = np.dtype(np.float64)
    vec_row: np.ndarray = field(init=False)
    vec_col: np.ndarray = field(init=False)
    scal: np.ndarray = field(init=False)
    scal2: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.vec_row = np.empty((self.tr, self.tc, self.W), dtype=self.dtype)
        self.vec_col = np.empty((self.tr, self.tc, self.W), dtype=self.dtype)
        self.scal = np.empty((self.tr, self.tc), dtype=self.dtype)
        self.scal2 = np.empty((self.tr, self.tc), dtype=self.dtype)


def _gather_vec(plane: np.ndarray, Is: np.ndarray, Js: np.ndarray,
                W: int) -> np.ndarray:
    """Stack ``plane[I, J]`` vectors, zeros where an index is out of range."""
    m = (Is >= 0) & (Js >= 0)
    if m.all():
        return plane[Is, Js]
    out = np.zeros((len(Is), W), dtype=plane.dtype)
    if m.any():
        out[m] = plane[Is[m], Js[m]]
    return out


def _gather_scal(plane: np.ndarray, Is: np.ndarray,
                 Js: np.ndarray) -> np.ndarray:
    m = (Is >= 0) & (Js >= 0)
    if m.all():
        return plane[Is, Js]
    out = np.zeros(len(Is), dtype=plane.dtype)
    if m.any():
        out[m] = plane[Is[m], Js[m]]
    return out


def _assemble_stack(stack: np.ndarray, grs_left: np.ndarray,
                    gcs_above: np.ndarray, gs_corner: np.ndarray) -> None:
    """In-place stacked :func:`~repro.primitives.tile.assemble_gsat_tile`."""
    stack[:, :, 0] += grs_left
    stack[:, 0, :] += gcs_above
    stack[:, 0, 0] += gs_corner
    np.cumsum(stack, axis=2, out=stack)
    np.cumsum(stack, axis=1, out=stack)


def chunk_skss_lb(a4: np.ndarray, out4: np.ndarray, carry: CarryPlanes,
                  chunk: Chunk, W: int) -> None:
    """1R1W-SKSS-LB dataflow: GS built from the corner plus the gnomon GLS."""
    Is, Js = chunk.Is, chunk.Js
    grs, gcs, gs = carry.vec_row, carry.vec_col, carry.scal
    stack = a4[Is, :, Js, :]
    lrs = stack.sum(axis=2)
    lcs = stack.sum(axis=1)
    grs_left = _gather_vec(grs, Is, Js - 1, W)
    gcs_above = _gather_vec(gcs, Is - 1, Js, W)
    gs_corner = _gather_scal(gs, Is - 1, Js - 1)
    grs[Is, Js] = grs_left + lrs
    gcs[Is, Js] = gcs_above + lcs
    gls = grs_left.sum(axis=1) + gcs_above.sum(axis=1) + lrs.sum(axis=1)
    gs[Is, Js] = gs_corner + gls
    _assemble_stack(stack, grs_left, gcs_above, gs_corner)
    out4[Is, :, Js, :] = stack


def chunk_wavefront_corner(a4: np.ndarray, out4: np.ndarray,
                           carry: CarryPlanes, chunk: Chunk, W: int) -> None:
    """1R1W / (1+r)R1W dataflow: GS read off the assembled GSAT corner."""
    Is, Js = chunk.Is, chunk.Js
    grs, gcs, gs = carry.vec_row, carry.vec_col, carry.scal
    stack = a4[Is, :, Js, :]
    lrs = stack.sum(axis=2)
    lcs = stack.sum(axis=1)
    grs_left = _gather_vec(grs, Is, Js - 1, W)
    gcs_above = _gather_vec(gcs, Is - 1, Js, W)
    gs_corner = _gather_scal(gs, Is - 1, Js - 1)
    grs[Is, Js] = grs_left + lrs
    gcs[Is, Js] = gcs_above + lcs
    _assemble_stack(stack, grs_left, gcs_above, gs_corner)
    gs[Is, Js] = stack[:, -1, -1]
    out4[Is, :, Js, :] = stack


def chunk_skss(a4: np.ndarray, out4: np.ndarray, carry: CarryPlanes,
               chunk: Chunk, W: int) -> None:
    """1R1W-SKSS dataflow: GRS hand-off left, GCP (GSAT bottom row) down."""
    Is, Js = chunk.Is, chunk.Js
    grs, gcp = carry.vec_row, carry.vec_col
    stack = a4[Is, :, Js, :]
    lrs = stack.sum(axis=2)
    grs_left = _gather_vec(grs, Is, Js - 1, W)
    gcp_above = _gather_vec(gcp, Is - 1, Js, W)
    stack[:, :, 0] += grs_left
    np.cumsum(stack, axis=2, out=stack)
    stack[:, 0, :] += gcp_above
    np.cumsum(stack, axis=1, out=stack)
    grs[Is, Js] = grs_left + lrs
    gcp[Is, Js] = stack[:, -1, :]
    out4[Is, :, Js, :] = stack


def chunk_nehab(a4: np.ndarray, out4: np.ndarray, carry: CarryPlanes,
                chunk: Chunk, W: int) -> None:
    """2R1W dataflow, cumsum-faithful: the serial path builds GRS/GCS/GS with
    whole-array ``cumsum`` calls whose *first* element is a copy (no ``0 + x``
    add), so border tiles store their local sums verbatim here too."""
    Is, Js = chunk.Is, chunk.Js
    grs, gcs, gs, gs_col = carry.vec_row, carry.vec_col, carry.scal, carry.scal2
    stack = a4[Is, :, Js, :]
    lrs = stack.sum(axis=2)
    lcs = stack.sum(axis=1)
    ls = lcs.sum(axis=1)
    left_edge, top_edge = Js == 0, Is == 0
    grs_left = _gather_vec(grs, Is, Js - 1, W)
    gcs_above = _gather_vec(gcs, Is - 1, Js, W)
    gs_corner = _gather_scal(gs, Is - 1, Js - 1)

    grs_now = grs_left + lrs
    grs_now[left_edge] = lrs[left_edge]
    grs[Is, Js] = grs_now
    gcs_now = gcs_above + lcs
    gcs_now[top_edge] = lcs[top_edge]
    gcs[Is, Js] = gcs_now
    col = _gather_scal(gs_col, Is - 1, Js) + ls
    col[top_edge] = ls[top_edge]
    gs_col[Is, Js] = col
    gs_now = _gather_scal(gs, Is, Js - 1) + col
    gs_now[left_edge] = col[left_edge]
    gs[Is, Js] = gs_now

    _assemble_stack(stack, grs_left, gcs_above, gs_corner)
    out4[Is, :, Js, :] = stack


@dataclass(frozen=True)
class KernelSpec:
    """A chunk kernel plus the dependency offsets its gathers rely on."""

    name: str
    run: Callable[[np.ndarray, np.ndarray, CarryPlanes, Chunk, int], None]
    deps: tuple[tuple[int, int], ...]


#: Chunk kernels by canonical algorithm name (the tile-based five).
KERNELS: dict[str, KernelSpec] = {
    "2R1W": KernelSpec("2R1W", chunk_nehab, DEPS_LEFT_UP_CORNER),
    "1R1W": KernelSpec("1R1W", chunk_wavefront_corner, DEPS_LEFT_UP_CORNER),
    "(1+r)R1W": KernelSpec("(1+r)R1W", chunk_wavefront_corner,
                           DEPS_LEFT_UP_CORNER),
    "1R1W-SKSS": KernelSpec("1R1W-SKSS", chunk_skss, DEPS_LEFT_UP),
    "1R1W-SKSS-LB": KernelSpec("1R1W-SKSS-LB", chunk_skss_lb,
                               DEPS_LEFT_UP_CORNER),
}


def kernel_for(algorithm: str) -> KernelSpec:
    """Resolve an algorithm name (or registry alias) to its chunk kernel."""
    from repro.sat.registry import get_algorithm
    canonical = get_algorithm(algorithm).name \
        if algorithm not in KERNELS else algorithm
    spec = KERNELS.get(canonical)
    if spec is None:
        raise ConfigurationError(
            f"algorithm '{algorithm}' has no tile dataflow; the wavefront "
            f"engine supports {sorted(KERNELS)}")
    return spec
