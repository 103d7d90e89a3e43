"""Static cost verification: prove Table I's memory traffic from kernel ASTs.

The dynamic counters (:mod:`repro.gpusim.counters`) *measure* each
algorithm's global-memory traffic; this module *derives* it, symbolically,
from the kernel sites :mod:`repro.analysis.kernelir` parses, and proves three
things about the code we actually execute:

1. **Table I optimality** — every counted global access site in the 13
   kernels carries its cost fields in its module's ``KERNEL_HINTS`` table
   (execution count, access width, coalescing pattern, as functions of the
   geometry), read through kernelir's drift gate.  Interpreting the sites
   over *symbolic* geometry (``t = n/W`` tiles per side, ``W`` the tile
   width) yields each algorithm's read/write request counts as bivariate
   polynomials in ``(t, W)``; the leading ``n²`` coefficient and the
   remainder class must equal the row declared in
   :mod:`repro.analysis.table1` (2 reads/2 writes for 2R2W, ``1+r`` reads for
   the hybrid, 1R1W for SKSS, ...).  A kernel edit that adds traffic — or a
   hint that no longer matches the source — fails here, statically, before
   any benchmark runs.

2. **Transaction prediction** — each access's 32-byte-segment transaction
   count follows from its width and pattern (``coalesced`` → ``width/4``
   segments for float64, ``strided`` → one segment per element, ``scalar`` →
   one).  Interpreting the sites over *concrete* geometry (the same layout
   functions the host code calls: :class:`~repro.primitives.colscan.
   ColScanLayout`, :class:`~repro.primitives.scan1d.RowScanLayout`,
   :func:`~repro.sat.hybrid_1r1w.band_limits`/``band_tiles``,
   :class:`~repro.primitives.tile.TileGrid`) predicts every kernel's request
   *and* transaction counters exactly; :func:`crossval_algorithm` runs the
   simulator and demands equality (look-back polls are schedule-dependent,
   so measured reads are compared net of ``spin_iterations``, and walk
   *steps* are bracketed by the ``[lo, hi]`` bounds — ``lo == hi`` for every
   algorithm except 1R1W-SKSS-LB, whose walks may shortcut).

3. **Overflow freedom** — interval analysis over the dtype policy
   (:mod:`repro.sat.dtypes`): every stored buffer has a closed-form bound in
   units of the maximum input magnitude (``lrs ≤ W·M``, ``grs ≤ n·M``,
   SAT ≤ ``n²·M``); at the largest shape that fits the device, the exact-int
   accumulators either provably cannot overflow or the *first* store site
   that can is pinpointed with its file and line.

The accounting conventions mirror :mod:`repro.gpusim.block` exactly: a
``wait_until`` costs one scalar read per poll (failed polls are counted in
``spin_iterations``), a look-back walk step costs one poll plus one payload
read whichever way it terminates, and ``publish`` costs its payload stores
plus the flag store and one fence.
"""

from __future__ import annotations

import ast
import importlib
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterable, Mapping

import numpy as np

from repro.analysis.kernelir import (Site, function_ast, kernel_sites,
                                     parse_sites)
from repro.analysis.kernellint import redundant_fence_calls, spin_store_calls
from repro.analysis.table1 import TABLE1_ORDER, table1_sym
from repro.errors import ConfigurationError, CostModelError, ExtractionError

__all__ = ["Poly", "kernel_totals", "algorithm_totals", "prove_table1",
           "crossval_algorithm", "check_overflow", "find_cost_bugs",
           "corpus_verdicts", "check_corpus", "run_costcheck",
           "render_report", "KERNELS"]


# ---------------------------------------------------------------------------
# Bivariate polynomials in (t, W) with exact rational coefficients
# ---------------------------------------------------------------------------

class Poly:
    """A polynomial ``sum c[a,b] * t^a * W^b`` with Fraction coefficients.

    Supports ``+ - *`` with other polynomials and integers and division by
    integer constants; concrete geometry uses plain ints through the same
    hint lambdas, so every formula is written once and evaluated in both
    modes.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple[int, int], Any] | None = None):
        clean: dict[tuple[int, int], Fraction] = {}
        for key, coeff in (terms or {}).items():
            frac = Fraction(coeff)
            if frac:
                clean[key] = frac
        self.terms = clean

    @classmethod
    def const(cls, value: Any) -> "Poly":
        return cls({(0, 0): value})

    @classmethod
    def var(cls, name: str) -> "Poly":
        if name == "t":
            return cls({(1, 0): 1})
        if name == "W":
            return cls({(0, 1): 1})
        raise ConfigurationError(f"unknown cost variable {name!r}")

    @staticmethod
    def _coerce(other: Any) -> "Poly":
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.const(other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other: Any) -> "Poly":
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for key, coeff in rhs.terms.items():
            out[key] = out.get(key, Fraction(0)) + coeff
        return Poly(out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly({k: -c for k, c in self.terms.items()})

    def __sub__(self, other: Any) -> "Poly":
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other: Any) -> "Poly":
        return self._coerce(other) + (-self)

    def __mul__(self, other: Any) -> "Poly":
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return NotImplemented
        out: dict[tuple[int, int], Fraction] = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in rhs.terms.items():
                key = (a1 + a2, b1 + b2)
                out[key] = out.get(key, Fraction(0)) + c1 * c2
        return Poly(out)

    __rmul__ = __mul__

    def __truediv__(self, other: Any) -> "Poly":
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return Poly({k: c / other for k, c in self.terms.items()})

    def __floordiv__(self, other: Any) -> "Poly":
        # Geometry formulas use // where the division is known exact.
        return self.__truediv__(other)

    def __eq__(self, other: object) -> bool:
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return NotImplemented
        return self.terms == rhs.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def coeff(self, a: int, b: int) -> Fraction:
        """Coefficient of the ``t^a * W^b`` monomial."""
        return self.terms.get((a, b), Fraction(0))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (a, b) in sorted(self.terms, key=lambda k: (-(k[0] + k[1]),
                                                        -k[0], -k[1])):
            coeff = self.terms[(a, b)]
            mono = "*".join(
                ([] if a == 0 else [f"t^{a}" if a > 1 else "t"])
                + ([] if b == 0 else [f"W^{b}" if b > 1 else "W"]))
            if mono:
                parts.append(f"{coeff}*{mono}" if coeff != 1 else mono)
            else:
                parts.append(str(coeff))
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Poly({self})"


# ---------------------------------------------------------------------------
# Hint interpretation: sites x geometry -> traffic totals
# ---------------------------------------------------------------------------

#: float64 elements per 32-byte DRAM segment.
_ELEMS_PER_SEGMENT = 4

_PATTERNS = ("coalesced", "strided", "scalar")


def _tx_exec(width: int, pattern: str, where: str) -> int:
    """Transactions of one aligned warp-cooperative access execution."""
    if pattern == "scalar":
        return 1
    if pattern == "strided":
        return width
    if pattern == "coalesced":
        if width % _ELEMS_PER_SEGMENT:
            raise CostModelError(
                f"{where}: coalesced width {width} is not a whole number of "
                f"32-byte segments; transaction prediction needs aligned "
                f"shapes")
        return width // _ELEMS_PER_SEGMENT
    raise CostModelError(f"{where}: unknown access pattern {pattern!r}")


class Geometry:
    """Attribute bag of counting parameters — ints (concrete) or
    :class:`Poly` (symbolic)."""

    def __init__(self, **fields: Any) -> None:
        self.__dict__.update(fields)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Geometry({self.__dict__})"


def _ev(value: Any, g: Geometry) -> Any:
    return value(g) if callable(value) else value


def _zero_totals(concrete: bool) -> dict[str, Any]:
    keys = ["reads_lo", "reads_hi", "writes", "atomics", "fences"]
    if concrete:
        keys += ["read_tx_lo", "read_tx_hi", "write_tx"]
    return {k: 0 for k in keys}


def _merge_totals(into: dict[str, Any], other: Mapping[str, Any]) -> None:
    for k, v in other.items():
        into[k] = into.get(k, 0) + v


def kernel_totals(fn: Callable, g: Geometry, *,
                  concrete: bool) -> dict[str, Any]:
    """Interpret ``fn``'s access sites under their ``KERNEL_HINTS`` entries
    over geometry ``g``.

    Returns request totals (``reads_lo``/``reads_hi``/``writes``/``atomics``/
    ``fences``; plus ``*_tx`` transaction totals in concrete mode).  The
    sites come through the :mod:`~repro.analysis.kernelir` drift gate, which
    raises :class:`~repro.errors.ExtractionError` at the offending source
    location when an entry is missing, stale or malformed.
    """
    totals = _zero_totals(concrete)
    for site, hint in kernel_sites(fn):
        if site.cost:
            _merge_totals(totals, _site_cost(site, hint, g, concrete))
    return totals


def _site_cost(site: Site, hint: Mapping[str, Any], g: Geometry,
               concrete: bool) -> dict[str, Any]:
    count = _ev(hint.get("count", 1), g)
    width = _ev(hint.get("width", 1), g)
    pattern = hint.get("pattern", "scalar" if width == 1 else "coalesced")
    if pattern not in _PATTERNS:
        raise CostModelError(
            f"{site.where}: unknown pattern {pattern!r} (expected one of "
            f"{_PATTERNS})")
    out: dict[str, Any] = {}
    role = site.cost
    if role in ("scalar_load", "scalar_store", "wait"):
        width, pattern = 1, "scalar"
    tx = (_tx_exec(width, pattern, site.where) if concrete
          and role not in ("atomic", "fence") else 0)
    if role in ("load", "tile_load", "scalar_load"):
        out["reads_lo"] = out["reads_hi"] = count * width
        if concrete:
            out["read_tx_lo"] = out["read_tx_hi"] = count * tx
    elif role == "wait":
        # Every executed wait costs >= 1 scalar poll; extra polls land in
        # spin_iterations, which cross-validation subtracts back out.
        out["reads_lo"] = out["reads_hi"] = count
        if concrete:
            out["read_tx_lo"] = out["read_tx_hi"] = count
    elif role == "walk":
        lo = _ev(hint["steps_lo"], g)
        hi = _ev(hint["steps_hi"], g) if concrete else lo
        # Each step: one wait poll plus one payload read (local or global).
        out["reads_lo"] = lo * (1 + width)
        out["reads_hi"] = hi * (1 + width)
        if concrete:
            out["read_tx_lo"] = lo * (1 + tx)
            out["read_tx_hi"] = hi * (1 + tx)
    elif role in ("store", "tile_store", "scalar_store"):
        out["writes"] = count * width
        if concrete:
            out["write_tx"] = count * tx
    elif role == "publish":
        # publish = payload stores + one fence + one scalar flag store.
        out["writes"] = count * (width + 1)
        out["fences"] = count
        if concrete:
            out["write_tx"] = count * (tx + 1)
    elif role == "atomic":
        out["atomics"] = count
    elif role == "fence":
        out["fences"] = count
    return out


# ---------------------------------------------------------------------------
# The 13 kernels, their modules, and their launch names
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelSpec:
    """Where a kernel lives and which launches execute it."""

    module: str
    kernel: str
    #: Normalized launch names (trailing ``_<digits>`` stripped) whose
    #: measured counters this kernel's prediction covers.
    launches: tuple[str, ...]
    #: Concrete-mode predicted total grid blocks over those launches.
    blocks: Callable[[Geometry], int]

    @property
    def fn(self) -> Callable:
        """The kernel function itself."""
        return getattr(importlib.import_module(self.module), self.kernel)


#: Table I algorithms -> the kernels that implement them.  The hybrid band
#: kernels run once per band (A and C); the wavefront kernel is shared
#: between 1R1W and the hybrid's middle band.
KERNELS: dict[str, tuple[KernelSpec, ...]] = {
    "2R2W": (
        KernelSpec("repro.sat.naive_2r2w", "column_scan_kernel",
                   ("2r2w_column_scan",), lambda g: g.naive_blocks),
        KernelSpec("repro.sat.naive_2r2w", "row_scan_kernel",
                   ("2r2w_row_scan",), lambda g: g.naive_blocks),
    ),
    "2R2W-optimal": (
        KernelSpec("repro.primitives.colscan", "col_scan_kernel",
                   ("2r2w_opt_col_scan",), lambda g: g.cs_tiles),
        KernelSpec("repro.primitives.scan1d", "row_scan_kernel",
                   ("2r2w_opt_row_scan",), lambda g: g.rs_parts),
    ),
    "2R1W": (
        KernelSpec("repro.sat.nehab_2r1w", "local_sums_kernel",
                   ("2r1w_local_sums",), lambda g: g.tiles),
        KernelSpec("repro.sat.nehab_2r1w", "global_sums_kernel",
                   ("2r1w_global_sums",), lambda g: g.gs_blocks),
        KernelSpec("repro.sat.nehab_2r1w", "gsat_kernel",
                   ("2r1w_gsat",), lambda g: g.tiles),
    ),
    "1R1W": (
        KernelSpec("repro.sat.kasagi_1r1w", "wavefront_kernel",
                   ("1r1w_wave",), lambda g: g.tiles),
    ),
    "(1+r)R1W": (
        KernelSpec("repro.sat.hybrid_1r1w", "band_local_sums_kernel",
                   ("hybrid_A_local", "hybrid_C_local"),
                   lambda g: g.band),
        KernelSpec("repro.sat.hybrid_1r1w", "band_global_sums_kernel",
                   ("hybrid_A_global", "hybrid_C_global"),
                   lambda g: g.band_gs_blocks),
        KernelSpec("repro.sat.hybrid_1r1w", "band_gsat_kernel",
                   ("hybrid_A_gsat", "hybrid_C_gsat"),
                   lambda g: g.band),
        KernelSpec("repro.sat.kasagi_1r1w", "wavefront_kernel",
                   ("hybrid_wave",), lambda g: g.wave),
    ),
    "1R1W-SKSS": (
        KernelSpec("repro.sat.skss", "skss_kernel",
                   ("skss",), lambda g: g.t),
    ),
    "1R1W-SKSS-LB": (
        KernelSpec("repro.sat.skss_lb", "skss_lb_kernel",
                   ("skss_lb",), lambda g: g.tiles),
    ),
}


# ---------------------------------------------------------------------------
# Geometry builders (symbolic formulas / concrete host layout functions)
# ---------------------------------------------------------------------------

def _warp_round(x: int, w: int = 32) -> int:
    return ((x + w - 1) // w) * w


def build_geometry(algorithm: str, *, sym: bool, n: int = 128,
                   W: int = 32) -> Geometry:
    """Counting parameters for ``algorithm``.

    Concrete mode (``sym=False``) computes them through the *same* host
    layout functions the algorithms call at launch time (so geometry drift
    is impossible); symbolic mode uses the closed forms, which assume square
    ``n = t*W`` grids, even ``t`` and ``r = 1/4`` for the hybrid, and ``n``
    a multiple of the scan partition sizes for 2R2W-optimal.
    """
    t: Any
    Wv: Any
    if sym:
        t, Wv = Poly.var("t"), Poly.var("W")
    else:
        if n % W:
            raise ConfigurationError(f"n={n} not a multiple of W={W}")
        t, Wv = n // W, W
    nn = t * Wv
    g: dict[str, Any] = dict(t=t, W=Wv, W2=Wv * Wv, n=nn, n2=nn * nn,
                             tiles=t * t)
    if algorithm == "2R2W":
        if not sym:
            threads = _warp_round(min(256, n))
            g["naive_blocks"] = (n + threads - 1) // threads
    elif algorithm == "2R2W-optimal":
        g.update(_colscan_geometry(sym, n, t, Wv))
        g.update(_scan1d_geometry(sym, n, t, Wv))
    elif algorithm == "2R1W":
        if not sym:
            lane_blocks = (t * W + 1023) // 1024
            g["gs_blocks"] = 2 * lane_blocks + 1
    elif algorithm == "1R1W":
        g.update(_wave_counts_full(sym, n, W, t))
    elif algorithm == "(1+r)R1W":
        g.update(_hybrid_geometry(sym, n, W, t))
    elif algorithm == "1R1W-SKSS":
        g["skss_waits"] = g["tiles"] - t
        g["skss_atomics"] = 2 * t
    elif algorithm == "1R1W-SKSS-LB":
        g["lb_row_lo"] = g["tiles"] - t
        g["lb_col_lo"] = g["tiles"] - t
        g["lb_diag_lo"] = (t - 1) * (t - 1)
        g["lb_atomics"] = 2 * g["tiles"]
        if not sym:
            g["lb_row_hi"] = g["lb_col_hi"] = t * (t * (t - 1) // 2)
            g["lb_diag_hi"] = sum(min(i, j) for i in range(t)
                                  for j in range(t))
    else:
        raise ConfigurationError(f"no cost geometry for '{algorithm}'")
    return Geometry(**g)


def _colscan_geometry(sym: bool, n: int, t: Any, Wv: Any) -> dict[str, Any]:
    """Tokura column-scan geometry (strip = 32, threads = 256 as launched
    by :class:`~repro.sat.optimal_2r2w.Optimal2R2W`)."""
    if sym:
        nn = t * Wv
        tiles = nn * nn / 2048  # strips (n/32) x panels (n/64)
        return dict(cs_tiles=tiles, cs_strips=nn / 32, cs_tile_elems=2048,
                    cs_C=32, cs_panel_rows=64, cs_walk_lo=tiles - nn / 32,
                    cs_walk_hi=None, cs_atomics=2 * tiles)
    from repro.primitives.colscan import ColScanLayout
    threads, strip = 256, 32
    panel = min(n, max(strip, 8 * threads // strip))
    while n % panel:
        panel //= 2
    layout = ColScanLayout(rows=n, cols=n, panel_rows=panel,
                           strip_width=strip)
    tiles, strips = layout.total_tiles, layout.num_strips
    panels = layout.num_panels
    return dict(cs_tiles=tiles, cs_strips=strips,
                cs_tile_elems=panel * strip, cs_C=strip,
                cs_panel_rows=panel, cs_walk_lo=tiles - strips,
                cs_walk_hi=strips * panels * (panels - 1) // 2,
                cs_atomics=2 * tiles)


def _scan1d_geometry(sym: bool, n: int, t: Any, Wv: Any) -> dict[str, Any]:
    """Merrill-Garland row-scan geometry (partition = 256 for n >= 256)."""
    if sym:
        nn = t * Wv
        parts = nn * nn / 256
        return dict(rs_parts=parts, rs_P=256, rs_rows=nn,
                    rs_walk_lo=parts - nn, rs_walk_hi=None,
                    rs_atomics=2 * parts)
    from repro.primitives.scan1d import RowScanLayout
    row_threads = min(256, _warp_round(max(32, n)))
    part = min(row_threads, n)
    layout = RowScanLayout(rows=n, n=n, partition_size=part)
    parts, pp = layout.total_parts, layout.parts_per_row
    return dict(rs_parts=parts, rs_P=part, rs_rows=n,
                rs_walk_lo=parts - n,
                rs_walk_hi=n * pp * (pp - 1) // 2,
                rs_atomics=2 * parts)


def _wave_counts(tiles: Iterable[tuple[int, int]]) -> dict[str, int]:
    tiles = list(tiles)
    return dict(
        wave=len(tiles),
        wave_left=sum(1 for i, j in tiles if j > 0),
        wave_above=sum(1 for i, j in tiles if i > 0),
        wave_corner=sum(1 for i, j in tiles if i > 0 and j > 0))


def _wave_counts_full(sym: bool, n: int, W: int, t: Any) -> dict[str, Any]:
    """Wavefront counts over the full grid (the 1R1W algorithm)."""
    if sym:
        return dict(wave=t * t, wave_left=t * t - t, wave_above=t * t - t,
                    wave_corner=(t - 1) * (t - 1))
    from repro.primitives.tile import TileGrid
    grid = TileGrid(n=n, W=W)
    return _wave_counts(T for K in range(grid.num_diagonals)
                        for T in grid.tiles_on_diagonal(K))


def _hybrid_geometry(sym: bool, n: int, W: int, t: Any) -> dict[str, Any]:
    """Band/wavefront split of the hybrid at ``r = 1/4``."""
    if sym:
        # Even t: band A holds diagonals K < t/2 (t^2/8 + t/4 tiles), band C
        # the last t/2 - 1 diagonals (t^2/8 - t/4 tiles).
        band_a = t * t / 8 + t / 4
        band_c = t * t / 8 - t / 4
        band = band_a + band_c
        wave = 3 * (t * t) / 4
        return dict(
            band=band, band_left=band - t / 2, band_up=band - t / 2,
            band_corner=band - t + 1, band_seed_row=t / 2 - 1,
            band_seed_col=t / 2 - 1, wave=wave, wave_left=wave - t / 2,
            wave_above=wave - t / 2, wave_corner=wave - t)
    from repro.primitives.tile import TileGrid
    from repro.sat.hybrid_1r1w import band_limits, band_tiles
    grid = TileGrid(n=n, W=W)
    Ka, Kc = band_limits(0.25, t, t)
    a_tiles, _b, c_tiles = band_tiles(grid, Ka, Kc)
    band_list = a_tiles + c_tiles
    lane_blocks = (t * W + 1023) // 1024

    def seeds(tiles: list, axis: int) -> int:
        # Rows (axis 0) whose band segment starts at J > 0 need a GRS seed
        # read (resp. columns starting at I > 0 for GCS).
        starts: dict[int, int] = {}
        for tile in tiles:
            i, j = tile[axis], tile[1 - axis]
            starts[i] = min(starts.get(i, j), j)
        return sum(1 for start in starts.values() if start > 0)

    wave = _wave_counts(
        T for K in range(Ka, min(Kc, grid.num_diagonals - 1) + 1)
        for T in grid.tiles_on_diagonal(K))
    return dict(
        band=len(band_list),
        band_left=sum(1 for i, j in band_list if j > 0),
        band_up=sum(1 for i, j in band_list if i > 0),
        band_corner=sum(1 for i, j in band_list if i > 0 and j > 0),
        band_seed_row=seeds(a_tiles, 0) + seeds(c_tiles, 0),
        band_seed_col=seeds(a_tiles, 1) + seeds(c_tiles, 1),
        band_gs_blocks=(2 * lane_blocks + 1) * ((1 if a_tiles else 0)
                                                + (1 if c_tiles else 0)),
        **wave)


# ---------------------------------------------------------------------------
# Symbolic Table I proof
# ---------------------------------------------------------------------------

def algorithm_totals(algorithm: str, *, sym: bool, n: int = 128,
                     W: int = 32) -> dict[str, Any]:
    """Whole-run traffic totals: sum of the algorithm's kernel totals."""
    g = build_geometry(algorithm, sym=sym, n=n, W=W)
    totals = _zero_totals(concrete=not sym)
    for spec in KERNELS[algorithm]:
        _merge_totals(totals, kernel_totals(spec.fn, g, concrete=not sym))
    return totals


def _check_remainder(poly: Poly, lead: Fraction, remainder: str,
                     what: str) -> list[str]:
    """The sub-leading monomials must fit the row's declared big-O class."""
    problems = []
    for (a, b), coeff in poly.terms.items():
        if (a, b) == (2, 2):
            continue
        if remainder == "":
            problems.append(
                f"{what}: unexpected term {coeff}*t^{a}*W^{b} in an "
                f"exact-count row")
        elif remainder == "n^2/W":
            # O(n^2/W) = O(t^2 W): anything with t-degree 2 must lose at
            # least one W factor; higher t-degrees are out entirely.
            if a > 2 or (a == 2 and b >= 2):
                problems.append(
                    f"{what}: term {coeff}*t^{a}*W^{b} exceeds the "
                    f"O(n^2/W) remainder class")
        elif remainder == "n^2":
            if a > 2:
                problems.append(
                    f"{what}: term {coeff}*t^{a}*W^{b} exceeds the "
                    f"O(n^2) remainder class")
        else:  # pragma: no cover - table1 only declares the above
            problems.append(f"{what}: unknown remainder class {remainder!r}")
    return problems


def prove_table1(algorithm: str) -> dict[str, Any]:
    """Prove ``algorithm``'s symbolic traffic matches its Table I row.

    The leading ``n²`` (= ``t²W²``) coefficients of the derived read/write
    polynomials must equal the row's ``read_class``/``write_class`` exactly
    (2R2W-optimal, whose scan metadata scales with ``n²`` at fixed
    strip/panel geometry, may exceed its class by less than 1 — the paper's
    ``O(n²)``), and every sub-leading monomial must fit the declared
    remainder class.  Reads use the minimum look-back depth (each walk
    terminates at its first probe); deeper walks are schedule, not
    algorithm.
    """
    row = table1_sym(algorithm)
    totals = algorithm_totals(algorithm, sym=True)
    reads, writes = totals["reads_lo"], totals["writes"]
    problems: list[str] = []
    for what, poly, want in (("reads", reads, row.read_class),
                             ("writes", writes, row.write_class)):
        lead = poly.coeff(2, 2)
        if row.remainder == "n^2":
            if not want <= lead < want + 1:
                problems.append(
                    f"{what}: leading n^2 coefficient {lead} outside "
                    f"[{want}, {want + 1})")
        elif lead != want:
            problems.append(
                f"{what}: leading n^2 coefficient {lead} != {want}")
        problems += _check_remainder(poly, want, row.remainder, what)
    return {
        "algorithm": algorithm,
        "reads": str(reads), "writes": str(writes),
        "atomics": str(totals["atomics"]), "fences": str(totals["fences"]),
        "read_lead": str(reads.coeff(2, 2)),
        "write_lead": str(writes.coeff(2, 2)),
        "read_class": str(row.read_class),
        "write_class": str(row.write_class),
        "remainder": row.remainder,
        "ok": not problems, "problems": problems,
    }


# ---------------------------------------------------------------------------
# Dynamic cross-validation against gpusim counters
# ---------------------------------------------------------------------------

def crossval_algorithm(algorithm: str, *, n: int = 128, W: int = 32,
                       seed: int = 0) -> list[dict[str, Any]]:
    """Run ``algorithm`` in the simulator and check every kernel's counters
    against the static prediction.

    Reads are compared net of ``spin_iterations`` (every failed wait poll is
    one extra scalar read request *and* transaction); everything else —
    writes, write transactions, atomics, fences, grid blocks — must match
    exactly.  ``exact`` is true when the read window is a single point,
    which holds for every algorithm except 1R1W-SKSS-LB.
    """
    from repro.gpusim.kernel import GPU
    from repro.sat.registry import compute_sat
    g = build_geometry(algorithm, sym=False, n=n, W=W)
    result = compute_sat(np.ones((n, n)), algorithm=algorithm, tile_width=W,
                         engine=GPU(seed=seed))
    if result.report is None:  # pragma: no cover - gpusim always reports
        raise CostModelError(f"{algorithm}: simulator returned no report")
    measured = result.report.per_kernel()
    checks = []
    for spec in KERNELS[algorithm]:
        pred = kernel_totals(spec.fn, g, concrete=True)
        pred["blocks"] = spec.blocks(g)
        present = [name for name in spec.launches if name in measured]
        if not present:
            if pred["blocks"] == 0:
                # An empty band (e.g. the hybrid's C band at t=2) launches
                # nothing; zero predicted blocks with no launch agree.
                continue
            raise CostModelError(
                f"{algorithm}/{spec.kernel}: no launches named "
                f"{list(spec.launches)} in the run (saw {sorted(measured)})")
        # A spec may name launches that a small grid legitimately skips
        # (the hybrid's C band at t=2); the totals comparison below still
        # holds the present ones to the full prediction.
        traffic = None
        blocks = launches = 0
        for name in present:
            kb = measured[name]
            blocks += kb.grid_blocks
            launches += kb.launches
            if traffic is None:
                traffic = kb.traffic.copy()
            else:
                traffic.merge(kb.traffic)
        assert traffic is not None
        spins = traffic.spin_iterations
        got = {
            "reads": traffic.global_read_requests - spins,
            "read_tx": traffic.global_read_transactions - spins,
            "writes": traffic.global_write_requests,
            "write_tx": traffic.global_write_transactions,
            "atomics": traffic.atomic_ops,
            "fences": traffic.fences,
            "blocks": blocks,
        }
        problems = []
        for what, lo_key, hi_key in (("reads", "reads_lo", "reads_hi"),
                                     ("read_tx", "read_tx_lo",
                                      "read_tx_hi")):
            lo, hi = pred[lo_key], pred[hi_key]
            if not lo <= got[what] <= hi:
                problems.append(
                    f"{what}: measured {got[what]} (net of {spins} spins) "
                    f"outside predicted [{lo}, {hi}]")
        for what in ("writes", "write_tx", "atomics", "fences", "blocks"):
            if got[what] != pred[what]:
                problems.append(
                    f"{what}: measured {got[what]} != predicted "
                    f"{pred[what]}")
        checks.append({
            "kernel": spec.kernel, "launches": list(spec.launches),
            "launch_count": launches,
            "exact": pred["reads_lo"] == pred["reads_hi"],
            "spins": spins, "predicted": dict(pred), "measured": got,
            "ok": not problems, "problems": problems,
        })
    return checks


# ---------------------------------------------------------------------------
# Overflow interval analysis over the dtype policy
# ---------------------------------------------------------------------------

#: Per-element magnitude bound of every stored buffer, in units of the
#: maximum input magnitude M, as a function of (n, W).
BUFFER_BOUNDS: dict[str, Callable[[int, int], int]] = {
    # SAT values / full prefix matrices.
    "dst": lambda n, W: n * n,
    "buf": lambda n, W: n * n,
    "b": lambda n, W: n * n,
    "gs": lambda n, W: n * n,
    # Per-tile local sums.
    "lrs": lambda n, W: W,
    "lcs": lambda n, W: W,
    "ls": lambda n, W: W * W,
    # Global row/column prefixes (sums along one full matrix axis).
    "grs": lambda n, W: n,
    "gcs": lambda n, W: n,
    "gls": lambda n, W: 2 * n * W + W * W,
    # Scan partition aggregates/prefixes (bounded by a full row/column sum).
    "aggregates": lambda n, W: n,
    "prefixes": lambda n, W: n,
}

#: Protocol/control buffers carry small bounded ints, never accumulators.
_CONTROL_BUFFERS = ("status", "counter", "R", "C", "flag")


def device_max_n(*, dtype_bytes: int = 8) -> int:
    """Largest square side whose two working buffers fit device memory."""
    from repro.gpusim.device import TITAN_V
    return math.isqrt(TITAN_V.global_mem_bytes // (2 * dtype_bytes))


def _store_sites() -> list[Site]:
    """Every accumulator store site across the 13 kernels, in Table I and
    program order (the pinpointing order for overflow verdicts)."""
    sites = []
    seen = set()
    for algorithm in TABLE1_ORDER:
        for spec in KERNELS[algorithm]:
            if (spec.module, spec.kernel) in seen:
                continue
            seen.add((spec.module, spec.kernel))
            sites += [site for site in parse_sites(spec.fn)
                      if site.cost in ("store", "scalar_store", "tile_store",
                                       "publish")
                      and site.buffer not in _CONTROL_BUFFERS]
    return sites


def check_overflow(*, n: int | None = None, W: int = 32,
                   policy: Any = None) -> list[dict[str, Any]]:
    """Interval analysis: can any kernel store overflow its accumulator?

    For every input dtype, resolve the accumulator the dtype policy assigns,
    bound every stored value by ``BUFFER_BOUNDS[buffer](n, W) * M`` (``M``
    the maximum input magnitude) at the largest shape that fits the device,
    and either prove the bound below the accumulator's limit or pinpoint the
    first store site (file:line) that can exceed it.  Float accumulators are
    reported informationally (they saturate *precision*, not range).
    """
    from repro.sat.dtypes import resolve_policy
    pol = resolve_policy(policy)
    n_max = n or device_max_n()
    sites = _store_sites()
    verdicts = []
    dtypes = (np.bool_, np.uint8, np.int8, np.uint16, np.int16, np.uint32,
              np.int32, np.uint64, np.int64, np.float16, np.float32,
              np.float64)
    for dtype in dtypes:
        dt = np.dtype(dtype)
        acc = pol.accumulator(dt)
        verdict: dict[str, Any] = {
            "dtype": dt.name, "accumulator": acc.name, "n": n_max, "W": W,
            "policy": pol.name,
        }
        if np.issubdtype(acc, np.floating):
            mantissa = np.finfo(acc).nmant
            verdict.update(
                exact=False, ok=True, site=None,
                note=(f"accumulates in {acc.name}: integer sums above "
                      f"2^{mantissa + 1} lose exactness (range does not "
                      f"overflow)"))
            verdicts.append(verdict)
            continue
        m = 1 if dt == np.dtype(np.bool_) else int(
            max(abs(int(np.iinfo(dt).min)), int(np.iinfo(dt).max)))
        limit = int(max(abs(int(np.iinfo(acc).min)),
                        int(np.iinfo(acc).max)))
        verdict["exact"] = True
        bad = None
        for site in sites:
            bound_fn = BUFFER_BOUNDS.get(site.buffer)
            if bound_fn is None:
                raise CostModelError(
                    f"{site.where}: store to buffer {site.buffer!r} has no "
                    f"entry in BUFFER_BOUNDS")
            bound = bound_fn(n_max, W) * m
            if bound > limit:
                bad = (site, bound)
                break
        if bad is None:
            verdict.update(
                ok=True, site=None,
                note=(f"all stores provably fit {acc.name} up to "
                      f"n={n_max}"))
        else:
            site, bound = bad
            verdict.update(
                ok=False,
                site={"kernel": site.kernel, "buffer": site.buffer,
                      "file": site.file, "line": site.line,
                      "expr": site.key},
                note=(f"{site.where}: store to {site.buffer!r} in "
                      f"{site.kernel} can reach {bound:.3e} > "
                      f"{acc.name} max {limit:.3e} at n={n_max}"))
        verdicts.append(verdict)
    return verdicts


# ---------------------------------------------------------------------------
# Structural cost-bug detectors (shared with lint rule KL006)
# ---------------------------------------------------------------------------

def find_cost_bugs(fn: Callable) -> list[dict[str, Any]]:
    """All static cost findings for one kernel: stores-in-spin-loops and
    redundant fences (the AST predicates lint rule KL006 uses, see
    :func:`repro.analysis.kernellint.spin_store_calls`), and duplicated
    (excess) global accesses — each with its source location."""
    func = function_ast(fn)
    filename = fn.__code__.co_filename.rsplit("/", 1)[-1]
    base = fn.__code__.co_firstlineno
    findings = []

    def add(kind: str, node: ast.AST, detail: str) -> None:
        findings.append({"kind": kind, "kernel": fn.__name__,
                         "file": filename,
                         "line": base + node.lineno - 1, "detail": detail})

    for call in spin_store_calls(func):
        add("store-in-spin", call,
            f"global store `{ast.unparse(call)}` inside a spin loop is "
            f"re-issued every poll iteration")
    for call in redundant_fence_calls(func):
        add("redundant-fence", call,
            "threadfence with no global store since the previous fence")
    try:
        parse_sites(fn)
    except ExtractionError as exc:
        # parse_sites pinpoints the repeated access in its message.
        msg = str(exc)
        line = int(msg.split(":", 2)[1]) if msg.split(":", 2)[1].isdigit() \
            else base
        findings.append({"kind": "excess-read", "kernel": fn.__name__,
                         "file": filename, "line": line, "detail": msg})
    return findings


def corpus_verdicts(specs: Iterable[Any], expected: str,
                    find: Callable[[Callable], list]) -> list[dict[str, Any]]:
    """One planted-bug corpus verdict: each spec's kernel must yield the
    finding kind named by its ``expected`` attribute (a clean spec, none),
    and the 13 real kernels must yield no finding at all."""
    results = []
    for spec in specs:
        findings = find(spec.kernel)
        kinds = {f["kind"] for f in findings}
        want = getattr(spec, expected)
        results.append({
            "bug": spec.name, "expected": want, "found": sorted(kinds),
            "findings": findings,
            "ok": want in kinds if want else not findings,
        })
    # Control: the real kernels must stay clean.
    for algorithm in TABLE1_ORDER:
        for spec in KERNELS[algorithm]:
            findings = find(spec.fn)
            if findings:
                results.append({
                    "bug": f"control:{spec.kernel}", "expected": "",
                    "found": sorted({f["kind"] for f in findings}),
                    "findings": findings, "ok": False,
                })
    return results


def check_corpus() -> list[dict[str, Any]]:
    """Run the cost detectors over the planted-bug corpus: every
    :data:`~repro.analysis.bugcorpus.COST_CORPUS` entry must be rejected
    with its declared finding kind (and a source location); the clean
    control kernels must produce no findings."""
    from repro.analysis import bugcorpus
    return corpus_verdicts(bugcorpus.COST_CORPUS, "expected_cost",
                           find_cost_bugs)


# ---------------------------------------------------------------------------
# Top-level driver / report
# ---------------------------------------------------------------------------

def run_costcheck(algorithms: Iterable[str] | None = None, *,
                  crossval: bool = True, corpus: bool = True,
                  overflow: bool = True, n: int = 128, W: int = 32,
                  seed: int = 0) -> dict[str, Any]:
    """The full static cost verification; the ``repro costcheck`` payload.

    ``algorithms`` takes paper names or their aliases (``"skss-lb"``); the
    report carries the canonical names.
    """
    from repro.sat.registry import get_algorithm
    names = [get_algorithm(name, tile_width=W).name for name in algorithms] \
        if algorithms is not None else list(TABLE1_ORDER)
    out: dict[str, Any] = {"n": n, "W": W, "algorithms": [], "ok": True}
    for name in names:
        entry: dict[str, Any] = {"algorithm": name,
                                 "table1": prove_table1(name)}
        entry["ok"] = entry["table1"]["ok"]
        if crossval:
            entry["kernels"] = crossval_algorithm(name, n=n, W=W, seed=seed)
            entry["ok"] = entry["ok"] and all(k["ok"]
                                              for k in entry["kernels"])
        out["algorithms"].append(entry)
        out["ok"] = out["ok"] and entry["ok"]
    if overflow:
        out["overflow"] = check_overflow(W=W)
        out["ok"] = out["ok"] and all(
            v["ok"] or not v["exact"] or v["dtype"] in ("int64", "uint64")
            for v in out["overflow"])
    if corpus:
        out["corpus"] = check_corpus()
        out["ok"] = out["ok"] and all(c["ok"] for c in out["corpus"])
    return out


def render_report(result: Mapping[str, Any]) -> str:
    """Human-readable summary of a :func:`run_costcheck` result."""
    lines = [f"costcheck @ n={result['n']} W={result['W']}", ""]
    for entry in result["algorithms"]:
        t1 = entry["table1"]
        mark = "ok" if entry["ok"] else "FAIL"
        lines.append(f"[{mark}] {entry['algorithm']}: "
                     f"reads lead {t1['read_lead']} "
                     f"(class {t1['read_class']}), "
                     f"writes lead {t1['write_lead']} "
                     f"(class {t1['write_class']})")
        lines.append(f"       reads  = {t1['reads']}")
        lines.append(f"       writes = {t1['writes']}")
        for problem in t1["problems"]:
            lines.append(f"       !! {problem}")
        for check in entry.get("kernels", ()):
            tag = "exact" if check["exact"] else "bounded"
            status = "ok" if check["ok"] else "MISMATCH"
            got = check["measured"]
            lines.append(
                f"       {check['kernel']}: {status} ({tag}) reads "
                f"{got['reads']} tx {got['read_tx']} writes "
                f"{got['writes']} tx {got['write_tx']} atomics "
                f"{got['atomics']} fences {got['fences']}")
            for problem in check["problems"]:
                lines.append(f"         !! {problem}")
    if "overflow" in result:
        lines.append("")
        lines.append("overflow (exact-int accumulators, device-max shape):")
        for v in result["overflow"]:
            mark = "ok" if v["ok"] else "OVERFLOW"
            lines.append(f"  [{mark}] {v['dtype']} -> {v['accumulator']}: "
                         f"{v['note']}")
    if "corpus" in result:
        lines.append("")
        lines.append("planted-bug corpus:")
        for c in result["corpus"]:
            mark = "ok" if c["ok"] else "MISSED"
            found = ", ".join(c["found"]) or "nothing"
            lines.append(f"  [{mark}] {c['bug']}: expected "
                         f"{c['expected'] or 'clean'}, found {found}")
    lines.append("")
    lines.append("PASS" if result["ok"] else "FAIL")
    return "\n".join(lines)
