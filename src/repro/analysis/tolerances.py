"""The single source of every SAT comparison tolerance.

Before this module, each consumer of a SAT comparison carried its own
hand-tuned constants — ``rtol=1e-9, atol=1e-6`` in one place, ``rtol=1e-5``
in another, ad-hoc ``eps * 4 * (rows + cols)`` formulas elsewhere.  Those
constants were *unsound* both ways: too loose for small float64 runs (bugs
slip through) and too tight for large float32 runs with mixed magnitudes
(healthy results get flagged).  Every tolerance here is instead **derived**
from the per-algorithm worst-case rounding depths that
:mod:`repro.analysis.numcheck` proves statically from the kernel ASTs:

    |computed - exact| <= gamma_D * SAT(|a|)      (elementwise)

with ``gamma_D = D*eps / (1 - D*eps)`` and ``D`` the algorithm's proven
worst-path count of serial float roundings (plus the oracle's own depth —
the reference the comparison differences against also rounds).

The bound is **mass-relative**: the scale is the SAT of the *absolute*
input, not of the signed result.  Result-relative tolerances
(``rtol * |want|``) silently assume no cancellation; on sign-mixed inputs a
SAT entry can be tiny while the rounding error — which tracks the absolute
mass that flowed through the accumulators — is not.

Callers compare through :func:`sat_close` / :func:`assert_sat_close`, which
perform the comparison with explicit arithmetic.  ``np.allclose`` appears
nowhere in the package outside this docstring — a grep-enforced invariant
(its asymmetric ``atol + rtol*|want|`` shape cannot express the mass bound).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.analysis.numcheck import concrete_depth, gamma
from repro.analysis.table1 import TABLE1_ORDER
from repro.errors import ConfigurationError

#: Extra rounding depth charged for each supported oracle, as a function of
#: the padded problem size ``n`` and the algorithm's own depth ``d``:
#:
#: * ``"exact"`` — the reference is (near-)exact in a strictly wider type
#:   (float64 reference for a float32 result; Kahan for float64): charge 0.
#: * ``"reference"`` — a plain double cumulative sum in the *same* dtype:
#:   one rounding per fold, ``2n`` worst-path.
#: * ``"host"`` — the same algorithm's host leg in the same dtype: the
#:   oracle is as deep as the subject, ``d`` again.
_ORACLES = ("exact", "reference", "host")


@dataclass(frozen=True)
class Tolerance:
    """A derived comparison budget: where it came from and what it allows."""

    algorithm: str | None   #: None = worst case over every Table I algorithm
    dtype: np.dtype         #: accumulator dtype of the compared results
    n: int                  #: padded square side the depth was evaluated at
    depth: int              #: total proven rounding depth (subject + oracle)
    eps: float              #: machine epsilon of ``dtype`` (0 for integers)
    gamma: float            #: relative bound D*eps/(1 - D*eps) (0 = exact)
    exact: bool             #: integer accumulator: comparison must be exact

    def describe(self) -> str:
        who = self.algorithm or "any Table I algorithm"
        if self.exact:
            return f"{who}, {self.dtype.name}: exact (integer accumulator)"
        return (f"{who}, n<={self.n}, {self.dtype.name}: "
                f"|err| <= {self.gamma:.3g} * SAT(|a|) (depth {self.depth})")


def derived_tolerance(algorithm: str | None, shape, dtype, *,
                      tile_width: int = 32, oracle: str = "reference",
                      extra_depth: int = 0) -> Tolerance:
    """The proven comparison budget for SATs of ``shape`` in ``dtype``.

    ``algorithm`` is a paper name or one of its aliases (``"skss-lb"``;
    the tolerance records the paper name), or ``None`` for the worst case
    over every Table I algorithm.  ``shape`` is a side length or a
    ``(rows, cols)`` pair; the depth is evaluated at the larger side padded
    up to the layouts' granularity — the lcm of the tile width and the
    2R2W-optimal scan layouts' strip and partition sizes (depths are
    monotone in n, so padding only loosens — stays sound).  ``dtype`` is the
    dtype of the compared arrays (the accumulator); integer accumulators get
    an exact tolerance — :mod:`repro.analysis.costcheck` proves them
    overflow-free, so any difference is a bug, not rounding.  ``oracle``
    names what the comparison differences against (see :data:`_ORACLES`);
    ``extra_depth`` charges additional roundings the static model cannot see
    (e.g. one carry add per shard when a distributed run stitches bands).
    """
    if oracle not in _ORACLES:
        raise ConfigurationError(
            f"unknown oracle {oracle!r}; choose from {_ORACLES}")
    if isinstance(shape, (int, np.integer)):
        side = int(shape)
    else:
        side = max(int(s) for s in shape)
    if side <= 0:
        raise ConfigurationError("SAT shape must be positive")
    grain = math.lcm(tile_width, 256)
    n = max(grain, math.ceil(side / grain) * grain)
    dt = np.dtype(dtype)
    if algorithm is None:
        depth = max(concrete_depth(alg, n, tile_width)
                    for alg in TABLE1_ORDER)
    else:
        from repro.sat.registry import get_algorithm
        algorithm = get_algorithm(algorithm, tile_width=tile_width).name
        depth = concrete_depth(algorithm, n, tile_width)
    if oracle == "reference":
        depth += 2 * n
    elif oracle == "host":
        depth *= 2
    depth += int(extra_depth)
    exact = not np.issubdtype(dt, np.floating)
    g = 0.0 if exact else gamma(depth, dt)
    return Tolerance(algorithm=algorithm, dtype=dt, n=n, depth=depth,
                     eps=0.0 if exact else float(np.finfo(dt).eps),
                     gamma=g, exact=exact)


def _error_scale(want: np.ndarray, abs_input) -> np.ndarray | float:
    """The mass SAT(|a|) the relative bound multiplies.

    With ``abs_input`` (the original matrix, sign-mixed welcome) the scale is
    the elementwise float64 SAT of its absolute values — the sharp bound.
    Without it the scale falls back to ``max(1, max|want|)`` over the finite
    entries of ``want``: for the non-negative inputs every built-in harness
    generates, ``SAT(|a|)`` *is* ``want``, so its max dominates the
    elementwise mass and the fallback stays sound (just looser near the
    origin corner).
    """
    if abs_input is not None:
        a = np.abs(np.asarray(abs_input, dtype=np.float64))
        mass = a.cumsum(axis=0).cumsum(axis=1)
        return np.maximum(mass, np.finfo(np.float64).tiny)
    w = np.abs(np.asarray(want, dtype=np.float64))
    peak = float(w.max()) if w.size else 0.0
    if not math.isfinite(peak):
        finite = w[np.isfinite(w)]
        peak = float(finite.max()) if finite.size else 0.0
    return max(1.0, peak)


def _within_budget(got: np.ndarray, want: np.ndarray, tol: Tolerance,
                   abs_input) -> tuple[np.ndarray, np.ndarray, Any]:
    """``(ok, diff, budget)``: which entries of ``got`` the float oracle
    ``want`` and the proven budget explain.

    A finite entry may differ by at most its budget.  A non-finite entry
    matches only the same value at the same position — NaN with NaN, +inf
    with +inf, -inf with -inf — so a NaN never slips past the budget test
    and no invalid-value warning is raised.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        diff = np.abs(got.astype(np.float64) - want.astype(np.float64))
    budget = tol.gamma * _error_scale(want, abs_input)
    ok = diff <= budget
    if diff.size and not math.isfinite(float(diff.max())):
        g = got.astype(np.float64)
        w = want.astype(np.float64)
        same = (g == w) | (np.isnan(g) & np.isnan(w))
        ok = np.where(np.isfinite(g) & np.isfinite(w), ok, same)
    return ok, diff, budget


def sat_close(got: np.ndarray, want: np.ndarray, tol: Tolerance, *,
              abs_input=None) -> bool:
    """Is ``got`` within the proven rounding budget of ``want``?"""
    got = np.asarray(got)
    want = np.asarray(want)
    if got.shape != want.shape:
        return False
    if tol.exact:
        return bool(np.array_equal(got, want))
    return bool(np.all(_within_budget(got, want, tol, abs_input)[0]))


def assert_sat_close(got: np.ndarray, want: np.ndarray, tol: Tolerance, *,
                     abs_input=None, context: str = "") -> None:
    """Assert :func:`sat_close`, reporting the worst offender on failure."""
    got = np.asarray(got)
    want = np.asarray(want)
    prefix = f"{context}: " if context else ""
    if got.shape != want.shape:
        raise AssertionError(
            f"{prefix}shape mismatch: got {got.shape}, want {want.shape}")
    if tol.exact:
        if not np.array_equal(got, want):
            bad = int(np.argmax(np.asarray(got != want)))
            raise AssertionError(
                f"{prefix}integer-accumulator SAT differs from oracle at "
                f"flat index {bad} ({tol.describe()}) — exact match "
                f"required, rounding cannot explain any difference")
        return
    ok, diff, budget = _within_budget(got, want, tol, abs_input)
    if not np.all(ok):
        over = ~ok
        with np.errstate(invalid="ignore"):
            ratio = np.where(over, diff / np.maximum(budget, 1e-300), 0.0)
        bad = int(np.argmax(ratio))  # a NaN ratio (NaN entry) comes first
        idx = tuple(int(i) for i in np.unravel_index(bad, diff.shape))
        if not (np.isfinite(got[idx]) and np.isfinite(want[idx])):
            raise AssertionError(
                f"{prefix}SAT entry at {idx} is {got[idx]} where the oracle "
                f"has {want[idx]}: a non-finite entry must match exactly "
                f"({tol.describe()})")
        b = budget if np.isscalar(budget) else budget[idx]
        raise AssertionError(
            f"{prefix}SAT exceeds the proven rounding budget at {idx}: "
            f"|got-want| = {diff[idx]:.6g} > {float(b):.6g} "
            f"({tol.describe()})")


__all__ = ["Tolerance", "derived_tolerance", "sat_close", "assert_sat_close"]
