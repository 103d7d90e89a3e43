"""Static numerical-accuracy verification of the SAT kernels.

The fourth static leg (after protocol extraction, model checking, and cost
verification): prove a worst-case floating-point rounding-error bound for
every Table I algorithm *from the kernel ASTs*, and make that proof the
single source every float tolerance in the repo derives from
(:mod:`repro.analysis.tolerances`).

**Error model.**  Every SAT entry is a sum of input elements; each algorithm
computes it through a different tree of float additions (tile reductions,
prefix passes, carry chains).  The standard backward analysis gives

    ``computed[i, j] = sum_k a_k * (1 + theta_k)``, ``|theta_k| <= gamma_D``

where ``D`` bounds the number of serial float roundings along *any* single
addend's path and ``gamma_D = D*eps / (1 - D*eps)``.  Every addend of entry
``(i, j)`` lies in the rectangle ``[0..i, 0..j]``, so

    ``|computed[i, j] - exact[i, j]| <= gamma_D * SAT(|a|)[i, j]``.

The bound is *mass*-relative (relative to the absolute-value SAT), which is
the only form that stays sound under cancellation — a result-relative
``rtol * |want|`` is unsound whenever ``SAT(|a|) >> |SAT(a)|``.

**What is extracted.**  :mod:`repro.analysis.kernelir` parses each kernel
once and gives every rounding-error site one of three roles:

* *reduction* — a call to a shared-memory/warp reduction or prefix helper
  (``tile_row_sums``, ``assemble_gsat_in_shared``, ``cumsum``, look-back
  walks, ...) whose result feeds an accumulator;
* *accumulate* — an assignment that folds its own target back in
  (``acc = acc + ctx.gload(...)``, ``col_sums += ...``);
* *carry* — a global store/publish whose value expression itself performs a
  float addition (``ctx.gstore(sb.grs, ..., grs_left + lrs)``).

Each site's entry in its module's ``KERNEL_HINTS`` table carries ``depth``:
the worst-path number of serial float additions the site contributes over
the whole algorithm run, as an int or a ``lambda g`` over the counting
geometry (:func:`build_error_geometry`, reusing
:mod:`repro.analysis.costcheck`'s :class:`~repro.analysis.costcheck.Poly`
so every formula evaluates both symbolically and concretely).  A missing,
stale or malformed entry raises :class:`~repro.errors.ExtractionError` with
file:line at kernelir's drift gate.
Summing per-site worst-path contributions over-approximates the deepest
path, so the per-algorithm depth ``D(t, W)`` is a sound closed form.

Notable proven facts: 1R1W and 1R1W-SKSS propagate carries *through* the
tile prefix passes (every tile hop costs ~2W roundings), so their depth is
``O(t*W) = O(n)``; 2R1W and the paper's 1R1W-SKSS-LB apply carries with
direct one-add chains and achieve ``O(t + W)`` — the load-balanced
algorithm is numerically superior as well as traffic-optimal.

**Host legs.**  ``_run_host`` mirrors each kernel's dataflow with shallower
(vectorized pairwise) tile sums, so the kernel depth covers it — except
2R2W-optimal, whose host path is a plain double ``cumsum`` of depth ``2n``
(:data:`HOST_DEPTHS`); tolerances take the max over both legs.

**Validation.**  The proofs are checked empirically: adversarial inputs
(half-ulp dust, sign-alternating, exponent-spread — see
:mod:`repro.apps.synthetic`) are run through every algorithm's host loop at
n in {256, 1024, 4096} x {float32, float64} (plus a simulator leg pinning
the kernel-dataflow depth specifically), and the measured mass-relative
error must sit below the proven bound while the bound stays tight within
~100x.  Integer accumulators are exact by construction; numcheck
cross-references :func:`~repro.analysis.costcheck.check_overflow` to prove
them overflow-free, hence error-free.
"""

from __future__ import annotations

import ast
from functools import lru_cache
from typing import Any, Callable, Iterable, Mapping

import numpy as np

from repro.analysis.costcheck import (KERNELS, Geometry, Poly, _ev,
                                      build_geometry, check_overflow,
                                      corpus_verdicts)
from repro.analysis.kernelir import function_ast, kernel_sites
from repro.analysis.kernellint import roundtrip_update_stmts
from repro.analysis.table1 import TABLE1_ORDER
from repro.errors import ConfigurationError, NumericModelError

__all__ = ["kernel_error_depth", "kernel_depths", "build_error_geometry",
           "symbolic_depth", "symbolic_host_depth", "concrete_depth",
           "error_bound_strings", "gamma", "find_numeric_bugs",
           "validate_bounds", "integer_exactness", "check_numeric_corpus",
           "run_numcheck", "render_numcheck_report", "HOST_DEPTHS",
           "GENERATORS", "TIGHTNESS_PROBES"]


# ---------------------------------------------------------------------------
# Hint interpretation: sites x geometry -> worst-path rounding depth
# ---------------------------------------------------------------------------

def kernel_error_depth(fn: Callable, g: Geometry) -> Any:
    """Total worst-path rounding depth of ``fn`` over ``g``: the sum of its
    error sites' ``depth`` entries in ``KERNEL_HINTS``.

    Each entry is the site's whole-run worst-path contribution; the sum
    over-approximates the deepest addition chain.  The sites come through
    the :mod:`~repro.analysis.kernelir` drift gate, which raises
    :class:`~repro.errors.ExtractionError` at the offending source location
    when an entry is missing, stale or malformed.
    """
    total: Any = 0
    for site, hint in kernel_sites(fn):
        if site.error:
            total = total + _ev(hint["depth"], g)
    return total


def build_error_geometry(algorithm: str, *, sym: bool, n: int = 128,
                         W: int = 32) -> Geometry:
    """Cost geometry plus the chain-length fields the error hints need."""
    g = build_geometry(algorithm, sym=sym, n=n, W=W)
    if algorithm == "2R2W-optimal":
        # Panels along one column / partitions along one row: the carry
        # chain lengths of the two scan primitives.
        g.cs_panels = g.n // g.cs_panel_rows
        g.rs_parts_per_row = g.n // g.rs_P
    return g


def kernel_depths(algorithm: str, g: Geometry) -> dict[str, Any]:
    """Per-kernel worst-path depth of ``algorithm``, keyed by kernel name."""
    if algorithm not in KERNELS:
        raise ConfigurationError(
            f"unknown algorithm '{algorithm}'; known: {sorted(KERNELS)}")
    return {spec.kernel: kernel_error_depth(spec.fn, g)
            for spec in KERNELS[algorithm]}


#: ``_run_host`` dataflow depths where they EXCEED the kernel dataflow.
#: Only 2R2W-optimal diverges: its host path is a plain double cumsum
#: (depth ``rows + cols = 2n``), while the device path's panel/partition
#: decomposition is exponentially shallower.  Every other ``_run_host``
#: mirrors its kernels' dataflow with vectorized (never deeper) tile sums.
HOST_DEPTHS: dict[str, Callable[[Geometry], Any]] = {
    "2R2W-optimal": lambda g: 2 * g.n,
}


def symbolic_depth(algorithm: str) -> Poly:
    """The proven closed-form kernel-dataflow depth ``D(t, W)``."""
    g = build_error_geometry(algorithm, sym=True)
    total: Any = 0
    for depth in kernel_depths(algorithm, g).values():
        total = total + depth
    return total if isinstance(total, Poly) else Poly.const(total)


def symbolic_host_depth(algorithm: str) -> Poly:
    """Closed-form depth of the serial host leg (= kernel depth unless the
    host dataflow is deeper, see :data:`HOST_DEPTHS`)."""
    if algorithm in HOST_DEPTHS:
        g = build_error_geometry(algorithm, sym=True)
        value = _ev(HOST_DEPTHS[algorithm], g)
        return value if isinstance(value, Poly) else Poly.const(value)
    return symbolic_depth(algorithm)


@lru_cache(maxsize=None)
def concrete_depth(algorithm: str, n: int, W: int = 32,
                   leg: str = "any") -> int:
    """Worst-path rounding depth at a concrete square shape ``n`` (a tile
    multiple).  ``leg`` is ``"device"`` (kernel dataflow), ``"host"``
    (serial ``_run_host``), or ``"any"`` (max of both — what tolerances
    use, since either leg may have produced the result under comparison).
    """
    if leg not in ("device", "host", "any"):
        raise ConfigurationError(
            f"leg must be 'device', 'host' or 'any', got {leg!r}")
    g = build_error_geometry(algorithm, sym=False, n=n, W=W)
    device = 0
    for depth in kernel_depths(algorithm, g).values():
        device += int(depth)
    if leg == "device":
        return device
    host = int(_ev(HOST_DEPTHS[algorithm], g)) \
        if algorithm in HOST_DEPTHS else device
    return host if leg == "host" else max(device, host)


def error_bound_strings() -> dict[str, str]:
    """Per-algorithm proven bound, rendered for ``repro list --json``."""
    out = {}
    for algorithm in TABLE1_ORDER:
        out[algorithm] = (f"|err| <= gamma_D * SAT(|a|), "
                          f"D = {symbolic_depth(algorithm)}")
    return out


def gamma(depth: int, dtype: Any) -> float:
    """``gamma_D = D*eps / (1 - D*eps)`` for the accumulator ``dtype``.

    Uses the full machine epsilon (not ``eps/2``) as the per-rounding unit
    — a deliberate factor-2 cushion over the round-to-nearest unit roundoff
    so the bound stays sound against mild model slop.
    """
    dt = np.dtype(dtype)
    if not np.issubdtype(dt, np.floating):
        return 0.0
    eps = float(np.finfo(dt).eps)
    x = depth * eps
    if x >= 1.0:
        raise NumericModelError(
            f"rounding depth {depth} saturates {dt.name} "
            f"(D*eps = {x:.2f} >= 1); no finite relative bound exists")
    return x / (1.0 - x)


# ---------------------------------------------------------------------------
# Structural numeric-bug detector (shared with lint rule KL007)
# ---------------------------------------------------------------------------

def find_numeric_bugs(fn: Callable) -> list[dict[str, Any]]:
    """Cancellation-prone read-modify-write updates in one kernel.

    The PR 4 regression class: ``x += y - x`` (or ``x = x + (y - x)``)
    computes the new value through a subtraction against the accumulator,
    re-rounding it and silently dropping low bits — instead of assigning
    the new value directly.  Shares its AST predicate with lint rule KL007
    (:func:`repro.analysis.kernellint.roundtrip_update_stmts`).
    """
    func = function_ast(fn)
    filename = fn.__code__.co_filename.rsplit("/", 1)[-1]
    base = fn.__code__.co_firstlineno
    return [{"kind": "rounding-roundtrip", "kernel": fn.__name__,
             "file": filename, "line": base + stmt.lineno - 1,
             "detail": (f"cancellation-prone update "
                        f"`{ast.unparse(stmt)}`: the subtraction against "
                        f"the accumulator re-rounds it and drops low bits; "
                        f"assign the new value directly")}
            for stmt in roundtrip_update_stmts(func)]


def check_numeric_corpus() -> list[dict[str, Any]]:
    """Planted numeric bugs must be caught; the 13 real kernels stay clean."""
    from repro.analysis import bugcorpus
    return corpus_verdicts(bugcorpus.NUMERIC_CORPUS, "expected_numeric",
                           find_numeric_bugs)


# ---------------------------------------------------------------------------
# Empirical validation of the proven bounds
# ---------------------------------------------------------------------------

#: Adversarial input families (see :mod:`repro.apps.synthetic`).  The two
#: dust probes are the tightness probes (their measured error tracks actual
#: chain lengths: uniform dust drives the plain scan paths, diagonal dust
#: the wavefront carry chains where uniform boundary sums outgrow half an
#: ulp); the other two exercise absorption and cancellation soundness.
GENERATORS = ("halfulp-dust", "diag-dust", "exponent-spread",
              "sign-alternating")

#: The subset of :data:`GENERATORS` run at *every* size and used for the
#: tightness verdict (max over probes).
TIGHTNESS_PROBES = ("halfulp-dust", "diag-dust")


def _adversarial_input(generator: str, n: int, dtype: np.dtype,
                       seed: int = 0, W: int = 32) -> np.ndarray:
    from repro.apps.synthetic import (diag_dust, exponent_spread,
                                      halfulp_dust, sign_alternating)
    if generator == "halfulp-dust":
        a = halfulp_dust(n, dtype=dtype, seed=seed)
    elif generator == "diag-dust":
        a = diag_dust(n, tile=W, dtype=dtype, seed=seed)
    elif generator == "exponent-spread":
        a = exponent_spread(n, seed=seed)
    elif generator == "sign-alternating":
        a = sign_alternating(n, seed=seed)
    else:
        raise ConfigurationError(
            f"unknown adversarial generator {generator!r}; "
            f"known: {GENERATORS}")
    return np.ascontiguousarray(a.astype(dtype))


def _reference_and_mass(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Near-exact reference SAT and the per-entry absolute mass SAT(|a|).

    float32 inputs: a plain float64 double cumsum is ~2^29 times more
    accurate than any float32 result — effectively exact.  float64 inputs:
    Kahan-compensated float64 scans (error O(eps^2) per step).
    """
    a64 = np.asarray(a, dtype=np.float64)
    if np.dtype(a.dtype) == np.dtype(np.float64):
        from repro.analysis.precision import sat_kahan
        ref = sat_kahan(a64, np.float64)
    else:
        ref = a64.cumsum(axis=0).cumsum(axis=1)
    mass = np.abs(a64).cumsum(axis=0).cumsum(axis=1)
    return ref, mass


def _measured_depth(got: np.ndarray, ref: np.ndarray, mass: np.ndarray,
                    dtype: np.dtype) -> float:
    """Max observed error in depth units: ``|got - ref| / (eps * mass)``."""
    eps = float(np.finfo(dtype).eps)
    err = np.abs(np.asarray(got, dtype=np.float64) - ref)
    denom = eps * np.maximum(mass, np.finfo(np.float64).tiny)
    return float((err / denom).max())


def validate_bounds(algorithms: Iterable[str] | None = None, *,
                    sizes: tuple[int, ...] = (256, 1024, 4096),
                    dtypes: tuple[str, ...] = ("float32", "float64"),
                    device: bool = True, device_n: int = 128, W: int = 32,
                    seed: int = 0,
                    tightness_limit: float = 100.0) -> list[dict[str, Any]]:
    """Measured vs. proven error for every algorithm x dtype x size.

    The host leg runs every generator at the smallest size and the two
    tightness probes (uniform and diagonal dust) at every size; the
    simulator leg runs the dust probes at ``device_n`` in float64 (the
    simulator's buffers are float64, so it is the only dtype whose device
    result is meaningful) and checks the kernel-dataflow depth
    specifically.  A row fails when the measured error exceeds the proven
    bound, or when the best tightness probe shows the bound looser than
    ``tightness_limit``.
    """
    from repro.sat.registry import get_algorithm
    names = tuple(algorithms) if algorithms is not None else TABLE1_ORDER
    rows: list[dict[str, Any]] = []
    for dtype_name in dtypes:
        dtype = np.dtype(dtype_name)
        if not np.issubdtype(dtype, np.floating):
            raise ConfigurationError(
                f"validate_bounds covers float dtypes, got {dtype_name!r}")
        for n in sizes:
            probes = GENERATORS if n == min(sizes) else TIGHTNESS_PROBES
            inputs = {}
            for generator in probes:
                a = _adversarial_input(generator, n, dtype, seed=seed, W=W)
                inputs[generator] = (a, *_reference_and_mass(a))
            for name in names:
                alg = get_algorithm(name, tile_width=W)
                proven = concrete_depth(name, n, W, leg="any")
                bound = gamma(proven, dtype)
                measured = {
                    generator: _measured_depth(
                        alg.run_host(a), ref, mass, dtype)
                    for generator, (a, ref, mass) in inputs.items()}
                worst = max(measured.values())
                dust = max(measured[g] for g in TIGHTNESS_PROBES)
                tightness = proven / dust if dust > 0 else float("inf")
                rows.append({
                    "algorithm": name, "dtype": dtype.name, "n": n,
                    "leg": "host", "proven_depth": proven,
                    "gamma": bound, "measured_depth": worst,
                    "measured_rel": worst * float(np.finfo(dtype).eps),
                    "per_generator": measured, "tightness": tightness,
                    "ok": (worst <= proven
                           and tightness <= tightness_limit),
                })
    if device:
        dtype = np.dtype(np.float64)
        inputs = {}
        for generator in TIGHTNESS_PROBES:
            a = _adversarial_input(generator, device_n, dtype, seed=seed,
                                   W=W)
            inputs[generator] = (a, *_reference_and_mass(a))
        for name in names:
            alg = get_algorithm(name, tile_width=W)
            proven = concrete_depth(name, device_n, W, leg="device")
            measured = {
                generator: _measured_depth(alg.run(a).sat, ref, mass, dtype)
                for generator, (a, ref, mass) in inputs.items()}
            worst = max(measured.values())
            tightness = proven / worst if worst > 0 else float("inf")
            rows.append({
                "algorithm": name, "dtype": dtype.name, "n": device_n,
                "leg": "device", "proven_depth": proven,
                "gamma": gamma(proven, dtype), "measured_depth": worst,
                "measured_rel": worst * float(np.finfo(dtype).eps),
                "per_generator": measured, "tightness": tightness,
                "ok": (worst <= proven
                       and tightness <= tightness_limit),
            })
    return rows


def integer_exactness(*, W: int = 32) -> list[dict[str, Any]]:
    """Integer accumulators are error-free iff they cannot overflow.

    Integer addition is exact, so the only numeric failure mode is range —
    which costcheck's interval analysis already proves per dtype at the
    device-max shape.  This cross-references those verdicts into numeric
    form: overflow-free integer accumulator => zero rounding error
    (``gamma = 0``); float accumulators point at the proven gamma bounds.
    """
    rows = []
    for verdict in check_overflow(W=W):
        acc = np.dtype(verdict["accumulator"])
        if np.issubdtype(acc, np.floating):
            rows.append({
                "dtype": verdict["dtype"], "accumulator": acc.name,
                "exact": False, "error_free": False, "ok": True,
                "note": "float accumulator: bounded by the proven "
                        "per-algorithm gamma_D (see bounds)"})
        else:
            rows.append({
                "dtype": verdict["dtype"], "accumulator": acc.name,
                "exact": True, "error_free": bool(verdict["ok"]),
                "ok": bool(verdict["ok"]) or verdict["dtype"] in
                      ("int64", "uint64"),
                "note": verdict["note"]})
    return rows


# ---------------------------------------------------------------------------
# Top-level driver / report
# ---------------------------------------------------------------------------

def run_numcheck(algorithms: Iterable[str] | None = None, *,
                 sizes: tuple[int, ...] = (256, 1024, 4096),
                 dtypes: tuple[str, ...] = ("float32", "float64"),
                 device: bool = True, device_n: int = 128, W: int = 32,
                 corpus: bool = True, seed: int = 0,
                 tightness_limit: float = 100.0) -> dict[str, Any]:
    """The full numerical-accuracy verification; the ``repro numcheck``
    payload (written to ``numcheck.json`` by the smoke gate).  Algorithm
    aliases (``"skss-lb"``) resolve to their paper names, which the report
    carries."""
    from repro.sat.registry import get_algorithm
    names = [get_algorithm(name, tile_width=W).name for name in algorithms] \
        if algorithms is not None else list(TABLE1_ORDER)
    out: dict[str, Any] = {"W": W, "sizes": list(sizes),
                           "dtypes": list(dtypes), "algorithms": [],
                           "ok": True}
    for name in names:
        gsym = build_error_geometry(name, sym=True)
        depths = kernel_depths(name, gsym)
        entry: dict[str, Any] = {
            "algorithm": name,
            "depth": str(symbolic_depth(name)),
            "host_depth": str(symbolic_host_depth(name)),
            "kernels": {k: str(v) for k, v in depths.items()},
            "bounds": {},
        }
        for dtype_name in dtypes:
            dtype = np.dtype(dtype_name)
            entry["bounds"][dtype.name] = [
                {"n": n, "depth": concrete_depth(name, n, W, leg="any"),
                 "gamma": gamma(concrete_depth(name, n, W, leg="any"),
                                dtype)}
                for n in sizes]
        out["algorithms"].append(entry)
    out["validation"] = validate_bounds(
        names, sizes=sizes, dtypes=dtypes, device=device,
        device_n=device_n, W=W, seed=seed,
        tightness_limit=tightness_limit)
    out["ok"] = out["ok"] and all(r["ok"] for r in out["validation"])
    out["integer"] = integer_exactness(W=W)
    out["ok"] = out["ok"] and all(r["ok"] for r in out["integer"])
    if corpus:
        out["corpus"] = check_numeric_corpus()
        out["ok"] = out["ok"] and all(c["ok"] for c in out["corpus"])
    return out


def render_numcheck_report(result: Mapping[str, Any]) -> str:
    """Human-readable summary of a :func:`run_numcheck` result."""
    lines = [f"numcheck @ W={result['W']} "
             f"sizes={','.join(str(n) for n in result['sizes'])}", ""]
    lines.append("proven worst-case rounding depths "
                 "(|err| <= gamma_D * SAT(|a|)):")
    for entry in result["algorithms"]:
        lines.append(f"  {entry['algorithm']}: D = {entry['depth']}")
        if entry["host_depth"] != entry["depth"]:
            lines.append(f"    host leg: D = {entry['host_depth']}")
        for kernel, depth in entry["kernels"].items():
            lines.append(f"    {kernel}: {depth}")
    lines.append("")
    lines.append("empirical validation (measured depth <= proven depth; "
                 "tightness = proven/measured on the dust probe):")
    for row in result["validation"]:
        mark = "ok" if row["ok"] else "FAIL"
        lines.append(
            f"  [{mark}] {row['algorithm']} {row['dtype']} n={row['n']} "
            f"({row['leg']}): measured {row['measured_depth']:.1f} "
            f"<= proven {row['proven_depth']} "
            f"(tightness {row['tightness']:.1f}x, "
            f"rel {row['measured_rel']:.3e} <= gamma {row['gamma']:.3e})")
    lines.append("")
    lines.append("integer accumulators (exact arithmetic; error-free iff "
                 "overflow-free per costcheck):")
    for row in result["integer"]:
        mark = "ok" if row["ok"] else "FAIL"
        free = "error-free" if row["error_free"] else \
            ("gamma-bounded" if not row["exact"] else "CAN OVERFLOW")
        lines.append(f"  [{mark}] {row['dtype']} -> {row['accumulator']}: "
                     f"{free}")
    if "corpus" in result:
        lines.append("")
        lines.append("planted numeric-bug corpus:")
        for c in result["corpus"]:
            mark = "ok" if c["ok"] else "MISSED"
            found = ", ".join(c["found"]) or "nothing"
            lines.append(f"  [{mark}] {c['bug']}: expected "
                         f"{c['expected'] or 'clean'}, found {found}")
    lines.append("")
    lines.append("PASS" if result["ok"] else "FAIL")
    return "\n".join(lines)
