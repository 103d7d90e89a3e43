"""One-shot reproduction report generator (``repro report``).

Assembles everything the reproduction produces — measured Table I, modelled
Table III with the paper comparison, the log-log chart, dependence profiles,
a fuzzing pass, and the precision analysis — into a single Markdown document.
"""

from __future__ import annotations

import io
import time
from contextlib import redirect_stdout

import numpy as np

from repro._version import __version__


def generate_report(*, measure_size: int = 128, fuzz_runs: int = 25,
                    seed: int = 0) -> str:
    """Build the full report as a Markdown string.

    ``measure_size`` controls the simulated Table I matrix (kept small: the
    simulator pays ~10³x wall-clock); ``fuzz_runs`` bounds the differential
    fuzzing pass.
    """
    from repro.analysis import (TABLE1_ORDER, check, check_counts, fuzz,
                                precision_report, prove_table1,
                                render_profile, render_table1, table1_sym)
    from repro.analysis.waves import PROFILES
    from repro.gpusim import GPU
    from repro.perfmodel import TitanVModel, render_table3
    from repro.perfmodel.charts import table3_chart
    from repro.perfmodel.devices import cross_device_summary
    from repro.perfmodel.table import TABLE3_ORDER
    from repro.sat import get_algorithm

    start = time.perf_counter()
    out = io.StringIO()
    out.write("# Reproduction report\n\n")
    out.write(f"repro version {__version__}; generated in-process; "
              "see EXPERIMENTS.md for the curated comparison.\n\n")

    # -- Table I (measured) ---------------------------------------------------
    out.write("## Table I (closed forms + measured counts)\n\n```\n")
    out.write(render_table1(measure_size))
    out.write(f"\n\nmeasured on the simulator (n={measure_size}, W=32):\n")
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 100, size=(measure_size, measure_size)).astype(float)
    for name in TABLE3_ORDER:
        res = get_algorithm(name).run(a, GPU(seed=seed))
        out.write(f"  {check_counts(res)}\n")
    out.write("```\n\n")

    # -- Table I — verified -----------------------------------------------------
    out.write("## Table I — verified\n\n")
    out.write("Each row's traffic class is *proven* from the kernel ASTs by "
              "the static cost verifier (`python -m repro costcheck`): the "
              "symbolically derived per-run read/write request polynomials "
              "must have exactly the Table I leading `n²` coefficients, "
              "with every lower-order term inside the declared remainder "
              "class.\n\n")
    out.write("| algorithm | global reads | global writes | verified |\n")
    out.write("|---|---|---|---|\n")
    for name in TABLE1_ORDER:
        proof = prove_table1(name)
        sym = table1_sym(name)
        verdict = "proven" if proof["ok"] else "**FAILED**"
        out.write(f"| {name} | {sym.reads} | {sym.writes} | {verdict} "
                  f"(leads {proof['read_lead']}R / {proof['write_lead']}W) "
                  f"|\n")
    out.write("\n")

    # -- Table III (model vs paper) --------------------------------------------
    model = TitanVModel()
    out.write("## Table III (model vs paper, ms)\n\n```\n")
    out.write(render_table3(model))
    out.write("\n```\n\n```\n")
    out.write(table3_chart(model))
    out.write("\n```\n\n")

    # -- dependence profiles -----------------------------------------------------
    out.write("## Dependence-parallelism profiles (t = 16 tiles per side)\n\n```\n")
    for name in PROFILES:
        out.write(render_profile(PROFILES[name](16)) + "\n\n")
    out.write("```\n\n")

    # -- cross-device projection --------------------------------------------------
    out.write("## Cross-device projection (extension; best-W SKSS-LB at 8K²)\n\n")
    out.write("| device | duplication ms | SKSS-LB ms | overhead |\n")
    out.write("|---|---|---|---|\n")
    for key, row in cross_device_summary(8192).items():
        dup, lb = row["duplication"], row["1R1W-SKSS-LB"]
        out.write(f"| {key} | {dup:.3f} | {lb:.3f} | "
                  f"{100 * (lb - dup) / dup:.1f}% |\n")
    out.write("\n")

    # -- fuzzing ---------------------------------------------------------------
    out.write("## Differential fuzzing\n\n```\n")
    report = fuzz(fuzz_runs, seed=seed)
    out.write(report.summary() + "\n")
    for config, error in report.failures:
        out.write(f"FAIL {error}: {config}\n")
    out.write("```\n\n")

    # -- protocol model checking ----------------------------------------------
    out.write("## Protocol model checking (exhaustive, 2x2 tile grid)\n\n")
    out.write("Every block interleaving of each algorithm's extracted "
              "synchronization protocol, over resident-block pools 1-4 "
              "(deadlock freedom is proved, not sampled; see "
              "`python -m repro modelcheck`):\n\n```\n")
    for name in TABLE1_ORDER:
        res = check(name, 2)
        verdict = "VERIFIED" if res.ok else "VIOLATIONS FOUND"
        out.write(f"{name:<14} {verdict:<16} {res.states:>6} states, "
                  f"{res.transitions:>6} transitions\n")
    out.write("```\n\n")

    # -- precision ---------------------------------------------------------------
    out.write("## float32 precision (paper dtype)\n\n")
    out.write("| n | max rel. error (float32) | with Kahan scans |\n")
    out.write("|---|---|---|\n")
    for row in precision_report((64, 256, 1024), seed=seed):
        out.write(f"| {row.n} | {row.err_float32:.2e} | "
                  f"{row.err_kahan:.2e} |\n")

    # -- proven error bounds ------------------------------------------------------
    from repro.analysis.numcheck import symbolic_depth, validate_bounds
    out.write("\n## Proven rounding-error bounds vs measured "
              "(`python -m repro numcheck`)\n\n")
    out.write("Worst-case depth `D` proven from the kernel ASTs "
              "(`|err| <= gamma_D * SAT(|a|)`), against the worst measured "
              "depth over the adversarial generators at "
              f"n={measure_size} (host leg). The paper's 1R1W-SKSS-LB is "
              "`O(t + W)` deep where plain 1R1W is `O(t*W)`: numerically "
              "superior as well as traffic-optimal.\n\n")
    out.write("| algorithm | proven D(t, W) | dtype | proven depth "
              "| measured | bound holds |\n")
    out.write("|---|---|---|---|---|---|\n")
    rows = validate_bounds(sizes=(measure_size,),
                           dtypes=("float32", "float64"), device=False,
                           seed=seed)
    for row in rows:
        verdict = "yes" if row["ok"] else "**NO**"
        out.write(f"| {row['algorithm']} | "
                  f"`{symbolic_depth(row['algorithm'])}` | {row['dtype']} "
                  f"| {row['proven_depth']} | {row['measured_depth']:.1f} "
                  f"| {verdict} |\n")

    out.write(f"\n*report generated in "
              f"{time.perf_counter() - start:.1f} s*\n")
    return out.getvalue()


def write_report(path: str, **kwargs) -> str:
    """Generate the report and write it to ``path``; returns the path."""
    text = generate_report(**kwargs)
    with open(path, "w") as fh:
        fh.write(text)
    return path
