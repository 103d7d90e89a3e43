"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run``      compute a SAT on any backend (default: the simulator), report stats
``table1``   print Table I (symbolic + numeric, optionally measured)
``table3``   print Table III (model vs paper)
``sweep-w``  per-tile-width model times for one algorithm
``sweep-r``  (1+r)R1W model times over the r grid
``trace``    run 1R1W-SKSS-LB with tracing and print the schedule timeline
``export``   write table1/table3 as CSV + JSON
``chart``    ASCII log-log chart of Table III (any device projection)
``devices``  cross-device model projections (extension)
``fuzz``     differential fuzzing of all algorithms (and edit sequences)
``sanitize`` race/protocol sanitizer + static kernel lint
``modelcheck`` exhaustive protocol model checking (deadlock freedom proof)
``costcheck`` static memory-traffic verification (Table I proof + overflow)
``numcheck`` static numerical-accuracy verification (proven error bounds)
``incremental-bench``  time incremental repair vs full recompute
``report``   write the full REPRODUCTION_REPORT.md
``list``     list algorithms and aliases

Every command is a thin veneer over the library; the CLI exists so the
tables and demos are reproducible without writing Python.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro._version import __version__


def _build_parser() -> argparse.ArgumentParser:
    from repro.analysis.fuzzing import FUZZ_MODES
    from repro.backend.registry import known_backends
    p = argparse.ArgumentParser(
        prog="repro",
        description="Summed-area-table reproduction (Emoto et al., 2018)")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="compute a SAT and report statistics")
    run.add_argument("-a", "--algorithm", default="1R1W-SKSS-LB",
                     help="algorithm name or alias (default: the paper's)")
    run.add_argument("-n", "--size", type=int, default=128,
                     help="matrix side (default 128)")
    run.add_argument("--shape", type=int, nargs=2, metavar=("H", "W"),
                     default=None,
                     help="explicit rows x cols (overrides -n; any rectangle "
                          "works — ragged tiles are zero-padded internally)")
    run.add_argument("--dtype", default="float64",
                     help="input dtype of the random matrix (e.g. uint8, "
                          "int32, float32; default float64); the accumulator "
                          "dtype follows the exact policy")
    run.add_argument("-W", "--tile-width", type=int, default=32)
    run.add_argument("--engine", default="gpusim",
                     choices=known_backends(),
                     help="executor: the GPU simulator (default; configured "
                          "by --policy/--seed/--consistency/"
                          "--detect-uninitialized, reports its traffic), "
                          "the serial tile loop, the row-run wavefront "
                          "tile engine, or the sharded distributed executor "
                          "(band shards on a worker pool with persisted "
                          "carries)")
    run.add_argument("--workers", type=int, default=None,
                     help="worker processes for --engine distributed (>1 "
                          "uses real worker processes); rejected by every "
                          "other engine")
    run.add_argument("--shards", type=int, default=None,
                     help="band-shard count for --engine distributed "
                          "(default 2; rejected by other engines)")
    run.add_argument("--policy", default="random",
                     choices=["round_robin", "random", "lifo"])
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--consistency", default="relaxed",
                     choices=["relaxed", "strong"])
    run.add_argument("--detect-uninitialized", action="store_true")
    run.add_argument("--check", action="store_true",
                     help="verify against the NumPy reference (default on)")

    t1 = sub.add_parser("table1", help="print Table I")
    t1.add_argument("-n", "--size", type=int, default=1024)
    t1.add_argument("-W", "--tile-width", type=int, default=32)
    t1.add_argument("--measure", action="store_true",
                    help="also measure counts on the simulator (slower)")
    t1.add_argument("--measure-size", type=int, default=128)

    t3 = sub.add_parser("table3", help="print Table III (model vs paper)")
    t3.add_argument("--no-paper", action="store_true",
                    help="omit the paper's measured rows")
    t3.add_argument("-r", "--hybrid-r", type=float, default=0.25)

    sw = sub.add_parser("sweep-w", help="model times per tile width")
    sw.add_argument("-a", "--algorithm", default="1R1W-SKSS-LB")
    sw.add_argument("-n", "--size", type=int, default=4096)

    sr = sub.add_parser("sweep-r", help="(1+r)R1W model times over r")
    sr.add_argument("-n", "--size", type=int, default=4096)
    sr.add_argument("-W", "--tile-width", type=int, default=64)

    tr = sub.add_parser("trace", help="trace a small SKSS-LB run")
    tr.add_argument("-n", "--size", type=int, default=96)
    tr.add_argument("--residency", type=int, default=2)
    tr.add_argument("--policy", default="lifo",
                    choices=["round_robin", "random", "lifo"])
    tr.add_argument("--seed", type=int, default=0)

    ex = sub.add_parser("export", help="write table1/table3 CSV+JSON files")
    ex.add_argument("-o", "--output-dir", default="exports")
    ex.add_argument("-n", "--size", type=int, default=1024)

    ch = sub.add_parser("chart", help="ASCII log-log chart of Table III")
    ch.add_argument("--device", default="titan-v")

    dv = sub.add_parser("devices", help="cross-device model projections")
    dv.add_argument("-n", "--size", type=int, default=8192)

    fz = sub.add_parser("fuzz", help="differential fuzzing of all algorithms")
    fz.add_argument("--runs", type=int, default=50)
    fz.add_argument("--seed", type=int, default=0)
    fz.add_argument("--mode", default="simulate", choices=list(FUZZ_MODES),
                    help="simulate: algorithms vs the reference on the "
                         "simulator; incremental: random edit sequences "
                         "through IncrementalSAT vs from-scratch recompute; "
                         "sanitize: sampled configs re-run under the "
                         "concurrency sanitizer (also the harness that "
                         "replays modelcheck counterexamples); engine: "
                         "every registered backend vs the "
                         "serial oracle over random algorithm/dtype/shape/"
                         "worker configurations; cost: replay the planted "
                         "traffic regressions through the static cost "
                         "checker (each must be rejected with its expected "
                         "finding kind); distsat: random shard counts, chunk "
                         "sizes and fault plans through the distributed "
                         "executor vs the reference scan (recovery must be "
                         "invisible in the output); numeric: replay the "
                         "planted rounding bugs through the static numeric "
                         "checker and spot-check the proven error bounds "
                         "empirically")
    fz.add_argument("--time-budget", type=float, default=None,
                    help="stop after this many seconds")
    fz.add_argument("--sanitize", action="store_true",
                    help="run every configuration under the concurrency "
                         "sanitizer (races/protocol findings fail the run)")
    fz.add_argument("--replay", metavar="CONFIG", default=None,
                    help="replay one configuration instead of fuzzing: a JSON "
                         "file path or inline JSON as printed for failures "
                         "(the config's own mode field selects the harness)")

    sz = sub.add_parser("sanitize",
                        help="happens-before race detection, protocol "
                             "checking, and static kernel lint")
    sz.add_argument("-a", "--algorithm", action="append", default=None,
                    help="algorithm to sanitize (repeatable; default: all 7)")
    sz.add_argument("-n", "--size", type=int, default=64,
                    help="matrix side per run (default 64)")
    sz.add_argument("-W", "--tile-width", type=int, default=32)
    sz.add_argument("--consistency", action="append", default=None,
                    choices=["relaxed", "strong"],
                    help="consistency mode(s) to run (default: relaxed)")
    sz.add_argument("--policy", action="append", default=None,
                    choices=["round_robin", "random", "lifo"],
                    help="scheduler policy(ies) to run (default: the "
                         "adversarial lifo)")
    sz.add_argument("--seed", type=int, default=0)
    sz.add_argument("--residency", type=int, default=None,
                    help="bound resident blocks (stresses soft sync)")
    sz.add_argument("--no-lint", action="store_true",
                    help="skip the static kernel lint pass")
    sz.add_argument("--no-dynamic", action="store_true",
                    help="skip the sanitized simulation runs (lint only)")
    sz.add_argument("--no-incremental", action="store_true",
                    help="skip the incremental state-retention check "
                         "(carry-plane oracles + recompute bit-identity "
                         "after an edit sequence)")
    sz.add_argument("--json", metavar="PATH", nargs="?", const="-",
                    default=None,
                    help="also emit all findings as JSON (stable ordering) "
                         "to PATH, or to stdout with no argument")

    mc = sub.add_parser("modelcheck",
                        help="exhaustive protocol model checking: extract "
                             "each kernel's synchronization protocol and "
                             "explore every block interleaving on a small "
                             "tile grid (proves deadlock freedom rather "
                             "than sampling schedules)")
    mc.add_argument("-a", "--algorithm", action="append", default=None,
                    help="algorithm (or bug-corpus kernel) to check "
                         "(repeatable; default: all 7 algorithms)")
    mc.add_argument("-t", "--tiles", type=int, default=2,
                    help="tile-grid side: models a t x t grid (default 2)")
    mc.add_argument("--pool", type=int, action="append", default=None,
                    help="resident-block pool size to explore (repeatable; "
                         "above a launch's block count means full "
                         "residency; default: sweep 1..min(4, blocks))")
    mc.add_argument("--acquisition", default="diagonal",
                    help="tile acquisition order for 1R1W-SKSS-LB "
                         "(diagonal, rowmajor, reversed, swapped)")
    mc.add_argument("--no-por", action="store_true",
                    help="disable partial-order reduction (explores the "
                         "unreduced state graph; same verdict, many more "
                         "states — used to cross-check the reduction)")
    mc.add_argument("--max-states", type=int, default=None,
                    help="abort a pool exploration beyond this many states "
                         "(default 500000)")
    mc.add_argument("--corpus", action="store_true",
                    help="also check every planted-bug corpus kernel: each "
                         "must yield a counterexample of its expected kind "
                         "and the control must verify clean")
    mc.add_argument("--json", metavar="PATH", nargs="?", const="-",
                    default=None,
                    help="also emit all results as JSON (stable ordering) "
                         "to PATH, or to stdout with no argument")

    cc = sub.add_parser("costcheck",
                        help="static memory-traffic verification: derive "
                             "each kernel's global reads/writes/atomics/"
                             "fences from its AST, prove the Table I "
                             "classes symbolically, cross-validate "
                             "transaction predictions against the "
                             "simulator's counters, and prove the exact-int "
                             "accumulators overflow-free")
    cc.add_argument("-a", "--algorithm", action="append", default=None,
                    help="algorithm to verify (repeatable; default: all 7 "
                         "Table I rows)")
    cc.add_argument("-n", "--size", type=int, default=128,
                    help="matrix side for the simulator cross-validation "
                         "(default 128)")
    cc.add_argument("-W", "--tile-width", type=int, default=32)
    cc.add_argument("--seed", type=int, default=0)
    cc.add_argument("--no-crossval", action="store_true",
                    help="skip the simulator cross-validation (symbolic "
                         "proof, overflow and corpus only — much faster)")
    cc.add_argument("--no-corpus", action="store_true",
                    help="skip the planted-bug corpus check")
    cc.add_argument("--no-overflow", action="store_true",
                    help="skip the accumulator overflow analysis")
    cc.add_argument("--json", metavar="PATH", nargs="?", const="-",
                    default=None,
                    help="also emit the full result as JSON (stable "
                         "ordering) to PATH, or to stdout with no argument")

    nc = sub.add_parser("numcheck",
                        help="static numerical-accuracy verification: derive "
                             "each kernel's worst-path rounding depth from "
                             "its AST, prove closed-form error bounds per "
                             "algorithm and dtype, validate them against "
                             "measured errors on adversarial inputs, and "
                             "replay the planted rounding-bug corpus")
    nc.add_argument("-a", "--algorithm", action="append", default=None,
                    help="algorithm to verify (repeatable; default: all 7 "
                         "Table I rows)")
    nc.add_argument("-n", "--sizes", type=int, action="append", default=None,
                    help="matrix side for the empirical validation "
                         "(repeatable; default 256, 1024, 4096)")
    nc.add_argument("-W", "--tile-width", type=int, default=32)
    nc.add_argument("--seed", type=int, default=0)
    nc.add_argument("--no-device", action="store_true",
                    help="skip the simulator (device-leg) validation")
    nc.add_argument("--no-corpus", action="store_true",
                    help="skip the planted rounding-bug corpus check")
    nc.add_argument("--json", metavar="PATH", nargs="?", const="-",
                    default=None,
                    help="also emit the full result as JSON (stable "
                         "ordering) to PATH, or to stdout with no argument")

    ib = sub.add_parser("incremental-bench",
                        help="time incremental repair vs full wavefront "
                             "recompute")
    ib.add_argument("-n", "--size", type=int, default=2048,
                    help="matrix side (default 2048)")
    ib.add_argument("-W", "--tile-width", type=int, default=32)
    ib.add_argument("-a", "--algorithm", default="1R1W-SKSS-LB")
    ib.add_argument("--dirty-frac", type=float, default=0.1,
                    help="edited fraction of the frame area (default 0.1)")
    ib.add_argument("--edits", type=int, default=8,
                    help="edits to time, cycling corner/edge/centre patch "
                         "positions (default 8)")
    ib.add_argument("--dtype", default="int32",
                    help="input dtype (integer dtypes use the exact delta "
                         "path; floats the recompute path)")
    ib.add_argument("--strategy", default="auto",
                    choices=["auto", "delta", "recompute"])
    ib.add_argument("--seed", type=int, default=0)
    ib.add_argument("--json", metavar="PATH", default=None,
                    help="also write the result record as JSON")

    rp = sub.add_parser("report", help="write a full reproduction report")
    rp.add_argument("-o", "--output", default="REPRODUCTION_REPORT.md")
    rp.add_argument("--measure-size", type=int, default=128)
    rp.add_argument("--fuzz-runs", type=int, default=25)

    lp = sub.add_parser("list",
                        help="list algorithms, aliases and backends")
    lp.add_argument("--json", metavar="PATH", default=None,
                    help="write the backend capability table as JSON "
                         "('-' for stdout)")
    return p


def _cmd_run(args) -> int:
    from repro.analysis.tolerances import derived_tolerance, sat_close
    from repro.errors import ConfigurationError
    from repro.gpusim import GPU
    from repro.sat import compute_sat, resolve_policy, sat_reference

    rng = np.random.default_rng(args.seed)
    shape = tuple(args.shape) if args.shape else (args.size, args.size)
    try:
        dtype = np.dtype(args.dtype)
    except TypeError as exc:
        raise ConfigurationError(f"unknown dtype {args.dtype!r}") from exc
    # Integer-valued data in every dtype: keeps float64 runs bit-exact
    # against the reference regardless of the accumulation order.
    if np.issubdtype(dtype, np.integer):
        hi = min(100, np.iinfo(dtype).max)
        a = rng.integers(0, hi, size=shape, dtype=dtype)
    elif dtype == np.bool_:
        a = rng.integers(0, 2, size=shape).astype(bool)
    else:
        a = rng.integers(0, 100, size=shape).astype(dtype)
    engine = args.engine
    if engine == "gpusim":
        engine = GPU(seed=args.seed, scheduler_policy=args.policy,
                     consistency=args.consistency,
                     detect_uninitialized=args.detect_uninitialized)
    result = compute_sat(a, algorithm=args.algorithm,
                         tile_width=args.tile_width, engine=engine,
                         workers=args.workers, shards=args.shards)
    acc = resolve_policy(None).accumulator(a.dtype)
    ref = sat_reference(a.astype(acc, copy=False))
    # Budget derived from the algorithm's proven rounding depth — the old
    # fixed rtol=1e-5 was pure guesswork (and unsound for mixed magnitudes).
    tol = derived_tolerance(result.algorithm, a.shape, acc,
                            tile_width=args.tile_width, oracle="reference")
    ok = sat_close(result.sat, ref, tol, abs_input=a)
    print(result.summary())
    print(f"input {a.shape[0]}x{a.shape[1]} {a.dtype.name} -> "
          f"SAT {result.sat.dtype.name}")
    print(f"correct vs reference: {ok}")
    if result.report is not None:
        t = result.report.traffic
        n2 = a.size
        print(f"reads/element: {t.global_read_requests / n2:.3f}   "
              f"writes/element: {t.global_write_requests / n2:.3f}   "
              f"spins: {t.spin_iterations}   fences: {t.fences}   "
              f"bank-conflict cycles: {t.shared_bank_conflict_cycles}")
    return 0 if ok else 1


def _cmd_table1(args) -> int:
    from repro.analysis import check_counts, render_table1

    print(render_table1(args.size, W=args.tile_width))
    if args.measure:
        from repro.gpusim import GPU
        from repro.perfmodel.table import TABLE3_ORDER
        from repro.sat import get_algorithm
        rng = np.random.default_rng(0)
        n = args.measure_size
        a = rng.integers(0, 100, size=(n, n)).astype(np.float64)
        print(f"\nmeasured on the simulator (n={n}, W={args.tile_width}):")
        for name in TABLE3_ORDER:
            res = get_algorithm(name, tile_width=args.tile_width).run(
                a, GPU(seed=1))
            print(" ", check_counts(res))
    return 0


def _cmd_table3(args) -> int:
    from repro.perfmodel import TitanVModel, render_table3
    print(render_table3(TitanVModel(), r=args.hybrid_r,
                        compare_paper=not args.no_paper))
    return 0


def _cmd_sweep_w(args) -> int:
    from repro.perfmodel import TILE_WIDTHS, TitanVModel
    from repro.sat import get_algorithm
    name = get_algorithm(args.algorithm).name
    model = TitanVModel()
    print(f"{name} at n={args.size} (model):")
    for W in TILE_WIDTHS:
        if args.size % W or W > args.size:
            print(f"  W={W:<4} (skipped: incompatible with n)")
            continue
        bd = model.estimate(name, args.size, W=W)
        print(f"  W={W:<4} {bd.total_ms:9.4f} ms "
              f"({len(bd.kernels)} kernel(s))")
    return 0


def _cmd_sweep_r(args) -> int:
    from repro.perfmodel import TitanVModel
    model = TitanVModel()
    print(f"(1+r)R1W at n={args.size}, W={args.tile_width} (model):")
    results = {}
    for r in (0.0, 0.05, 0.1, 0.2, 0.3, 0.45, 0.6, 0.8, 1.0):
        ms = model.estimate("(1+r)R1W", args.size, W=args.tile_width,
                            r=r).total_ms
        results[r] = ms
        print(f"  r={r:<5} {ms:9.4f} ms")
    best = min(results, key=results.get)
    print(f"best r: {best}")
    return 0


def _cmd_trace(args) -> int:
    from repro.gpusim import GPU, TINY_DEVICE, Tracer, render_timeline
    from repro.sat import SKSSLB1R1W, sat_reference

    rng = np.random.default_rng(args.seed)
    a = rng.integers(0, 10, size=(args.size, args.size)).astype(np.float64)
    tracer = Tracer()
    gpu = GPU(device=TINY_DEVICE, seed=args.seed,
              scheduler_policy=args.policy,
              max_resident_blocks=args.residency, tracer=tracer)
    res = SKSSLB1R1W().run(a, gpu)
    ok = np.array_equal(res.sat, sat_reference(a))
    print(f"n={args.size}, residency={args.residency}, policy={args.policy}, "
          f"correct={ok}")
    print(f"events: {dict(tracer.counts())}")
    print(render_timeline(tracer.events))
    return 0 if ok else 1


def _cmd_export(args) -> int:
    from repro.perfmodel.export import write_all
    written = write_all(args.output_dir, n=args.size)
    for path in written:
        print(f"wrote {path}")
    return 0


def _cmd_chart(args) -> int:
    from repro.perfmodel.charts import table3_chart
    from repro.perfmodel.devices import model_for_device
    print(table3_chart(model_for_device(args.device)))
    return 0


def _cmd_devices(args) -> int:
    from repro.perfmodel.charts import bar_chart
    from repro.perfmodel.devices import DEVICE_SPECS, cross_device_summary
    summary = cross_device_summary(args.size)
    print(f"model projections at n={args.size} "
          f"(calibration scaled by spec bandwidth):\n")
    header = f"{'device':<12} {'BW GB/s':>8} {'dup ms':>9} " \
             f"{'SKSS-LB ms':>11} {'overhead':>9}"
    print(header)
    print("-" * len(header))
    for key, row in summary.items():
        spec = DEVICE_SPECS[key]
        lb = row["1R1W-SKSS-LB"]
        dup = row["duplication"]
        print(f"{key:<12} {spec.spec_bandwidth_gbps:>8.0f} {dup:>9.3f} "
              f"{lb:>11.3f} {100 * (lb - dup) / dup:>8.1f}%")
    print()
    print(bar_chart({k: v["1R1W-SKSS-LB"] for k, v in summary.items()},
                    unit=" ms", title="1R1W-SKSS-LB time per device"))
    return 0


def _cmd_fuzz(args) -> int:
    from repro.analysis.fuzzing import fuzz, load_replay_config, run_one
    if args.replay is not None:
        config = load_replay_config(args.replay)
        error = run_one(config, sanitize=args.sanitize)
        print(f"replay {config.to_json()}")
        if error is None:
            print("replay: OK")
            return 0
        print(f"replay: FAIL {error}")
        return 1
    report = fuzz(args.runs, seed=args.seed, time_budget_s=args.time_budget,
                  sanitize=args.sanitize, mode=args.mode)
    print(report.summary())
    for config, error in report.failures:
        print(f"  FAIL {error}\n       replay: {config.to_json()}")
    return 0 if report.ok else 1


def _write_json(payload, dest: str) -> None:
    """Emit a JSON artifact to a path, or to stdout when ``dest`` is ``-``."""
    import json as _json
    text = _json.dumps(payload, indent=2, sort_keys=True)
    if dest == "-":
        print(text)
    else:
        with open(dest, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {dest}")


def _cmd_sanitize(args) -> int:
    from dataclasses import asdict

    from repro.analysis import lint_paths, sanitize_all
    rc = 0
    record = {"lint": None, "runs": None, "incremental": None}
    if not args.no_lint:
        findings = lint_paths()
        print(f"kernel lint: {len(findings)} finding(s)")
        for f in findings:
            print(f"  {f}")
        record["lint"] = [asdict(f) for f in findings]  # already line-sorted
        if findings:
            rc = 1
    if not args.no_dynamic:
        report = sanitize_all(
            args.algorithm, n=args.size, tile_width=args.tile_width,
            consistencies=tuple(args.consistency or ("relaxed",)),
            policies=tuple(args.policy or ("lifo",)),
            seed=args.seed, residency=args.residency)
        for run in report.runs:
            print(run.summary())
            for f in run.findings:
                print(f"    {f}")
        print(report.summary())
        record["runs"] = [
            {**asdict(run),
             "findings": sorted(
                 (asdict(f) for f in run.findings),
                 key=lambda d: (d["rule"], d["kernel"], d["buffer"],
                                d["index"] if d["index"] is not None else -1,
                                d["block"]))}
            for run in report.runs]
        if not report.ok:
            rc = 1
    if not args.no_incremental:
        from repro.hostexec.incremental import sanitize_incremental
        findings = sanitize_incremental(n=max(args.size, 2 * args.tile_width),
                                        tile_width=args.tile_width,
                                        seed=args.seed)
        print(f"incremental state retention: {len(findings)} finding(s)")
        for f in findings:
            print(f"  {f}")
        record["incremental"] = sorted(str(f) for f in findings)
        if findings:
            rc = 1
    if args.json:
        record["ok"] = rc == 0
        _write_json(record, args.json)
    return rc


def _cmd_modelcheck(args) -> int:
    from repro.analysis import TABLE1_ORDER, check
    from repro.analysis.modelcheck import DEFAULT_MAX_STATES
    max_states = (DEFAULT_MAX_STATES if args.max_states is None
                  else args.max_states)
    pools = tuple(args.pool) if args.pool else None
    rc = 0
    records = []
    for name in args.algorithm or TABLE1_ORDER:
        result = check(name, args.tiles, acquisition=args.acquisition,
                       por=not args.no_por, pools=pools,
                       max_states=max_states)
        print(result.report())
        records.append(result.to_dict())
        if not result.ok:
            rc = 1
    if args.corpus:
        from repro.analysis.bugcorpus import CONTROL, CORPUS
        for spec in CORPUS + (CONTROL,):
            result = check(spec.name, por=not args.no_por,
                           max_states=max_states)
            print(result.report())
            kinds = sorted({v.kind for v in result.violations()})
            expected = spec.expected_model
            met = result.ok if not expected else expected in kinds
            verdict = ("clean as expected" if not expected and met else
                       f"counterexample '{expected}' found" if met else
                       f"expected '{expected or 'clean'}', "
                       f"got {kinds or 'none'}")
            print(f"  corpus expectation: {verdict}")
            record = result.to_dict()
            record["expectation_met"] = met
            records.append(record)
            if not met:
                rc = 1
    if args.json:
        _write_json({"ok": rc == 0, "results": records}, args.json)
    return rc


def _cmd_costcheck(args) -> int:
    from repro.analysis.costcheck import render_report, run_costcheck
    result = run_costcheck(args.algorithm, crossval=not args.no_crossval,
                           corpus=not args.no_corpus,
                           overflow=not args.no_overflow,
                           n=args.size, W=args.tile_width, seed=args.seed)
    print(render_report(result))
    if args.json:
        _write_json(result, args.json)
    return 0 if result["ok"] else 1


def _cmd_numcheck(args) -> int:
    from repro.analysis.numcheck import render_numcheck_report, run_numcheck
    result = run_numcheck(args.algorithm,
                          sizes=tuple(args.sizes) if args.sizes
                          else (256, 1024, 4096),
                          device=not args.no_device,
                          corpus=not args.no_corpus,
                          W=args.tile_width, seed=args.seed)
    print(render_numcheck_report(result))
    if args.json:
        _write_json(result, args.json)
    return 0 if result["ok"] else 1


def _cmd_incremental_bench(args) -> int:
    import json as _json

    from repro.hostexec.incremental import repair_benchmark
    result = repair_benchmark(
        args.size, dirty_frac=args.dirty_frac, edits=args.edits,
        tile_width=args.tile_width, algorithm=args.algorithm,
        dtype=args.dtype, strategy=args.strategy, seed=args.seed)
    print(f"n={result['n']} W={result['tile_width']} "
          f"{result['algorithm']} {result['dtype']} "
          f"(strategy={result['strategy']}, "
          f"dirty {100 * result['dirty_frac']:.0f}% = "
          f"{result['patch_side']}² patch)")
    print(f"full recompute: {1e3 * result['full_recompute_s']:8.2f} ms")
    print(f"repair mean:    {1e3 * result['repair_mean_s']:8.2f} ms   "
          f"({result['speedup_mean']:.1f}x)")
    print(f"repair worst:   {1e3 * result['repair_worst_s']:8.2f} ms   "
          f"({result['speedup_worst_case']:.1f}x)")
    print(f"repaired tiles: {100 * result['repaired_tile_fraction_mean']:.1f}% "
          f"of grid (mean over {result['edits']} edits)")
    print(f"bit-identical to from-scratch: {result['bit_identical']}")
    if args.json:
        with open(args.json, "w") as fh:
            _json.dump(result, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.json}")
    return 0 if result["bit_identical"] else 1


def _cmd_report(args) -> int:
    from repro.report import write_report
    path = write_report(args.output, measure_size=args.measure_size,
                        fuzz_runs=args.fuzz_runs)
    print(f"wrote {path}")
    return 0


def _cmd_list(args) -> int:
    from repro.analysis.numcheck import error_bound_strings
    from repro.backend.registry import backend_specs, backend_table
    from repro.sat import ALGORITHMS
    from repro.sat.registry import _ALIASES

    def _listing() -> dict:
        from repro._version import __version__ as version
        return {"version": version,
                "algorithms": {name: sorted(
                    k for k, v in _ALIASES.items() if v == name)
                    for name in ALGORITHMS},
                "error_bounds": error_bound_strings(),
                "backends": backend_table()}

    if args.json == "-":
        # JSON-to-stdout must stay pipeable: emit only the artifact.
        _write_json(_listing(), args.json)
        return 0
    print("algorithms:")
    for name, cls in ALGORITHMS.items():
        aliases = sorted(k for k, v in _ALIASES.items() if v == name)
        print(f"  {name:<14} ({cls.__name__}; aliases: {', '.join(aliases)})")
    print("\nbackends:")
    for name, spec in backend_specs().items():
        notes = [spec.kind]
        if spec.bit_identical:
            notes.append("bit-identical")
        if spec.retains_state:
            notes.append("carries")
        if spec.algorithms is not None:
            notes.append(f"{len(spec.algorithms)} tile algorithms")
        print(f"  {name:<10} {spec.summary} [{'; '.join(notes)}]")
    if args.json is not None:
        _write_json(_listing(), args.json)
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "table1": _cmd_table1,
    "table3": _cmd_table3,
    "sweep-w": _cmd_sweep_w,
    "sweep-r": _cmd_sweep_r,
    "trace": _cmd_trace,
    "export": _cmd_export,
    "chart": _cmd_chart,
    "devices": _cmd_devices,
    "fuzz": _cmd_fuzz,
    "sanitize": _cmd_sanitize,
    "modelcheck": _cmd_modelcheck,
    "costcheck": _cmd_costcheck,
    "numcheck": _cmd_numcheck,
    "incremental-bench": _cmd_incremental_bench,
    "report": _cmd_report,
    "list": _cmd_list,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
