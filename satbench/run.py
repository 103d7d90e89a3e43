#!/usr/bin/env python3
"""The layered SAT benchmark: one workload, timed end to end or per layer.

Usage, from the root of a checkout::

    python3 satbench/run.py --workload large --seed 1 --seconds 10 --trace 0

``--workload`` is one of ``large``, ``small``, ``video``, ``sharded`` (see
``workloads.py``).  ``--seed`` makes the inputs; the same seed gives the same
inputs.  The run sets the program up from nothing several times (each
set-up ends with one cold operation per input class), repeats the
workload's operation for ``--seconds`` seconds of wall time, checking every
result, finishes the cycle of inputs it is in, and then sets the program up
several times again.

With ``--trace 0`` no probe is installed and the end-to-end metrics are
reported:

``latency_vs_numpy``  an operation's wall time divided by that of the plain
                      single-threaded NumPy double cumsum of the same input,
                      run right before or after it: the median per input
                      class and order, then the geometric mean over those.
                      The pair shares whatever load the machine is under,
                      so the ratio moves with the program, not with its
                      neighbours; absolute latencies are printed to
                      standard error.
``setup_s``           median time to build the program's state and serve
                      one operation of each input class cold

With ``--trace 1`` the layer probes of ``probes.py`` are installed before
set-up and the per-layer metrics are reported instead: the traced operation
time, each layer's share of the operation's wall time (its self time) and
per-operation counts.  Comparing
``op_ms`` with the mean latency an untraced run prints gives the probes'
overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a human summary goes
to standard error.  Scratch files (distsat checkpoints) live under
``.satbench/`` at the root of the checkout and are removed on exit.  The
program is imported from ``src/`` of the checkout; without it the benchmark
exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

from workloads import WORKERS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
#: Set-ups before and again after the operations: at least this many, for
#: at least this long each time; the median of all is ``setup_s``.  Cheap
#: set-ups so take many samples, costly ones a few.
SETUP_MIN = 3
SETUP_SECONDS = 1.5


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_program() -> None:
    """Put the checkout's ``src/`` on the path and import the program."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"satbench: no program to measure: {src / 'repro'} is missing",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import repro  # noqa: F401


def set_up(workload, setup_s: list[float]) -> int:
    """Set ``workload`` up from nothing at least :data:`SETUP_MIN` times and
    for at least :data:`SETUP_SECONDS`, appending each set-up time to
    ``setup_s``; the last set-up stays.  Returns the wrong results."""
    wrong = 0
    spent = 0.0
    k = 0
    while k < SETUP_MIN or spent < SETUP_SECONDS:
        if k:
            workload.teardown()
        t0 = time.perf_counter()
        cold = workload.setup()
        setup_s.append(time.perf_counter() - t0)
        spent += setup_s[-1]
        k += 1
        if not workload.check_setup(cold):
            wrong += 1
        del cold
    return wrong


def measure(workload, seconds: float, rec=None) -> dict:
    """Set up, run operations for ``seconds``, set up again; returns raw
    figures.  Set-ups are sampled before and after the operations, so their
    median spans the whole run's load, not one moment of it."""
    setup_s: list[float] = []
    #: ((input class, op ran first), operation s, baseline s) per operation
    pairs: list[tuple[tuple[int, bool], float, float]] = []
    failed = 0
    i = 0
    try:
        wrong = set_up(workload, setup_s)
        if rec is not None:
            rec.reset()
        deadline = time.perf_counter() + seconds
        # At least one whole cycle of inputs, and never part of one.
        while not i or i % workload.period \
                or time.perf_counter() < deadline:
            workload.stage(i)
            # Whichever of the pair runs second finds the input warm in
            # cache, so the order flips every cycle of inputs and ratios are
            # summarized per order: each summary sees one order only.
            op_first = (i // workload.period) % 2 == 0
            if not op_first:
                base_s, base = timed(workload.baseline, i)
            try:
                if rec is not None:
                    rec.enabled = True
                op_s, result = timed(workload.op, i)
            except Exception:  # noqa: BLE001 - count it, keep measuring
                traceback.print_exc()
                failed += 1
                i += 1
                continue
            finally:
                if rec is not None:
                    rec.enabled = False
            if op_first:
                base_s, base = timed(workload.baseline, i)
            pairs.append(((workload.case(i), op_first), op_s, base_s))
            if not workload.check(i, result, base):
                wrong += 1
            workload.after(i, result)
            del result, base
            i += 1
        workload.teardown()
        wrong += set_up(workload, setup_s)
    finally:
        workload.teardown()
    return {"setup_s": setup_s, "pairs": pairs, "attempted": i,
            "failed": failed, "wrong": wrong}


def timed(fn, i: int):
    t0 = time.perf_counter()
    out = fn(i)
    return time.perf_counter() - t0, out


def numpy_ratio(pairs) -> float:
    """Geometric mean over (input class, order) of each one's median ratio."""
    ratios: dict[tuple[int, bool], list[float]] = {}
    for key, op_s, base_s in pairs:
        ratios.setdefault(key, []).append(op_s / base_s)
    return statistics.geometric_mean(statistics.median(r)
                                     for r in ratios.values())


def end_to_end(raw: dict) -> dict:
    return {
        "latency_vs_numpy": {"value": numpy_ratio(raw["pairs"]),
                             "unit": "x"},
        "setup_s": {"value": statistics.median(raw["setup_s"]), "unit": "s"},
    }


def per_layer(raw: dict, rec) -> dict:
    from probes import LAYERS
    ops = len(raw["pairs"])
    wall = sum(op_s for _, op_s, _ in raw["pairs"])
    metrics = {"op_ms": (1e3 * wall / ops, "ms")}
    attributed = 0.0
    for layer in LAYERS:
        attributed += rec.self_time[layer]
        metrics[f"{layer}_pct"] = (100 * rec.self_time[layer] / wall, "%")
    metrics["other_pct"] = (100 * (wall - attributed) / wall, "%")
    metrics["tiles_per_op"] = (rec.counters["tiles"] / ops, "count")
    metrics["kernel_calls_per_op"] = (rec.calls["kernel"] / ops, "count")
    metrics["wire_kib_per_op"] = (rec.counters["wire_bytes"] / 1024 / ops,
                                  "KiB")
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()}


def summarize(name: str, raw: dict) -> str:
    lat = sorted(op_s for _, op_s, _ in raw["pairs"])
    setup = raw["setup_s"]
    line = (f"satbench {name}: {len(lat)} ops, {raw['failed']} failed, "
            f"{raw['wrong']} wrong; {len(setup)} set-ups, median "
            f"{statistics.median(setup):.4f} s")
    if len(lat) >= 4:
        q1, q2, q3 = statistics.quantiles(lat, n=4)
        base = statistics.median(base_s for _, _, base_s in raw["pairs"])
        line += (f"; latency ms mean {1e3 * statistics.mean(lat):.3f} "
                 f"q1 {1e3 * q1:.3f} median {1e3 * q2:.3f} q3 {1e3 * q3:.3f} "
                 f"max {1e3 * lat[-1]:.3f}; numpy ms median "
                 f"{1e3 * base:.3f}")
    return line


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        sys.exit("satbench: --seconds must be positive")
    # Pin the shared engine's pool (distsat bands run on it) to the size of
    # the engines the workloads build, whatever the caller's environment.
    os.environ["REPRO_WORKERS"] = str(WORKERS)
    import_program()

    workdir = ROOT / ".satbench" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    rec = probes = None
    try:
        if args.trace:
            from probes import Recorder, install
            rec = Recorder()
            probes = install(rec)
        workload = WORKLOADS[args.workload](args.seed, str(workdir))
        raw = measure(workload, args.seconds, rec)
    finally:
        if probes is not None:
            probes.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    print(summarize(args.workload, raw), file=sys.stderr)
    if not raw["pairs"]:
        sys.exit("satbench: every operation failed")
    metrics = per_layer(raw, rec) if args.trace else end_to_end(raw)
    print(json.dumps({"correct": raw["wrong"] == 0,
                      "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
