"""concmeter benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload sweep-haar --seed 1 --seconds 10 --trace 0

Run from anywhere; it uses the checkout that holds this file and imports
concmeter from its `src/`. It starts SETUP_PROBES fresh interpreters that
each import `concmeter.cli`, generate the inputs and run one warm-up op,
half of them before and half after one more that also runs the workload
for --seconds (see workload.py). Every workload process runs with BLAS threads pinned to 1.

With --trace 0 the result holds the end-to-end metrics, measured with
tracing off. Times are reported at nominal machine speed: each op's and
each set-up's time is scaled by the reference computation of
reference.py timed beside it, which a shared machine slows as much as
the program; the raw figures are in the stamp. With --trace 1 it holds
the per-layer metrics: the process runs half of --seconds untraced and
half traced, and writes the spans to `.bench-out/spans-<workload>.csv`.

The last line printed is one JSON object with the keys correct,
attempted, failed and metrics. The line before it is a JSON stamp with
the environment and the details behind the metrics; `compare.py` reads
both from saved output.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import reference
from workload import LAYER_UNITS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("sweep-haar", "cavity-relay", "shots-noisy")
SETUP_PROBES = 8
RUN_BUDGET_S = 170  # every process of one run ends within this
WINDOW_OPS = 51  # consecutive ops that share one reference median
TAIL_PERCENTILES = (99.0, 90.0, 50.0)
TAIL_SAMPLES_BEYOND = 10
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "states_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


def start_workload(args, workdir: str, setup_only: bool, deadline: float) -> dict:
    """Run one workload process to completion, killing it at the
    monotonic-clock deadline, and return its JSON."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               **{k: "1" for k in PINNED_THREADS})
    argv = [sys.executable, os.path.join(BENCH_DIR, "workload.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--workdir", workdir]
    if setup_only:
        argv.append("--setup-only")
    t0 = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(argv + ["--t0-ns", str(t0)], env=env, cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"the run overran {RUN_BUDGET_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"workload process exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def at_nominal_speed(phase: dict) -> list[float]:
    """Each op's latency in ns as it would read on a machine where the
    reference computation takes reference.NOMINAL_NS: scaled by the median
    reference time of its window of WINDOW_OPS consecutive ops. Neighbours
    on a shared machine slow the program and the reference alike, for
    seconds to minutes at a time; the ratio moves with the code, not with
    them."""
    lat, ref = phase["latencies_ns"], phase["reference_ns"]
    scaled = []
    for w in range(0, len(lat), WINDOW_OPS):
        scale = reference.NOMINAL_NS / statistics.median(ref[w:w + WINDOW_OPS])
        scaled += [x * scale for x in lat[w:w + WINDOW_OPS]]
    return scaled


def tail(latencies_ns: list[int]) -> tuple[float, float]:
    """The highest percentile in TAIL_PERCENTILES with at least
    TAIL_SAMPLES_BEYOND samples beyond it, and its nearest-rank value."""
    ordered = sorted(latencies_ns)
    n = len(ordered)
    pct = next((p for p in TAIL_PERCENTILES
                if n * (100.0 - p) / 100.0 >= TAIL_SAMPLES_BEYOND), TAIL_PERCENTILES[-1])
    return pct, ordered[max(0, math.ceil(pct / 100.0 * n) - 1)]


def end_to_end(main: dict, setup_samples: list[float]) -> tuple[dict, dict]:
    if not main["timed"]["latencies_ns"]:
        raise BenchError("no op passed: " + "; ".join(main["timed"]["failures"]))
    lat = at_nominal_speed(main["timed"])
    ops = len(lat) / (sum(lat) / 1e9)
    pct, tail_ns = tail(lat)
    values = {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": ops,
        "states_per_s": ops * main["states_per_op"],
        "op_p50_ms": statistics.median(lat) / 1e6,
        "op_tail_ms": tail_ns / 1e6,
        "peak_rss_mb": main["peak_rss_mb"],
    }
    notes = {"op_tail_percentile": pct, "latency_samples": len(lat)}
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}, notes


def per_layer(main: dict, import_samples: list[float]) -> dict:
    metrics = {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in main["layer_metrics"].items()}
    metrics["cli.import_s"] = {"value": statistics.median(import_samples), "unit": "s"}
    if not (main["timed"]["latencies_ns"] and main["traced"]["latencies_ns"]):
        raise BenchError("no op passed: " + "; ".join(main["traced"]["failures"]))
    untraced, traced = (statistics.median(at_nominal_speed(main[phase]))
                        for phase in ("timed", "traced"))
    metrics["trace.overhead_frac"] = {"value": traced / untraced - 1.0, "unit": "ratio"}
    return metrics


def run(args) -> int:
    if not os.path.isfile(os.path.join(ROOT, "src", "concmeter", "cli.py")):
        raise BenchError(f"no concmeter source under {os.path.join(ROOT, 'src')}")
    deadline = time.monotonic() + RUN_BUDGET_S
    workdir = tempfile.mkdtemp(prefix=".bench-tmp-", dir=ROOT)
    try:
        # probes before and after the main process, so that setup_s does
        # not rest on one moment of a shared machine
        probes = [start_workload(args, workdir, True, deadline)
                  for _ in range(SETUP_PROBES // 2)]
        main = start_workload(args, workdir, False, deadline)
        probes += [start_workload(args, workdir, True, deadline)
                   for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    runs = probes + [main]
    phases = [r["warmup"] for r in runs] + [main["timed"]] + (
        [main["traced"]] if args.trace else []) + [main["pooled"]]
    attempted = sum(p["attempted"] for p in phases)
    failed = sum(p["failed"] for p in phases)
    failures = [f for p in phases for f in p["failures"]]

    setup_samples = [r["setup_s"] * reference.NOMINAL_NS / r["setup_reference_ns"]
                     for r in runs]
    if args.trace:
        metrics = per_layer(main, [r["import_s"] for r in runs])
        notes = {"spans": main["spans"],
                 "computed_from_sizes": ["statevec.bytes_moved_per_op"]}
    else:
        metrics, notes = end_to_end(main, setup_samples)
    stamp = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": main["env"],
        "error_rate": failed / attempted, "failures": failures[:5],
        "setup_samples_s": setup_samples,
        "raw_setup_samples_s": [r["setup_s"] for r in runs],
        "raw_op_p50_ms": statistics.median(main["timed"]["latencies_ns"] or [0]) / 1e6,
        "reference_p50_us": statistics.median(main["timed"]["reference_ns"] or [0]) / 1e3,
        "states_per_op": main["states_per_op"],
        **notes, **main["report"],
    }

    print(f"{args.workload}  seed {args.seed}  {args.seconds} s  trace {args.trace}")
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    print(f"  {'error_rate':36s} {failed / attempted:.6g} fraction "
          f"({failed} of {attempted} ops failed)")
    if "op_tail_percentile" in notes:
        print(f"  op_tail_ms is the p{notes['op_tail_percentile']:g} latency "
              f"of {notes['latency_samples']} ops")
    for f in failures[:5]:
        print(f"  failed: {f}")
    print(json.dumps({"stamp": stamp}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one concmeter benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        return run(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
