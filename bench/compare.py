"""Compare two sets of benchmark runs, metric by metric.

    python3 bench/compare.py BASE.log CHANGE.log

Each file holds the saved output of any number of `run.py --trace 0`
runs (a stamp line followed by a result line per run). For each workload
and each end-to-end metric in BENCHMARK.json it prints the medians and
quartiles of both sides and one verdict:

- improved: at least ten pairs (i-th base run against i-th change run),
  the change wins at least nine tenths of them, ties counting for
  neither, and the medians differ by more than the base runs' quartile
  spread;
- worse: the change's median is worse than the base median by more than
  the metric's bound;
- unresolved: neither, and the base runs spread (quartile distance over
  median) wider than the bound, unless every change run beats every base
  run; also every metric of runs from different environments;
- unchanged: otherwise.

error_rate is compared by its mean: any rise is worse.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(path: str) -> dict[str, list[dict]]:
    """Runs with tracing off, by workload: {"stamp": ..., "result": ...}."""
    runs: dict[str, list[dict]] = {}
    stamp = None
    with open(path) as fh:
        for line in fh:
            try:
                doc = json.loads(line)
            except json.JSONDecodeError:
                continue
            if not isinstance(doc, dict):
                continue
            if "stamp" in doc:
                stamp = doc["stamp"]
            elif "metrics" in doc and stamp is not None:
                if stamp["trace"] == 0:
                    runs.setdefault(stamp["workload"], []).append(
                        {"stamp": stamp, "result": doc})
                stamp = None
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list[float], change: list[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "higher" else -1.0
    b1, b_med, b3 = quartiles(base)
    c_med = quartiles(change)[1]
    pairs = list(zip(base, change))
    wins = sum(sign * (c - b) > 0 for b, c in pairs)
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and sign * (c_med - b_med) > b3 - b1):
        return "improved"
    if sign * (c_med - b_med) < -bound * abs(b_med):
        return "worse"
    all_better = min(sign * c for c in change) > max(sign * b for b in base)
    if (b3 - b1) > bound * abs(b_med) and not all_better:
        return "unresolved"
    return "unchanged"


def compare(base_path: str, change_path: str, spec: dict) -> list[str]:
    base, change = load_runs(base_path), load_runs(change_path)
    envs = {json.dumps(r["stamp"]["env"], sort_keys=True)
            for side in (base, change) for rs in side.values() for r in rs}
    lines = []
    if len(envs) > 1:
        lines.append("environments differ between or within the sets: "
                     "every metric is unresolved")
    fmt = "{:14s} {:14s} {:>30s} {:>30s}  {}"
    lines.append(fmt.format("workload", "metric", "base median [q1, q3]",
                            "change median [q1, q3]", "verdict"))
    for workload in sorted(set(base) & set(change)):
        b_runs, c_runs = base[workload], change[workload]
        for m in spec["end_to_end"]:
            b = [r["result"]["metrics"][m["name"]]["value"] for r in b_runs]
            c = [r["result"]["metrics"][m["name"]]["value"] for r in c_runs]
            v = "unresolved" if len(envs) > 1 else verdict(b, c, m["better"], m["bound"])
            if m["name"] == "op_tail_ms":
                pcts = {r["stamp"]["op_tail_percentile"] for r in b_runs + c_runs}
                if len(pcts) > 1:
                    v = f"unresolved (percentiles {sorted(pcts)} differ)"
            lines.append(fmt.format(workload, m["name"], _summary(b), _summary(c), v))
        b_err = statistics.mean(r["stamp"]["error_rate"] for r in b_runs)
        c_err = statistics.mean(r["stamp"]["error_rate"] for r in c_runs)
        v = "worse" if c_err > b_err else "improved" if c_err < b_err else "unchanged"
        lines.append(fmt.format(workload, "error_rate", f"{b_err:.3g}", f"{c_err:.3g}", v))
    for workload in sorted(set(base) ^ set(change)):
        lines.append(f"{workload}: runs on one side only, not compared")
    return lines


def _summary(values: list[float]) -> str:
    q1, q2, q3 = quartiles(values)
    return f"{q2:.4g} [{q1:.4g}, {q3:.4g}] n={len(values)}"


def main() -> int:
    parser = argparse.ArgumentParser(description="Compare two sets of benchmark runs.")
    parser.add_argument("base")
    parser.add_argument("change")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    print("\n".join(compare(args.base, args.change, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
