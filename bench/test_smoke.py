"""Smoke test of the benchmark harness: each workload runs for about a
second, traced and untraced, and must print every metric BENCHMARK.json
names, with its unit, and no failed op. Also the per-op time bound, the
shots band, the run without the program, and the compare verdicts."""
from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import checks  # noqa: E402
import compare  # noqa: E402
import workload  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
CIRCUIT_CALLS = {"sweep-haar": 1.0, "cavity-relay": 2.0, "shots-noisy": 1.0}
SELF_TIMES = ("gates", "statevec", "protocol", "cavity", "estimation", "concurrence", "cli")


def bench(workload: str, trace: int, cwd: str = ROOT, script_root: str = ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(script_root, "bench", "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.split()[:1] == [m["name"]] and line.endswith(" " + m["unit"])
                   for line in lines), m["name"]
    assert "stamp" in json.loads(lines[-2])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        assert metrics["protocol.run_circuit_calls_per_op"] == CIRCUIT_CALLS[workload]
        parts = sum(metrics[f"{layer}.self_us_per_op"] for layer in SELF_TIMES)
        parts += metrics["trace.unattributed_us_per_op"]
        assert parts == pytest.approx(metrics["trace.op_us"], rel=1e-9)
    else:
        assert all(v > 0 for v in metrics.values())


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = bench(WORKLOADS[0], 0, cwd=str(tmp_path), script_root=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_overrunning_op_counts_as_failed(monkeypatch):
    class Stub:
        def argvs(self, j):
            return [["sweep"]]

        def check(self, j, calls):
            return None

    monkeypatch.setattr(workload, "OP_TIMEOUT_S", 0.05)
    previous = signal.signal(signal.SIGALRM, workload._alarm)
    try:
        phase = workload.Phase()
        workload.run_op(lambda argv: time.sleep(5), Stub(), 0, phase)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert phase.failed == 1 and "OpTimeout" in phase.failures[0]


@pytest.mark.parametrize("k, n, p, plausible", [
    (924, 100_000, 1 / 128, True),  # 5.1 sigma: one correct op in ~3e6 lands here
    (1000, 100_000, 1 / 128, False),
    (560, 100_000, 1 / 128, False),
    (0, 100_000, 0.0, True),
    (1, 100_000, 0.0, False),
    (round(1.6e8 / 128 * 1.02), 1.6e8, 1 / 128, False),  # pooled 2% bias
])
def test_shots_band(k, n, p, plausible):
    assert checks.binomial_plausible(k, n, p) == plausible


@pytest.mark.parametrize("base, change, better, expected", [
    ([10.0] * 10, [12.0] * 10, "higher", "improved"),
    ([10.0] * 10, [12.0] * 9, "higher", "unchanged"),  # nine pairs are too few
    ([10.0] * 10, [8.0] * 10, "higher", "worse"),
    ([10.0] * 10, [9.5] * 10, "higher", "unchanged"),
    ([10.0] * 10, [10.5] * 10, "lower", "unchanged"),
    ([10.0, 14.0] * 5, [11.0] * 10, "lower", "unresolved"),
    ([10.0, 14.0] * 5, [9.0] * 10, "lower", "unchanged"),
])
def test_compare_verdicts(base, change, better, expected):
    assert compare.verdict(base, change, better, bound=0.1) == expected
