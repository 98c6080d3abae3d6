"""One workload process, started by run.py.

It imports `concmeter.cli` from the checkout's `src/` (run.py puts it
on PYTHONPATH; the import is checked), generates the inputs from the
seed, runs one warm-up op and then a closed loop with one client: each
op is one or more calls of `concmeter.cli.main(argv)` in this
single-threaded process, timed around the calls only, and checked
afterwards by the workload's oracles. An op that raises, exits with an
unexpected code, overruns OP_TIMEOUT_S or fails its check counts as
failed. After set-up and after each op that passed, the fixed
computation in reference.py is timed too, so that run.py can tell a
slower program from a slower machine. After the last op the workload's pooled checks, which look at
all ops of the process together, count as one attempt each.

With --trace 1 an untraced phase is followed by a traced one (see
tracer.py) and the per-layer metrics are computed from its spans.

Prints one JSON object of raw measurements as its last line.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from time import perf_counter_ns

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OP_TIMEOUT_S = 10.0
SETUP_REFERENCE_RUNS = 51  # reference computations timed right after set-up
FAILURES_KEPT = 5
LAYER_UNITS = {
    "gates.calls_per_op": "calls/op",
    "gates.self_us_per_op": "us",
    "statevec.calls_per_op": "calls/op",
    "statevec.self_us_per_op": "us",
    "statevec.apply_1q_us": "us",
    "statevec.apply_2q_us": "us",
    "statevec.bytes_moved_per_op": "B/op",
    "protocol.run_circuit_us": "us",
    "protocol.self_us_per_op": "us",
    "protocol.run_circuit_calls_per_op": "calls/op",
    "protocol.distinct_input_ratio": "ratio",
    "cavity.run_cavity_realization_us": "us",
    "cavity.self_us_per_op": "us",
    "cavity.solve_delays_us": "us",
    "estimation.simulate_shots_us": "us",
    "estimation.self_us_per_op": "us",
    "estimation.wilson_coverage": "fraction",
    "concurrence.haar_random_us": "us",
    "concurrence.self_us_per_op": "us",
    "cli.self_us_per_op": "us",
    "trace.op_us": "us",
    "trace.unattributed_us_per_op": "us",
}
# per-call times of functions a workload may never call; 0 when uncalled
PER_CALL = {
    "statevec.apply_1q_us": "statevec.apply_1q",
    "statevec.apply_2q_us": "statevec.apply_2q",
    "protocol.run_circuit_us": "protocol.run_circuit",
    "cavity.run_cavity_realization_us": "cavity.run_cavity_realization",
    "cavity.solve_delays_us": "cavity.solve_delays",
    "estimation.simulate_shots_us": "estimation.simulate_shots",
    "concurrence.haar_random_us": "concurrence.PureState.haar_random",
}


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout(f"op overran {OP_TIMEOUT_S} s")


class Phase:
    """Latencies of the ops that passed, in op order, each with the time of
    the reference computation run after it, and the failures."""

    def __init__(self):
        self.latencies_ns = []
        self.reference_ns = []
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def as_dict(self) -> dict:
        return {"latencies_ns": self.latencies_ns, "reference_ns": self.reference_ns,
                "attempted": self.attempted,
                "failed": self.failed, "failures": self.failures}


def run_op(call, workload, j: int, phase: Phase) -> None:
    """Run op j through call(cli_argv) -> exit code and record it."""
    phase.attempted += 1
    try:
        argvs = workload.argvs(j)
        calls, elapsed = [], 0
        for argv in argvs:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
                try:
                    t0 = perf_counter_ns()
                    rc = call(argv)
                    elapsed += perf_counter_ns() - t0
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
            calls.append((rc, out.getvalue()))
        reason = workload.check(j, calls)
    except (Exception, SystemExit) as exc:  # the op's failure is the measurement
        reason = f"{type(exc).__name__}: {exc}"
    if reason is None:
        import reference  # not at the top: numpy's first import belongs to cli.import_s
        phase.latencies_ns.append(elapsed)
        phase.reference_ns.append(reference.run())
    else:
        phase.failed += 1
        if len(phase.failures) < FAILURES_KEPT:
            phase.failures.append(f"op {j}: {reason}")


def run_phase(call, workload, first_op: int, seconds: float,
              spans=None) -> tuple[Phase, int]:
    """Closed loop: the next op starts when the previous one is checked."""
    phase = Phase()
    j = first_op
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        if spans is not None:
            spans.op_id = j
        run_op(call, workload, j, phase)
        j += 1
    return phase, j


def environment() -> dict:
    import numpy
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def layer_metrics(summary: dict, states: int) -> dict:
    layers, functions = summary["layers"], summary["functions"]

    def per_call_us(name: str) -> float:
        f = functions.get(name, {"calls": 0})
        return f["incl_ns"] / f["calls"] / 1e3 if f["calls"] else 0.0

    m = {f"{layer}.self_us_per_op": layers[layer]["self_ns"] / 1e3 / states
         for layer in ("gates", "statevec", "protocol", "cavity", "estimation",
                       "concurrence", "cli")}
    m["gates.calls_per_op"] = layers["gates"]["calls"] / states
    m["statevec.calls_per_op"] = layers["statevec"]["calls"] / states
    m["statevec.bytes_moved_per_op"] = layers["statevec"]["bytes"] / states
    circuit_calls = functions["protocol.run_circuit"]["calls"]
    m["protocol.run_circuit_calls_per_op"] = circuit_calls / states
    m["protocol.distinct_input_ratio"] = (
        summary["distinct_circuit_inputs"] / circuit_calls if circuit_calls else 0.0)
    m.update({metric: per_call_us(name) for metric, name in PER_CALL.items()})
    m["trace.op_us"] = summary["root_ns"] / 1e3 / states
    m["trace.unattributed_us_per_op"] = layers["op"]["self_ns"] / 1e3 / states
    return m


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--t0-ns", type=int, required=True,
                        help="CLOCK_MONOTONIC reading taken just before this process started")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    t_import = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    from concmeter import cli  # first import of numpy too: part of cli.import_s
    import_s = (time.clock_gettime_ns(time.CLOCK_MONOTONIC) - t_import) / 1e9
    if os.path.dirname(os.path.abspath(cli.__file__)) != os.path.join(SRC, "concmeter"):
        print(f"concmeter.cli was imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import reference
    import tracer
    from workloads import WORKLOADS

    signal.signal(signal.SIGALRM, _alarm)
    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    warmup = Phase()
    run_op(lambda argv: cli.main(argv), workload, 0, warmup)
    setup_s = (time.clock_gettime_ns(time.CLOCK_MONOTONIC) - args.t0_ns) / 1e9
    setup_reference_ns = statistics.median(reference.run() for _ in range(SETUP_REFERENCE_RUNS))
    result = {"setup_s": setup_s, "setup_reference_ns": setup_reference_ns,
              "import_s": import_s, "warmup": warmup.as_dict()}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    seconds = args.seconds / 2 if args.trace else args.seconds
    timed, next_op = run_phase(lambda argv: cli.main(argv), workload, 1, seconds)
    result.update(
        timed=timed.as_dict(),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        states_per_op=workload.states_per_op,
        env=environment(),
    )
    if args.trace:
        spans = tracer.Tracer()
        spans.install("concmeter")
        traced, _ = run_phase(lambda argv: spans.root(cli.main, argv), workload,
                              next_op, seconds, spans)
        metrics = layer_metrics(spans.summary(), traced.attempted * workload.states_per_op)
        metrics["estimation.wilson_coverage"] = workload.report().get("wilson_coverage", 0.0)
        out_dir = os.path.join(ROOT, ".bench-out")
        os.makedirs(out_dir, exist_ok=True)
        spans_path = os.path.join(out_dir, f"spans-{args.workload}.csv")
        spans.write(spans_path)
        result.update(traced=traced.as_dict(), layer_metrics=metrics,
                      spans=os.path.relpath(spans_path, ROOT))
    pooled = Phase()
    for reason in workload.pooled_checks():
        pooled.attempted += 1
        if reason is not None:
            pooled.failed += 1
            if len(pooled.failures) < FAILURES_KEPT:
                pooled.failures.append(reason)
    result["pooled"] = pooled.as_dict()
    result["report"] = workload.report()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
