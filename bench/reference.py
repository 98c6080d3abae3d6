"""A fixed reference computation that measures how fast the machine runs
right now.

On a shared host the same op takes up to twice as long when neighbours
contend for the core, its caches and its memory, for minutes at a time,
and the process's own CPU clock slows just as much as the wall clock.
The benchmark therefore times this computation after every op and after
each set-up, and divides each time by the reference's time in the same
stretch of the run (see run.py). The reference uses nothing from
concmeter, so a change to the program moves the op times and leaves the
reference alone.

Its mix follows the CLI's: building and running an argparse parser,
small complex numpy arrays reshaped and contracted as a state-vector
simulator does, a seeded random draw, JSON formatting and plain
interpreter loops.
"""
from __future__ import annotations

import argparse
import json
from time import perf_counter_ns

import numpy as np

# Reference time of one call on a machine taken as nominal; op times are
# reported as they would read there. Fixed once: changing it rescales
# every time metric.
NOMINAL_NS = 500_000

_GATE = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
_STATE = np.exp(1j * np.arange(16)) / 4.0


def _work() -> float:
    parser = argparse.ArgumentParser(prog="reference")
    parser.add_argument("path")
    parser.add_argument("--shots", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(["state.json", "--shots", "1000", "--seed", "3"])
    psi = _STATE.reshape([2] * 4)
    for q in (0, 1, 2, 3, 1, 2):
        psi = np.moveaxis(np.tensordot(_GATE, psi, axes=([1], [q])), 0, q)
    probs = np.abs(psi.reshape(16)) ** 2
    counts = np.random.default_rng(args.seed).multinomial(args.shots, probs / probs.sum())
    text = json.dumps({"amplitudes": [[float(a.real), float(a.imag)] for a in psi.reshape(16)]})
    total = sum(i * i for i in range(300)) + len(text) + int(counts[0])
    return float(total)


def run() -> int:
    """Nanoseconds one reference computation takes now."""
    t0 = perf_counter_ns()
    _work()
    return perf_counter_ns() - t0
