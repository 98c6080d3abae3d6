"""The three workloads. Each turns the seed into argument vectors and
state files, one op at a time, and checks each op's output with the
oracles in checks.py.

An op is a list of argument vectors for `concmeter.cli.main`, run back to
back; `check` gets one `(exit code, printed text)` pair per vector.
`pooled_checks` runs once after the last op and returns one failure
reason or None per check of the run as a whole.
`states_per_op` is how many input states one op verifies; per-layer
metrics are normalised by it.
"""
from __future__ import annotations

import csv
import json
import os

import numpy as np

import checks


def _write_state(path: str, amps) -> None:
    with open(path, "w") as fh:
        json.dump(checks.state_document(amps), fh)


class SweepHaar:
    """`concmeter sweep K --seed s_j --out <tmp>`: K Haar states per op,
    every state of the run distinct. Exercises protocol, statevec and
    gates; never cavity or estimation."""

    name = "sweep-haar"
    # ten rather than twenty give op_tail_ms's p99 twice the samples in a
    # run; its run-to-run spread fell from about 0.2 to 0.07 on a 2-vCPU VM
    states_per_op = 10

    def __init__(self, seed: int, workdir: str):
        self._seed_base = int(np.random.default_rng(seed).integers(2**40))
        self._dir = workdir
        self._out = None
        self.digest = None

    def argvs(self, j: int) -> list[list[str]]:
        # a fresh file per op, as a user writes one per sweep. Truncating
        # and rewriting one file (which ext4 may flush on close) gave a p99
        # of 1.6-2.6x the median on a 2-vCPU VM, a fresh file 1.4-1.7x.
        self._out = os.path.join(self._dir, f"sweep_{j}.csv")
        return [["sweep", str(self.states_per_op), "--seed",
                 str(self._seed_base + j), "--out", self._out]]

    def check(self, j: int, calls) -> str | None:
        (rc, out), = calls
        if rc != 0:
            return f"sweep exited {rc}: {out.strip()[-200:]}"
        with open(self._out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        os.remove(self._out)
        if j == 0:
            self.digest = checks.sweep_digest(rows)
        return checks.check_sweep(rows, self.states_per_op)

    def pooled_checks(self) -> list[str | None]:
        return []

    def report(self) -> dict:
        return {"sweep_sha256_op0": self.digest}


class CavityRelay:
    """`concmeter cavity state_j.json` on a distinct Haar state, then
    `concmeter cavity --kinematics ...` on a seeded geometry, half of them
    feasible (exit 0) and half infeasible (exit 3, expected). The only
    workload with 6-qubit registers, the relay and the delay solver."""

    name = "cavity-relay"
    states_per_op = 1

    def __init__(self, seed: int, workdir: str):
        self._seed = seed
        self._dir = workdir
        self._pending = None
        self.feasible_ops = 0

    def argvs(self, j: int) -> list[list[str]]:
        rng = np.random.default_rng([self._seed, j])
        amps = checks.haar_state(rng)
        feasible = bool(rng.random() < 0.5)
        geom = checks.geometry(rng, feasible)
        path = os.path.join(self._dir, f"state_{j}.json")
        _write_state(path, amps)
        self._pending = (path, amps, geom, feasible)
        return [["cavity", path], checks.kinematics_argv(geom)]

    def check(self, j: int, calls) -> str | None:
        path, amps, geom, feasible = self._pending
        os.remove(path)
        (rc_state, out_state), (rc_kin, out_kin) = calls
        self.feasible_ops += feasible
        return (checks.check_cavity_state(amps, rc_state, out_state)
                or checks.check_kinematics(geom, feasible, rc_kin, out_kin))

    def pooled_checks(self) -> list[str | None]:
        return []

    def report(self) -> dict:
        return {"feasible_kinematics_ops": self.feasible_ops}


class ShotsNoisy:
    """`concmeter shots state.json --shots n --seed s_j`, cycling over a few
    fixed states with C spread over [0, 1]; every other cycle adds readout
    imperfections. The same circuit input recurs, unlike sweep-haar.

    Each op's count is checked on its own, and the counts of all ops with
    the same state and readout are checked again pooled, which resolves a
    bias some hundred times smaller than one op can."""

    name = "shots-noisy"
    states_per_op = 1
    concurrences = (0.0, 0.25, 0.5, 0.75, 1.0)
    shots = 100_000
    p_dark, p_bright_false = 0.05, 0.02

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        self._seed_base = int(rng.integers(2**40))
        self._states = []
        for i, c in enumerate(self.concurrences):
            amps = checks.state_with_concurrence(c, rng)
            path = os.path.join(workdir, f"state_{i}.json")
            _write_state(path, amps)
            ideal = checks.dark_probability(amps, 0.0, 0.0)
            if abs(ideal - c * c / 8.0) > 1e-12:
                raise RuntimeError(f"dense circuit oracle gives P = {ideal!r} for C = {c}")
            noisy = checks.dark_probability(amps, self.p_dark, self.p_bright_false)
            self._states.append((path, checks.concurrence(amps), ideal, noisy))
        self.bell_ideal_ops = 0
        self.bell_ideal_covered = 0
        self._pooled = {}  # (state, noisy) -> [no-fluorescence count, shots]

    def _config(self, j: int) -> tuple[int, bool]:
        n = len(self.concurrences)
        return j % n, bool((j // n) % 2)

    def argvs(self, j: int) -> list[list[str]]:
        i, noisy = self._config(j)
        argv = ["shots", self._states[i][0], "--shots", str(self.shots),
                "--seed", str(self._seed_base + j)]
        if noisy:
            argv += ["--p-dark", repr(self.p_dark),
                     "--p-bright-false", repr(self.p_bright_false)]
        return [argv]

    def check(self, j: int, calls) -> str | None:
        (rc, out), = calls
        i, noisy = self._config(j)
        _, c_true, ideal, noisy_p = self._states[i]
        err, parsed = checks.check_shots(self.shots, noisy_p if noisy else ideal, rc, out)
        if err is None:
            pool = self._pooled.setdefault((i, noisy), [0, 0])
            pool[0] += parsed["k"]
            pool[1] += self.shots
        if err is None and not noisy and self.concurrences[i] == 1.0:
            self.bell_ideal_ops += 1
            self.bell_ideal_covered += parsed["c_low"] <= c_true <= parsed["c_high"]
        return err

    def pooled_checks(self) -> list[str | None]:
        reasons = []
        for (i, noisy), (k, n) in sorted(self._pooled.items()):
            expected = self._states[i][3 if noisy else 2]
            reasons.append(None if checks.binomial_plausible(k, n, expected) else
                           f"pooled shots on state {i} (noisy={noisy}): {k} of {n} "
                           f"dark vs expected p {expected!r}")
        return reasons

    def wilson_coverage(self) -> float:
        """Share of ideal-readout Bell ops whose printed 95% interval holds
        the true C; reported, not gated."""
        return self.bell_ideal_covered / max(1, self.bell_ideal_ops)

    def report(self) -> dict:
        return {"bell_ideal_ops": self.bell_ideal_ops,
                "wilson_coverage": self.wilson_coverage()}


WORKLOADS = {w.name: w for w in (SweepHaar, CavityRelay, ShotsNoisy)}
