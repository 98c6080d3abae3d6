"""Independent oracles for the benchmark's output checks.

Nothing here imports concmeter. Each check recomputes what a command
should print from the inputs the benchmark generated, with plain numpy
or closed-form kinematics, and returns a failure reason or None.
"""
from __future__ import annotations

import hashlib
import math

import numpy as np

# Tolerances the package promises; pinned here, not imported, so that a
# loosened package constant shows up as failed ops.
ORACLE_TOL = 1e-10  # concmeter.protocol.ORACLE_TOL
CAVITY_MATCH_TOL = 1e-10  # concmeter.cavity.CAVITY_MATCH_TOL
CONCURRENCE_TOL = 1e-9
EGEG_TOL = 1e-10
# Chance that a correct program fails one shots check. A run checks some
# 10^4 shots ops and a full set of runs some 10^6, so a per-op 5-sigma
# band (a chance of about 3e-7 on the skewed tail of a small p) would fail
# correct code now and then; this keeps false alarms out of any set of runs.
SHOTS_FALSE_ALARM = 1e-12

SWEEP_HASHED = ("seed", "c0_re", "c0_im", "c1_re", "c1_im", "c2_re", "c2_im",
                "c3_re", "c3_im", "concurrence_analytic")

_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_R_MINUS = np.array([[1.0, 1.0], [-1.0, 1.0]]) / math.sqrt(2.0)
# R- on qubit 2 of four (qubit 1 = most significant index bit)
_R_MINUS_Q2 = np.kron(np.kron(np.eye(2), _R_MINUS), np.eye(4))
_INDEX = np.arange(16)
# CNOT(control 2, target 4): flip bit 0 where bit 2 is set; an involution
_CNOT_24 = np.where(_INDEX & 4, _INDEX ^ 1, _INDEX)
_N_EXCITED = np.array([bin(i).count("1") for i in range(16)])


def concurrence(amps) -> float:
    """C = 2|c1 c2 - c0 c3| of a normalised two-qubit pure state."""
    c0, c1, c2, c3 = amps
    return 2.0 * abs(c1 * c2 - c0 * c3)


def haar_state(rng: np.random.Generator) -> np.ndarray:
    a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    return a / np.linalg.norm(a)


def state_with_concurrence(c: float, rng: np.random.Generator) -> np.ndarray:
    """cos(t)|gg> + sin(t)|ee> with sin(2t) = c, turned by a random local
    unitary on each qubit (which leaves the concurrence unchanged)."""
    t = 0.5 * math.asin(c)
    psi = np.array([math.cos(t), 0.0, 0.0, math.sin(t)], dtype=complex)
    u_a, u_b = (np.linalg.qr(rng.standard_normal((2, 2))
                             + 1j * rng.standard_normal((2, 2)))[0] for _ in range(2))
    return np.kron(u_a, u_b) @ psi


def state_document(amps) -> dict:
    return {"amplitudes": [[float(a.real), float(a.imag)] for a in amps]}


def dark_probability(amps, p_dark: float, p_bright_false: float) -> float:
    """Chance the global readout stays dark after the two-copy circuit,
    from a dense 16-amplitude product of the paper's gates."""
    psi = np.kron(amps, np.kron(_Y, _Y) @ amps)
    psi = _R_MINUS_Q2 @ psi[_CNOT_24]
    dark = np.where(_N_EXCITED == 0, 1.0 - p_bright_false, p_dark ** _N_EXCITED)
    return float(np.abs(psi) ** 2 @ dark)


def parse_fields(text: str) -> dict[str, str]:
    """The `key = value` lines a command printed."""
    fields = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            fields[key.strip()] = value.strip()
    return fields


def _number(fields: dict[str, str], key: str) -> float:
    # values may carry a unit after the number, as in "tau = 1e-4 s"
    return float(fields[key].split()[0])


def check_sweep(rows: list[dict[str, str]], n_states: int) -> str | None:
    """The sweep CSV against the concurrence of its own amplitude columns."""
    if len(rows) != n_states:
        return f"sweep wrote {len(rows)} rows, expected {n_states}"
    try:
        seeds = [int(r["seed"]) for r in rows]
        amps = np.array([[float(r[f"c{k}_re"]) + 1j * float(r[f"c{k}_im"])
                          for k in range(4)] for r in rows])
        col = {k: np.array([float(r[k]) for r in rows])
               for k in ("concurrence_analytic", "concurrence_measured",
                         "oracle_residual", "p_gggg", "p_egeg")}
    except (KeyError, ValueError) as exc:
        return f"sweep CSV unreadable: {exc!r}"
    if seeds != list(range(n_states)):
        return "sweep seed column is not 0..n-1"
    if np.max(np.abs(np.linalg.norm(amps, axis=1) - 1.0)) > CONCURRENCE_TOL:
        return "sweep amplitudes are not normalised"
    c = 2.0 * np.abs(amps[:, 1] * amps[:, 2] - amps[:, 0] * amps[:, 3])
    worst = {
        "|C_measured - C|": (np.max(np.abs(col["concurrence_measured"] - c)), CONCURRENCE_TOL),
        "|C_analytic - C|": (np.max(np.abs(col["concurrence_analytic"] - c)), CONCURRENCE_TOL),
        "oracle_residual": (np.max(col["oracle_residual"]), ORACLE_TOL),
        "|P_gggg - P_egeg|": (np.max(np.abs(col["p_gggg"] - col["p_egeg"])), EGEG_TOL),
    }
    for what, (value, tol) in worst.items():
        if not value <= tol:
            return f"sweep {what} = {value:.3e} > {tol:.0e}"
    return None


def sweep_digest(rows: list[dict[str, str]]) -> str:
    """SHA-256 of the seed, amplitude and analytic-concurrence columns as
    printed; it changes when the per-row random stream changes."""
    h = hashlib.sha256()
    for r in rows:
        h.update((",".join(r[k] for k in SWEEP_HASHED) + "\n").encode())
    return h.hexdigest()


def check_cavity_state(amps, rc: int, out: str) -> str | None:
    if rc != 0:
        return f"cavity exited {rc}: {out.strip()[-200:]}"
    try:
        fields = parse_fields(out)
        deviation = _number(fields, "deviation")
        c_measured = _number(fields, "C_measured")
    except (KeyError, ValueError, IndexError) as exc:
        return f"cavity output unreadable: {exc!r}"
    if not deviation <= CAVITY_MATCH_TOL:
        return f"cavity deviation {deviation:.3e} > {CAVITY_MATCH_TOL:.0e}"
    err = abs(c_measured - concurrence(amps))
    if not err <= CONCURRENCE_TOL:
        return f"cavity |C_measured - C| = {err:.3e}"
    return None


def geometry(rng: np.random.Generator, feasible: bool) -> dict[str, float]:
    """A seeded flight geometry in metres and m/s, sized like an atomic
    beam through centimetre cavities.

    With the pairs crossing inside cavity C, atom 4 overtakes atom 1 no
    nearer than twice the cavity-C entrance. A geometry whose cavity-D
    entrance lies short of that has no plan at all; one whose entrance
    lies well past twice the cavity-C centre has one.
    """
    v = rng.uniform(150.0, 450.0)
    w = v * rng.uniform(1.3, 3.0)
    lc, ld = rng.uniform(0.005, 0.02, size=2)
    xc = rng.uniform(0.08, 0.3)
    c_entry, c_exit = xc - lc / 2.0, xc + lc / 2.0
    if feasible:
        d_entry = 2.0 * xc * rng.uniform(1.2, 2.0)
    else:
        d_entry = c_exit + rng.uniform(0.2, 0.8) * (1.8 * c_entry - c_exit)
    return {"v": v, "w": w, "xc": xc, "xd": d_entry + ld / 2.0, "lc": lc, "ld": ld}


def kinematics_argv(g: dict[str, float]) -> list[str]:
    argv = ["cavity", "--kinematics"]
    for key in ("v", "w", "xc", "xd", "lc", "ld"):
        argv += [f"--{key}", repr(float(g[key]))]
    return argv


def check_kinematics(g: dict[str, float], feasible: bool, rc: int,
                     out: str) -> str | None:
    """Exit 3 for a geometry with no plan; otherwise the printed delays
    must put both pair crossings inside cavity C and the 1-4 overtake
    between the cavities, with the two required orderings."""
    if not feasible:
        if rc != 3 or not out.startswith("infeasible"):
            return f"infeasible geometry gave exit {rc}: {out.strip()[-200:]}"
        return None
    if rc != 0:
        return f"feasible geometry gave exit {rc}: {out.strip()[-200:]}"
    try:
        f = parse_fields(out)
        tau, tau_prime = _number(f, "tau"), _number(f, "tau_prime")
        printed_x12, printed_x14 = _number(f, "pair12_cross"), _number(f, "swap14")
        orders = (f["order_after_C"], f["order_at_D"], f["feasible"])
    except (KeyError, ValueError, IndexError) as exc:
        return f"kinematics output unreadable: {exc!r}"
    if orders != ("(3, 4, 1, 2)", "(3, 1, 4, 2)", "True"):
        return f"kinematics orderings {orders}"
    v, w = g["v"], g["w"]
    # a fast atom emitted dt after a slow one catches it at v w dt / (w - v)
    x12 = v * w * tau / (w - v)
    x14 = v * w * (2.0 * tau + tau_prime) / (w - v)
    c_entry, c_exit = g["xc"] - g["lc"] / 2.0, g["xc"] + g["lc"] / 2.0
    d_entry = g["xd"] - g["ld"] / 2.0
    if not (c_entry <= x12 <= c_exit and c_exit < x14 < d_entry):
        return f"kinematics plan crosses at {x12!r} and swaps at {x14!r}"
    if not (math.isclose(printed_x12, x12, rel_tol=1e-9)
            and math.isclose(printed_x14, x14, rel_tol=1e-9)):
        return "kinematics printed positions disagree with the printed delays"
    return None


def binomial_surprise(k: int, n: int, p: float) -> float:
    """n KL(k/n || p): by the Chernoff bound a Binomial(n, p) count lies
    at least this far out on either side of np with a chance of at most
    exp(-surprise). Exact for any n and p, where a sigma band is not."""
    q = k / n

    def term(a: float, b: float) -> float:
        if a == 0.0:
            return 0.0
        return math.inf if b == 0.0 else a * math.log(a / b)

    return n * (term(q, p) + term(1.0 - q, 1.0 - p))


def binomial_plausible(k: int, n: int, p: float) -> bool:
    """k of n is not beyond the SHOTS_FALSE_ALARM band of Binomial(n, p)."""
    return binomial_surprise(k, n, p) <= math.log(2.0 / SHOTS_FALSE_ALARM)


def check_shots(n: int, expected: float, rc: int, out: str) -> tuple[str | None, dict]:
    """p_hat inside the SHOTS_FALSE_ALARM band of the expected dark
    probability; returns the failure reason and the parsed numbers."""
    if rc != 0:
        return f"shots exited {rc}: {out.strip()[-200:]}", {}
    try:
        f = parse_fields(out)
        n_shots, k = int(f["n_shots"]), int(f["n_no_fluorescence"])
        p_hat, c_hat = float(f["p_hat"]), float(f["c_hat"])
        c_low, c_high = (float(x) for x in f["ci_95"].strip("[]").split(","))
    except (KeyError, ValueError) as exc:
        return f"shots output unreadable: {exc!r}", {}
    parsed = {"k": k, "c_low": c_low, "c_high": c_high}
    if n_shots != n or not 0 <= k <= n or p_hat != k / n:
        return f"shots counts inconsistent: n={n_shots} k={k} p_hat={p_hat!r}", parsed
    if not binomial_plausible(k, n, expected):
        return (f"shots p_hat {p_hat!r} vs expected {expected!r} "
                f"(surprise {binomial_surprise(k, n, expected):.1f})"), parsed
    if not c_low <= c_hat <= c_high:
        return f"shots c_hat {c_hat!r} outside its interval", parsed
    return None, parsed
