"""Microwave-cavity realization: the atom-2 -> cavity photon -> atom-5
relay, which runs the CNOT as the constant steps of `DECOMPOSED_CNOT`
(R-, a 2pi-Rabi CPHASE, R+) with the photon as control, and the
ballistic flight kinematics that put the atoms in the right order at
each cavity.

The relay runs one step program: its gate plans and read indices, named
module constants resolved once, at import, and applied with no per-gate
lookup.

Atom layout in the relay register (left to right, qubit 1 = MSB):
atom1, atom2, atom3, atom4, photon (|0>=|g>), atom5. Atom 2 stays in the
register after its qubit is handed to the photon; it is deterministically
|g> from that point on.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import gates, statevec
from .concurrence import PureState
from .protocol import ORACLE_TOL, ProtocolResult, analytic_phi1_batch
from .protocol import extract_concurrence, run_circuit
from .statevec import Gate

CAVITY_MATCH_TOL = 1e-10
PHOTON_VACUUM_TOL = 1e-12
# m/s; an input rule (the CLI's `speed_gap` golden case), not a numerical limit:
# the closed-form solve plans a smaller gap feasibly
MIN_SPEED_GAP = 1e-6

# slot positions (1-based qubit indices) in the relay register
ATOM1, ATOM2, ATOM3, ATOM4, PHOTON, ATOM5 = 1, 2, 3, 4, 5, 6


# ---------------------------------------------------------------------------
# gate decomposition


_SWAP = Gate(np.eye(4)[[0, 2, 1, 3]])  # the identity with the |ge> and |eg> rows swapped

# CNOT(control, target) as R-(target), CPHASE, R+(target), in application
# order, each step a named gate on the ordered (control, target) pair. In
# the relay the control is the cavity photon and the target atom 4; the
# CPHASE is a 2pi Rabi cycle through an auxiliary level, in which
# |e>_4 |1>_photon picks up a -1 phase.
DECOMPOSED_CNOT = (
    ("r_minus_target", Gate(np.kron(np.eye(2), gates.R_MINUS.matrix))),
    ("cphase", gates.CPHASE),
    ("r_plus_target", Gate(np.kron(np.eye(2), gates.R_PLUS.matrix))),
)


# ---------------------------------------------------------------------------
# photonic relay, on the six-slot register (atoms 1-4, cavity-D photon, atom 5)

_VACUUM = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)  # photon |0>, atom 5 |g>


# the relay's step program, resolved once: the Ramsey pulse of copy 2 on
# atoms 3 and 4; each hand-over as the read of the slot it fills and the
# SWAP's plan; the decomposed CNOT's steps on (photon, atom 4); the final
# rotation on atom 5, which then carries logical qubit 2
_RAMSEY = statevec._gate_plan(6, (ATOM3, ATOM4), gates.SIGMA_Y_PAIR)
_TO_PHOTON = ((statevec._marginal_plan(6, ((PHOTON, 1),)),),
              statevec._gate_plan(6, (ATOM2, PHOTON), _SWAP))
_TO_ATOM5 = ((statevec._marginal_plan(6, ((ATOM5, 1),)),),
             statevec._gate_plan(6, (PHOTON, ATOM5), _SWAP))
_CNOT_STEPS = tuple(statevec._gate_plan(6, (PHOTON, ATOM4), step) for _, step in DECOMPOSED_CNOT)
_FINAL_ROTATION = statevec._gate_plan(6, (ATOM5,), gates.R_MINUS)
# the final reads, in one pass: P_gggg and P_egeg in logical-qubit order
# (1, 2, 3, 4) = atoms (1, 5, 3, 4), then the weight outside atom 2 = g,
# photon = 0 as its two disjoint parts
_FINAL_READS = tuple(statevec._marginal_plan(6, pattern) for pattern in (
    ((ATOM5, 0), (ATOM3, 0), (ATOM1, 0), (ATOM4, 0)),
    ((ATOM1, 1), (ATOM5, 0), (ATOM3, 1), (ATOM4, 0)),
    ((ATOM2, 1),), ((ATOM2, 0), (PHOTON, 1))))


def _swap_from_ground(states: np.ndarray, hand_over, message, stage) -> np.ndarray:
    """SWAP a pair of slots, once the slot it fills is checked to read 0:
    `hand_over` is that slot's read and the SWAP's plan (`_TO_PHOTON` or
    `_TO_ATOM5`)."""
    excited, swap = hand_over
    weight, = statevec._read(states, excited)
    statevec._check_invariant(stage, message, weight, PHOTON_VACUUM_TOL)
    return statevec._apply_plan(states, swap)


def run_cavity_realization(psi: PureState) -> ProtocolResult:
    """Full cavity sequence on the six-slot register as one (1,) + (2,)*6 array, checked
    against the ideal circuit's P_gggg, then on atom 2 = g, photon = 0 against the analytic
    table (phase-strict; its residual is oracle_residual), with no weight outside."""
    a = psi.amplitudes
    # both copies, photon in vacuum, atom 5 in |g>: one product; the first gate checks its norm
    reg = (a[:, None, None] * a[:, None] * _VACUUM).reshape((1,) + (2,) * 6)
    reg = statevec._apply_plan(reg, _RAMSEY)

    # CNOT(control = logical qubit 2, now the photon; target = atom 4)
    reg = _swap_from_ground(reg, _TO_PHOTON,
                            "photon must be in vacuum before the atom-2 map", "atom-to-photon map")
    for step in _CNOT_STEPS:
        reg = statevec._apply_plan(reg, step)
    reg = _swap_from_ground(reg, _TO_ATOM5,
                            "atom 5 must start in the ground state", "photon-to-atom map")
    final = statevec._apply_plan(reg, _FINAL_ROTATION)

    p_all_ground, p_egeg, atom2_excited, photon_left = statevec._read(final, _FINAL_READS)
    ideal = run_circuit(psi)
    statevec._check_invariant("cavity vs ideal P_gggg",
                              "cavity realization deviates from the ideal circuit",
                              abs(p_all_ground - ideal.p_gggg), CAVITY_MATCH_TOL)
    # atom 2 = g and photon = 0, in logical-qubit order (1, 2, 3, 4) = atoms (1, 5, 3, 4)
    logical = final[:, :, 0, :, :, 0, :].transpose(0, 1, 4, 2, 3).reshape(1, 16)
    residual = np.maximum.reduce(np.abs(logical - analytic_phi1_batch(a[None])), axis=None).item()
    statevec._check_invariant("cavity amplitude table",
                              "cavity register deviates from the analytic table",
                              residual, ORACLE_TOL)
    statevec._check_invariant("cavity logical subspace", "weight outside atom 2 = g, photon = 0",
                              atom2_excited + photon_left, PHOTON_VACUUM_TOL)
    final = final.reshape(-1)  # checked by the step kernel
    final.flags.writeable = False
    return ProtocolResult(
        final_state=final,
        p_gggg=p_all_ground,
        p_egeg=p_egeg,
        concurrence_measured=extract_concurrence(p_all_ground),
        oracle_residual=residual,
    )


# ---------------------------------------------------------------------------
# flight kinematics


@dataclass(frozen=True)
class FlightConfig:
    """Ballistic 1D flight plan. Atoms 1 and 3 fly at v, atoms 2 and 4 at
    w > v, all from the source at x=0, emitted in the order 1, 2, 3, 4:
    atoms 1, 2 and 3 leave 2*tau + tau_prime, tau + tau_prime and tau
    ahead of atom 4. Speeds, positions and lengths must be finite; a
    delay may be +inf, as when 1/v overflows in solve_delays, but not
    NaN. Each field is stored as a Python float."""

    v: float
    w: float
    tau: float
    tau_prime: float
    x_C: float
    x_D: float
    L_C: float
    L_D: float

    def __post_init__(self):
        # a numpy scalar would raise a RuntimeWarning in kinematics_report
        # where a Python float overflows to inf quietly
        for field in fields(self):
            object.__setattr__(self, field.name, float(getattr(self, field.name)))
        if not (math.inf > self.w > self.v > 0.0):
            raise ValueError("v and w must be finite and satisfy w > v > 0")
        if not (math.inf > self.x_D > self.x_C > 0.0):
            raise ValueError("cavity positions must be finite and satisfy x_D > x_C > 0")
        if not (math.inf > self.L_C > 0.0 and math.inf > self.L_D > 0.0):
            raise ValueError("cavity mode lengths must be positive and finite")
        if not (self.tau >= 0.0 and self.tau_prime >= 0.0):  # NaN fails too
            raise ValueError("delays must be non-negative, not NaN")


@dataclass(frozen=True)
class OrderingReport:
    order_before_C: tuple[int, ...]
    order_after_C: tuple[int, ...]
    order_at_D: tuple[int, ...]
    pair12_cross_position: float  # pair 3-4 crosses here too: both pairs share tau
    swap14_position: float
    feasible: bool
    violations: tuple[str, ...]


def _overtake_position(cfg: FlightConfig, dt: float) -> float:
    """Where a fast atom catches a slow one emitted dt earlier: dt over the
    lag (w - v)/w/v per metre, which, unlike v*w, does not overflow for
    fast atoms. A lag that underflows to 0, for near-max v and w a few ulps
    apart, gives inf (never caught up) or, with no head start, NaN: both
    fail every crossing check, as dt/0 does in IEEE arithmetic."""
    lag = (cfg.w - cfg.v) / cfg.w / cfg.v
    if lag > 0.0:
        return dt / lag
    return math.inf if dt > 0.0 else math.nan


def _order_at(cfg: FlightConfig, x4: float) -> tuple[int, ...]:
    """The atoms, nearest the source first, when atom 4 is at x4. Each atom
    has flown its head start on atom 4 plus x4 / w; before its emission it
    waits at the source. On a tie the atom with the smaller head start, the
    one emitted later, sits behind."""
    heads = (2.0 * cfg.tau + cfg.tau_prime, cfg.tau + cfg.tau_prime, cfg.tau, 0.0)
    flown = x4 / cfg.w
    key = {a: (speed * max(0.0, head + flown), head)
           for a, speed, head in zip((1, 2, 3, 4), (cfg.v, cfg.w, cfg.v, cfg.w), heads)}
    return tuple(sorted(key, key=key.__getitem__))


def kinematics_report(cfg: FlightConfig) -> OrderingReport:
    """Check the flight plan against the ordering requirements at the two
    cavities. Infeasibility is reported, never raised."""
    c_entry, c_exit = cfg.x_C - cfg.L_C / 2.0, cfg.x_C + cfg.L_C / 2.0
    d_entry = cfg.x_D - cfg.L_D / 2.0

    # both pairs share the intra-pair delay tau, so they cross at the
    # same position, x12; the 1-4 swap is driven by the full emission gap
    x12 = _overtake_position(cfg, cfg.tau)
    x14 = _overtake_position(cfg, 2.0 * cfg.tau + cfg.tau_prime)

    order_before = _order_at(cfg, 0.0)  # atom 4 leaves the source
    order_after = _order_at(cfg, c_exit)  # atom 4 exits cavity C
    order_d = _order_at(cfg, d_entry)  # atom 4 reaches cavity D

    violations: list[str] = []
    if not c_entry <= x12 <= c_exit:
        violations.append("pair12_cross_outside_C")
    if order_after != (3, 4, 1, 2):
        violations.append("order_after_C_wrong")
    if not c_exit < x14 < d_entry:
        violations.append("swap14_not_between_cavities")
    if order_d != (3, 1, 4, 2):
        violations.append("order_at_D_wrong")
    # atoms 2 and 4 share speed w; they coincide in D only for zero gap
    if cfg.w * (cfg.tau + cfg.tau_prime) <= 0.0:
        violations.append("atoms_2_4_cross_in_D")

    return OrderingReport(
        order_before_C=order_before,
        order_after_C=order_after,
        order_at_D=order_d,
        pair12_cross_position=x12,
        swap14_position=x14,
        feasible=not violations,
        violations=tuple(violations),
    )


def solve_delays(v: float, w: float, x_C: float, x_D: float,
                 L_C: float, L_D: float) -> FlightConfig:
    """The flight plan: tau so each pair crosses at the cavity-C center and
    tau_prime, in closed form, so the atom-1/atom-4 swap lands midway
    between the cavities. kinematics_report gives its verdict.

    Raises ValueError unless every speed and length is finite and
    positive, w - v is at least MIN_SPEED_GAP and x_D > x_C."""
    # Python floats before any arithmetic, as FlightConfig stores them
    v, w, x_C, x_D, L_C, L_D = map(float, (v, w, x_C, x_D, L_C, L_D))
    values = {"v": v, "w": w, "x_C": x_C, "x_D": x_D, "L_C": L_C, "L_D": L_D}
    bad = [name for name, x in values.items() if not (math.isfinite(x) and x > 0.0)]
    if bad:
        raise ValueError(f"speed and geometry inputs must be finite and positive: {', '.join(bad)}")
    if w - v < MIN_SPEED_GAP:
        raise ValueError("invalid kinematics input: speed_gap")
    if not x_D > x_C:
        raise ValueError("invalid kinematics input: geometry")

    tau = x_C * (1.0 / v - 1.0 / w)
    x_mid = ((x_C + L_C / 2.0) + (x_D - L_D / 2.0)) / 2.0
    # the swap lands at v*w*(2*tau + tau_prime)/(w - v), linear in tau_prime;
    # (w - v)/w/v never forms v*w, and w - v is exact whenever v >= w/2
    tau_prime = x_mid * ((w - v) / w / v) - 2.0 * tau
    if not tau_prime > 0.0:  # past x_mid at zero delay, or NaN (inf - inf) when 1/v overflows
        tau_prime = 0.0
    return FlightConfig(v=v, w=w, tau=tau, tau_prime=tau_prime,
                        x_C=x_C, x_D=x_D, L_C=L_C, L_D=L_D)
