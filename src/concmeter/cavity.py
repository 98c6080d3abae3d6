"""Microwave-cavity realization: the atom-2 -> cavity photon -> atom-5
relay, which runs the CNOT as the steps of `decomposed_cnot()` with the
photon as control, and the ballistic flight kinematics that put the atoms
in the right order at each cavity.

Atom layout in the relay register (left to right, qubit 1 = MSB):
atom1, atom2, atom3, atom4, photon (|0>=|g>), atom5. Atom 2 stays in the
register after its qubit is handed to the photon; it is deterministically
|g> from that point on.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import gates, statevec
from .concurrence import PureState
from .protocol import _SIGMA_Y_PAIR, ORACLE_TOL, ProtocolResult, analytic_phi1_batch
from .protocol import extract_concurrence, run_circuit
from .statevec import Gate

CAVITY_MATCH_TOL = 1e-10
PHOTON_VACUUM_TOL = 1e-12
MIN_SPEED_GAP = 1e-6  # m/s; below this the overtake position degenerates

# slot positions (1-based qubit indices) in the relay register
ATOM1, ATOM2, ATOM3, ATOM4, PHOTON, ATOM5 = 1, 2, 3, 4, 5, 6


# ---------------------------------------------------------------------------
# gate decomposition


_SWAP = Gate(np.eye(4)[[0, 2, 1, 3]])  # the identity with the |ge> and |eg> rows swapped
_R_MINUS, _CPHASE = gates.r_minus(), gates.cphase()
# R-/R+ on the target, embedded as gates on the ordered (control, target) pair
_R_MINUS_TARGET = Gate(np.kron(np.eye(2), _R_MINUS.matrix))
_R_PLUS_TARGET = Gate(np.kron(np.eye(2), gates.r_plus().matrix))


def decomposed_cnot() -> list[tuple[str, Gate]]:
    """CNOT(control, target) as R-(target), CPHASE, R+(target), in
    application order. Each step is embedded as a gate on the ordered
    (control, target) pair. In the relay the control is the cavity
    photon and the target atom 4; the CPHASE is a 2pi Rabi cycle through
    an auxiliary level, in which |e>_4 |1>_photon picks up a -1 phase."""
    return [
        ("r_minus_target", _R_MINUS_TARGET),
        ("cphase", _CPHASE),
        ("r_plus_target", _R_PLUS_TARGET),
    ]


# ---------------------------------------------------------------------------
# photonic relay, on the six-slot register (atoms 1-4, cavity-D photon, atom 5)

_VACUUM = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)  # photon |0>, atom 5 |g>


def _swap_from_ground(states: np.ndarray, ground: int, pair, message, stage) -> np.ndarray:
    """SWAP the pair of slots, once slot `ground` is checked to read 0."""
    statevec._check_invariant(stage, message, statevec.marginal(states, {ground: 1}),
                              PHOTON_VACUUM_TOL)
    return statevec.apply_gate(states, _SWAP, pair)


def _atom_to_photon(states: np.ndarray) -> np.ndarray:
    return _swap_from_ground(states, PHOTON, (ATOM2, PHOTON),
                             "photon must be in vacuum before the atom-2 map", "atom-to-photon map")


def _photon_to_atom5(states: np.ndarray) -> np.ndarray:
    return _swap_from_ground(states, ATOM5, (PHOTON, ATOM5),
                             "atom 5 must start in the ground state", "photon-to-atom map")


# the relay's final reads, in one pass: P_gggg and P_egeg in logical-qubit
# order (1, 2, 3, 4) = atoms (1, 5, 3, 4), then the weight outside atom 2 = g,
# photon = 0 as its two disjoint parts
_FINAL_READS = ({ATOM5: 0, ATOM3: 0, ATOM1: 0, ATOM4: 0},
                {ATOM1: 1, ATOM5: 0, ATOM3: 1, ATOM4: 0},
                {ATOM2: 1}, {ATOM2: 0, PHOTON: 1})


def run_cavity_realization(psi: PureState) -> ProtocolResult:
    """Full cavity sequence on the six-slot register as one (1,) + (2,)*6 array, checked
    against the ideal circuit's P_gggg, then on atom 2 = g, photon = 0 against the analytic
    table (phase-strict; its residual is oracle_residual), with no weight outside."""
    a = psi.amplitudes
    # both copies, photon in vacuum, atom 5 in |g>: one product; the first gate checks its norm
    reg = (a[:, None, None] * a[:, None] * _VACUUM).reshape((1,) + (2,) * 6)
    reg = statevec.apply_gate(reg, _SIGMA_Y_PAIR, (ATOM3, ATOM4))  # Ramsey region, second copy only

    # CNOT(control = logical qubit 2, now the photon; target = atom 4)
    reg = _atom_to_photon(reg)
    for _, step in decomposed_cnot():
        reg = statevec.apply_gate(reg, step, (PHOTON, ATOM4))
    reg = _photon_to_atom5(reg)

    # atom 5 now carries the logical qubit 2; final rotation of the protocol
    final = statevec.apply_gate(reg, _R_MINUS, (ATOM5,))

    p_all_ground, p_egeg, atom2_excited, photon_left = statevec.marginal(final, *_FINAL_READS)
    ideal = run_circuit(psi)
    statevec._check_invariant("cavity vs ideal P_gggg",
                              "cavity realization deviates from the ideal circuit",
                              abs(p_all_ground - ideal.p_gggg), CAVITY_MATCH_TOL)
    # atom 2 = g and photon = 0, in logical-qubit order (1, 2, 3, 4) = atoms (1, 5, 3, 4)
    logical = final[:, :, 0, :, :, 0, :].transpose(0, 1, 4, 2, 3).reshape(1, 16)
    residual = float(np.max(np.abs(logical - analytic_phi1_batch(a[None]))))
    statevec._check_invariant("cavity amplitude table",
                              "cavity register deviates from the analytic table",
                              residual, ORACLE_TOL)
    statevec._check_invariant("cavity logical subspace", "weight outside atom 2 = g, photon = 0",
                              atom2_excited + photon_left, PHOTON_VACUUM_TOL)
    final = final.reshape(-1)  # checked by apply_gate
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
    w > v; emission times are t1=0, t2=tau, t3=tau+tau_prime,
    t4=tau+tau_prime+tau, all from the source at x=0. Speeds, positions
    and lengths must be finite; a delay may be +inf, as when 1/v
    overflows in solve_delays, but not NaN."""

    v: float
    w: float
    tau: float
    tau_prime: float
    x_C: float
    x_D: float
    L_C: float
    L_D: float

    def __post_init__(self):
        if not (math.inf > self.w > self.v > 0.0):
            raise ValueError("speeds must be finite and satisfy w > v > 0")
        if not (math.inf > self.x_D > self.x_C > 0.0):
            raise ValueError("cavity positions must be finite and satisfy x_D > x_C > 0")
        if not (math.inf > self.L_C > 0.0 and math.inf > self.L_D > 0.0):
            raise ValueError("cavity mode lengths must be positive and finite")
        if not (self.tau >= 0.0 and self.tau_prime >= 0.0):  # NaN fails too
            raise ValueError("delays must be non-negative, not NaN")

    # computed once per config, and shared: callers must not modify them
    @functools.cached_property
    def emission_times(self) -> dict[int, float]:
        return {
            1: 0.0,
            2: self.tau,
            3: self.tau + self.tau_prime,
            4: 2.0 * self.tau + self.tau_prime,
        }

    @functools.cached_property
    def speeds(self) -> dict[int, float]:
        return {1: self.v, 2: self.w, 3: self.v, 4: self.w}


@dataclass(frozen=True)
class OrderingReport:
    order_before_C: tuple[int, ...]
    order_after_C: tuple[int, ...]
    order_at_D: tuple[int, ...]
    pair12_cross_position: float
    pair34_cross_position: float
    swap14_position: float
    feasible: bool
    violations: tuple[str, ...]


def _overtake_position(cfg: FlightConfig, dt: float) -> float:
    """Where a fast atom catches a slow one emitted dt earlier: dt over the
    lag (w - v)/w/v per metre, which, unlike v*w, does not overflow for
    fast atoms. A lag that underflows to 0, for near-max speeds a few ulps
    apart, gives inf (never caught up) or, with no head start, NaN: both
    fail every crossing check, as dt/0 does in IEEE arithmetic."""
    lag = (cfg.w - cfg.v) / cfg.w / cfg.v
    if lag > 0.0:
        return dt / lag
    return math.inf if dt > 0.0 else math.nan


def _order_at(cfg: FlightConfig, t: float) -> tuple[int, ...]:
    t0, speed = cfg.emission_times, cfg.speeds
    # position at t; ties broken by emission order: the later atom sits behind
    key = {a: (speed[a] * max(0.0, t - t0[a]), -t0[a]) for a in (1, 2, 3, 4)}
    return tuple(sorted(key, key=key.__getitem__))


def kinematics_report(cfg: FlightConfig) -> OrderingReport:
    """Check the flight plan against the ordering requirements at the two
    cavities. Infeasibility is reported, never raised."""
    c_entry, c_exit = cfg.x_C - cfg.L_C / 2.0, cfg.x_C + cfg.L_C / 2.0
    d_entry = cfg.x_D - cfg.L_D / 2.0

    # both pairs share the intra-pair delay tau, so they cross at the
    # same position, x12; the 1-4 swap is driven by the full emission gap
    x12 = _overtake_position(cfg, cfg.tau)
    x14 = _overtake_position(cfg, cfg.emission_times[4])

    t4 = cfg.emission_times[4]
    order_before = _order_at(cfg, t4)
    order_after = _order_at(cfg, t4 + c_exit / cfg.w)  # atom 4 exits cavity C
    order_d = _order_at(cfg, t4 + d_entry / cfg.w)  # atom 4 reaches cavity D

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
        pair34_cross_position=x12,
        swap14_position=x14,
        feasible=not violations,
        violations=tuple(violations),
    )


@dataclass(frozen=True)
class DelaySolution:
    feasible: bool
    config: FlightConfig | None = None
    report: OrderingReport | None = None
    binding_constraint: str | None = None


def solve_delays(v: float, w: float, x_C: float, x_D: float,
                 L_C: float, L_D: float) -> DelaySolution:
    """Pick tau so each pair crosses at the cavity-C center and tau_prime,
    in closed form, so the atom-1/atom-4 swap lands midway between the
    cavities; the result is re-validated by kinematics_report.

    Raises ValueError unless every speed and length is finite and
    positive."""
    values = {"v": v, "w": w, "x_C": x_C, "x_D": x_D, "L_C": L_C, "L_D": L_D}
    bad = [name for name, x in values.items() if not (math.isfinite(x) and x > 0.0)]
    if bad:
        raise ValueError(f"speeds and geometry must be finite and positive: {', '.join(bad)}")
    if w - v < MIN_SPEED_GAP:
        return DelaySolution(feasible=False, binding_constraint="speed_gap")
    if not x_D > x_C:
        return DelaySolution(feasible=False, binding_constraint="geometry")

    tau = x_C * (1.0 / v - 1.0 / w)
    x_mid = ((x_C + L_C / 2.0) + (x_D - L_D / 2.0)) / 2.0
    # the swap lands at v*w*(2*tau + tau_prime)/(w - v), linear in tau_prime;
    # (w - v)/w/v never forms v*w, and w - v is exact whenever v >= w/2
    tau_prime = x_mid * ((w - v) / w / v) - 2.0 * tau
    if not tau_prime > 0.0:  # past x_mid at zero delay, or NaN (inf - inf) when 1/v overflows
        tau_prime = 0.0

    cfg = FlightConfig(v=v, w=w, tau=tau, tau_prime=tau_prime,
                       x_C=x_C, x_D=x_D, L_C=L_C, L_D=L_D)
    report = kinematics_report(cfg)
    if not report.feasible:
        return DelaySolution(feasible=False, config=cfg, report=report,
                             binding_constraint=report.violations[0])
    return DelaySolution(feasible=True, config=cfg, report=report)
