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
from .statevec import Gate, InvariantViolation, Register

CAVITY_MATCH_TOL = 1e-10
PHOTON_VACUUM_TOL = 1e-12
MIN_SPEED_GAP = 1e-6  # m/s; below this the overtake position degenerates
BISECTION_TOL = 1e-9  # m, on the overtake position
# float64 spans 2^-1074 .. 2^1024, so this many halvings or doublings
# exhaust any interval: the delay search ends even where the tolerance
# underflows, falls below one ulp of the bracket, or the bracket overflows
MAX_SEARCH_STEPS = 2100

# slot positions (1-based qubit indices) in the relay register
ATOM1, ATOM2, ATOM3, ATOM4, PHOTON, ATOM5 = 1, 2, 3, 4, 5, 6


# ---------------------------------------------------------------------------
# gate decomposition


_SWAP = Gate(
    [
        [1, 0, 0, 0],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
    ]
)
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
    population = statevec.marginal(states, {ground: 1})
    if population > PHOTON_VACUUM_TOL:
        raise InvariantViolation(message, stage=stage, value=population, tol=PHOTON_VACUUM_TOL)
    return statevec.apply_gate(states, _SWAP, pair)


def _atom_to_photon(states: np.ndarray) -> np.ndarray:
    return _swap_from_ground(states, PHOTON, (ATOM2, PHOTON),
                             "photon must be in vacuum before the atom-2 map", "atom-to-photon map")


def _photon_to_atom5(states: np.ndarray) -> np.ndarray:
    return _swap_from_ground(states, ATOM5, (PHOTON, ATOM5),
                             "atom 5 must start in the ground state", "photon-to-atom map")


def map_atom_to_photon(r: Register) -> Register:
    """Hand the atom-2 qubit to the cavity-D photon; atom 2 exits in |g>."""
    out = _atom_to_photon(r.amplitudes.reshape((1,) + (2,) * r.n_qubits))
    return Register._wrap(out.reshape(-1))  # checked by apply_gate


def map_photon_to_atom5(r: Register) -> Register:
    """Retrieve the photonic qubit into atom 5; photon left in vacuum."""
    out = _photon_to_atom5(r.amplitudes.reshape((1,) + (2,) * r.n_qubits))
    return Register._wrap(out.reshape(-1))  # checked by apply_gate


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

    p_all_ground = statevec.marginal(final, {ATOM5: 0, ATOM3: 0, ATOM1: 0, ATOM4: 0})
    ideal = run_circuit(psi)
    deviation = abs(p_all_ground - ideal.p_gggg)
    if not deviation <= CAVITY_MATCH_TOL:
        raise InvariantViolation("cavity realization deviates from the ideal circuit",
                                 stage="cavity vs ideal P_gggg", value=deviation,
                                 tol=CAVITY_MATCH_TOL)
    # atom 2 = g and photon = 0, in logical-qubit order (1, 2, 3, 4) = atoms (1, 5, 3, 4)
    logical = final[:, :, 0, :, :, 0, :].transpose(0, 1, 4, 2, 3).reshape(1, 16)
    residual = float(np.max(np.abs(logical - analytic_phi1_batch(a[None]))))
    if not residual <= ORACLE_TOL:
        raise InvariantViolation("cavity register deviates from the analytic table",
                                 stage="cavity amplitude table", value=residual, tol=ORACLE_TOL)
    outside = (statevec.marginal(final, {ATOM2: 1})
               + statevec.marginal(final, {ATOM2: 0, PHOTON: 1}))
    if not outside <= PHOTON_VACUUM_TOL:
        raise InvariantViolation("weight outside atom 2 = g, photon = 0", value=outside,
                                 stage="cavity logical subspace", tol=PHOTON_VACUUM_TOL)
    return ProtocolResult(
        final_state=Register._wrap(final.reshape(-1)),  # checked by apply_gate
        p_gggg=p_all_ground,
        # P_egeg in logical-qubit order (1, 2, 3, 4) = atoms (1, 5, 3, 4)
        p_egeg=statevec.marginal(final, {ATOM1: 1, ATOM5: 0, ATOM3: 1, ATOM4: 0}),
        concurrence_measured=extract_concurrence(p_all_ground),
        oracle_residual=residual,
    )


# ---------------------------------------------------------------------------
# flight kinematics


@dataclass(frozen=True)
class FlightConfig:
    """Ballistic 1D flight plan. Atoms 1 and 3 fly at v, atoms 2 and 4 at
    w > v; emission times are t1=0, t2=tau, t3=tau+tau_prime,
    t4=tau+tau_prime+tau, all from the source at x=0."""

    v: float
    w: float
    tau: float
    tau_prime: float
    x_C: float
    x_D: float
    L_C: float
    L_D: float

    def __post_init__(self):
        if not (self.w > self.v > 0.0):
            raise ValueError("speeds must satisfy w > v > 0")
        if not (self.x_D > self.x_C > 0.0):
            raise ValueError("cavity positions must satisfy x_D > x_C > 0")
        if self.L_C <= 0.0 or self.L_D <= 0.0:
            raise ValueError("cavity mode lengths must be positive")
        if self.tau < 0.0 or self.tau_prime < 0.0:
            raise ValueError("delays must be non-negative")

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

    def position(self, atom: int, t: float) -> float:
        t0 = self.emission_times[atom]
        return self.speeds[atom] * max(0.0, t - t0)


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
    """Where a fast atom catches a slow one emitted dt earlier."""
    return cfg.v * cfg.w * dt / (cfg.w - cfg.v)


def _order_at(cfg: FlightConfig, t: float) -> tuple[int, ...]:
    pos = {a: cfg.position(a, t) for a in (1, 2, 3, 4)}
    # ties broken by emission order: the later atom sits behind
    return tuple(sorted(pos, key=lambda a: (pos[a], -cfg.emission_times[a])))


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
    """Pick tau so each pair crosses at the cavity-C center and tau_prime
    (by bisection) so the atom-1/atom-4 swap lands midway between the
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

    def swap14(tau_prime: float) -> float:
        return v * w * (2.0 * tau + tau_prime) / (w - v)

    if not swap14(0.0) < x_mid:
        # swap already at or past the midpoint with zero inter-pair delay, or
        # NaN, as when 1/v overflows: tau is infinite and v * w, which the
        # search below divides by, underflows to 0
        tau_prime = 0.0
    else:
        lo, hi = 0.0, (w - v) * x_mid / (v * w)  # swap14(hi) > x_mid
        for _ in range(MAX_SEARCH_STEPS):
            if not swap14(hi) < x_mid:
                break
            hi *= 2.0
        for _ in range(MAX_SEARCH_STEPS):
            if not hi - lo > BISECTION_TOL * (w - v) / (v * w):
                break
            mid = 0.5 * (lo + hi)
            if swap14(mid) < x_mid:
                lo = mid
            else:
                hi = mid
        tau_prime = 0.5 * (lo + hi)

    cfg = FlightConfig(v=v, w=w, tau=tau, tau_prime=tau_prime,
                       x_C=x_C, x_D=x_D, L_C=L_C, L_D=L_D)
    report = kinematics_report(cfg)
    if not report.feasible:
        return DelaySolution(feasible=False, config=cfg, report=report,
                             binding_constraint=report.violations[0])
    return DelaySolution(feasible=True, config=cfg, report=report)
