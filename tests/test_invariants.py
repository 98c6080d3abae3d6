"""Every runtime check's InvariantViolation, pinned whole: the message as
printed, byte for byte, and the stage, value, tolerance and row it
carries. Each fault is injected through the path the other fault tests
use; the relay's vacuum check serves two stages. Then the three
tolerances that only these checks read, each pinned both ways, and
the check itself at its edges, for each value shape it takes."""
import dataclasses
import math
import pickle

import numpy as np
import pytest

from concmeter import cavity, gates, protocol, statevec
from concmeter.cavity import ATOM1, PHOTON, run_cavity_realization
from concmeter.concurrence import PureState
from concmeter.statevec import Gate, InvariantViolation
from oracles import cnot_steps_with_flipped_cphase

SQ2 = 1.0 / math.sqrt(2.0)
BELL = PureState(0, SQ2, SQ2, 0)


def stretched_row(monkeypatch):
    states = np.array([[1, 0, 0, 0], BELL.amplitudes, [0, 0, 0, 1]]).reshape(3, 2, 2)
    states[1] *= 2.0
    statevec.apply_gate(states, gates.SIGMA_Y, (1,))


def off_norm_table_row(monkeypatch):
    amps = np.array([[1, 0, 0, 0], BELL.amplitudes, [0, 0, 1, 0], [0, 0, 0, 1]])
    amps[3] *= 1.01
    protocol.analytic_phi1_batch(amps)


def wrong_sign_rotation(monkeypatch):
    monkeypatch.setattr(protocol, "_R_MINUS_2", statevec._gate_plan(4, (2,), gates.R_PLUS))
    protocol.run_batch(BELL.amplitudes[None])


def relay_from(monkeypatch, photon_atom5):
    """Run the relay on BELL with the photon and atom 5 starting in the
    given two-qubit state instead of |0>|g>."""
    monkeypatch.setattr(cavity, "_VACUUM", np.array(photon_atom5, dtype=complex))
    return run_cavity_realization(BELL)


def occupied_photon(monkeypatch):
    relay_from(monkeypatch, (0, 0, 1, 0))


def excited_atom5(monkeypatch):
    relay_from(monkeypatch, (0, 1, 0, 0))


def sign_flipped_cphase(monkeypatch):
    monkeypatch.setattr(cavity, "_CNOT_STEPS", cnot_steps_with_flipped_cphase())
    run_cavity_realization(BELL)


def after_relay(monkeypatch, gate, qubit):
    """Run the relay on BELL with `gate` applied to `qubit` right after the
    photon-to-atom-5 map."""
    relay_swap = cavity._swap_from_ground

    def faulty(states, hand_over, *rest):
        out = relay_swap(states, hand_over, *rest)
        if hand_over is not cavity._TO_ATOM5:
            return out
        return statevec.apply_gate(out, gate, (qubit,))

    monkeypatch.setattr(cavity, "_swap_from_ground", faulty)
    run_cavity_realization(BELL)


def phase_flip(monkeypatch):
    after_relay(monkeypatch, Gate(np.diag([1.0, -1.0])), ATOM1)


LEAK = 1e-5  # rad of photon rotation: leaks sin(LEAK)**2 of weight


def photon_leak(monkeypatch):
    after_relay(monkeypatch, Gate([[math.cos(LEAK), -math.sin(LEAK)],
                                   [math.sin(LEAK), math.cos(LEAK)]]), PHOTON)


STAGES = [
    (stretched_row, "gate application: state norm not preserved "
     "(row 1; measured 1.000e+00, tolerance 1e-12)", 1.0, statevec.NORM_TOL_UNITARY, 1),
    (off_norm_table_row, "analytic table: analytic amplitude table is not normalised "
     "(row 3; measured 4.060e-02, tolerance 1e-10)", 1.01**4 - 1.0, protocol.TABLE_NORM_TOL, 3),
    (wrong_sign_rotation, "amplitude table: simulated state deviates from the analytic table "
     "(row 0; measured 7.071e-01, tolerance 1e-10)", SQ2, protocol.ORACLE_TOL, 0),
    (occupied_photon, "atom-to-photon map: photon must be in vacuum before the atom-2 map "
     "(measured 1.000e+00, tolerance 1e-12)", 1.0, cavity.PHOTON_VACUUM_TOL, None),
    (excited_atom5, "photon-to-atom map: atom 5 must start in the ground state "
     "(measured 1.000e+00, tolerance 1e-12)", 1.0, cavity.PHOTON_VACUUM_TOL, None),
    (sign_flipped_cphase, "cavity vs ideal P_gggg: cavity realization deviates from the "
     "ideal circuit (measured 1.250e-01, tolerance 1e-10)", 0.125, cavity.CAVITY_MATCH_TOL, None),
    (phase_flip, "cavity amplitude table: cavity register deviates from the analytic table "
     "(measured 7.071e-01, tolerance 1e-10)", SQ2, protocol.ORACLE_TOL, None),
    (photon_leak, "cavity logical subspace: weight outside atom 2 = g, photon = 0 "
     "(measured 1.000e-10, tolerance 1e-12)", math.sin(LEAK)**2, cavity.PHOTON_VACUUM_TOL,
     None),
]


@pytest.mark.parametrize("fault, text, value, tol, row", STAGES,
                         ids=[text.split(":")[0] for _, text, *_ in STAGES])
def test_every_stage_reports_in_full(monkeypatch, fault, text, value, tol, row):
    with pytest.raises(InvariantViolation) as info:
        fault(monkeypatch)
    exc = info.value
    assert str(exc) == text
    assert exc.stage == text.split(":")[0]
    assert type(exc.value) is float and exc.value == pytest.approx(value, rel=1e-9)
    assert exc.tol == tol
    assert exc.row == row


def test_survives_pickling(monkeypatch):
    with pytest.raises(InvariantViolation) as info:
        stretched_row(monkeypatch)
    exc = info.value
    exc.row, exc.seed = 7, 11  # as sweep sets them
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is InvariantViolation
    assert str(back) == str(exc) == ("gate application: state norm not preserved "
                                     "(row 7; seed 11; measured 1.000e+00, tolerance 1e-12)")
    for name in ("message", "stage", "value", "tol", "row", "seed"):
        assert getattr(back, name) == getattr(exc, name), name


# Each tolerance below is pinned both ways: a fault of twice the tolerance
# must raise, and one of half must pass. The deviations are literals, so a
# tolerance moved by more than a factor of 2 either way fails one of them.

def table_norm_off_by(monkeypatch, excess):
    # the table is quadratic in the amplitudes: a row scaled by s has a
    # squared table norm of s**4
    protocol.analytic_phi1_batch(BELL.amplitudes[None] * (1.0 + excess) ** 0.25)


def atom5_excited_by(monkeypatch, population):
    relay_from(monkeypatch, (math.sqrt(1.0 - population), math.sqrt(population), 0, 0))


def ideal_p_gggg_off_by(monkeypatch, shift):
    ideal = protocol.run_circuit(BELL)
    monkeypatch.setattr(cavity, "run_circuit",
                        lambda psi: dataclasses.replace(ideal, p_gggg=ideal.p_gggg + shift))
    run_cavity_realization(BELL)


PINS = {
    "TABLE_NORM_TOL": (table_norm_off_by, 2e-10, 5e-11, "analytic table"),
    "PHOTON_VACUUM_TOL": (atom5_excited_by, 2e-12, 5e-13, "photon-to-atom map"),
    "CAVITY_MATCH_TOL": (ideal_p_gggg_off_by, 2e-10, 5e-11, "cavity vs ideal P_gggg"),
}


@pytest.mark.parametrize("fault, over, under, stage", PINS.values(), ids=PINS.keys())
def test_tolerance_pinned_both_ways(monkeypatch, fault, over, under, stage):
    with pytest.raises(InvariantViolation) as info:
        fault(monkeypatch, over)
    assert info.value.stage == stage
    assert info.value.value == pytest.approx(over, rel=1e-3)
    fault(monkeypatch, under)


# The one runtime check at its edges, for each value shape it takes; an array
# goes through `_first_outside`. A value exactly at the tolerance, or at
# either end of a bounds pair, passes; the next float past it fails. An array
# of rows puts every edge value before the failing row and again after it,
# so that the row named is the first one past the edge, not one at it.

TOL = protocol.ORACLE_TOL
LOW, HIGH = statevec._UNITARY_SQUARED_NORMS
EDGES = {  # bounds, the values at its edges, one inside, each value just past
    "tol": (None, (TOL,), 0.0, (math.nextafter(TOL, math.inf),)),
    "bounds": ((LOW, HIGH), (LOW, HIGH), 1.0,
               (math.nextafter(LOW, -math.inf), math.nextafter(HIGH, math.inf))),
}


def shaped(shape, x, edges, inside):
    """x as a value of the given shape, and the row named when x fails."""
    if shape == "float":
        return x, None
    if shape == "one_row":  # _first_outside's .item() path
        return np.array([x]), 0
    return np.array([inside, *edges, x, *edges]), 1 + len(edges)


@pytest.mark.parametrize("shape", ["float", "one_row", "rows"])
@pytest.mark.parametrize("edge", EDGES)
def test_check_passes_at_its_edge_and_fails_one_ulp_past(edge, shape):
    bounds, edges, inside, pasts = EDGES[edge]
    for x in edges:
        values, _ = shaped(shape, x, edges, inside)
        statevec._check_invariant("edge", "at the edge", values, TOL, bounds)
    for x in pasts:
        values, row = shaped(shape, x, edges, inside)
        with pytest.raises(InvariantViolation) as info:
            statevec._check_invariant("edge", "past the edge", values, TOL, bounds)
        exc = info.value
        assert (exc.stage, exc.value, exc.tol, exc.row) == ("edge", x, TOL, row)

