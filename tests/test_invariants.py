"""Every runtime check's InvariantViolation, pinned whole: the message as
printed, byte for byte, and the stage, value, tolerance and row it
carries. Each fault is injected through the path the other fault tests
use; the relay's vacuum check serves two stages."""
import math
import pickle

import numpy as np
import pytest

from concmeter import cavity, gates, protocol, statevec
from concmeter.cavity import ATOM1, PHOTON, decomposed_cnot, run_cavity_realization
from concmeter.concurrence import PureState
from concmeter.statevec import Gate, InvariantViolation
from oracles import map_atom_to_photon, map_photon_to_atom5, tensor

SQ2 = 1.0 / math.sqrt(2.0)
BELL = PureState(0, SQ2, SQ2, 0)


def relay_with(photon_amps=(1, 0), atom5_amps=(1, 0)):
    """Six-slot relay register, every atom in |g>, as flat amplitudes."""
    reg = np.array([1, 0], dtype=complex)
    for amps in ((1, 0), (1, 0), (1, 0), photon_amps, atom5_amps):
        reg = tensor(reg, amps)
    return reg


def stretched_row(monkeypatch):
    states = np.array([[1, 0, 0, 0], BELL.amplitudes, [0, 0, 0, 1]]).reshape(3, 2, 2)
    states[1] *= 2.0
    statevec.apply_gate(states, gates.sigma_y(), (1,))


def off_norm_table_row(monkeypatch):
    amps = np.array([[1, 0, 0, 0], BELL.amplitudes, [0, 0, 1, 0], [0, 0, 0, 1]])
    amps[3] *= 1.01
    protocol.analytic_phi1_batch(amps)


def wrong_sign_rotation(monkeypatch):
    monkeypatch.setattr(protocol, "_R_MINUS", gates.r_plus())
    protocol.run_batch(BELL.amplitudes[None])


def occupied_photon(monkeypatch):
    map_atom_to_photon(relay_with(photon_amps=(0, 1)))


def excited_atom5(monkeypatch):
    map_photon_to_atom5(relay_with(atom5_amps=(0, 1)))


def sign_flipped_cphase(monkeypatch):
    tested = decomposed_cnot()
    monkeypatch.setattr(cavity, "decomposed_cnot", lambda: [
        (name, Gate(g.matrix * [1, 1, 1, -1]) if name == "cphase" else g)
        for name, g in tested])
    run_cavity_realization(BELL)


def after_relay(monkeypatch, gate, qubit):
    """Run the relay on BELL with `gate` applied to `qubit` right after the
    photon-to-atom-5 map."""
    relay_step = cavity._photon_to_atom5
    monkeypatch.setattr(cavity, "_photon_to_atom5",
                        lambda states: statevec.apply_gate(relay_step(states), gate, (qubit,)))
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
