"""The four-qubit concurrence-measurement circuit on two state copies.

Pipeline: |psi> x (sigma_y x sigma_y)|psi>, then CNOT(control=2, target=4),
then R- on qubit 2. The concurrence of |psi> is read out from the
all-ground probability as C = 2*sqrt(2*P_gggg).

`run_batch` runs the circuit on N input states at once; `run_circuit` is
a batch of one. `analytic_phi1_batch` computes the post-circuit
amplitudes directly as polynomials in c0..c3, never touching the gate
simulator, so the two paths cross-check each other row by row.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gates, statevec
from .concurrence import PureState

ORACLE_TOL = 1e-10
TABLE_NORM_TOL = 1e-10

_SQRT2_INV = 1.0 / math.sqrt(2.0)

# the circuit's gates, looked up once; sigma_y x sigma_y acts on the
# second copy as one two-qubit gate, validated here once
_SIGMA_Y_PAIR = statevec.Gate(np.kron(gates.sigma_y().matrix, gates.sigma_y().matrix))
_CNOT = gates.cnot()
_R_MINUS = gates.r_minus()

_READOUT_KETS = np.array([statevec.basis_index("gggg"), statevec.basis_index("egeg")])

# The post-circuit amplitudes as quadratic forms in c0..c3, before the
# common factor 1/sqrt(2): ket -> {(i, j): coefficient of c_i c_j}. With
# A+- = c1 c2 +- c0 c3 and B+- = c0 c2 +- c1 c3, the first four rows are
# A-, A+, B-, -B+. ggeg and eggg are 0.
_PHI1_TERMS = {
    "gggg": {(1, 2): 1, (0, 3): -1},
    "gegg": {(1, 2): 1, (0, 3): 1},
    "ggge": {(0, 2): 1, (1, 3): -1},
    "gege": {(0, 2): -1, (1, 3): -1},
    "eegg": {(2, 3): 2},
    "geeg": {(0, 1): -2},
    "ggee": {(1, 1): 1, (0, 0): -1},
    "geee": {(1, 1): 1, (0, 0): 1},
    "egge": {(2, 2): 1, (3, 3): -1},
    "eege": {(2, 2): -1, (3, 3): -1},
    "egeg": {(1, 2): 1, (0, 3): -1},
    "eeeg": {(1, 2): -1, (0, 3): -1},
    "eeee": {(0, 2): 1, (1, 3): 1},
    "egee": {(0, 2): -1, (1, 3): 1},
}


def _terms_matrix(terms: dict) -> np.ndarray:
    """(16 products c_i c_j, row 4i + j) x (16 kets) coefficient matrix."""
    m = np.zeros((16, 16), dtype=complex)
    for ket, coefs in terms.items():
        for (i, j), coef in coefs.items():
            m[4 * i + j, statevec.basis_index(ket)] = coef
    return m


_PHI1_MATRIX = _terms_matrix(_PHI1_TERMS)


@dataclass(frozen=True)
class ProtocolResult:
    final_state: np.ndarray  # flat final amplitudes, read-only
    p_gggg: float
    p_egeg: float
    concurrence_measured: float
    oracle_residual: float


@dataclass(frozen=True)
class BatchResult:
    """Row i of each array belongs to input state i."""

    amplitudes: np.ndarray  # (N, 16) final amplitudes
    p_gggg: np.ndarray
    p_egeg: np.ndarray
    oracle_residual: np.ndarray  # max |simulated - analytic| per row


def _input_batch(amps) -> np.ndarray:
    a = np.asarray(amps, dtype=complex)
    if a.ndim != 2 or a.shape[0] == 0 or a.shape[1] != 4:
        raise ValueError(f"expected a non-empty (N, 4) amplitude array, got shape {a.shape}")
    return statevec.accept_input(a)


def _prepare(a: np.ndarray) -> np.ndarray:
    """(N, 4) two-qubit states -> (N, 2, 2, 2, 2) inputs of the circuit:
    |psi> on qubits 1,2 and (sigma_y x sigma_y)|psi> on qubits 3,4. The
    product of two checked rows needs no check of its own."""
    copy2 = statevec.apply_gate(a.reshape(-1, 2, 2), _SIGMA_Y_PAIR, (1, 2))
    return (a[:, :, None] * copy2.reshape(-1, 1, 4)).reshape(-1, 2, 2, 2, 2)


def analytic_phi1_batch(amps) -> np.ndarray:
    """(N, 4) states -> (N, 16) post-circuit amplitudes, evaluated as
    polynomials in c0..c3; each row's norm is checked (TABLE_NORM_TOL).
    Rows are expected normalised (run_batch's accepted input); a row far
    off, e.g. [1e200, 0, 0, 0], raises InvariantViolation, and numpy may
    first warn of the overflow (raised instead under -W error)."""
    c = np.asarray(amps, dtype=complex)
    products = (c[:, :, None] * c[:, None, :]).reshape(-1, 16)
    table = (products @ _PHI1_MATRIX) * _SQRT2_INV
    statevec._check_invariant("analytic table", "analytic amplitude table is not normalised",
                              np.abs(np.vecdot(table, table).real - 1.0), TABLE_NORM_TOL)
    return table


def extract_concurrence(p: float) -> float:
    """Invert P_gggg = C^2/8: returns 2*sqrt(2*max(0, p)), clamped to
    [0, 1], so a noisy estimate of p outside [0, 1/8] still maps to a
    concurrence."""
    return min(1.0, 2.0 * math.sqrt(2.0 * max(0.0, p)))


def run_batch(amps) -> BatchResult:
    """Run the circuit on N states given as an (N, 4) amplitude array.

    Every row is checked: its input (statevec.accept_input), its norm
    after each gate, and its final state against the analytic table, phase-strict, within
    ORACLE_TOL. A failed check inside the circuit raises
    InvariantViolation naming the row."""
    final, probs, residual = _run(_input_batch(amps))
    p_gggg, p_egeg = probs.T
    return BatchResult(amplitudes=final, p_gggg=p_gggg, p_egeg=p_egeg,
                       oracle_residual=residual)


def _run(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The circuit, with every check of run_batch, on rows already checked
    as input states. Returns plain arrays, row i for input state i: the
    (N, 16) final amplitudes, the (N, 2) readout probabilities P_gggg and
    P_egeg, and the (N,) oracle residuals; run_batch and run_circuit each
    build their own result from them."""
    psi = _prepare(a)
    psi = statevec.apply_gate(psi, _CNOT, (2, 4))
    psi = statevec.apply_gate(psi, _R_MINUS, (2,))
    final = psi.reshape(-1, 16)

    residual = np.maximum.reduce(np.abs(final - analytic_phi1_batch(a)), axis=1)
    statevec._check_invariant("amplitude table",
                              "simulated state deviates from the analytic table",
                              residual, ORACLE_TOL)
    return final, np.abs(final.take(_READOUT_KETS, axis=1)) ** 2, residual  # one gather


def run_circuit(psi: PureState) -> ProtocolResult:
    """Execute the full circuit and extract concurrence, with the analytic
    amplitude table checked ket-by-ket (phase-strict): a batch of one,
    whose input PureState has already been validated. Both probabilities
    are read as Python floats in one .tolist()."""
    final, probs, residual = _run(psi.amplitudes[None])
    (p_gggg, p_egeg), = probs.tolist()
    final = final[0]  # checked by apply_gate
    final.flags.writeable = False
    return ProtocolResult(
        final_state=final,
        p_gggg=p_gggg,
        p_egeg=p_egeg,
        concurrence_measured=extract_concurrence(p_gggg),
        oracle_residual=residual.item(),
    )
