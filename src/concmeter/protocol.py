"""The four-qubit concurrence-measurement circuit on two state copies.

Pipeline: |psi> x (sigma_y x sigma_y)|psi>, then CNOT(control=2, target=4),
then R- on qubit 2. The concurrence of |psi> is read out from the
all-ground probability as C = 2*sqrt(2*P_gggg).

`run_batch` runs the circuit on N input states at once; `run_circuit` is
a batch of one, which simulates and checks each distinct input once per
process and returns the kept result on a repeat (a memo of the last 16
inputs, keyed by their bytes; `run_batch` keeps nothing). Both run one
step program, the plans of the three gates
(`_COPY2`, `_CNOT_24`, `_R_MINUS_2`), resolved once, at import, and
applied with no per-gate lookup. `analytic_phi1_batch` computes the
post-circuit amplitudes directly as polynomials in c0..c3, never touching
the gate simulator, so the two paths cross-check each other row by row.
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from . import gates, statevec
from .concurrence import PureState

ORACLE_TOL = 1e-10
TABLE_NORM_TOL = 1e-10

_SQRT2_INV = 1.0 / math.sqrt(2.0)

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


# the circuit's step program, the checked plan of each of its three gates
_COPY2 = statevec._gate_plan(2, (1, 2), gates.SIGMA_Y_PAIR)
_CNOT_24 = statevec._gate_plan(4, (2, 4), gates.CNOT)
_R_MINUS_2 = statevec._gate_plan(4, (2,), gates.R_MINUS)


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
    # |psi> on qubits 1,2 and (sigma_y x sigma_y)|psi> on qubits 3,4: the
    # product of two checked rows needs no check of its own
    copy2 = statevec._apply_plan(a, _COPY2)
    psi = (a[:, :, None] * copy2[:, None, :]).reshape(-1, 16)
    psi = statevec._apply_plan(psi, _CNOT_24)
    final = statevec._apply_plan(psi, _R_MINUS_2)

    residual = np.maximum.reduce(np.abs(final - analytic_phi1_batch(a)), axis=1)
    statevec._check_invariant("amplitude table",
                              "simulated state deviates from the analytic table",
                              residual, ORACLE_TOL)
    return final, np.abs(final.take(_READOUT_KETS, axis=1)) ** 2, residual  # one gather


# A shot study runs copies of a few states again and again: the results of
# the last _MEMO_SIZE distinct inputs, each checked once, by input bytes. A
# lookup is one atomic dict read; the lock keeps a store and its eviction
# one step for callers on several threads.
_MEMO_SIZE = 16
_memo: dict[bytes, ProtocolResult] = {}
_memo_lock = threading.Lock()


def run_circuit(psi: PureState) -> ProtocolResult:
    """Execute the full circuit and extract concurrence, with the analytic
    amplitude table checked ket-by-ket (phase-strict): a batch of one,
    whose input PureState has already been validated. Both probabilities
    are read as Python floats in one .tolist().

    Each distinct input is simulated and checked once per process: the
    frozen result that passed every check is kept, keyed by the exact
    bytes of `psi.amplitudes` (so -0.0 and 0.0 are different inputs), and
    a repeat returns that same object. The memo holds the last
    _MEMO_SIZE distinct inputs and drops the oldest first; a failed check
    stores nothing, so it raises again on every call."""
    key = psi.amplitudes.tobytes()
    result = _memo.get(key)
    if result is not None:
        return result
    final, probs, residual = _run(psi.amplitudes[None])
    (p_gggg, p_egeg), = probs.tolist()
    final = final[0]  # checked by the step kernel
    final.flags.writeable = False
    result = ProtocolResult(
        final_state=final,
        p_gggg=p_gggg,
        p_egeg=p_egeg,
        concurrence_measured=extract_concurrence(p_gggg),
        oracle_residual=residual.item(),
    )
    with _memo_lock:
        if len(_memo) == _MEMO_SIZE:
            del _memo[next(iter(_memo))]  # the oldest: a dict keeps insertion order
        _memo[key] = result
    return result
