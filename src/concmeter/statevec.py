"""Dense complex state-vector register for up to 8 qubits.

Conventions (pinned by the test suite):
- qubit 1 is the leftmost letter of a ket string and the most significant
  bit of the amplitude index;
- |g> maps to bit 0, |e> maps to bit 1.

Registers are immutable values. `apply_gate` is the one call that
applies a gate: it works on a batch of states, shape (N,) + (2,)*n (a
register is a batch of one), returns a new array and checks every row
after the gate in one vectorised pass. `accept_input` is the one rule for
states entering the library.
"""
from __future__ import annotations

import functools
import math
import operator

import numpy as np

NORM_TOL_INPUT = 1e-9
NORM_TOL_UNITARY = 1e-12
UNITARITY_TOL = 1e-12
MAX_QUBITS = 8
_MAX_SHOTS = np.iinfo(np.int64).max  # the largest count numpy's samplers take


class InvariantViolation(Exception):
    """An internal consistency check failed (not a user-input problem).

    Carries, where known, the stage that failed, the measured value and
    its tolerance, and the batch row and sweep seed it came from."""

    def __init__(self, message: str, *, stage: str | None = None,
                 value: float | None = None, tol: float | None = None,
                 row: int | None = None, seed: int | None = None):
        super().__init__(message)
        self.message, self.stage = message, stage
        self.value, self.tol = value, tol
        self.row, self.seed = row, seed

    def __str__(self) -> str:
        text = f"{self.stage}: {self.message}" if self.stage else self.message
        where = [f"{name} {v}" for name, v in (("row", self.row), ("seed", self.seed))
                 if v is not None]
        if self.value is not None:
            where.append(f"measured {self.value:.3e}, tolerance {self.tol:.0e}")
        return f"{text} ({'; '.join(where)})" if where else text


class Gate:
    """A validated, immutable one- or two-qubit gate, sized by its matrix
    (2x2 or 4x4): unitarity is checked once, at construction, and neither
    the matrix nor the attribute can change."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        m = np.asarray(matrix, dtype=complex)
        if m.shape not in ((2, 2), (4, 4)):
            raise ValueError(f"expected a 2x2 or 4x4 matrix, got shape {m.shape}")
        if not np.all(np.isfinite(m.view(float))):
            raise ValueError("gate matrix contains NaN/Inf")
        err = np.max(np.abs(m.conj().T @ m - np.eye(len(m))))
        if err > UNITARITY_TOL:
            raise ValueError(f"matrix is not unitary (deviation {err:.3e})")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")


def _squared_norms(states: np.ndarray) -> np.ndarray:
    """The squared norm of each row (axis 0) of a batch, in one gufunc call;
    NaN or Inf for a row with non-finite amplitudes."""
    rows = states.reshape(len(states), -1)
    return np.vecdot(rows, rows).real


def _first_bad_row(squared: np.ndarray, tol: float) -> int:
    """Index of the first row whose norm is not within tol of 1, or -1.
    |norm - 1| <= tol is tested as (1 - tol)^2 <= norm^2 <= (1 + tol)^2;
    NaN fails both comparisons. The ufunc reductions skip the Python
    wrappers of ndarray.min/max, a fixed cost paid after every gate."""
    low, high = (1.0 - tol) ** 2, (1.0 + tol) ** 2
    if low <= np.minimum.reduce(squared) and np.maximum.reduce(squared) <= high:
        return -1
    return int(np.argmax(~((low <= squared) & (squared <= high))))


def check_batch(states: np.ndarray, tol: float) -> None:
    """Validate a batch of states, one per row (axis 0), in one vectorised
    pass: each row must be finite with a norm within tol of 1. Raises
    ValueError for the first row that is not, naming it by index when the
    batch has more than one row."""
    squared = _squared_norms(states)
    i = _first_bad_row(squared, tol)
    if i < 0:
        return
    where = f"row {i}: " if len(squared) > 1 else ""
    if not np.all(np.isfinite(states[i])):
        raise ValueError(f"{where}amplitudes contain NaN/Inf")
    raise ValueError(f"{where}state norm {math.sqrt(squared[i])!r} deviates from 1 "
                     f"beyond tolerance {tol}")


def accept_input(states: np.ndarray) -> np.ndarray:
    """The one rule for states entering the library, given as an (N, d)
    batch, one state per row: each must be finite with a norm within NORM_TOL_INPUT of 1 (else
    ValueError, as check_batch), and a row whose squared norm is off by
    more than the gates' NORM_TOL_UNITARY is renormalised, so that no
    accepted input fails the check after its first gate. With no row off,
    returns `states` itself after one pass over the squared norms."""
    # amplitudes of any magnitude arrive here: a squared norm that overflows
    # fails the check below, with no numpy warning on the way
    with np.errstate(over="ignore", invalid="ignore"):
        squared = _squared_norms(states)
        if (1.0 - NORM_TOL_UNITARY <= np.minimum.reduce(squared)
                and np.maximum.reduce(squared) <= 1.0 + NORM_TOL_UNITARY):
            return states
        check_batch(states, NORM_TOL_INPUT)
    off = ~(np.abs(squared - 1.0) <= NORM_TOL_UNITARY)
    out = states.copy()
    out[off] = [normalized(row) for row in states[off]]
    return out


def normalized(amps) -> np.ndarray:
    """amps / ||amps||, scaled by the largest component first so that
    amplitudes of any finite magnitude neither underflow nor overflow."""
    parts = np.ascontiguousarray(amps, dtype=complex).reshape(-1).view(float)
    if not np.all(np.isfinite(parts)):
        raise ValueError("amplitudes contain NaN/Inf")
    scale = np.max(np.abs(parts), initial=0.0)
    if scale == 0.0:
        raise ValueError("cannot normalize the zero vector")
    # real division: a complex one by a subnormal scale overflows
    a = (parts / scale).view(complex)
    return a / np.linalg.norm(a)


class Register:
    """Normalized n-qubit state vector, qubit 1 = most significant bit;
    its amplitudes are checked and renormalised by accept_input."""

    __slots__ = ("n_qubits", "amplitudes")

    def __init__(self, amplitudes):
        amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
        n = int(np.log2(amps.size)) if amps.size > 0 else 0
        if amps.size == 0 or 2**n != amps.size:
            raise ValueError(f"amplitude count {amps.size} is not a power of two")
        if n > MAX_QUBITS:
            raise ValueError(f"{n} qubits exceeds the supported maximum of {MAX_QUBITS}")
        amps = accept_input(amps[None])[0]
        amps.flags.writeable = False
        self.n_qubits = n
        self.amplitudes = amps

    @classmethod
    def _wrap(cls, amps: np.ndarray) -> "Register":
        # internal: amplitudes already checked, or normalised by construction
        r = cls.__new__(cls)
        r.n_qubits = int(amps.size).bit_length() - 1
        amps.flags.writeable = False
        r.amplitudes = amps
        return r


def ground_register(n: int) -> Register:
    """All-qubits-ground register |g>^n."""
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"n must be in [1, {MAX_QUBITS}], got {n}")
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = 1.0
    return Register._wrap(amps)


def _check_qubit_index(q: int, n: int) -> None:
    if not 1 <= q <= n:
        raise ValueError(f"qubit index {q} out of range 1..{n}")


@functools.lru_cache(maxsize=64)
def _gate_plan(n: int, arity: int, qubits: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The checked axis permutation that brings the gate's qubits to the front
    of a batch of n-qubit states, and its inverse; no failure is cached."""
    if arity != len(qubits):
        raise ValueError(f"gate acts on {arity} qubits, got {len(qubits)} qubit indices")
    for q in qubits:
        _check_qubit_index(q, n)
    if len(set(qubits)) != arity:
        raise ValueError("q1 and q2 must be distinct")
    perm = (*qubits, *(ax for ax in range(n + 1) if ax not in qubits))
    return perm, tuple(sorted(range(n + 1), key=perm.__getitem__))


def apply_gate(states: np.ndarray, gate: Gate,
               qubits: tuple[int, ...]) -> np.ndarray:
    """The gate-application kernel: apply a one- or two-qubit gate to the
    given qubits (1-based, 1 = leftmost, in the gate's order) of every
    state in a batch of shape (N,) + (2,)*n; a register `r` is the batch
    `r.amplitudes.reshape((1,) + (2,) * r.n_qubits)`. Returns a new
    contiguous array. Every row is checked once, for the whole batch, to be finite
    with a norm within NORM_TOL_UNITARY of 1; since the gate is unitary
    and its input normalised, a row that fails is an InvariantViolation.
    Input outside that contract (never through accept_input) fails the
    same way, and a squared norm that overflows may first make numpy warn
    (raised instead under -W error): the kernel sets no np.errstate."""
    d = len(gate.matrix)
    perm, inverse = _gate_plan(states.ndim - 1, d.bit_length() - 1,
                               tuple(map(operator.index, qubits)))
    # gate axes first, so the gate is one matrix product over all the rest
    moved = states.transpose(perm)
    out = (gate.matrix @ moved.reshape(d, -1)).reshape(moved.shape)
    out = out.transpose(inverse).copy()
    squared = _squared_norms(out)
    i = _first_bad_row(squared, NORM_TOL_UNITARY)
    if i >= 0:
        raise InvariantViolation("state norm not preserved", stage="gate application",
                                 value=abs(math.sqrt(squared[i]) - 1.0),
                                 tol=NORM_TOL_UNITARY, row=i)
    return out


def basis_index(basis: str) -> int:
    """Index of a g/e basis string, first letter = most significant bit."""
    idx = 0
    for ch in basis:
        if ch == "g":
            idx = idx << 1
        elif ch == "e":
            idx = (idx << 1) | 1
        else:
            raise ValueError(f"basis string may contain only 'g'/'e', got {basis!r}")
    return idx


def basis_string(index: int, n_qubits: int) -> str:
    """Inverse of basis_index."""
    return format(index, f"0{n_qubits}b").replace("0", "g").replace("1", "e")


def marginal(r: Register | np.ndarray, bits: dict[int, int]) -> float:
    """Probability that each given qubit (1-based) reads its bit (0 = g,
    1 = e), summed over all other qubits, for a register or one state's
    2**n amplitudes in an array of any shape (such as a batch of one)."""
    amps = r.amplitudes if isinstance(r, Register) else r
    n = amps.size.bit_length() - 1
    idx = [slice(None)] * n
    for q, bit in bits.items():
        _check_qubit_index(q, n)
        if bit not in (0, 1):
            raise ValueError(f"bit for qubit {q} must be 0 or 1, got {bit!r}")
        idx[q - 1] = bit
    psi = amps.reshape((2,) * n)
    return float(np.add.reduce(np.abs(psi[tuple(idx)]) ** 2, axis=None))  # np.sum's reduction


def _born_counts(r: Register, n_shots: int, seed: int | np.random.Generator) -> np.ndarray:
    """Born-rule sampling: the count of each basis state in index order,
    deterministic per seed; a Generator given as seed is drawn from as is."""
    if not 1 <= n_shots <= _MAX_SHOTS:
        raise ValueError(f"n_shots must be in [1, {_MAX_SHOTS}]")
    probs = np.abs(r.amplitudes) ** 2
    probs = probs / probs.sum()  # remove roundoff before multinomial
    return np.random.default_rng(seed).multinomial(n_shots, probs)


def sample_outcomes(r: Register, n_shots: int, seed: int | np.random.Generator) -> dict[str, int]:
    """Born-rule sampling as a map of basis string -> count (counts > 0, in
    index order): a view of _born_counts, the same draw and stream."""
    counts = _born_counts(r, n_shots, seed)
    return {basis_string(i, r.n_qubits): int(c) for i, c in enumerate(counts) if c > 0}
