"""Dense complex state vectors, held as plain numpy arrays of 2**n
amplitudes.

Conventions (pinned by the test suite):
- qubit 1 is the leftmost letter of a ket string and the most significant
  bit of the amplitude index;
- |g> maps to bit 0, |e> maps to bit 1.

`apply_gate` is the one call that applies a gate: it works on a batch of
states, shape (N,) + (2,)*n (one state is a batch of one), returns a new
array and checks every row after the gate in one vectorised pass.
`accept_input` is the one rule for states entering the library.
`_check_invariant` is the one runtime check of the package: NaN always
fails it, a Python float names no row, an (N,) array its first failing one.
"""
from __future__ import annotations

import functools
import math
import operator

import numpy as np

NORM_TOL_INPUT = 1e-9
NORM_TOL_UNITARY = 1e-12
UNITARITY_TOL = 1e-12
_MAX_SHOTS = np.iinfo(np.int64).max  # the largest count numpy's samplers take


class InvariantViolation(Exception):
    """An internal consistency check failed (not a user-input problem).

    Raised by `_check_invariant` alone; `row` and `seed` are set where known."""

    def __init__(self, message: str, stage: str, value: float, tol: float,
                 row: int | None = None, seed: int | None = None):
        # every argument in args, so that a pickled copy can be rebuilt
        super().__init__(message, stage, value, tol, row, seed)
        self.message, self.stage = message, stage
        self.value, self.tol = value, tol
        self.row, self.seed = row, seed

    def __str__(self) -> str:
        where = [f"{name} {v}" for name, v in (("row", self.row), ("seed", self.seed))
                 if v is not None]
        where.append(f"measured {self.value:.3e}, tolerance {self.tol:.0e}")
        return f"{self.stage}: {self.message} ({'; '.join(where)})"


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


def _squared_bounds(tol: float) -> tuple[float, float]:
    """|norm - 1| <= tol, as bounds on the squared norm:
    (1 - tol)^2 <= norm^2 <= (1 + tol)^2."""
    return (1.0 - tol) ** 2, (1.0 + tol) ** 2


# the bounds of apply_gate and accept_input, computed once
_UNITARY_SQUARED_NORMS = _squared_bounds(NORM_TOL_UNITARY)
_INPUT_SQUARED_NORMS = _squared_bounds(NORM_TOL_INPUT)


def _first_outside(values: np.ndarray, low: float | None, high: float) -> int:
    """Index of the first value not within [low, high], or -1; NaN is never
    within. With low None, for values that cannot be negative, only the
    upper bound is tested. A batch of one, as every CLI command sends, is
    tested as one Python float; a larger one by ufunc reductions, which
    skip the Python wrappers of ndarray.min/max, before any elementwise
    pass."""
    if len(values) == 1:
        value = values.item()
        return -1 if value <= high and (low is None or low <= value) else 0
    if np.maximum.reduce(values, initial=-np.inf) <= high and (
            low is None or low <= np.minimum.reduce(values, initial=np.inf)):
        return -1
    inside = values <= high
    if low is not None:
        inside &= low <= values
    return int(np.argmax(~inside))


def _norm_deviation(squared: float) -> float:
    return abs(math.sqrt(squared) - 1.0)


def _check_invariant(stage: str, message: str, values, tol: float,
                     bounds: tuple[float, float] | None = None, report=float) -> None:
    """The one runtime check: raise InvariantViolation with report(the
    failing value) and `tol` unless every value is within `bounds`, by
    default at most `tol`; NaN never is. A Python float is one value and
    names no row; an (N,) array names its first failing row."""
    low = None if bounds is None else bounds[0]
    high = tol if bounds is None else bounds[1]
    if isinstance(values, float):
        if values <= high and (low is None or low <= values):
            return
        row, value = None, values
    else:
        row = _first_outside(values, low, high)
        if row < 0:
            return
        value = values[row]
    raise InvariantViolation(message, stage, report(value), tol, row)


def accept_input(states: np.ndarray) -> np.ndarray:
    """The one rule for states entering the library, given as an (N, d)
    batch, one state per row: each must be finite with a norm within
    NORM_TOL_INPUT of 1 (else ValueError for the first row that is not,
    named by index when the batch has more than one row), and a row whose
    squared norm is off by more than the gates' NORM_TOL_UNITARY is
    renormalised, so that no accepted input fails the check after its
    first gate. With no row off, returns `states` itself after one pass
    over the squared norms."""
    # amplitudes of any magnitude arrive here: a squared norm that overflows
    # fails the check below, with no numpy warning on the way
    with np.errstate(over="ignore", invalid="ignore"):
        squared = np.vecdot(states, states).real
    if _first_outside(squared, 1.0 - NORM_TOL_UNITARY, 1.0 + NORM_TOL_UNITARY) < 0:
        return states
    i = _first_outside(squared, *_INPUT_SQUARED_NORMS)  # NaN or Inf for a non-finite row
    if i >= 0:
        where = f"row {i}: " if len(squared) > 1 else ""
        if not np.all(np.isfinite(states[i])):
            raise ValueError(f"{where}amplitudes contain NaN/Inf")
        raise ValueError(f"{where}state norm {math.sqrt(squared[i])!r} deviates from 1 "
                         f"beyond tolerance {NORM_TOL_INPUT}")
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


def _check_qubit_index(q: int, n: int) -> None:
    if q not in range(1, n + 1):
        raise ValueError(f"qubit index {q} out of range 1..{n}")


@functools.lru_cache(maxsize=64)
def _gate_plan(n: int, qubits: tuple[int, ...], gate: Gate):
    """The checked plan for `gate` on the given qubits of a batch of n-qubit
    states; no failure is cached. It holds the axis permutation that
    brings the gate's qubits to the front and its inverse, and, for a gate
    with one nonzero entry per row, each 1, -1, 1j or -1j, the gather that
    applies it instead (`_monomial_gather`; None, None for any other)."""
    d = len(gate.matrix)
    arity = d.bit_length() - 1
    if arity != len(qubits):
        raise ValueError(f"gate acts on {arity} qubits, got {len(qubits)} qubit indices")
    for q in qubits:
        _check_qubit_index(q, n)
    if len(set(qubits)) != arity:
        raise ValueError("q1 and q2 must be distinct")
    perm = (*qubits, *(ax for ax in range(n + 1) if ax not in qubits))
    inverse = tuple(sorted(range(n + 1), key=perm.__getitem__))
    return perm, inverse, *_monomial_gather(gate.matrix, perm, inverse)


def _monomial_gather(m: np.ndarray, perm: tuple[int, ...], inverse: tuple[int, ...]):
    """(source, phase) for a matrix with one nonzero entry per row, each 1,
    -1, 1j or -1j, moved to a state's qubits as apply_gate moves the axes:
    amplitude j of the output is amplitude source[j] of the input times
    phase[j] (phase None when every factor is 1). These are the only terms
    of the matrix product that are not a product with zero, and a product
    with +/-1 or +/-1j is exact. (None, None) for any other matrix."""
    nonzero = m != 0
    if not np.all(np.count_nonzero(nonzero, axis=1) == 1):
        return None, None
    cols = np.argmax(nonzero, axis=1)
    entries = m[np.arange(len(m)), cols]
    if not np.all((entries == 1) | (entries == -1) | (entries == 1j) | (entries == -1j)):
        return None, None
    # the basis index of every amplitude, with the gate's axes first
    moved = np.arange(2 ** (len(perm) - 1)).reshape((1,) + (2,) * (len(perm) - 1))
    moved = moved.transpose(perm)
    rows = moved.reshape(len(m), -1)
    source, phase = (a.reshape(moved.shape).transpose(inverse).reshape(-1)
                     for a in (rows[cols], np.broadcast_to(entries[:, None], rows.shape)))
    source.flags.writeable = phase.flags.writeable = False  # shared through the cache
    return source, (None if np.all(phase == 1) else phase)


def apply_gate(states: np.ndarray, gate: Gate,
               qubits: tuple[int, ...]) -> np.ndarray:
    """The gate-application kernel: apply a one- or two-qubit gate to the
    given qubits (1-based, 1 = leftmost, in the gate's order) of every
    state in a batch of shape (N,) + (2,)*n; one state's flat array `a`
    of 2**n amplitudes is the batch `a.reshape((1,) + (2,) * n)`. Returns a
    new contiguous array.

    A gate with one nonzero entry per row, each 1, -1, 1j or -1j (sigma_y,
    CNOT, CPHASE, SWAP and their tensor products), is applied as one
    gather of each state's amplitudes, times its phase factors when any
    is not 1: every other term of the matrix product is a product with
    zero, and a product with +/-1 or +/-1j is exact, so the result is
    the product's bit for bit for finite rows, up to the sign of a zero
    (an infinite amplitude stays infinite, where the product's 0 * inf
    gives NaN). Any other gate is one (d, d) @ (d, K) matrix product
    with its qubits' axes moved to the front. Both plans are cached per
    (n, qubits, gate), so `gate` must be hashable and its matrix must not
    change after its first use (every Gate is hashable, its matrix
    read-only).

    Every row is checked once, for the whole batch, to be finite
    with a norm within NORM_TOL_UNITARY of 1: one np.vecdot of the flat
    (N, 2**n) result, against bounds on the squared norm computed once,
    at import, by _check_invariant. Since the gate is unitary and its
    input normalised, a row that fails is an InvariantViolation.
    Input outside that contract (never through accept_input) fails the
    same way, and a squared norm that overflows may first make numpy warn
    (raised instead under -W error): the kernel sets no np.errstate."""
    perm, inverse, source, phase = _gate_plan(states.ndim - 1,
                                              tuple(map(operator.index, qubits)), gate)
    if source is not None:
        flat = states.reshape(-1, len(source)).take(source, axis=1).astype(complex, copy=False)
        if phase is not None:
            flat *= phase
    else:
        d = len(gate.matrix)
        # gate axes first, so the gate is one matrix product over all the rest
        moved = states.transpose(perm)
        out = (gate.matrix @ moved.reshape(d, -1)).reshape(moved.shape)
        flat = out.transpose(inverse).copy().reshape(len(states), 2 ** (states.ndim - 1))
    _check_invariant("gate application", "state norm not preserved", np.vecdot(flat, flat).real,
                     NORM_TOL_UNITARY, _UNITARY_SQUARED_NORMS, _norm_deviation)
    return flat.reshape(states.shape)


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


@functools.lru_cache(maxsize=64)
def _marginal_plan(n: int, pattern: tuple[tuple[int, int], ...]) -> tuple:
    """The checked index of an n-qubit state's amplitudes, shape (2,)*n,
    that fixes each (qubit, bit) of the pattern; no failure is cached."""
    idx = [slice(None)] * n
    for q, bit in pattern:
        _check_qubit_index(q, n)
        if bit not in (0, 1):
            raise ValueError(f"bit for qubit {q} must be 0 or 1, got {bit!r}")
        idx[int(q) - 1] = int(bit)
    return tuple(idx)


def marginal(amps: np.ndarray, *patterns: dict[int, int]) -> float | tuple[float, ...]:
    """Probability that each given qubit (1-based) reads its bit (0 = g,
    1 = e), summed over all other qubits, for one state's 2**n amplitudes
    in an array of any shape (flat, or a batch of one).

    Each pattern is a {qubit: bit} dict; its checked index is cached per
    (n, pattern), and a qubit or bit out of range raises ValueError on
    every call. Several patterns are read from one pass of |amplitude|^2
    and returned as a tuple, in order; one pattern returns one float."""
    n = amps.size.bit_length() - 1
    plans = [_marginal_plan(n, tuple(bits.items())) for bits in patterns]
    probs = np.abs(amps.reshape((2,) * n)) ** 2
    # np.add.reduce is np.sum's reduction, without its Python wrapper
    sums = tuple(float(np.add.reduce(probs[idx], axis=None)) for idx in plans)
    return sums[0] if len(sums) == 1 else sums


def _born_counts(amps: np.ndarray, n_shots: int, rng: np.random.Generator) -> np.ndarray:
    """Born-rule sampling of one state's flat amplitudes: the count of each
    basis state in index order, drawn from rng."""
    if not 1 <= n_shots <= _MAX_SHOTS:
        raise ValueError(f"n_shots must be in [1, {_MAX_SHOTS}]")
    probs = np.abs(amps) ** 2
    probs = probs / probs.sum()  # remove roundoff before multinomial
    return rng.multinomial(n_shots, probs)

