"""Dense complex state vectors, held as plain numpy arrays of 2**n
amplitudes.

Conventions (pinned by the test suite):
- qubit 1 is the leftmost letter of a ket string and the most significant
  bit of the amplitude index;
- |g> maps to bit 0, |e> maps to bit 1.

Every gate is applied in two parts, resolve and apply. `_gate_plan`
resolves the one checked, cached plan per (n, qubits, gate): a gather
with its phase, or one matrix product. The step kernel `_apply_plan`
applies a plan to a batch of states, shape (N,) + (2,)*n (one state is a
batch of one), returns a new array and checks every row after the gate
in one vectorised pass; a matrix product on one row takes its operand
straight from the flat row, through the plan's gather, with no
transpose. `apply_gate` is a plan lookup followed by that kernel; the
fixed circuits of `protocol` and `cavity` resolve their plans once, at
import, and then apply them. `marginal` is split the same way,
into its checked pattern index (`_marginal_plan`) and a read (`_read`).
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


# amplitudes of any magnitude reach accept_input: a squared norm that overflows
# fails its check there, with no numpy warning on the way (np.errstate as a
# decorator costs about half of what a with block does per call)
@np.errstate(over="ignore", invalid="ignore")
def _squared_norms(states: np.ndarray) -> np.ndarray:
    return np.vecdot(states, states).real


def accept_input(states: np.ndarray) -> np.ndarray:
    """The one rule for states entering the library, given as an (N, d)
    batch, one state per row: each must be finite with a norm within
    NORM_TOL_INPUT of 1 (else ValueError for the first row that is not,
    named by index when the batch has more than one row), and a row whose
    squared norm is off by more than the gates' NORM_TOL_UNITARY is
    renormalised, so that no accepted input fails the check after its
    first gate. With no row off, returns `states` itself after one pass
    over the squared norms."""
    squared = _squared_norms(states)
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
    states, as `_apply_plan` takes it; no failure is cached. It is a tuple
    (size, matrix, source, phase, front, back): 2**n, the gate's matrix,
    for a gate with one nonzero entry per row, each 1, -1, 1j or -1j, the
    gather that applies it (`_monomial_gather`; None, None for any other),
    then the gather `front` that lays a row out as the (d, 2**n // d)
    operand of the matrix product, the gate's qubits first, and its
    inverse `back`, with which any other gate is applied."""
    d = len(gate.matrix)
    arity = d.bit_length() - 1
    if arity != len(qubits):
        raise ValueError(f"gate acts on {arity} qubits, got {len(qubits)} qubit indices")
    for q in qubits:
        _check_qubit_index(q, n)
    if len(set(qubits)) != arity:
        raise ValueError("q1 and q2 must be distinct")
    order = [q - 1 for q in qubits] + [q for q in range(n) if q + 1 not in qubits]
    front = np.arange(2 ** n).reshape((2,) * n).transpose(order).reshape(d, -1)
    back = np.argsort(front, axis=None)  # the inverse permutation
    front.flags.writeable = back.flags.writeable = False  # shared through the cache
    return 2 ** n, gate.matrix, *_monomial_gather(gate.matrix, front, back), front, back


def _monomial_gather(m: np.ndarray, front: np.ndarray, back: np.ndarray):
    """(source, phase) for a matrix with one nonzero entry per row, each 1,
    -1, 1j or -1j, on the amplitudes that `front` lays out as the product's
    operand and `back` puts back: amplitude j of the output is amplitude
    source[j] of the input times phase[j] (phase None when every factor is
    1). These are the only terms of the matrix product that are not a
    product with zero, and a product with +/-1 or +/-1j is exact. (None,
    None) for any other matrix."""
    nonzero = m != 0
    if not np.all(np.count_nonzero(nonzero, axis=1) == 1):
        return None, None
    cols = np.argmax(nonzero, axis=1)
    entries = m[np.arange(len(m)), cols]
    if not np.all((entries == 1) | (entries == -1) | (entries == 1j) | (entries == -1j)):
        return None, None
    # output amplitude front[i, k] is input amplitude front[cols[i], k] times entries[i]
    source = front[cols].reshape(-1)[back]
    phase = np.repeat(entries, front.shape[1])[back]
    source.flags.writeable = phase.flags.writeable = False  # shared through the cache
    return source, (None if np.all(phase == 1) else phase)


def _apply_plan(states: np.ndarray, plan: tuple) -> np.ndarray:
    """The step kernel: apply a resolved `_gate_plan` to every row of a
    batch of any shape (N, ...) of 2**n amplitudes per row, then check
    every row's norm; returns a new contiguous array of the same shape.
    `apply_gate` and the fixed circuits of `protocol` and `cavity` apply
    every gate through it. A matrix product's operand is one C-ordered
    (d, N * K) array, the gate's qubits first, then the batch, then the
    rest; for one row, as every CLI command sends, `front` gathers it
    straight from the flat row, with no transpose, and `back` puts the
    product back."""
    size, matrix, source, phase, front, back = plan
    flat = states.reshape(-1, size)
    if source is not None:
        out = flat.take(source, axis=1).astype(complex, copy=False)
        if phase is not None:
            out *= phase
    elif len(flat) == 1:
        # one row: `front` gathers its (d, K) operand straight from the flat
        # row, the same bytes as the transposed layout below
        out = (matrix @ flat.take(front)).take(back)[None]
    else:
        # the gate's qubits first, then the batch, then the rest: one C-ordered
        # (d, N * K) operand
        moved = flat.take(front, axis=1).swapaxes(0, 1)
        out = (matrix @ np.ascontiguousarray(moved.reshape(len(matrix), -1))).reshape(moved.shape)
        out = out.swapaxes(0, 1).reshape(-1, size).take(back, axis=1)
    _check_invariant("gate application", "state norm not preserved", np.vecdot(out, out).real,
                     NORM_TOL_UNITARY, _UNITARY_SQUARED_NORMS, _norm_deviation)
    return out.reshape(states.shape)


def apply_gate(states: np.ndarray, gate: Gate,
               qubits: tuple[int, ...]) -> np.ndarray:
    """Apply a one- or two-qubit gate to the given qubits (1-based, 1 =
    leftmost, in the gate's order) of every state in a batch of shape
    (N,) + (2,)*n; one state's flat array `a` of 2**n amplitudes is the
    batch `a.reshape((1,) + (2,) * n)`. Returns a new contiguous array.
    It looks up the gate's plan, cached per (n, qubits, gate), and runs
    the step kernel `_apply_plan`, so `gate` must be hashable and its
    matrix must not change after its first use (every Gate is hashable,
    its matrix read-only).

    A gate with one nonzero entry per row, each 1, -1, 1j or -1j (sigma_y,
    CNOT, CPHASE, SWAP and their tensor products), is applied as one
    gather of each state's amplitudes, times its phase factors when any
    is not 1: every other term of the matrix product is a product with
    zero, and a product with +/-1 or +/-1j is exact, so the result is
    the product's bit for bit for finite rows, up to the sign of a zero
    (an infinite amplitude stays infinite, where the product's 0 * inf
    gives NaN). Any other gate is one (d, d) @ (d, K) matrix product
    whose operand holds each state's amplitudes with the gate's qubits
    first, then the batch, then the other qubits, in index order.

    Every row is checked once, for the whole batch, to be finite
    with a norm within NORM_TOL_UNITARY of 1: one np.vecdot of the flat
    (N, 2**n) result, against bounds on the squared norm computed once,
    at import, by _check_invariant. Since the gate is unitary and its
    input normalised, a row that fails is an InvariantViolation.
    Input outside that contract (never through accept_input) fails the
    same way, and a squared norm that overflows may first make numpy warn
    (raised instead under -W error): the kernel sets no np.errstate."""
    plan = _gate_plan(states.ndim - 1, tuple(map(operator.index, qubits)), gate)
    return _apply_plan(states, plan)


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


def _marginal_plan(n: int, pattern: tuple[tuple[int, int], ...]) -> tuple:
    """The checked index of an n-qubit state's amplitudes, shape (2,)*n,
    that fixes each (qubit, bit) of the pattern."""
    idx = [slice(None)] * n
    for q, bit in pattern:
        _check_qubit_index(q, n)
        if bit not in (0, 1):
            raise ValueError(f"bit for qubit {q} must be 0 or 1, got {bit!r}")
        idx[int(q) - 1] = int(bit)
    return tuple(idx)


def _read(amps: np.ndarray, indices) -> list[float]:
    """The probability at each checked `_marginal_plan` index of one
    state's 2**n amplitudes, in an array of any shape, as Python floats
    read from one pass of |amplitude|^2."""
    probs = np.abs(amps.reshape((2,) * (amps.size.bit_length() - 1))) ** 2
    # np.add.reduce is np.sum's reduction, without its Python wrapper
    return [float(np.add.reduce(probs[idx], axis=None)) for idx in indices]


def marginal(amps: np.ndarray, *patterns: dict[int, int]) -> float | tuple[float, ...]:
    """Probability that each given qubit (1-based) reads its bit (0 = g,
    1 = e), summed over all other qubits, for one state's 2**n amplitudes
    in an array of any shape (flat, or a batch of one).

    Each pattern is a {qubit: bit} dict, checked on every call: a qubit or
    bit out of range raises ValueError. Several patterns are read from one
    pass of |amplitude|^2 (`_read`) and returned as a tuple, in order; one
    pattern returns one float."""
    n = amps.size.bit_length() - 1
    sums = _read(amps, [_marginal_plan(n, tuple(bits.items())) for bits in patterns])
    return sums[0] if len(sums) == 1 else tuple(sums)


def _born_counts(amps: np.ndarray, n_shots: int, rng: np.random.Generator) -> np.ndarray:
    """Born-rule sampling of one state's flat amplitudes: the count of each
    basis state in index order, drawn from rng."""
    if not 1 <= n_shots <= _MAX_SHOTS:
        raise ValueError(f"n_shots must be in [1, {_MAX_SHOTS}]")
    probs = np.abs(amps) ** 2
    probs = probs / np.add.reduce(probs)  # remove roundoff before multinomial
    return rng.multinomial(n_shots, probs)

