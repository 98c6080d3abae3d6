"""Analytic concurrence: the pure-state coefficient formula and the full
Wootters mixed-state construction, used as an independent cross-check."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .statevec import accept_input, normalized

DM_HERMITIAN_TOL = 1e-10
DM_TRACE_TOL = 1e-10
DM_EIG_FLOOR = -1e-10

_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SYSY = np.kron(_SIGMA_Y, _SIGMA_Y)


@dataclass(frozen=True)
class PureState:
    """Two-qubit pure state c0|gg> + c1|ge> + c2|eg> + c3|ee>, checked on
    construction by statevec.accept_input, which renormalises a state
    within its input tolerance."""

    c0: complex
    c1: complex
    c2: complex
    c3: complex

    def __post_init__(self):
        amps = np.array([[self.c0, self.c1, self.c2, self.c3]], dtype=complex)
        accepted = accept_input(amps)
        if accepted is not amps:
            for name, c in zip(("c0", "c1", "c2", "c3"), accepted[0]):
                object.__setattr__(self, name, c)
        accepted.flags.writeable = False
        object.__setattr__(self, "_amplitudes", accepted[0])

    @property
    def amplitudes(self) -> np.ndarray:
        """(c0, c1, c2, c3) as one read-only array, built once."""
        return self._amplitudes

    @classmethod
    def from_amplitudes(cls, amps, *, normalize: bool = False) -> "PureState":
        """Unless normalize is set, the input must pass
        statevec.accept_input."""
        a = np.asarray(amps, dtype=complex).reshape(-1)
        if a.size != 4:
            raise ValueError(f"a two-qubit state needs 4 amplitudes, got {a.size}")
        return cls(*(normalized(a) if normalize else a))

    @classmethod
    def haar_random(cls, rng: np.random.Generator) -> "PureState":
        # normalized complex Gaussian vector = uniform on the state sphere;
        # one draw of 8 is the same stream as two draws of 4
        x = rng.standard_normal(8)
        a = x[:4] + 1j * x[4:]
        # np.linalg.norm(a)'s own arithmetic, without its Python wrapper
        norm = math.sqrt(a.real.dot(a.real) + a.imag.dot(a.imag))
        return cls(*(a / norm).tolist())

    def density_matrix(self) -> np.ndarray:
        a = self.amplitudes
        return np.outer(a, a.conj())


def concurrence_pure(s: PureState) -> float:
    """C = 2|c1 c2 - c0 c3| for a normalized two-qubit pure state."""
    return float(2.0 * abs(s.c1 * s.c2 - s.c0 * s.c3))


def validate_density_matrix(rho) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 density matrix, got shape {rho.shape}")
    if not np.all(np.isfinite(rho)):
        raise ValueError("density matrix contains NaN/Inf")
    # rho - rho^H overflows only where rho is not Hermitian: inf is then the right verdict
    with np.errstate(over="ignore"):
        asymmetry = np.max(np.abs(rho - rho.conj().T))
    if asymmetry > DM_HERMITIAN_TOL:
        raise ValueError("density matrix is not Hermitian within tolerance")
    if abs(np.trace(rho).real - 1.0) > DM_TRACE_TOL or abs(np.trace(rho).imag) > DM_TRACE_TOL:
        raise ValueError("density matrix trace deviates from 1")
    evals = np.linalg.eigvalsh(rho)
    if evals.min() < DM_EIG_FLOOR:
        raise ValueError(f"density matrix has negative eigenvalue {evals.min():.3e}")
    return rho


def concurrence_wootters(rho) -> float:
    """max{0, l1 - l2 - l3 - l4} over the sorted square-rooted spectrum
    of rho (sigma_y x sigma_y) conj(rho) (sigma_y x sigma_y).

    With rho factored as A A^dagger, the lambda_i equal the singular
    values of A^T (sigma_y x sigma_y) A. Computing them by SVD avoids
    taking square roots of roundoff-sized eigenvalues, which would cost
    half the digits exactly where the formula subtracts near-equal terms.
    """
    rho = validate_density_matrix(rho)  # eigenvalues >= DM_EIG_FLOOR
    w, v = np.linalg.eigh(rho)
    factor = v * np.sqrt(np.clip(w, 0.0, None))
    lam = np.linalg.svd(factor.T @ _SYSY @ factor, compute_uv=False)
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))
