"""The fixed gate set of the protocol: sigma_y, R+, R-, CNOT, CPHASE.

R+/R- act as |g> -> (|g> +/- |e>)/sqrt(2), |e> -> (|e> -/+ |g>)/sqrt(2);
they are real rotations, not Hadamards, and the sign pattern matters for
the post-circuit amplitude table.

Each gate is built and validated once, at import; the functions below
hand out the shared instances, which are immutable.
"""
from __future__ import annotations

import numpy as np

from .statevec import Gate

_SQRT2_INV = 1.0 / np.sqrt(2.0)

_SIGMA_Y = Gate([[0.0, -1.0j], [1.0j, 0.0]])
_R_PLUS = Gate(np.array([[1.0, -1.0], [1.0, 1.0]]) * _SQRT2_INV)
_R_MINUS = Gate(np.array([[1.0, 1.0], [-1.0, 1.0]]) * _SQRT2_INV)
_CNOT = Gate(np.eye(4)[[0, 1, 3, 2]])  # the identity with the |eg> and |ee> rows swapped
_CPHASE = Gate(np.diag([1.0, 1.0, 1.0, -1.0]))


def sigma_y() -> Gate:
    """Pauli Y in the (|g>, |e>) basis."""
    return _SIGMA_Y


def r_plus() -> Gate:
    """|g> -> (|g>+|e>)/sqrt2, |e> -> (|e>-|g>)/sqrt2."""
    return _R_PLUS


def r_minus() -> Gate:
    """|g> -> (|g>-|e>)/sqrt2, |e> -> (|e>+|g>)/sqrt2; inverse of r_plus."""
    return _R_MINUS


def cnot() -> Gate:
    """Controlled NOT, first qubit of the pair is the control."""
    return _CNOT


def cphase() -> Gate:
    """Controlled phase: |ee> -> -|ee>, other basis states unchanged."""
    return _CPHASE
