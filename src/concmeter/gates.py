"""The fixed gate set of the protocol: sigma_y, R+, R-, CNOT, CPHASE.

R+/R- act as |g> -> (|g> +/- |e>)/sqrt(2), |e> -> (|e> -/+ |g>)/sqrt(2);
they are real rotations, not Hadamards, and the sign pattern matters for
the post-circuit amplitude table.

Each gate is built and validated once, at import; the functions below
hand out the shared instances, which are immutable.
"""
from __future__ import annotations

import numpy as np

from .statevec import Gate1Q, Gate2Q

_SQRT2_INV = 1.0 / np.sqrt(2.0)

_IDENTITY = Gate1Q(np.eye(2))
_SIGMA_Y = Gate1Q([[0.0, -1.0j], [1.0j, 0.0]])
_R_PLUS = Gate1Q(np.array([[1.0, -1.0], [1.0, 1.0]]) * _SQRT2_INV)
_R_MINUS = Gate1Q(np.array([[1.0, 1.0], [-1.0, 1.0]]) * _SQRT2_INV)
_CNOT = Gate2Q(
    [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
    ]
)
_CPHASE = Gate2Q(np.diag([1.0, 1.0, 1.0, -1.0]))


def identity_1q() -> Gate1Q:
    return _IDENTITY


def sigma_y() -> Gate1Q:
    """Pauli Y in the (|g>, |e>) basis."""
    return _SIGMA_Y


def r_plus() -> Gate1Q:
    """|g> -> (|g>+|e>)/sqrt2, |e> -> (|e>-|g>)/sqrt2."""
    return _R_PLUS


def r_minus() -> Gate1Q:
    """|g> -> (|g>-|e>)/sqrt2, |e> -> (|e>+|g>)/sqrt2; inverse of r_plus."""
    return _R_MINUS


def cnot() -> Gate2Q:
    """Controlled NOT, first qubit of the pair is the control."""
    return _CNOT


def cphase() -> Gate2Q:
    """Controlled phase: |ee> -> -|ee>, other basis states unchanged."""
    return _CPHASE
