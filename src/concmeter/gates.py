"""The fixed gate set of the protocol: SIGMA_Y, R_PLUS, R_MINUS, CNOT,
CPHASE and SIGMA_Y_PAIR, in the (|g>, |e>) basis; a two-qubit gate's
first qubit is the first of its ordered pair.

R+/R- act as |g> -> (|g> +/- |e>)/sqrt(2), |e> -> (|e> -/+ |g>)/sqrt(2);
they are real rotations, not Hadamards, and the sign pattern matters for
the post-circuit amplitude table. R- is the inverse of R+.

Each gate is a module constant, built and validated once, at import, and
immutable (its matrix is read-only).
"""
from __future__ import annotations

import numpy as np

from .statevec import Gate

_SQRT2_INV = 1.0 / np.sqrt(2.0)

SIGMA_Y = Gate([[0.0, -1.0j], [1.0j, 0.0]])
R_PLUS = Gate(np.array([[1.0, -1.0], [1.0, 1.0]]) * _SQRT2_INV)
R_MINUS = Gate(np.array([[1.0, 1.0], [-1.0, 1.0]]) * _SQRT2_INV)
CNOT = Gate(np.eye(4)[[0, 1, 3, 2]])  # the identity with the |eg> and |ee> rows swapped
CPHASE = Gate(np.diag([1.0, 1.0, 1.0, -1.0]))  # |ee> -> -|ee>
SIGMA_Y_PAIR = Gate(np.kron(SIGMA_Y.matrix, SIGMA_Y.matrix))  # on both qubits of the second copy
