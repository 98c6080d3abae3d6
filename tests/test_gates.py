import math

import numpy as np
import pytest

from concmeter import gates

SQ2 = 1.0 / math.sqrt(2.0)


@pytest.mark.parametrize("gate", [gates.SIGMA_Y, gates.R_PLUS, gates.R_MINUS])
def test_1q_unitary(gate):
    assert np.max(np.abs(gate.matrix.conj().T @ gate.matrix - np.eye(2))) < 1e-15


@pytest.mark.parametrize("gate", [gates.CNOT, gates.CPHASE])
def test_2q_unitary(gate):
    assert np.max(np.abs(gate.matrix.conj().T @ gate.matrix - np.eye(4))) < 1e-15


class TestSigmaY:
    def test_matrix(self):
        np.testing.assert_array_equal(gates.SIGMA_Y.matrix,
                                      [[0, -1j], [1j, 0]])

    def test_involution(self):
        m = gates.SIGMA_Y.matrix
        np.testing.assert_allclose(m @ m, np.eye(2), atol=1e-15)

    def test_tensor_square_on_ee(self):
        m = np.kron(gates.SIGMA_Y.matrix, gates.SIGMA_Y.matrix)
        ee = np.array([0, 0, 0, 1.0])
        np.testing.assert_allclose(m @ ee, [-1, 0, 0, 0], atol=1e-15)


class TestRotations:
    def test_r_minus_on_ground(self):
        col = gates.R_MINUS.matrix[:, 0]
        np.testing.assert_allclose(col, [SQ2, -SQ2])

    def test_r_plus_on_excited(self):
        col = gates.R_PLUS.matrix[:, 1]
        np.testing.assert_allclose(col, [-SQ2, SQ2])

    def test_inverse_pair(self):
        prod = gates.R_PLUS.matrix @ gates.R_MINUS.matrix
        assert np.max(np.abs(prod - np.eye(2))) < 1e-15

    def test_adjoint_relation(self):
        assert np.max(np.abs(gates.R_PLUS.matrix
                             - gates.R_MINUS.matrix.conj().T)) < 1e-15


class TestCnot:
    def test_control_excited_flips(self):
        eg = np.array([0, 0, 1.0, 0])
        np.testing.assert_array_equal(gates.CNOT.matrix @ eg, [0, 0, 0, 1])

    def test_control_ground_identity(self):
        ge = np.array([0, 1.0, 0, 0])
        np.testing.assert_array_equal(gates.CNOT.matrix @ ge, ge)

    def test_involution(self):
        m = gates.CNOT.matrix
        np.testing.assert_array_equal(m @ m, np.eye(4))


class TestCphase:
    def test_ee_sign(self):
        ee = np.array([0, 0, 0, 1.0])
        np.testing.assert_array_equal(gates.CPHASE.matrix @ ee, [0, 0, 0, -1])

    def test_other_states_unchanged(self):
        m = gates.CPHASE.matrix
        for i in range(3):
            v = np.zeros(4)
            v[i] = 1.0
            np.testing.assert_array_equal(m @ v, v)

    def test_involution(self):
        m = gates.CPHASE.matrix
        np.testing.assert_array_equal(m @ m, np.eye(4))


def test_cnot_equals_rotated_cphase():
    # conjugating the CPHASE target with R-/R+ reproduces CNOT exactly
    target_minus = np.kron(np.eye(2), gates.R_MINUS.matrix)
    target_plus = np.kron(np.eye(2), gates.R_PLUS.matrix)
    composed = target_plus @ gates.CPHASE.matrix @ target_minus
    assert np.max(np.abs(composed - gates.CNOT.matrix)) < 1e-12
