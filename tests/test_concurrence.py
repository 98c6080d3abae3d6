import math
import warnings

import numpy as np
import pytest

from concmeter.concurrence import (
    PureState,
    concurrence_pure,
    concurrence_wootters,
    validate_density_matrix,
)
from oracles import spin_flip

SQ2 = 1.0 / math.sqrt(2.0)


def haar_states(n, seed=0):
    rng = np.random.default_rng(seed)
    return [PureState.haar_random(rng) for _ in range(n)]


def random_1q_unitary(rng):
    m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, _ = np.linalg.qr(m)
    return q


class TestPureState:
    def test_norm_enforced(self):
        with pytest.raises(ValueError, match="norm"):
            PureState(1.0, 1.0, 0.0, 0.0)

    def test_normalize_on_request(self):
        s = PureState.from_amplitudes([1, 1, 0, 0], normalize=True)
        np.testing.assert_allclose(s.amplitudes, [SQ2, SQ2, 0, 0])

    @pytest.mark.parametrize("amps, message", [
        ([0, 0, 0, 0], "cannot normalize the zero vector"),
        ([0, np.nan, 0, 1], "amplitudes contain NaN/Inf"),
    ])
    def test_normalize_rejects_zero_and_nan(self, amps, message):
        with pytest.raises(ValueError, match=message):
            PureState.from_amplitudes(amps, normalize=True)

    def test_haar_states_normalized(self):
        for s in haar_states(20, seed=3):
            assert abs(np.linalg.norm(s.amplitudes) - 1.0) < 1e-12

    def test_amplitudes_built_once_and_read_only(self):
        s = PureState(0.6, 0.0, 0.0, 0.8j)
        assert s.amplitudes is s.amplitudes
        assert not s.amplitudes.flags.writeable
        assert s.amplitudes.tolist() == [s.c0, s.c1, s.c2, s.c3]

    def test_renormalised_amplitudes_match_fields(self):
        s = PureState(0.0, 0.70710678118, 0.70710678118, 0.0)  # norm off by ~1e-11
        assert s.amplitudes.tolist() == [s.c0, s.c1, s.c2, s.c3]
        assert abs(np.linalg.norm(s.amplitudes) - 1.0) < 1e-15


class TestConcurrencePure:
    def test_bell(self):
        assert abs(concurrence_pure(PureState(0, SQ2, SQ2, 0)) - 1.0) < 1e-12

    def test_product_state(self):
        assert concurrence_pure(PureState(1, 0, 0, 0)) == 0.0

    def test_uniform_superposition_factorizes(self):
        assert abs(concurrence_pure(PureState(0.5, 0.5, 0.5, 0.5))) < 1e-12

    def test_partially_entangled(self):
        c, s = math.cos(math.pi / 8), math.sin(math.pi / 8)
        # 2*cos(t)*sin(t) = sin(2t)
        assert abs(concurrence_pure(PureState(0, c, s, 0))
                   - math.sin(math.pi / 4)) < 1e-12

    def test_range(self):
        for s in haar_states(200, seed=4):
            assert -1e-12 <= concurrence_pure(s) <= 1 + 1e-12

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            s = PureState.haar_random(rng)
            u = np.kron(random_1q_unitary(rng), random_1q_unitary(rng))
            rotated = PureState.from_amplitudes(u @ s.amplitudes)
            assert abs(concurrence_pure(rotated) - concurrence_pure(s)) < 1e-10


class TestSpinFlip:
    def test_gg_projector(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0
        expected = np.zeros((4, 4), dtype=complex)
        expected[3, 3] = 1.0
        np.testing.assert_allclose(spin_flip(rho), expected, atol=1e-15)

    def test_involution(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            rho = m @ m.conj().T
            rho /= np.trace(rho).real
            np.testing.assert_allclose(spin_flip(spin_flip(rho)), rho, atol=1e-12)

    def test_maximally_mixed_fixed_point(self):
        rho = np.eye(4) / 4.0
        np.testing.assert_allclose(spin_flip(rho), rho, atol=1e-15)

    def test_invalid_input_rejected(self):
        with pytest.raises(ValueError):
            spin_flip(np.eye(4))  # trace 4


class TestConcurrenceWootters:
    def test_bell_density_matrix(self):
        rho = PureState(0, SQ2, SQ2, 0).density_matrix()
        assert abs(concurrence_wootters(rho) - 1.0) < 1e-10

    def test_maximally_mixed(self):
        assert concurrence_wootters(np.eye(4) / 4.0) == 0.0

    def test_product_pure_state(self):
        rho = PureState(1, 0, 0, 0).density_matrix()
        assert abs(concurrence_wootters(rho)) < 1e-10

    def test_werner_states(self):
        # known threshold: concurrence max(0, (3p-1)/2) for Werner mixing p
        bell = PureState(0, SQ2, -SQ2, 0).density_matrix()
        for p in (0.0, 0.2, 1 / 3, 0.5, 0.8, 1.0):
            rho = p * bell + (1 - p) * np.eye(4) / 4.0
            expected = max(0.0, (3 * p - 1) / 2)
            assert abs(concurrence_wootters(rho) - expected) < 1e-10


class TestOracleAgreement:
    def test_thousand_haar_states(self):
        worst = 0.0
        for s in haar_states(1000, seed=21):
            worst = max(worst, abs(concurrence_wootters(s.density_matrix())
                                   - concurrence_pure(s)))
        assert worst < 1e-8

    def test_imaginary_amplitude(self):
        s = PureState(0.6, 0, 0, 0.8j)
        assert abs(concurrence_wootters(s.density_matrix())
                   - concurrence_pure(s)) < 1e-8


def test_validate_density_matrix_rejects_non_hermitian():
    rho = np.eye(4, dtype=complex) / 4.0
    rho[0, 1] = 0.5
    with pytest.raises(ValueError, match="Hermitian"):
        validate_density_matrix(rho)


@pytest.mark.parametrize("rho", [np.eye(3) / 3, np.eye(8) / 8, np.full(16, 1 / 16)],
                         ids=["3x3", "8x8", "flat"])
def test_wrong_shape_density_matrix_rejected(rho):
    with pytest.raises(ValueError, match="expected a 4x4 density matrix"):
        validate_density_matrix(rho)


def test_non_positive_density_matrix_rejected():
    # Hermitian with unit trace, but one eigenvalue is -0.5
    with pytest.raises(ValueError, match="negative eigenvalue -5.000e-01"):
        concurrence_wootters(np.diag([1.5, -0.5, 0.0, 0.0]))


@pytest.mark.parametrize("rho", [np.full((4, 4), np.nan), np.diag([0.25, 0.25, np.inf, 0.25])],
                         ids=["all_nan", "one_inf"])
def test_non_finite_density_matrix_rejected(rho):
    with pytest.raises(ValueError, match="NaN/Inf"):
        concurrence_wootters(rho)


def test_overflowing_asymmetry_is_a_value_error():
    # rho - rho^H overflows to inf here; that must read as "not Hermitian",
    # not reach the caller as a numpy RuntimeWarning first
    rho = np.eye(4, dtype=complex) / 4.0
    rho[0, 1], rho[1, 0] = 1.7e308, -1.7e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="not Hermitian"):
            concurrence_wootters(rho)
