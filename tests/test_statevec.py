import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from concmeter import gates, statevec
from concmeter.statevec import (
    Register,
    apply_1q,
    apply_2q,
    basis_probability,
    from_amplitudes,
    ground_register,
    overlap_fidelity,
    sample_outcomes,
    tensor,
)

SQ2 = 1.0 / math.sqrt(2.0)
BELL = [0.0, SQ2, SQ2, 0.0]


def random_register(rng, n):
    a = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return from_amplitudes(a / np.linalg.norm(a))


def random_gate_1q(rng):
    m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, _ = np.linalg.qr(m)
    return statevec.Gate1Q(q)


class TestGroundRegister:
    def test_single_qubit(self):
        r = ground_register(1)
        np.testing.assert_array_equal(r.amplitudes, [1, 0])

    def test_two_qubits(self):
        r = ground_register(2)
        np.testing.assert_array_equal(r.amplitudes, [1, 0, 0, 0])

    def test_four_qubits_all_ground(self):
        assert basis_probability(ground_register(4), "gggg") == 1.0

    @pytest.mark.parametrize("n", [0, -1, 9])
    def test_out_of_range(self, n):
        with pytest.raises(ValueError):
            ground_register(n)


class TestFromAmplitudes:
    def test_bell_state(self):
        r = from_amplitudes(BELL)
        assert r.n_qubits == 2

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError, match="norm"):
            from_amplitudes([1, 1, 0, 0])

    def test_normalize_flag(self):
        r = from_amplitudes([1, 1, 0, 0], normalize=True)
        np.testing.assert_allclose(r.amplitudes, [SQ2, SQ2, 0, 0])

    def test_complex_amplitudes(self):
        r = from_amplitudes([0.6, 0, 0, 0.8j])
        assert abs(np.linalg.norm(r.amplitudes) - 1.0) < 1e-12

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError, match="power of two"):
            from_amplitudes([1, 0, 0])

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            from_amplitudes([float("nan"), 0])


class TestTensor:
    def test_ge(self):
        r = tensor(ground_register(1), apply_1q(ground_register(1), 1, _flip()))
        # |ge> is index 1
        assert abs(abs(r.amplitudes[1]) - 1.0) < 1e-12

    def test_bell_bell(self):
        r = tensor(from_amplitudes(BELL), from_amplitudes(BELL))
        for ket in ("gege", "geeg", "egge", "egeg"):
            assert abs(r.amplitudes[statevec.basis_index(ket)] - 0.5) < 1e-12

    def test_norm_preserved(self):
        rng = np.random.default_rng(5)
        r = tensor(random_register(rng, 3), ground_register(1))
        assert abs(np.linalg.norm(r.amplitudes) - 1.0) < 1e-12

    def test_size_overflow(self):
        with pytest.raises(ValueError):
            tensor(ground_register(5), ground_register(4))

    def test_associative(self):
        rng = np.random.default_rng(6)
        a, b, c = (random_register(rng, 1) for _ in range(3))
        left = tensor(tensor(a, b), c)
        right = tensor(a, tensor(b, c))
        # float multiplication is not associative; one ulp is the best possible
        np.testing.assert_allclose(left.amplitudes, right.amplitudes,
                                   rtol=4 * np.finfo(float).eps, atol=0)


def _flip():
    return statevec.Gate1Q([[0, 1], [1, 0]])


class TestApply1Q:
    def test_sigma_y_on_ground(self):
        r = apply_1q(ground_register(1), 1, gates.sigma_y())
        np.testing.assert_allclose(r.amplitudes, [0, 1j])

    def test_r_minus_on_ground(self):
        r = apply_1q(ground_register(1), 1, gates.r_minus())
        np.testing.assert_allclose(r.amplitudes, [SQ2, -SQ2])

    def test_identity(self):
        rng = np.random.default_rng(1)
        r = random_register(rng, 3)
        out = apply_1q(r, 2, gates.identity_1q())
        np.testing.assert_allclose(out.amplitudes, r.amplitudes, atol=1e-15)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            apply_1q(ground_register(2), 3, gates.sigma_y())

    def test_non_unitary_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unitary"):
            statevec.Gate1Q([[1, 0], [0, 2]])

    def test_linearity(self):
        rng = np.random.default_rng(2)
        r1, r2 = random_register(rng, 2), random_register(rng, 2)
        g = random_gate_1q(rng)
        alpha, beta = 0.3 - 0.1j, 0.7 + 0.2j
        mix = alpha * r1.amplitudes + beta * r2.amplitudes
        direct = np.tensordot(
            g.matrix, mix.reshape(2, 2), axes=([1], [0])
        ).reshape(-1)
        via_parts = (alpha * apply_1q(r1, 1, g).amplitudes
                     + beta * apply_1q(r2, 1, g).amplitudes)
        np.testing.assert_allclose(direct, via_parts, atol=1e-14)


class TestApply2Q:
    def test_cnot_eg(self):
        r = from_amplitudes([0, 0, 1, 0])  # |eg>
        out = apply_2q(r, 1, 2, gates.cnot())
        np.testing.assert_allclose(out.amplitudes, [0, 0, 0, 1])  # |ee>

    def test_cnot_gg(self):
        out = apply_2q(ground_register(2), 1, 2, gates.cnot())
        np.testing.assert_allclose(out.amplitudes, [1, 0, 0, 0])

    def test_cphase_ee(self):
        r = from_amplitudes([0, 0, 0, 1])
        out = apply_2q(r, 1, 2, gates.cphase())
        np.testing.assert_allclose(out.amplitudes, [0, 0, 0, -1])

    def test_equal_indices_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            apply_2q(ground_register(2), 1, 1, gates.cnot())

    def test_reversed_pair_order(self):
        # control on qubit 2, target on qubit 1: |ge> -> |ee>
        r = from_amplitudes([0, 1, 0, 0])
        out = apply_2q(r, 2, 1, gates.cnot())
        np.testing.assert_allclose(out.amplitudes, [0, 0, 0, 1])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_disjoint_gates_commute(self, seed):
        rng = np.random.default_rng(seed)
        r = random_register(rng, 4)
        g1, g2 = random_gate_1q(rng), random_gate_1q(rng)
        ab = apply_1q(apply_1q(r, 1, g1), 3, g2)
        ba = apply_1q(apply_1q(r, 3, g2), 1, g1)
        np.testing.assert_allclose(ab.amplitudes, ba.amplitudes, atol=1e-14)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_norm_preserved_by_gate_sequence(self, seed):
        rng = np.random.default_rng(seed)
        r = random_register(rng, 3)
        for _ in range(5):
            q = int(rng.integers(1, 4))
            r = apply_1q(r, q, random_gate_1q(rng))
        assert abs(np.linalg.norm(r.amplitudes) - 1.0) < 1e-12


class TestBasisProbability:
    def test_bell(self):
        assert abs(basis_probability(from_amplitudes(BELL), "ge") - 0.5) < 1e-12

    def test_real_amplitudes(self):
        assert abs(basis_probability(from_amplitudes([0.6, 0, 0, 0.8]), "ee") - 0.64) < 1e-12

    def test_malformed_basis(self):
        with pytest.raises(ValueError):
            basis_probability(from_amplitudes(BELL), "gx")

    def test_wrong_length(self):
        with pytest.raises(ValueError, match="length"):
            basis_probability(from_amplitudes(BELL), "g")


class TestMarginal:
    def test_sums_basis_probabilities(self):
        r = random_register(np.random.default_rng(21), 4)
        expected = sum(basis_probability(r, ket) for ket in
                       ("egeg", "egee", "eeeg", "eeee"))  # qubit 1 = e, qubit 3 = e
        assert abs(statevec.marginal(r, {1: 1, 3: 1}) - expected) < 1e-15

    def test_all_qubits_fixed_is_basis_probability(self):
        r = random_register(np.random.default_rng(22), 3)
        assert statevec.marginal(r, {1: 0, 2: 1, 3: 1}) == basis_probability(r, "gee")

    def test_no_qubit_fixed_is_total(self):
        r = random_register(np.random.default_rng(23), 3)
        assert abs(statevec.marginal(r, {}) - 1.0) < 1e-12

    @pytest.mark.parametrize("bits", [{0: 1}, {4: 0}, {1: 2}, {2: -1}])
    def test_bad_qubit_or_bit_rejected(self, bits):
        with pytest.raises(ValueError):
            statevec.marginal(ground_register(3), bits)


class TestOverlapFidelity:
    def test_self(self):
        r = from_amplitudes(BELL)
        assert abs(overlap_fidelity(r, r) - 1.0) < 1e-12

    def test_global_phase(self):
        r = from_amplitudes(BELL)
        phased = Register(np.exp(0.7j) * r.amplitudes)
        assert abs(overlap_fidelity(r, phased) - 1.0) < 1e-12

    def test_orthogonal(self):
        g = ground_register(1)
        e = from_amplitudes([0, 1])
        assert overlap_fidelity(g, e) == 0.0

    def test_mismatched_sizes(self):
        with pytest.raises(ValueError):
            overlap_fidelity(ground_register(1), ground_register(2))


class TestSampleOutcomes:
    def test_deterministic_state(self):
        counts = sample_outcomes(ground_register(4), 1000, seed=3)
        assert counts == {"gggg": 1000}

    def test_bell_binomial(self):
        n = 10**6
        counts = sample_outcomes(from_amplitudes(BELL), n, seed=7)
        sigma = math.sqrt(0.25 / n)
        assert abs(counts["ge"] / n - 0.5) < 5 * sigma
        assert sum(counts.values()) == n

    def test_same_seed_identical(self):
        r = from_amplitudes(BELL)
        assert sample_outcomes(r, 5000, seed=11) == sample_outcomes(r, 5000, seed=11)

    def test_chi_square_goodness_of_fit(self):
        from scipy import stats

        rng = np.random.default_rng(13)
        for trial in range(5):
            r = random_register(rng, 3)
            n = 10**5
            counts = sample_outcomes(r, n, seed=100 + trial)
            probs = np.abs(r.amplitudes) ** 2
            observed = np.array(
                [counts.get(statevec.basis_string(i, 3), 0) for i in range(8)]
            )
            keep = probs * n >= 5  # chi-square validity threshold
            _, p_value = stats.chisquare(observed[keep], probs[keep] / probs[keep].sum() * observed[keep].sum())
            assert p_value > 0.001

    def test_zero_shots_rejected(self):
        with pytest.raises(ValueError):
            sample_outcomes(ground_register(1), 0, seed=0)
