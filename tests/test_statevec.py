import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from concmeter import gates, statevec
from concmeter.statevec import Gate, apply_gate, basis_index, marginal, normalized
from oracles import tensor

SQ2 = 1.0 / math.sqrt(2.0)
BELL = np.array([0.0, SQ2, SQ2, 0.0], dtype=complex)


def ket(*amps):
    """One state's flat amplitudes."""
    return np.array(amps, dtype=complex)


def ground(n):
    """|g>^n as flat amplitudes."""
    return np.eye(1, 2**n, dtype=complex)[0]


def random_state(rng, n):
    a = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return a / np.linalg.norm(a)


def random_gate_1q(rng):
    m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, _ = np.linalg.qr(m)
    return Gate(q)


def batch_of_one(amps):
    """One state's flat amplitudes as the batch apply_gate takes."""
    return amps.reshape((1,) + (2,) * (amps.size.bit_length() - 1))


def apply(amps, gate, *qubits):
    """apply_gate on one state (a batch of one); flat amplitudes."""
    return apply_gate(batch_of_one(amps), gate, qubits).reshape(-1)


class TestGateValidation:
    @pytest.mark.parametrize("matrix", [np.eye(3), np.eye(8), np.ones(4), [[1.0, 0.0]]],
                             ids=["3x3", "8x8", "vector", "1x2"])
    def test_wrong_shape_rejected(self, matrix):
        with pytest.raises(ValueError, match="expected a 2x2 or 4x4 matrix"):
            Gate(matrix)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_non_finite_entry_rejected(self, bad):
        m = np.eye(4, dtype=complex)
        m[2, 2] = bad
        with pytest.raises(ValueError, match="NaN/Inf"):
            Gate(m)

    # twice and half UNITARITY_TOL = 1e-12, written out so that a moved
    # tolerance fails one of the two
    @pytest.mark.parametrize("deviation, rejected", [(2e-12, True), (5e-13, False)])
    def test_unitarity_pinned_at_its_tolerance(self, deviation, rejected):
        # M^H M differs from the identity by `deviation` in one entry
        m = np.diag([math.sqrt(1.0 + deviation), 1.0, 1.0, 1.0])
        measured = np.max(np.abs(m.conj().T @ m - np.eye(4)))
        assert measured == pytest.approx(deviation, rel=1e-3)
        if rejected:
            with pytest.raises(ValueError, match="not unitary"):
                Gate(m)
        else:
            Gate(m)


class TestAcceptInput:
    """The one input rule: within NORM_TOL_INPUT, renormalised when the
    squared norm is off by more than NORM_TOL_UNITARY."""

    def test_normalised_batch_returned_as_is(self):
        states = np.array([BELL, [1, 0, 0, 0]], dtype=complex)
        assert statevec.accept_input(states) is states

    def test_near_normalised_row_renormalised_alone(self):
        states = np.array([BELL, [0, 0.70710678118, 0.70710678118, 0]], dtype=complex)
        out = statevec.accept_input(states)
        np.testing.assert_array_equal(out[0], states[0])
        np.testing.assert_array_equal(out[1], normalized(states[1]))
        assert abs(np.vdot(out[1], out[1]).real - 1.0) <= statevec.NORM_TOL_UNITARY

    def test_squared_norm_decides(self):
        # |norm - 1| is about 1e-12 here, but the squared norm is off by 2e-12
        row = np.array([[0, 0, 0, 1.000000000001]], dtype=complex)
        assert statevec.accept_input(row)[0, 3] == 1.0

    def test_beyond_input_tolerance_rejected(self):
        states = np.array([BELL, [0, 0, 0, 1 + 2e-9]], dtype=complex)
        with pytest.raises(ValueError, match="row 1: state norm"):
            statevec.accept_input(states)

    @pytest.mark.parametrize("fault, message", [("nan", "amplitudes contain NaN"),
                                                ("off_norm", "state norm")])
    def test_last_row_of_a_large_batch_named(self, fault, message):
        states = np.tile(np.array(BELL, dtype=complex), (300, 1))
        states[-1] = [np.nan, 0, 0, 1] if fault == "nan" else [0, 0, 0, 1.01]
        with pytest.raises(ValueError, match=f"row 299: {message}"):
            statevec.accept_input(states)

    def test_overflowing_norm_rejected_without_a_warning(self):
        states = np.array([[1e200, 0, 0, 0]], dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="state norm inf"):
                statevec.accept_input(states)

    def test_register_follows_the_rule(self):
        r = statevec.accept_input(ket(0, 0.70710678118, 0.70710678118, 0)[None])[0]
        out = apply(r, gates.CNOT, 1, 2)  # the gate's 1e-12 norm check passes
        assert abs(np.vdot(out, out).real - 1.0) <= statevec.NORM_TOL_UNITARY


class TestNormalized:
    @pytest.mark.parametrize("amps", [[np.inf, 0, 0, 0], [0, complex(0, -np.inf), 0, 1],
                                      [0, np.nan, 0, 1]], ids=["inf", "imag_inf", "nan"])
    def test_non_finite_rejected_without_a_warning(self, amps):
        # without its own check, an infinite amplitude scales to inf/inf: numpy
        # warns, and the result is NaN rather than an error
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="amplitudes contain NaN/Inf"):
                normalized(amps)


class TestTensor:
    def test_ge(self):
        r = tensor(ground(1), apply(ground(1), _flip(), 1))
        # |ge> is index 1
        assert abs(abs(r[1]) - 1.0) < 1e-12

    def test_bell_bell(self):
        r = tensor(BELL, BELL)
        for basis in ("gege", "geeg", "egge", "egeg"):
            assert abs(r[statevec.basis_index(basis)] - 0.5) < 1e-12

    def test_norm_preserved(self):
        rng = np.random.default_rng(5)
        r = tensor(random_state(rng, 3), ground(1))
        assert abs(np.linalg.norm(r) - 1.0) < 1e-12

    def test_associative(self):
        rng = np.random.default_rng(6)
        a, b, c = (random_state(rng, 1) for _ in range(3))
        left = tensor(tensor(a, b), c)
        right = tensor(a, tensor(b, c))
        # float multiplication is not associative; one ulp is the best possible
        np.testing.assert_allclose(left, right,
                                   rtol=4 * np.finfo(float).eps, atol=0)


def _flip():
    return Gate([[0, 1], [1, 0]])


class TestApply1Q:
    def test_sigma_y_on_ground(self):
        out = apply(ground(1), gates.SIGMA_Y, 1)
        np.testing.assert_allclose(out, [0, 1j])

    def test_r_minus_on_ground(self):
        out = apply(ground(1), gates.R_MINUS, 1)
        np.testing.assert_allclose(out, [SQ2, -SQ2])

    def test_identity(self):
        rng = np.random.default_rng(1)
        r = random_state(rng, 3)
        out = apply(r, Gate(np.eye(2)), 2)
        np.testing.assert_allclose(out, r, atol=1e-15)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            apply(ground(2), gates.SIGMA_Y, 3)

    def test_non_unitary_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unitary"):
            Gate([[1, 0], [0, 2]])

    def test_linearity(self):
        rng = np.random.default_rng(2)
        r1, r2 = random_state(rng, 2), random_state(rng, 2)
        g = random_gate_1q(rng)
        alpha, beta = 0.3 - 0.1j, 0.7 + 0.2j
        mix = alpha * r1 + beta * r2
        direct = np.tensordot(
            g.matrix, mix.reshape(2, 2), axes=([1], [0])
        ).reshape(-1)
        via_parts = alpha * apply(r1, g, 1) + beta * apply(r2, g, 1)
        np.testing.assert_allclose(direct, via_parts, atol=1e-14)


class TestApply2Q:
    def test_cnot_eg(self):
        out = apply(ket(0, 0, 1, 0), gates.CNOT, 1, 2)  # |eg>
        np.testing.assert_allclose(out, [0, 0, 0, 1])  # |ee>

    def test_cnot_gg(self):
        out = apply(ground(2), gates.CNOT, 1, 2)
        np.testing.assert_allclose(out, [1, 0, 0, 0])

    def test_cphase_ee(self):
        out = apply(ket(0, 0, 0, 1), gates.CPHASE, 1, 2)
        np.testing.assert_allclose(out, [0, 0, 0, -1])

    def test_equal_indices_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            apply(ground(2), gates.CNOT, 1, 1)

    def test_reversed_pair_order(self):
        # control on qubit 2, target on qubit 1: |ge> -> |ee>
        out = apply(ket(0, 1, 0, 0), gates.CNOT, 2, 1)
        np.testing.assert_allclose(out, [0, 0, 0, 1])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_disjoint_gates_commute(self, seed):
        rng = np.random.default_rng(seed)
        r = random_state(rng, 4)
        g1, g2 = random_gate_1q(rng), random_gate_1q(rng)
        ab = apply(apply(r, g1, 1), g2, 3)
        ba = apply(apply(r, g2, 3), g1, 1)
        np.testing.assert_allclose(ab, ba, atol=1e-14)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_norm_preserved_by_gate_sequence(self, seed):
        rng = np.random.default_rng(seed)
        r = random_state(rng, 3)
        batch = batch_of_one(r)
        for _ in range(5):
            q = int(rng.integers(1, 4))
            batch = apply_gate(batch, random_gate_1q(rng), (q,))
        assert abs(np.linalg.norm(batch) - 1.0) < 1e-12


class TestGatePlan:
    """apply_gate's cached plan: every check runs on each miss, a failed
    check is never cached, and the cache is bounded."""

    @pytest.mark.parametrize("gate, qubits, message", [
        (gates.CNOT, (1,), "gate acts on 2 qubits, got 1 qubit indices"),
        (gates.SIGMA_Y, (4,), "qubit index 4 out of range 1..3"),
        (gates.SIGMA_Y, (0,), "qubit index 0 out of range 1..3"),
        (gates.CNOT, (2, 2), "q1 and q2 must be distinct"),
    ])
    def test_same_message_on_every_call_and_nothing_cached(self, gate, qubits, message):
        statevec._gate_plan.cache_clear()
        batch = batch_of_one(ground(3))
        for _ in range(3):
            with pytest.raises(ValueError) as info:
                apply_gate(batch, gate, qubits)
            assert str(info.value) == message
        assert statevec._gate_plan.cache_info().currsize == 0

    @pytest.mark.parametrize("qubits", [[3, 1], (np.int64(3), np.int32(1)), np.array([3, 1])])
    def test_index_types_give_the_same_array(self, qubits):
        batch = batch_of_one(random_state(np.random.default_rng(5), 3))
        expected = apply_gate(batch, gates.CNOT, (3, 1))
        assert np.array_equal(apply_gate(batch, gates.CNOT, qubits), expected)

    def test_float_index_rejected(self):
        batch = batch_of_one(ground(2))
        apply_gate(batch, gates.SIGMA_Y, (2,))
        with pytest.raises(TypeError):
            apply_gate(batch, gates.SIGMA_Y, (2.0,))

    def test_cache_bounded(self):
        keys = 0
        for n in range(1, 9):
            batch = batch_of_one(ground(n))
            for q1 in range(1, n + 1):
                apply_gate(batch, gates.SIGMA_Y, (q1,))
                keys += 1
                for q2 in range(1, n + 1):
                    if q2 != q1:
                        apply_gate(batch, gates.CNOT, (q1, q2))
                        keys += 1
        info = statevec._gate_plan.cache_info()
        assert keys > info.maxsize
        assert info.currsize <= info.maxsize


def basis_probability(amps, basis):
    """|amplitude|^2 of one basis ket, read straight from the array."""
    return float(abs(amps[basis_index(basis)]) ** 2)


class TestBasisProbability:
    """The probability of one basis ket: marginal with every qubit fixed."""

    def test_bell(self):
        assert abs(marginal(BELL, {1: 0, 2: 1}) - 0.5) < 1e-12

    def test_real_amplitudes(self):
        assert abs(marginal(ket(0.6, 0, 0, 0.8), {1: 1, 2: 1}) - 0.64) < 1e-12

    def test_malformed_basis(self):
        with pytest.raises(ValueError):
            basis_index("gx")

    def test_wrong_length(self):
        with pytest.raises(ValueError, match="out of range"):
            marginal(BELL, {1: 0, 3: 0})


class TestMarginal:
    def test_sums_basis_probabilities(self):
        r = random_state(np.random.default_rng(21), 4)
        expected = sum(basis_probability(r, basis) for basis in
                       ("egeg", "egee", "eeeg", "eeee"))  # qubit 1 = e, qubit 3 = e
        assert abs(marginal(r, {1: 1, 3: 1}) - expected) < 1e-15

    def test_all_qubits_fixed_is_basis_probability(self):
        r = random_state(np.random.default_rng(22), 3)
        assert marginal(r, {1: 0, 2: 1, 3: 1}) == basis_probability(r, "gee")

    def test_no_qubit_fixed_is_total(self):
        r = random_state(np.random.default_rng(23), 3)
        assert abs(statevec.marginal(r, {}) - 1.0) < 1e-12

    @pytest.mark.parametrize("bits", [{0: 1}, {4: 0}, {1: 2}, {2: -1}])
    def test_bad_qubit_or_bit_rejected(self, bits):
        with pytest.raises(ValueError):
            statevec.marginal(ground(3), bits)


class TestMarginalPlan:
    """marginal checks each pattern's index on every call, against the
    register it reads."""

    @pytest.mark.parametrize("bits", [{0: 1}, {4: 0}, {1.5: 0}, {1: 2}, {2: -1}, {1: 0, 3: 1.5}])
    def test_bad_qubit_or_bit_raises_on_every_call(self, bits):
        for _ in range(3):
            with pytest.raises(ValueError):
                marginal(ground(3), bits)
            with pytest.raises(ValueError):  # among good patterns too
                marginal(ground(3), {1: 0}, bits, {})

    def test_pattern_checked_per_register_size(self):
        # {4: 0} is good for 4 qubits, and still fails on 3
        assert marginal(ground(4), {4: 0}) == 1.0
        for _ in range(2):
            with pytest.raises(ValueError, match="out of range"):
                marginal(ground(3), {4: 0})

    @pytest.mark.parametrize("n", [1, 3, 6, 8])
    def test_several_patterns_equal_one_call_each(self, n):
        rng = np.random.default_rng(25 + n)
        r = random_state(rng, n)
        patterns = [{}, {1: 1}, {n: 0, 1: 0}, {q: int(rng.integers(2)) for q in range(1, n + 1)},
                    *({q: int(rng.integers(2)) for q in range(1, n + 1) if rng.random() < 0.5}
                      for _ in range(6))]
        one_each = tuple(marginal(r, bits) for bits in patterns)
        assert marginal(r, *patterns) == one_each
        assert marginal(batch_of_one(r), *patterns) == one_each
        assert all(type(p) is float for p in one_each)


class TestSampleOutcomes:
    """Born-rule sampling of one state's outcomes: index-ordered counts."""

    def test_deterministic_state(self):
        counts = statevec._born_counts(ground(4), 1000, np.random.default_rng(3))
        assert counts.tolist() == [1000] + [0] * 15

    def test_bell_binomial(self):
        n = 10**6
        counts = statevec._born_counts(BELL, n, np.random.default_rng(7))
        sigma = math.sqrt(0.25 / n)
        assert abs(counts[basis_index("ge")] / n - 0.5) < 5 * sigma
        assert counts.sum() == n

    def test_same_seed_identical(self):
        draws = [statevec._born_counts(BELL, 5000, np.random.default_rng(11)) for _ in range(2)]
        assert np.array_equal(*draws)

    def test_chi_square_goodness_of_fit(self):
        from scipy import stats

        rng = np.random.default_rng(13)
        for trial in range(5):
            r = random_state(rng, 3)
            n = 10**5
            observed = statevec._born_counts(r, n, np.random.default_rng(100 + trial))
            probs = np.abs(r) ** 2
            keep = probs * n >= 5  # chi-square validity threshold
            _, p_value = stats.chisquare(observed[keep], probs[keep] / probs[keep].sum() * observed[keep].sum())
            assert p_value > 0.001

    def test_zero_shots_rejected(self):
        with pytest.raises(ValueError):
            statevec._born_counts(ground(1), 0, np.random.default_rng(0))
