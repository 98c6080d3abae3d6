import math

import numpy as np
import pytest

from concmeter import statevec
from concmeter.concurrence import PureState, concurrence_pure, concurrence_wootters
from concmeter.protocol import (
    analytic_phi1,
    extract_concurrence,
    prepare_input,
    run_circuit,
    verify_egeg_variant,
)

SQ2 = 1.0 / math.sqrt(2.0)
BELL = PureState(0, SQ2, SQ2, 0)


def haar_states(n, seed=0):
    rng = np.random.default_rng(seed)
    return [PureState.haar_random(rng) for _ in range(n)]


class TestPrepareInput:
    def test_gg_input(self):
        reg = prepare_input(PureState(1, 0, 0, 0))
        # sigma_y x sigma_y |gg> = -|ee>, so the joint state is -|ggee>
        expected = np.zeros(16, dtype=complex)
        expected[statevec.basis_index("ggee")] = -1.0
        np.testing.assert_allclose(reg.amplitudes, expected, atol=1e-15)

    def test_bell_gege_coefficient(self):
        reg = prepare_input(BELL)
        amp = reg.amplitudes[statevec.basis_index("gege")]
        assert abs(amp - 0.5) < 1e-12  # c1*c2

    def test_gggg_coefficient_is_minus_c0c3(self):
        for psi in haar_states(20, seed=2):
            reg = prepare_input(psi)
            amp = reg.amplitudes[statevec.basis_index("gggg")]
            assert abs(amp - (-psi.c0 * psi.c3)) < 1e-12


class TestAnalyticPhi1:
    def test_gggg_is_a_minus(self):
        for psi in haar_states(10, seed=3):
            a_minus = psi.c1 * psi.c2 - psi.c0 * psi.c3
            table = analytic_phi1(psi).table
            assert abs(table["gggg"] - a_minus * SQ2) < 1e-14
            assert abs(table["egeg"] - a_minus * SQ2) < 1e-14

    def test_eegg_coefficient(self):
        for psi in haar_states(10, seed=4):
            table = analytic_phi1(psi).table
            assert abs(table["eegg"] - math.sqrt(2) * psi.c2 * psi.c3) < 1e-14

    def test_norm_random_states(self):
        for psi in haar_states(100, seed=5):
            norm2 = sum(abs(a) ** 2 for a in analytic_phi1(psi).table.values())
            assert abs(norm2 - 1.0) < 1e-10


class TestRunCircuit:
    def test_bell_point(self):
        res = run_circuit(BELL)
        assert abs(res.p_gggg - 0.125) < 1e-12
        assert abs(res.concurrence_measured - 1.0) < 1e-12

    def test_product_state(self):
        res = run_circuit(PureState(1, 0, 0, 0))
        assert res.p_gggg < 1e-24
        assert res.concurrence_measured < 1e-10

    def test_factorized_superposition(self):
        res = run_circuit(PureState(0.5, 0.5, 0.5, 0.5))
        assert res.p_gggg < 1e-24

    def test_phi_plus_bell(self):
        res = run_circuit(PureState(SQ2, 0, 0, SQ2))
        assert abs(res.p_gggg - 0.125) < 1e-12
        assert abs(res.concurrence_measured - 1.0) < 1e-12

    def test_oracle_residual_small(self):
        for psi in haar_states(100, seed=6):
            assert run_circuit(psi).oracle_residual < 1e-12

    def test_protocol_identity(self):
        for psi in haar_states(300, seed=7):
            res = run_circuit(psi)
            assert abs(res.concurrence_measured - concurrence_pure(psi)) < 1e-10

    def test_p_gggg_bounded(self):
        for psi in haar_states(200, seed=8):
            assert run_circuit(psi).p_gggg <= 0.125 + 1e-12

    def test_triple_agreement(self):
        for psi in haar_states(100, seed=9):
            res = run_circuit(psi)
            c_pure = concurrence_pure(psi)
            c_woot = concurrence_wootters(psi.density_matrix())
            assert abs(res.concurrence_measured - c_pure) < 1e-8
            assert abs(c_woot - c_pure) < 1e-8


class TestExtractConcurrence:
    def test_maximum(self):
        assert abs(extract_concurrence(0.125) - 1.0) < 1e-15

    def test_zero(self):
        assert extract_concurrence(0.0) == 0.0

    def test_half(self):
        assert abs(extract_concurrence(1 / 32) - 0.5) < 1e-15

    def test_out_of_range_clamped(self):
        assert extract_concurrence(0.2) == 1.0
        assert extract_concurrence(-0.01) == 0.0


class TestEgegVariant:
    def test_bell(self):
        res = run_circuit(BELL)
        assert verify_egeg_variant(res)
        assert abs(res.p_egeg - 0.125) < 1e-12

    def test_product(self):
        res = run_circuit(PureState(1, 0, 0, 0))
        assert verify_egeg_variant(res)
        assert res.p_egeg < 1e-24

    def test_random_states(self):
        for psi in haar_states(200, seed=10):
            res = run_circuit(psi)
            assert abs(res.p_gggg - res.p_egeg) < 1e-12
