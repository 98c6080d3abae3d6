import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from concmeter import gates, protocol, statevec
from concmeter.concurrence import PureState, concurrence_pure, concurrence_wootters
from concmeter.protocol import analytic_phi1_batch, extract_concurrence, run_batch, run_circuit
from concmeter.statevec import InvariantViolation
from kernel import apply_gate
from oracles import circuit_unitary

SQ2 = 1.0 / math.sqrt(2.0)
BELL = PureState(0, SQ2, SQ2, 0)
GGGG, EGEG, EEGG = (statevec.basis_index(ket) for ket in ("gggg", "egeg", "eegg"))


def haar_states(n, seed=0):
    rng = np.random.default_rng(seed)
    return [PureState.haar_random(rng) for _ in range(n)]


def prepared_input(psi):
    """The circuit's input |psi> x (sigma_y x sigma_y)|psi>, recovered from
    run_batch's final state by undoing R- on qubit 2 and CNOT(2, 4)."""
    final = run_batch([psi.amplitudes]).amplitudes.reshape(1, 2, 2, 2, 2)
    undone = apply_gate(final, gates.R_PLUS, (2,))
    return apply_gate(undone, gates.CNOT, (2, 4)).reshape(16)


class TestPrepareInput:
    def test_gg_input(self):
        amps = prepared_input(PureState(1, 0, 0, 0))
        # sigma_y x sigma_y |gg> = -|ee>, so the joint state is -|ggee>
        expected = np.zeros(16, dtype=complex)
        expected[statevec.basis_index("ggee")] = -1.0
        np.testing.assert_allclose(amps, expected, atol=1e-15)

    def test_bell_gege_coefficient(self):
        amp = prepared_input(BELL)[statevec.basis_index("gege")]
        assert abs(amp - 0.5) < 1e-12  # c1*c2

    def test_gggg_coefficient_is_minus_c0c3(self):
        for psi in haar_states(20, seed=2):
            amp = prepared_input(psi)[GGGG]
            assert abs(amp - (-psi.c0 * psi.c3)) < 1e-12


class TestAnalyticPhi1:
    def test_gggg_is_a_minus(self):
        states = haar_states(10, seed=3)
        table = analytic_phi1_batch([psi.amplitudes for psi in states])
        for psi, row in zip(states, table):
            a_minus = psi.c1 * psi.c2 - psi.c0 * psi.c3
            assert abs(row[GGGG] - a_minus * SQ2) < 1e-14
            assert abs(row[EGEG] - a_minus * SQ2) < 1e-14

    def test_eegg_coefficient(self):
        states = haar_states(10, seed=4)
        table = analytic_phi1_batch([psi.amplitudes for psi in states])
        for psi, row in zip(states, table):
            assert abs(row[EEGG] - math.sqrt(2) * psi.c2 * psi.c3) < 1e-14

    def test_norm_random_states(self):
        table = analytic_phi1_batch([psi.amplitudes for psi in haar_states(100, seed=5)])
        np.testing.assert_allclose(np.sum(np.abs(table) ** 2, axis=1), 1.0, rtol=0, atol=1e-10)


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


class TestCircuitMemo:
    """run_circuit checks each distinct input once per process and returns
    the kept result on a repeat, keyed by the input's bytes, from an LRU
    memo of _MEMO_SIZE entries; every test starts with an empty memo
    (tests/conftest.py)."""

    @staticmethod
    def memo():
        return protocol._circuit_result.cache_info()

    @staticmethod
    def break_rotation(monkeypatch):
        monkeypatch.setattr(protocol, "_R_MINUS_2", statevec._gate_plan(4, (2,), gates.R_PLUS))

    def test_repeat_returns_the_identical_result(self):
        first = run_circuit(BELL)
        assert run_circuit(BELL) is first
        # an equal state built anew has the same bytes, so the same entry
        assert run_circuit(PureState(0, SQ2, SQ2, 0)) is first
        assert self.memo().currsize == 1 and self.memo().misses == 1

    def test_sign_of_a_zero_is_another_input(self):
        plus, minus = PureState(1, 0, 0, 0), PureState(1, -0.0, 0, 0)
        assert plus == minus  # PureState equality does not see the sign
        assert run_circuit(plus) is not run_circuit(minus)
        assert self.memo().currsize == 2 and self.memo().hits == 0
        assert run_circuit(minus).final_state.tobytes() == \
            run_batch(minus.amplitudes[None]).amplitudes[0].tobytes()

    def test_bounded_and_the_oldest_dropped(self):
        states = haar_states(protocol._MEMO_SIZE + 1, seed=26)
        results = [run_circuit(psi) for psi in states]
        assert self.memo().currsize == self.memo().maxsize == protocol._MEMO_SIZE
        assert all(run_circuit(psi) is res for psi, res in zip(states[1:], results[1:]))
        again = run_circuit(states[0])  # simulated anew, and kept in place of states[1]
        assert again is not results[0]
        assert again.final_state.tobytes() == results[0].final_state.tobytes()
        assert run_circuit(states[1]) is not results[1]

    def test_a_hit_refreshes_an_entry(self):
        states = haar_states(protocol._MEMO_SIZE + 1, seed=28)
        results = [run_circuit(psi) for psi in states[:-1]]
        assert run_circuit(states[0]) is results[0]  # now the most recently used
        run_circuit(states[-1])  # drops states[1], the least recently used
        assert run_circuit(states[0]) is results[0]
        assert run_circuit(states[1]) is not results[1]

    def test_failed_check_kept_nowhere(self, monkeypatch):
        self.break_rotation(monkeypatch)
        messages = []
        for _ in range(2):
            with pytest.raises(InvariantViolation) as info:
                run_circuit(BELL)
            messages.append(str(info.value))
        assert messages[0] == messages[1] and messages[0].startswith("amplitude table:")
        assert self.memo().currsize == 0

    def test_shared_by_threads(self):
        # more threads than cores, switching every microsecond, each cycling
        # over more states than the memo holds: a store and its eviction
        # interleaved would raise, or let the memo outgrow its bound
        states = haar_states(3 * protocol._MEMO_SIZE, seed=27)
        expected = [run_batch(psi.amplitudes[None]).amplitudes[0].tobytes() for psi in states]
        errors = []

        def cycle(offset):
            try:
                for k in range(3000):
                    i = (offset + 7 * k) % len(states)
                    if run_circuit(states[i]).final_state.tobytes() != expected[i]:
                        errors.append(i)
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=cycle, args=(n,)) for n in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert self.memo().currsize <= protocol._MEMO_SIZE

    def test_run_batch_keeps_nothing(self, monkeypatch):
        kept = run_circuit(BELL)
        self.break_rotation(monkeypatch)
        # the memo returns what passed every check; run_batch simulates again
        assert run_circuit(BELL) is kept
        with pytest.raises(InvariantViolation, match="amplitude table"):
            run_batch(BELL.amplitudes[None])


class TestNearNormalisedInput:
    """Input within the 1e-9 input tolerance but off by more than the
    gates' 1e-12 is renormalised on entry, not failed at the first gate."""

    ROW = [0, 0.70710678118, 0.70710678118, 0]

    def test_run_circuit(self):
        res = run_circuit(PureState(*self.ROW))
        assert abs(res.concurrence_measured - 1.0) < 1e-12

    def test_run_batch(self):
        batch = run_batch([self.ROW, [0, 0, 0, 1.000000000001]])
        np.testing.assert_allclose(batch.p_gggg, [0.125, 0.0], rtol=0, atol=1e-15)


class TestMixedStateDomain:
    """The readout measures the concurrence of pure states only. On two
    copies of a mixed state rho, P_gggg of U (rho x rho) U^dagger, with U
    the circuit as one dense unitary, is not C^2/8."""

    def test_dense_unitary_is_the_circuit(self):
        for psi in haar_states(20, seed=11):
            dense = circuit_unitary() @ np.kron(psi.amplitudes, psi.amplitudes)
            np.testing.assert_allclose(dense, run_circuit(psi).final_state,
                                       rtol=0, atol=1e-15)

    @pytest.mark.parametrize("p, p_gggg, readout, wootters", [
        (0.0, 1 / 16, 0.7071, 0.0),  # I/4
        (0.5, 5 / 64, 0.7906, 0.25),  # Werner, p = 0.5
        (1.0, 1 / 8, 1.0, 1.0),  # Bell
    ])
    def test_readout_on_mixed_pairs(self, p, p_gggg, readout, wootters):
        bell = PureState(0, SQ2, -SQ2, 0).density_matrix()
        rho = p * bell + (1 - p) * np.eye(4) / 4.0
        u = circuit_unitary()
        final = u @ np.kron(rho, rho) @ u.conj().T
        assert abs(final[GGGG, GGGG].real - p_gggg) < 1e-15
        assert abs(extract_concurrence(final[GGGG, GGGG].real) - readout) < 5e-5
        assert abs(concurrence_wootters(rho) - wootters) < 1e-10


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
        assert abs(res.p_gggg - res.p_egeg) < 1e-10
        assert abs(res.p_egeg - 0.125) < 1e-12

    def test_product(self):
        res = run_circuit(PureState(1, 0, 0, 0))
        assert abs(res.p_gggg - res.p_egeg) < 1e-10
        assert res.p_egeg < 1e-24

    def test_random_states(self):
        for psi in haar_states(200, seed=10):
            res = run_circuit(psi)
            assert abs(res.p_gggg - res.p_egeg) < 1e-12


def haar_unitary(rng):
    """A Haar-random 2x2 unitary: QR of a complex Gaussian matrix, with the
    phases of R's diagonal moved into Q (Mezzadri, Notices AMS 54, 592)."""
    q, r = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    d = r.diagonal()
    return q * (d / abs(d))


# Concurrence, and so P_gggg = C^2/8 and P_egeg, which has the same table
# amplitude, does not change under a local unitary U x V, an exchange of the
# qubits, complex conjugation or a global phase.
RELATIONS = {
    "local unitary": lambda a, rng: np.kron(haar_unitary(rng), haar_unitary(rng)) @ a,
    "swap": lambda a, rng: a[[0, 2, 1, 3]],
    "conjugation": lambda a, rng: a.conj(),
    "global phase": lambda a, rng: np.exp(2j * math.pi * rng.random()) * a,
}
# Provisional, until a rounding analysis derives it: the related state's
# amplitudes are a few roundings from exact (the 4x4 product and the input
# renormalisation), and the circuit's three gates and the squared modulus
# add a few more to probabilities of at most 1/8. The largest change
# measured over 5,000 Haar states under Haar U x V was 1.2 eps; 16 eps
# leaves an order of magnitude above it.
SYMMETRY_BOUND = 16 * np.finfo(float).eps


@given(st.integers(0, 2**64 - 1), st.sampled_from(sorted(RELATIONS)))
@settings(max_examples=300, deadline=None, report_multiple_bugs=False)
def readout_keeps_under_symmetries(seed, relation):
    rng = np.random.default_rng(seed)
    psi = PureState.haar_random(rng)
    related = PureState(*RELATIONS[relation](psi.amplitudes, rng).tolist())
    a, b = run_circuit(psi), run_circuit(related)
    assert max(abs(a.p_gggg - b.p_gggg), abs(a.p_egeg - b.p_egeg)) <= SYMMETRY_BOUND


class TestReadoutSymmetries:
    def test_probabilities_keep_under_each_relation(self, monkeypatch):
        readout_keeps_under_symmetries()
        # sigma_x x sigma_x in place of sigma_y x sigma_y on the second copy,
        # with the table check silenced: the relation alone must catch it
        sigma_x_pair = statevec.Gate(np.eye(4)[::-1])
        monkeypatch.setattr(protocol, "_COPY2", statevec._gate_plan(2, (1, 2), sigma_x_pair))
        monkeypatch.setattr(protocol, "ORACLE_TOL", math.inf)
        protocol._circuit_result.cache_clear()  # the memo holds the true results
        with pytest.raises(AssertionError):
            readout_keeps_under_symmetries()
