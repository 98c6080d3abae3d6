"""The batched circuit engine: the step kernel `statevec._apply_plan`
(driven gate by gate through `kernel.apply_gate`), `protocol.run_batch`
and `protocol.analytic_phi1_batch`, checked against single states and
dense matrix products."""
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from concmeter import cavity, gates, protocol, statevec
from concmeter.cavity import ATOM1, ATOM2, ATOM3, ATOM4, ATOM5, PHOTON
from concmeter.cli import main
from concmeter.concurrence import PureState
from concmeter.protocol import analytic_phi1_batch, run_batch, run_circuit
from concmeter.statevec import InvariantViolation
from kernel import apply_gate, marginal

SQ2 = 1.0 / math.sqrt(2.0)


def haar_batch(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, 4)) + 1j * rng.standard_normal((n, 4))
    return a / np.linalg.norm(a, axis=1, keepdims=True)


def faulty_batch(fault, seed, n=300):
    """n Haar rows, the last one made NaN, infinite or off-norm."""
    amps = haar_batch(n, seed)
    if fault == "nan":
        amps[-1, 2] = np.nan
    elif fault == "inf":
        amps[-1, 2] = np.inf
    else:
        amps[-1] *= 1.01
    return amps


def check_fault_value(value, fault):
    """The reported value of a fault: NaN for a NaN row, a finite deviation
    for an off-norm one. An infinite row may report Inf or NaN (0 * inf in
    a matrix product), so only its being no finite number is pinned."""
    if fault == "inf":
        assert not math.isfinite(value)
    else:
        assert math.isnan(value) == (fault == "nan")


# an infinite amplitude makes numpy warn of inf * 0 on the way to the check
FAULTS = pytest.mark.parametrize("fault", [
    "nan", "off_norm",
    pytest.param("inf", marks=pytest.mark.filterwarnings("ignore::RuntimeWarning"))])


def assert_rows_are_run_circuit(batch, states):
    """Row i of a BatchResult holds run_circuit(states[i])'s final
    amplitudes, probabilities and residual, byte for byte."""
    singles = [run_circuit(psi) for psi in states]
    assert batch.amplitudes.tobytes() == np.array([r.final_state for r in singles]).tobytes()
    for field in ("p_gggg", "p_egeg", "oracle_residual"):
        expected = np.array([getattr(r, field) for r in singles])
        assert getattr(batch, field).tobytes() == expected.tobytes(), field


class TestRunBatch:
    @given(st.integers(0, 2**32 - 1), st.integers(1, 40))
    @settings(max_examples=40, deadline=None)
    def test_rows_equal_run_circuit(self, seed, n):
        amps = haar_batch(n, seed)
        batch = run_batch(amps)
        assert batch.amplitudes.shape == (n, 16)
        assert_rows_are_run_circuit(batch, [PureState(*row) for row in amps])

    def test_sweep_states_in_blocks(self):
        # the first 3000 states of `sweep 3000 --seed 11`, run a block at a
        # time: every block size gives each row run_circuit's bytes
        states = [PureState.haar_random(np.random.default_rng([11, i])) for i in range(3000)]
        amps = np.array([psi.amplitudes for psi in states])
        for block in (1, 7, 256, 3000):
            for start in range(0, len(states), block):
                assert_rows_are_run_circuit(run_batch(amps[start:start + block]),
                                            states[start:start + block])

    def test_bell_and_product_rows(self):
        batch = run_batch([[0, SQ2, SQ2, 0], [1, 0, 0, 0]])
        np.testing.assert_allclose(batch.p_gggg, [0.125, 0.0], atol=1e-15)
        np.testing.assert_allclose(batch.p_egeg, [0.125, 0.0], atol=1e-15)

    @pytest.mark.parametrize("shape", [(0, 4), (3, 3), (3, 5), (4,), (2, 4, 1)])
    def test_bad_shape_rejected(self, shape):
        with pytest.raises(ValueError, match=r"\(N, 4\)"):
            run_batch(np.zeros(shape, dtype=complex))

    def test_unnormalised_row_named(self):
        amps = haar_batch(3, 1)
        amps[1] *= 1.1
        with pytest.raises(ValueError, match="row 1: state norm"):
            run_batch(amps)

    def test_norm_error_names_row_1_byte_for_byte(self):
        amps = [[1, 0, 0, 0], [0.7071074882933, 0.7071074882933, 0, 0]]
        with pytest.raises(ValueError) as info:
            run_batch(amps)
        assert str(info.value) == ("row 1: state norm 1.0000009999999593 deviates from 1 "
                                   "beyond tolerance 1e-09")

    def test_nan_row_named(self):
        amps = haar_batch(3, 2)
        amps[2, 0] = np.nan
        with pytest.raises(ValueError, match="row 2: amplitudes contain NaN"):
            run_batch(amps)


class TestAnalyticPhi1Batch:
    def test_rows_equal_per_state_table(self):
        amps = haar_batch(20, 3)
        table = analytic_phi1_batch(amps)
        for row, a in zip(table, amps):
            np.testing.assert_array_equal(row, analytic_phi1_batch(a[None])[0])

    def test_table_norm_checked_per_row(self):
        amps = haar_batch(4, 4)
        amps[3] *= 1.01
        with pytest.raises(InvariantViolation) as info:
            analytic_phi1_batch(amps)
        assert info.value.row == 3 and info.value.stage == "analytic table"
        assert info.value.tol == protocol.TABLE_NORM_TOL

    @FAULTS
    def test_table_norm_checked_on_the_last_row(self, fault):
        with pytest.raises(InvariantViolation) as info:
            analytic_phi1_batch(faulty_batch(fault, 9))
        assert (info.value.stage, info.value.row) == ("analytic table", 299)


class TestApplyGate:
    def test_rows_match_dense_matrices(self):
        rng = np.random.default_rng(5)
        states = haar_batch(6, 5).reshape(6, 2, 2)
        ry = statevec.Gate(np.linalg.qr(rng.standard_normal((2, 2))
                                        + 1j * rng.standard_normal((2, 2)))[0])
        one = apply_gate(states, ry, (2,))
        two = apply_gate(states, gates.CNOT, (2, 1))
        # ry on qubit 2, and CNOT with control 2 and target 1, as 4x4 matrices
        dense_one = np.kron(np.eye(2), ry.matrix)
        dense_two = gates.CNOT.matrix[:, [0, 2, 1, 3]][[0, 2, 1, 3]]
        ulp = 2 * np.finfo(float).eps
        for i, s in enumerate(states.reshape(6, 4)):
            np.testing.assert_allclose(one[i].reshape(4), dense_one @ s, rtol=0, atol=ulp)
            np.testing.assert_array_equal(two[i].reshape(4), dense_two @ s)
            # one row alone: the matrix product may take another BLAS path
            alone = apply_gate(states[i:i + 1], ry, (2,))
            np.testing.assert_allclose(alone.reshape(4), one[i].reshape(4), rtol=0, atol=ulp)

    def test_qubit_count_must_match_gate(self):
        states = haar_batch(2, 6).reshape(2, 2, 2)
        with pytest.raises(ValueError, match="acts on 2 qubits"):
            apply_gate(states, gates.CNOT, (1,))

    def test_norm_checked_after_the_gate(self):
        states = haar_batch(3, 7).reshape(3, 2, 2)
        states[1] *= 2.0
        with pytest.raises(InvariantViolation) as info:
            apply_gate(states, gates.SIGMA_Y, (1,))
        exc = info.value
        assert (exc.stage, exc.row, exc.tol) == ("gate application", 1,
                                                 statevec.NORM_TOL_UNITARY)
        assert exc.value == pytest.approx(1.0)

    @FAULTS
    def test_norm_checked_on_the_last_row(self, fault):
        states = faulty_batch(fault, 10).reshape(300, 2, 2)
        with pytest.raises(InvariantViolation) as info:
            apply_gate(states, gates.CNOT, (1, 2))
        assert (info.value.stage, info.value.row) == ("gate application", 299)
        check_fault_value(info.value.value, fault)

    def test_input_left_untouched(self):
        states = haar_batch(2, 8).reshape(2, 2, 2)
        before = states.copy()
        apply_gate(states, gates.R_MINUS, (1,))
        np.testing.assert_array_equal(states, before)


# every gate the package builds, and whether it is a permutation with signs
# or phases, which the kernel applies as a gather
PACKAGE_GATES = {
    "sigma_y": (gates.SIGMA_Y, True),
    "r_plus": (gates.R_PLUS, False),
    "r_minus": (gates.R_MINUS, False),
    "cnot": (gates.CNOT, True),
    "cphase": (gates.CPHASE, True),
    "sigma_y_pair": (gates.SIGMA_Y_PAIR, True),
    "swap": (cavity._SWAP, True),
    "r_minus_target": (dict(cavity.DECOMPOSED_CNOT)["r_minus_target"], False),
    "r_plus_target": (dict(cavity.DECOMPOSED_CNOT)["r_plus_target"], False),
}


def random_unitary(d, seed):
    """A seeded Haar-random d x d unitary, as a Gate."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return statevec.Gate(q * (np.diagonal(r) / np.abs(np.diagonal(r))))


# the gates that take the matrix-product path: the package's and two random ones
DENSE_GATES = {name: gate for name, (gate, monomial) in PACKAGE_GATES.items() if not monomial}
DENSE_GATES.update(random_1q=random_unitary(2, 2311), random_2q=random_unitary(4, 2312))


def product_reference(states, matrix, qubits):
    """The gate as one matrix product per row, with the gate's axes moved
    to the front: the kernel's product path, written out row by row."""
    n = states.ndim - 1
    perm = (*(q - 1 for q in qubits), *(ax for ax in range(n) if ax + 1 not in qubits))
    rows = []
    for row in states:
        moved = row.transpose(perm)
        out = (matrix @ moved.reshape(len(matrix), -1)).reshape(moved.shape)
        rows.append(out.transpose(np.argsort(perm)))
    return np.stack(rows)


def random_batch(n_rows, n_qubits, seed):
    """Random unit rows of 2**n_qubits amplitudes, a fifth of them exactly
    zero, so that signed zeros meet the gate's zero entries."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n_rows, 2**n_qubits)) + 1j * rng.standard_normal((n_rows, 2**n_qubits))
    a[rng.random(a.shape) < 0.2] = 0.0
    a[:, 0] += 1.0  # no row is all zero
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    return a.reshape((n_rows,) + (2,) * n_qubits)


def same_bits(x, y):
    """Equal bit for bit once -0.0 is folded into +0.0 (NaN equals NaN)."""
    return x.shape == y.shape and (x + 0.0).tobytes() == (y + 0.0).tobytes()


class TestKernelPaths:
    """The kernel's two paths, the gather and the matrix product, against
    the product written out, bit for bit."""

    @pytest.mark.parametrize("name", sorted(PACKAGE_GATES))
    def test_every_package_gate_on_every_placement(self, name):
        gate, monomial = PACKAGE_GATES[name]
        arity = len(gate.matrix).bit_length() - 1
        for n_qubits in range(2, 7):
            for n_rows in (1, 7, 300):
                states = random_batch(n_rows, n_qubits, seed=n_qubits * 1000 + n_rows)
                for qubits in itertools.permutations(range(1, n_qubits + 1), arity):
                    plan = statevec._gate_plan(n_qubits, qubits, gate)
                    assert (plan[2] is not None) == monomial
                    out = apply_gate(states, gate, qubits)
                    assert out.flags.c_contiguous
                    assert same_bits(out, product_reference(states, gate.matrix, qubits)), \
                        (name, n_qubits, n_rows, qubits)

    @pytest.mark.parametrize("name", sorted(DENSE_GATES))
    def test_a_batch_equals_its_rows(self, name):
        # every placement, the gate on all qubits of the register included
        gate = DENSE_GATES[name]
        arity = len(gate.matrix).bit_length() - 1
        for n_qubits in range(arity, 7):
            states = random_batch(300, n_qubits, seed=2300 + n_qubits)
            for qubits in itertools.permutations(range(1, n_qubits + 1), arity):
                assert statevec._gate_plan(n_qubits, qubits, gate)[2] is None
                rows = [apply_gate(states[i:i + 1], gate, qubits) for i in range(300)]
                for n_rows in (2, 3, 300):
                    batch = apply_gate(states[:n_rows], gate, qubits)
                    assert (batch.view(float).tobytes()
                            == np.concatenate(rows[:n_rows]).view(float).tobytes()), \
                        (name, n_qubits, n_rows, qubits)

    def test_a_phase_gate_takes_the_product_path(self):
        gate = statevec.Gate(np.diag([1.0, np.exp(1j * np.pi / 5)]))
        for n_rows in (1, 7, 300):
            states = random_batch(n_rows, 3, seed=n_rows)
            for q in (1, 2, 3):
                assert statevec._gate_plan(3, (q,), gate)[2] is None
                out = apply_gate(states, gate, (q,))
                assert same_bits(out, product_reference(states, gate.matrix, (q,)))

    def test_real_input_gives_complex_output_on_both_paths(self):
        states = np.array([[1.0, 0.0]])
        for gate in (gates.SIGMA_Y, gates.R_MINUS):
            out = apply_gate(states, gate, (1,))
            assert out.dtype == complex
            assert same_bits(out, product_reference(states, gate.matrix, (1,)))

    @pytest.mark.parametrize("n_rows", [1, 300])
    @pytest.mark.parametrize("matrix", [2.0 * np.eye(2), np.array([[1.0, 0.0], [1.0, 0.0]])],
                             ids=["stretch_product", "collapse_gather"])
    def test_duck_typed_gate_trips_the_norm_check(self, matrix, n_rows):
        class Stretch:  # not a Gate and not unitary
            pass
        gate = Stretch()
        gate.matrix = matrix
        with pytest.raises(InvariantViolation) as info:
            apply_gate(random_batch(n_rows, 2, seed=4), gate, (2,))
        exc = info.value
        assert (exc.stage, exc.row, exc.tol) == ("gate application", 0,
                                                 statevec.NORM_TOL_UNITARY)
        assert exc.value > statevec.NORM_TOL_UNITARY

    @FAULTS
    @pytest.mark.parametrize("n_rows", [1, 300])
    @pytest.mark.parametrize("name", ["cnot", "sigma_y_pair", "r_minus_target"])
    def test_fault_caught_on_the_last_row(self, name, n_rows, fault):
        states = faulty_batch(fault, 11, n=n_rows).reshape(n_rows, 2, 2)
        with pytest.raises(InvariantViolation) as info:
            apply_gate(states, PACKAGE_GATES[name][0], (2, 1))
        exc = info.value
        assert (exc.stage, exc.row, exc.tol) == ("gate application", n_rows - 1,
                                                 statevec.NORM_TOL_UNITARY)
        check_fault_value(exc.value, fault)

    @FAULTS
    def test_table_norm_checked_on_a_single_row(self, fault):
        with pytest.raises(InvariantViolation) as info:
            analytic_phi1_batch(faulty_batch(fault, 12, n=1))
        assert (info.value.stage, info.value.row) == ("analytic table", 0)


def circuit_by_gates(psi):
    """The circuit driven gate by gate through `kernel.apply_gate`: final
    amplitudes, P_gggg, P_egeg and the oracle residual."""
    a = psi.amplitudes[None]
    copy2 = apply_gate(a.reshape(1, 2, 2), gates.SIGMA_Y_PAIR, (1, 2))
    reg = (a[:, :, None] * copy2.reshape(1, 1, 4)).reshape(1, 2, 2, 2, 2)
    reg = apply_gate(reg, gates.CNOT, (2, 4))
    final = apply_gate(reg, gates.R_MINUS, (2,)).reshape(1, 16)
    kets = [statevec.basis_index("gggg"), statevec.basis_index("egeg")]
    (p_gggg, p_egeg), = (np.abs(final.take(kets, axis=1)) ** 2).tolist()
    residual = np.max(np.abs(final - analytic_phi1_batch(a))).item()
    return final.reshape(-1), p_gggg, p_egeg, residual


def relay_by_gates(psi):
    """The cavity relay driven gate by gate through `kernel.apply_gate`
    and `kernel.marginal`, on the same six-slot register."""
    a = psi.amplitudes
    reg = (a[:, None, None] * a[:, None] * cavity._VACUUM).reshape((1,) + (2,) * 6)
    reg = apply_gate(reg, gates.SIGMA_Y_PAIR, (ATOM3, ATOM4))
    reg = apply_gate(reg, cavity._SWAP, (ATOM2, PHOTON))
    for _, step in cavity.DECOMPOSED_CNOT:
        reg = apply_gate(reg, step, (PHOTON, ATOM4))
    reg = apply_gate(reg, cavity._SWAP, (PHOTON, ATOM5))
    final = apply_gate(reg, gates.R_MINUS, (ATOM5,))
    p_gggg, p_egeg = marginal(final, {ATOM1: 0, ATOM5: 0, ATOM3: 0, ATOM4: 0},
                              {ATOM1: 1, ATOM5: 0, ATOM3: 1, ATOM4: 0})
    logical = final[:, :, 0, :, :, 0, :].transpose(0, 1, 4, 2, 3).reshape(1, 16)
    residual = float(np.max(np.abs(logical - analytic_phi1_batch(a[None]))))
    return final.reshape(-1), p_gggg, p_egeg, residual


class TestStepPrograms:
    """run_circuit and run_cavity_realization run step programs resolved at
    import; each must give what the same gates give one call at a time
    through `kernel.apply_gate`, bit for bit."""

    @pytest.mark.parametrize("run, by_gates", [(run_circuit, circuit_by_gates),
                                               (cavity.run_cavity_realization, relay_by_gates)],
                             ids=["circuit", "relay"])
    def test_program_equals_the_gates_one_by_one(self, run, by_gates):
        rng = np.random.default_rng(2101)
        for _ in range(2000):
            psi = PureState.haar_random(rng)
            res = run(psi)
            final, p_gggg, p_egeg, residual = by_gates(psi)
            assert res.final_state.view(float).tobytes() == final.view(float).tobytes()
            assert (res.p_gggg, res.p_egeg, res.oracle_residual) == (p_gggg, p_egeg, residual)

    def test_each_plan_holds_its_gate_constant(self):
        assert protocol._COPY2[1] is gates.SIGMA_Y_PAIR.matrix
        assert protocol._CNOT_24[1] is gates.CNOT.matrix
        assert protocol._R_MINUS_2[1] is gates.R_MINUS.matrix
        assert cavity._RAMSEY[1] is gates.SIGMA_Y_PAIR.matrix
        assert cavity._TO_PHOTON[1][1] is cavity._SWAP.matrix
        assert cavity._TO_ATOM5[1][1] is cavity._SWAP.matrix
        assert len(cavity._CNOT_STEPS) == len(cavity.DECOMPOSED_CNOT)
        for plan, (_, step) in zip(cavity._CNOT_STEPS, cavity.DECOMPOSED_CNOT):
            assert plan[1] is step.matrix
        assert cavity._FINAL_ROTATION[1] is gates.R_MINUS.matrix


class TestEmptyBatch:
    """A batch of zero rows gives an empty result of its own shape (run_batch
    still rejects one: TestRunBatch.test_bad_shape_rejected)."""

    @pytest.mark.parametrize("gate, qubits", [(gates.SIGMA_Y, (1,)), (gates.CNOT, (2, 1)),
                                              (gates.R_MINUS, (2,))],
                             ids=["gather_1q", "gather_2q", "product"])
    def test_apply_gate(self, gate, qubits):
        out = apply_gate(np.zeros((0, 2, 2), complex), gate, qubits)
        assert out.shape == (0, 2, 2) and out.dtype == complex

    def test_analytic_table(self):
        assert analytic_phi1_batch(np.zeros((0, 4))).shape == (0, 16)


class TestSharedGates:
    @pytest.mark.parametrize("name", ["sigma_y", "r_plus", "r_minus", "cnot", "cphase"])
    def test_one_read_only_instance(self, name):
        gate = getattr(gates, name.upper())
        assert gate is PACKAGE_GATES[name][0]
        assert not gate.matrix.flags.writeable
        with pytest.raises(AttributeError):
            gate.matrix = np.eye(gate.matrix.shape[0])
        with pytest.raises(ValueError):
            gate.matrix[0, 0] = 2.0


class TestDiagnosableFailure:
    @staticmethod
    def rotate_qubit_2_with(monkeypatch, gate):
        """Swap the circuit's final R- for `gate`, on the same qubit."""
        monkeypatch.setattr(protocol, "_R_MINUS_2", statevec._gate_plan(4, (2,), gate))

    def test_wrong_sign_rotation_names_stage_row_and_tolerance(self, monkeypatch):
        self.rotate_qubit_2_with(monkeypatch, gates.R_PLUS)
        with pytest.raises(InvariantViolation) as info:
            run_batch(haar_batch(3, 9))
        exc = info.value
        assert (exc.stage, exc.row, exc.tol) == ("amplitude table", 0, protocol.ORACLE_TOL)
        assert exc.value > protocol.ORACLE_TOL

    def test_sweep_exit_2_names_row_0_and_seed(self, monkeypatch, tmp_path, capsys):
        self.rotate_qubit_2_with(monkeypatch, gates.R_PLUS)
        assert main(["sweep", "5", "--seed", "17", "--out", str(tmp_path / "s.csv")]) == 2
        err = capsys.readouterr().err
        assert "amplitude table" in err and "row 0" in err and "seed 17" in err
        assert "tolerance 1e-10" in err and "measured" in err

    def test_sweep_names_the_absolute_row_of_a_gate_failure(self, monkeypatch, tmp_path,
                                                             capsys):
        from concmeter import cli

        class Stretch:  # not unitary: doubles every amplitude
            matrix = 2.0 * np.eye(2)

        calls = []

        def breaks_from_row_5(psi):
            calls.append(psi)
            if len(calls) == 6:
                self.rotate_qubit_2_with(monkeypatch, Stretch())
            return run_circuit(psi)

        monkeypatch.setattr(cli, "run_circuit", breaks_from_row_5)
        assert main(["sweep", "10", "--seed", "3", "--out", str(tmp_path / "s.csv")]) == 2
        err = capsys.readouterr().err
        assert "gate application" in err and "row 5; seed 3" in err
        assert "tolerance 1e-12" in err
        assert len(calls) == 6
