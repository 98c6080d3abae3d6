"""Input rules and tolerances pinned at their edge: a value exactly at a
bound is accepted and the next float past it is refused, so that no
comparison can move between strict and non-strict unseen.

Pinned here: accept_input's one pair of bounds on the squared norm,
1 -/+ NORM_TOL_UNITARY / 2, both where it returns a batch as it is and
where it picks the rows to renormalise, Gate's unitarity bound (deviation >
UNITARITY_TOL), and validate_density_matrix's Hermiticity bound, the
imaginary half of its trace bound and its eigenvalue floor.

One comparison cannot be pinned so, as no input reaches its edge:
validate_density_matrix's trace bound on the real part,
|Re tr(rho) - 1| > DM_TRACE_TOL. Near 1, x - 1.0 is exact (Sterbenz), a
multiple of 2**-53, and neither 1e-10 nor 1e-12 is such a multiple: the
difference never equals the tolerance, so `<` and `<=` agree on every
input. `test_no_difference_from_one_equals_these_tolerances` checks that
premise; for NORM_TOL_UNITARY it is why accept_input states its bounds
on the squared norm itself, where an input can sit exactly at the edge.
"""
import json
import math

import numpy as np
import pytest

from concmeter import concurrence, statevec
from concmeter.cli import main
from concmeter.concurrence import validate_density_matrix
from concmeter.protocol import run_batch
from concmeter.statevec import Gate


def row_with_squared_norm(target):
    """A state [0.75, b, 0, 0] whose squared norm, as accept_input computes
    it, is exactly `target`: b is walked float by float from its estimate."""
    b = math.sqrt(target - 0.5625)
    for _ in range(64):
        row = np.array([[0.75, b, 0.0, 0.0]], dtype=complex)
        squared = np.vecdot(row, row).real.item()
        if squared == target:
            return row
        b = math.nextafter(b, math.inf if squared < target else -math.inf)
    raise AssertionError(f"no row found with squared norm {target!r}")


UPPER = 1.0 + statevec.NORM_TOL_UNITARY / 2
LOWER = 1.0 - statevec.NORM_TOL_UNITARY / 2


@pytest.mark.parametrize("tol", [statevec.NORM_TOL_UNITARY, concurrence.DM_TRACE_TOL])
def test_no_difference_from_one_equals_these_tolerances(tol):
    assert (tol / 2.0**-53) % 1.0 != 0.0
    for x in (1.0 + tol, 1.0 - tol):
        assert abs(x - 1.0) != tol


class TestAcceptInputEdge:
    """A state whose squared norm is exactly 1 +/- NORM_TOL_UNITARY / 2 is
    returned as it is; one a float past it is renormalised."""

    @pytest.mark.parametrize("edge", [UPPER, LOWER], ids=["upper", "lower"])
    @pytest.mark.parametrize("n_rows", [1, 3])
    def test_kept_at_the_edge(self, edge, n_rows):
        states = np.repeat(row_with_squared_norm(edge), n_rows, axis=0)
        assert statevec.accept_input(states) is states

    @pytest.mark.parametrize("edge", [UPPER, LOWER], ids=["upper", "lower"])
    def test_kept_at_the_edge_next_to_a_row_renormalised(self, edge):
        # the row at the edge keeps its bytes whether or not its neighbour
        # makes accept_input renormalise the batch
        states = np.concatenate([row_with_squared_norm(edge),
                                 row_with_squared_norm(1.0 + 1e-11)])
        out = statevec.accept_input(states)
        assert out[0].tobytes() == states[0].tobytes()
        np.testing.assert_array_equal(out[1], statevec.normalized(states[1]))

    @pytest.mark.parametrize("past", [math.nextafter(UPPER, math.inf),
                                      math.nextafter(LOWER, -math.inf)],
                             ids=["upper", "lower"])
    @pytest.mark.parametrize("n_rows", [1, 3])
    def test_renormalised_one_float_past(self, past, n_rows):
        states = np.repeat(row_with_squared_norm(past), n_rows, axis=0)
        out = statevec.accept_input(states)
        assert out is not states
        for row, original in zip(out, states):
            np.testing.assert_array_equal(row, statevec.normalized(original))


# A state file whose squared norm is exactly 1 + 4504 * 2**-52: within
# NORM_TOL_UNITARY of 1, but outside the half band that accept_input keeps
# as given. Kept as given, its two-copy product, with twice its deviation,
# fails the gates' norm check at the next gate (exit 2).
REPRODUCER = [[0.1032448350663118, -0.08115119883235708],
              [0.496961973274439, 0.41438613212697445],
              [0.198773325032076, -0.6915562830758951],
              [0.016328932476063786, 0.21457016600487655]]
REPRODUCER_ROW = np.array([[complex(*pair) for pair in REPRODUCER]])
# the edge floats of a kept band of 1 -/+ NORM_TOL_UNITARY, where that fails
WIDE_EDGES = {"upper": 1.0 + 4504 * 2.0**-52, "lower": 1.0 - 9007 * 2.0**-53}


def analytic_concurrence(rows):
    """2|c1 c2 - c0 c3| of each row once normalised: divided by its squared norm."""
    c = np.asarray(rows, dtype=complex)
    return 2.0 * np.abs(c[:, 1] * c[:, 2] - c[:, 0] * c[:, 3]) / np.vecdot(c, c).real


def scaled_to_squared_norm(direction, target):
    """A unit `direction` scaled so that its squared norm, as accept_input
    computes it, is exactly `target`, with the real part of c0 walked
    float by float; None when the walk steps over it."""
    parts = (direction * math.sqrt(target)).view(float).copy()
    row = parts.view(complex)[None]
    for _ in range(8):
        squared = np.vecdot(row, row).real.item()
        if squared == target:
            return row[0]
        grow = math.copysign(math.inf, parts[0])
        parts[0] = math.nextafter(parts[0], grow if squared < target else -grow)
    return None


class TestRenormalisedWithinTheGateTolerance:
    """A state within NORM_TOL_UNITARY of 1 but outside the kept half band
    is renormalised, so its two-copy product stays inside the gates' check
    and every command exits 0."""

    def test_reproducer_squared_norm(self):
        assert np.vecdot(REPRODUCER_ROW, REPRODUCER_ROW).real.item() == WIDE_EDGES["upper"]

    @pytest.mark.parametrize("command", ["run", "cavity"])
    def test_commands_exit_0(self, command, tmp_path, capsys):
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"amplitudes": REPRODUCER}))
        assert main([command, str(path)]) == 0
        out = capsys.readouterr().out
        printed = {key.strip(): value
                   for key, value in (line.split("=") for line in out.splitlines())}
        expected, = analytic_concurrence(REPRODUCER_ROW)
        assert abs(float(printed["C_measured"]) - expected) <= 1e-9

    def test_shots_exit_0(self, tmp_path, capsys):
        # an estimate: it must print what the renormalised file prints, and
        # its interval must hold the analytic C
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"amplitudes": REPRODUCER}))
        normalised = tmp_path / "normalised.json"
        normalised.write_text(json.dumps({"amplitudes": REPRODUCER, "normalize": True}))
        outputs = []
        for state in (path, normalised):
            assert main(["shots", str(state), "--seed", "26"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        low, high = json.loads(outputs[0].splitlines()[-1].split("=")[1])
        expected, = analytic_concurrence(REPRODUCER_ROW)
        assert low <= expected <= high

    @pytest.mark.parametrize("edge", sorted(WIDE_EDGES))
    def test_run_batch_at_the_wide_edge(self, edge):
        # Haar directions scaled exactly to the edge: kept as given, about a
        # quarter of them (upper) and most (lower) fail alone
        rng = np.random.default_rng(26)
        rows = []
        while len(rows) < 64:
            x = rng.standard_normal(8)
            direction = x[:4] + 1j * x[4:]
            row = scaled_to_squared_norm(direction / np.linalg.norm(direction),
                                         WIDE_EDGES[edge])
            if row is not None:
                rows.append(row)
        rows = np.array(rows)
        measured = 2.0 * np.sqrt(2.0 * run_batch(rows).p_gggg)
        np.testing.assert_allclose(measured, analytic_concurrence(rows), rtol=0, atol=1e-9)
        for row in rows:  # and each alone
            run_batch(row[None])


class TestGateEdge:
    """M^H M - I is exactly x in one entry when M is the identity with x
    above its diagonal: a product with 1 or 0 and a subtraction of 0."""

    @pytest.mark.parametrize("d", [2, 4])
    def test_unitarity_tolerance_at_its_edge(self, d):
        tol = statevec.UNITARITY_TOL
        for x, accepted in ((tol, True), (math.nextafter(tol, math.inf), False)):
            m = np.eye(d, dtype=complex)
            m[0, 1] = x
            assert np.max(np.abs(m.conj().T @ m - np.eye(d))) == x
            if accepted:
                Gate(m)
            else:
                with pytest.raises(ValueError, match="not unitary"):
                    Gate(m)


def density_edge(bound, x):
    """A density matrix whose measure for `bound` is exactly x, every other
    measure within its tolerance."""
    if bound == "hermitian":  # rho - rho^H is x above the diagonal
        rho = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
        rho[0, 1] = x
        assert np.max(np.abs(rho - rho.conj().T)) == x
    elif bound == "trace_imag":
        # the imaginary trace split over the diagonal: each entry's asymmetry
        # stays within DM_HERMITIAN_TOL, at its edge in the first two
        half = concurrence.DM_TRACE_TOL / 2
        rho = np.diag([1.0 + 1j * half, 1j * half, 1j * (x - 2 * half), 0.0])
        assert np.trace(rho).imag == x
        assert np.max(np.abs(rho - rho.conj().T)) <= concurrence.DM_HERMITIAN_TOL
    else:  # an eigenvalue of exactly x
        rho = np.diag([1.0 - x, x, 0.0, 0.0]).astype(complex)
        assert np.linalg.eigvalsh(rho).min() == x
    return rho


DENSITY_EDGES = {  # the edge value, the direction past it, the refusal past it
    "hermitian": (concurrence.DM_HERMITIAN_TOL, math.inf, "not Hermitian"),
    "trace_imag": (concurrence.DM_TRACE_TOL, math.inf, "trace deviates"),
    "eigenvalue": (concurrence.DM_EIG_FLOOR, -math.inf, "negative eigenvalue"),
}


@pytest.mark.parametrize("bound", sorted(DENSITY_EDGES))
def test_density_matrix_bound_at_its_edge(bound):
    edge, away, message = DENSITY_EDGES[bound]
    validate_density_matrix(density_edge(bound, edge))
    with pytest.raises(ValueError, match=message):
        validate_density_matrix(density_edge(bound, math.nextafter(edge, away)))
