"""Input rules and tolerances pinned at their edge: a value exactly at a
bound is accepted and the next float past it is refused, so that no
comparison can move between strict and non-strict unseen.

Pinned here: accept_input's bound for returning a batch as it is
(|squared norm - 1| within NORM_TOL_UNITARY, as bounds on the squared
norm), Gate's unitarity bound (deviation > UNITARITY_TOL), and
validate_density_matrix's Hermiticity bound, the imaginary half of its
trace bound and its eigenvalue floor.

Two comparisons cannot be pinned so, as no input reaches their edge:
- accept_input's renormalisation mask, |squared - 1| <= NORM_TOL_UNITARY,
  which only runs once some row fails the bound above;
- validate_density_matrix's trace bound on the real part,
  |Re tr(rho) - 1| > DM_TRACE_TOL.
Near 1, x - 1.0 is exact (Sterbenz), a multiple of 2**-53, and neither
1e-12 nor 1e-10 is such a multiple: the difference never equals the
tolerance, so `<` and `<=` agree on every input.
`test_no_difference_from_one_equals_these_tolerances` checks that premise.
"""
import math

import numpy as np
import pytest

from concmeter import concurrence, statevec
from concmeter.concurrence import validate_density_matrix
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


UPPER = 1.0 + statevec.NORM_TOL_UNITARY
LOWER = 1.0 - statevec.NORM_TOL_UNITARY


@pytest.mark.parametrize("tol", [statevec.NORM_TOL_UNITARY, concurrence.DM_TRACE_TOL])
def test_no_difference_from_one_equals_these_tolerances(tol):
    assert (tol / 2.0**-53) % 1.0 != 0.0
    for x in (1.0 + tol, 1.0 - tol):
        assert abs(x - 1.0) != tol


class TestAcceptInputEdge:
    """A state whose squared norm is exactly 1 +/- NORM_TOL_UNITARY is
    returned as it is; one a float past it is renormalised."""

    @pytest.mark.parametrize("edge", [UPPER, LOWER], ids=["upper", "lower"])
    @pytest.mark.parametrize("n_rows", [1, 3])
    def test_kept_at_the_edge(self, edge, n_rows):
        states = np.repeat(row_with_squared_norm(edge), n_rows, axis=0)
        assert statevec.accept_input(states) is states

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
