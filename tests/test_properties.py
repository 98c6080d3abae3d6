"""The library boundary as a property: `run_batch`,
`PureState.from_amplitudes`, `concurrence_wootters`, `solve_delays` and
`simulate_shots`, given any input (NaN, Inf, subnormal or huge numbers,
wrong shapes, near-normalised states, out-of-range counts and seeds),
return a result or raise ValueError within a bounded time. Nothing else
escapes: no InvariantViolation, no numpy error, no hang."""
import contextlib
import math
import signal

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from concmeter import (
    BatchResult,
    DelaySolution,
    PureState,
    ReadoutModel,
    ShotSummary,
    concurrence_wootters,
    run_batch,
    simulate_shots,
    solve_delays,
)

TIME_BOUND_S = 5.0

# any float, plus the magnitudes that stress normalisation and overflow
REALS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e-160, 0.5, 1.0 / math.sqrt(2.0),
                     1e160, 1e300, 1.7976931348623157e308]),
)
COMPLEX = st.builds(complex, REALS, REALS)


class Overran(Exception):
    pass


def _alarm(signum, frame):
    raise Overran(f"call overran {TIME_BOUND_S} s")


@contextlib.contextmanager
def bounded():
    """Fail, instead of hanging, when the body runs past TIME_BOUND_S."""
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, TIME_BOUND_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def result_or_value_error(call):
    """call()'s result, or None when it raises ValueError; any other
    exception, or an overrun, fails the property."""
    with bounded():
        try:
            return call()
        except ValueError:
            return None


@st.composite
def near_unit_rows(draw, width=4):
    """A Haar row scaled by 1 + eps, on either side of the input tolerance."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal(width) + 1j * rng.standard_normal(width)
    eps = draw(st.sampled_from([0.0, 1e-13, -1e-12, 5e-10, -9e-10, 2e-9, 1e-6]))
    return list(a / np.linalg.norm(a) * (1.0 + eps))


def rows(width):
    return st.one_of(st.lists(COMPLEX, min_size=width, max_size=width),
                     near_unit_rows(width))


@st.composite
def batches(draw):
    width = draw(st.sampled_from([4, 4, 4, 3, 5]))
    return draw(st.lists(rows(width), min_size=0, max_size=4))


@st.composite
def density_matrices(draw):
    """Arbitrary 4x4 (or misshapen) matrices, and A A^dagger / tr from an
    arbitrary A, which is a density matrix whenever it is finite."""
    kind = draw(st.sampled_from(["arbitrary", "factored", "shape"]))
    if kind == "shape":
        n = draw(st.sampled_from([0, 2, 3, 5]))
        return np.array(draw(st.lists(COMPLEX, min_size=n * n, max_size=n * n)),
                        dtype=complex).reshape(n, n)
    m = np.array(draw(st.lists(COMPLEX, min_size=16, max_size=16)), dtype=complex)
    m = m.reshape(4, 4)
    if kind == "arbitrary":
        return m
    with np.errstate(all="ignore"):
        rho = m @ m.conj().T
        return rho / np.trace(rho)


class TestLibraryBoundary:
    @given(batches())
    @settings(max_examples=300, deadline=None)
    def test_run_batch(self, amps):
        out = result_or_value_error(lambda: run_batch(np.array(amps, dtype=complex)))
        assert out is None or isinstance(out, BatchResult)

    @given(st.one_of(st.lists(COMPLEX, min_size=0, max_size=6), near_unit_rows()),
           st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_pure_state_from_amplitudes(self, amps, normalize):
        out = result_or_value_error(lambda: PureState.from_amplitudes(amps, normalize=normalize))
        assert out is None or np.all(np.isfinite(out.amplitudes))

    @given(density_matrices())
    @settings(max_examples=300, deadline=None)
    def test_concurrence_wootters(self, rho):
        out = result_or_value_error(lambda: concurrence_wootters(rho))
        assert out is None or 0.0 <= out <= 1.0 + 1e-9

    @given(st.lists(REALS, min_size=6, max_size=6))
    @example([5e-324, 0.5, 1.0, 2.0, 1.0, 1.0])  # v * w underflows to 0
    # (w - v) * x_mid overflows, and the cavities overlap
    @example([8.60264206784788e+33, 2.582280531452439e+201, 5.177719195774479e-205,
              5.1238838141742e+40, 7.231957997754775e+221, 1.8764291362952554e+63])
    # near-max speeds one ulp apart: the lag (w - v)/w/v underflows to 0
    @example([1e308, 1.0000000000000002e308, 0.2, 0.6, 0.02, 0.02])
    @settings(max_examples=300, deadline=None)
    def test_solve_delays(self, args):
        out = result_or_value_error(lambda: solve_delays(*args))
        assert out is None or isinstance(out, DelaySolution)

    @given(rows(4),
           st.one_of(st.integers(-2, 10**6), st.integers(2**62, 2**70)),
           REALS, REALS,
           st.one_of(st.integers(-2, 2**64), st.integers(2**64, 2**200)))
    @settings(max_examples=300, deadline=None)
    def test_simulate_shots(self, amps, n, p_dark, p_bright_false, seed):
        out = result_or_value_error(lambda: simulate_shots(
            PureState.from_amplitudes(amps), n, ReadoutModel(p_dark, p_bright_false), seed))
        assert out is None or isinstance(out, ShotSummary)
