import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from concmeter.concurrence import PureState, concurrence_pure
from concmeter.estimation import (ReadoutModel, _born_counts, confidence_interval,
                                  simulate_shots, wilson_interval)
from concmeter.protocol import analytic_phi1_batch, run_circuit
from concmeter.statevec import basis_index
from oracles import binomial_thinning, shelving_readout

SQ2 = 1.0 / math.sqrt(2.0)
BELL = PureState(0, SQ2, SQ2, 0)
IDEAL = ReadoutModel()
# readout probabilities at the edges of the thinning: 0, 1, subnormals, the
# float just below 1, and p_dark values whose higher powers underflow to 0
# (1e-110**3, 1e-160**3, 1e-300**2) or to a subnormal (1e-80**4)
PROBABILITIES = st.one_of(
    st.floats(min_value=0.0, max_value=1.0),
    st.sampled_from([0.0, 1.0, 5e-324, 2.2250738585072014e-308, 1.0 - 2**-53,
                     1e-80, 1e-110, 1e-160, 1e-300]),
)


class TestShelvingReadout:
    def test_ideal_all_ground_is_dark(self):
        rng = np.random.default_rng(0)
        assert shelving_readout("gggg", IDEAL, rng) is True

    def test_ideal_excited_is_bright(self):
        rng = np.random.default_rng(0)
        for outcome in ("gegg", "eeee", "ggge", "egeg"):
            assert shelving_readout(outcome, IDEAL, rng) is False

    def test_ideal_identity_over_all_outcomes(self):
        rng = np.random.default_rng(1)
        for i in range(16):
            outcome = format(i, "04b").replace("0", "g").replace("1", "e")
            assert shelving_readout(outcome, IDEAL, rng) == (outcome == "gggg")

    def test_two_excited_double_miss_rate(self):
        model = ReadoutModel(p_dark=0.1)
        rng = np.random.default_rng(2)
        hits = sum(shelving_readout("geeg", model, rng) for _ in range(200000))
        # expected rate 0.1^2 = 0.01
        assert abs(hits / 200000 - 0.01) < 5 * math.sqrt(0.01 * 0.99 / 200000)

    def test_false_bright(self):
        model = ReadoutModel(p_bright_false=0.2)
        rng = np.random.default_rng(3)
        darks = sum(shelving_readout("gggg", model, rng) for _ in range(100000))
        assert abs(darks / 100000 - 0.8) < 5 * math.sqrt(0.16 / 100000)

    def test_malformed_outcome(self):
        with pytest.raises(ValueError):
            shelving_readout("ggg", IDEAL, np.random.default_rng(0))

    def test_invalid_model(self):
        with pytest.raises(ValueError):
            ReadoutModel(p_dark=1.5)


class TestWilsonInterval:
    def test_contains_point_estimate(self):
        low, high = wilson_interval(125, 1000)
        assert low < 0.125 < high

    def test_zero_successes(self):
        low, high = wilson_interval(0, 10**6)
        assert low == 0.0
        assert high > 0.0

    def test_all_successes(self):
        # unsnapped, the upper endpoint at n = 10 is 1 - 2**-53
        low, high = wilson_interval(10, 10)
        assert high == 1.0
        assert low < 1.0

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 0)
        with pytest.raises(ValueError):
            wilson_interval(-1, 10)


class TestConfidenceInterval:
    def test_zero_count_clamps_low(self):
        low, high = confidence_interval(0, 10**6)
        assert low == 0.0

    def test_full_count_clamps_high(self):
        low, high = confidence_interval(10**6, 10**6)
        assert high == 1.0

    def test_bell_rate_interval_contains_one(self):
        # p-interval around 0.125 maps to a C-interval containing 1
        p_low, p_high = wilson_interval(125000, 10**6)
        assert p_low < 0.125 < p_high
        c_low, c_high = confidence_interval(125000, 10**6)
        assert c_low < 1.0 <= c_high

    def test_monotone_mapping(self):
        p_low, p_high = wilson_interval(30000, 10**6)
        c_low, c_high = confidence_interval(30000, 10**6)
        assert abs(c_low - 2 * math.sqrt(2 * p_low)) < 1e-14
        assert abs(c_high - 2 * math.sqrt(2 * p_high)) < 1e-14


class TestNoDrawContract:
    """numpy's Generator.binomial draws nothing from its stream for a count
    of 0 or a probability of 0, in the scalar and the array form. The
    thinning mask of simulate_shots leaves those classes out; by this
    contract, leaving them in would draw the same stream, so its
    conditions `counts > 0` and `0 < q` change no count."""

    @pytest.mark.parametrize("count, p", [(0, 0.3), (7, 0.0), (0, 0.0)])
    def test_scalar_draws_nothing(self, count, p):
        rng, twin = np.random.default_rng(2301), np.random.default_rng(2301)
        assert rng.binomial(count, p) == 0
        assert rng.random() == twin.random()

    def test_array_draws_nothing(self):
        rng, twin = np.random.default_rng(2302), np.random.default_rng(2302)
        out = rng.binomial(np.array([0, 7, 0, 40]), np.array([0.3, 0.0, 0.0, 0.0]))
        assert out.tolist() == [0, 0, 0, 0]
        assert rng.random() == twin.random()

    def test_array_entries_with_nothing_to_draw_leave_the_stream(self):
        counts = np.array([0, 9, 5, 0, 40, 3])
        p = np.array([0.3, 0.2, 0.0, 0.0, 0.7, 1e-3])
        drawn = (counts > 0) & (p > 0.0)
        rng, twin = np.random.default_rng(2303), np.random.default_rng(2303)
        out = rng.binomial(counts, p)
        assert out[drawn].tolist() == twin.binomial(counts[drawn], p[drawn]).tolist()
        assert not out[~drawn].any()
        assert rng.random() == twin.random()


class TestSampleOutcomes:
    """Born-rule sampling of one state's outcomes: index-ordered counts."""

    def test_deterministic_state(self):
        ground = np.eye(1, 16, dtype=complex)[0]
        counts = _born_counts(ground, 1000, np.random.default_rng(3))
        assert counts.tolist() == [1000] + [0] * 15

    def test_bell_binomial(self):
        n = 10**6
        counts = _born_counts(BELL.amplitudes, n, np.random.default_rng(7))
        sigma = math.sqrt(0.25 / n)
        assert abs(counts[basis_index("ge")] / n - 0.5) < 5 * sigma
        assert counts.sum() == n

    def test_same_seed_identical(self):
        draws = [_born_counts(BELL.amplitudes, 5000, np.random.default_rng(11)) for _ in range(2)]
        assert np.array_equal(*draws)

    def test_chi_square_goodness_of_fit(self):
        from scipy import stats

        rng = np.random.default_rng(13)
        for trial in range(5):
            r = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            r /= np.linalg.norm(r)
            n = 10**5
            observed = _born_counts(r, n, np.random.default_rng(100 + trial))
            probs = np.abs(r) ** 2
            keep = probs * n >= 5  # chi-square validity threshold
            _, p_value = stats.chisquare(observed[keep], probs[keep] / probs[keep].sum() * observed[keep].sum())
            assert p_value > 0.001


class TestSimulateShots:
    @pytest.mark.parametrize("p_dark", [0.0, 0.05, 0.5, 1.0])
    @pytest.mark.parametrize("p_bright_false", [0.0, 0.05, 0.5, 1.0])
    def test_thinning_stream_pinned(self, p_dark, p_bright_false):
        # the dark count equals one scalar binomial draw per outcome class,
        # taken from the generator right after the Born sample
        model = ReadoutModel(p_dark=p_dark, p_bright_false=p_bright_false)
        states = [BELL, PureState(1, 0, 0, 0)]
        states += [PureState.haar_random(np.random.default_rng(s)) for s in range(4)]
        for i, psi in enumerate(states):
            for seed in (0, 17, 2**40 + i):
                rng = np.random.default_rng(seed)
                counts = _born_counts(run_circuit(psi).final_state, 5000, rng)
                expected = binomial_thinning(counts, model, rng)
                got = simulate_shots(psi, 5000, model, seed).n_no_fluorescence
                assert got == expected, (i, seed)

    @given(st.integers(0, 2**32), st.integers(1, 10**6), PROBABILITIES, PROBABILITIES,
           st.integers(0, 2**64 - 1))
    @settings(max_examples=200, deadline=None)
    def test_thinning_stream_property(self, state_seed, n, p_dark, p_bright_false, seed):
        # the vectorised thinning draws what one scalar draw per class would,
        # for Haar states and readout probabilities at every edge of q
        psi = PureState.haar_random(np.random.default_rng(state_seed))
        model = ReadoutModel(p_dark=p_dark, p_bright_false=p_bright_false)
        rng = np.random.default_rng(seed)
        counts = _born_counts(run_circuit(psi).final_state, n, rng)
        expected = binomial_thinning(counts, model, rng)
        assert simulate_shots(psi, n, model, seed).n_no_fluorescence == expected

    @pytest.mark.parametrize("n", [0, -1])
    def test_no_shots_rejected(self, n):
        with pytest.raises(ValueError, match=r"^shot count must be in \[1, 9223372036854775807\]$"):
            simulate_shots(BELL, n)

    @pytest.mark.parametrize("n", [10.5, 1000.0, np.float64(1000.0)])
    def test_non_integer_count_rejected(self, n):
        # a float count once drew int(n) shots and reported n
        with pytest.raises(TypeError):
            simulate_shots(BELL, n)

    @pytest.mark.parametrize("model", [IDEAL, ReadoutModel(p_dark=0.05, p_bright_false=0.02)])
    def test_numpy_count_reads_as_its_int(self, model):
        # a numpy count once gave numpy floats in the summary
        got = simulate_shots(BELL, np.int64(1000), model, seed=3)
        assert got == simulate_shots(BELL, 1000, model, seed=3)
        assert [type(v) for v in vars(got).values()] == [int, int, float, float, float, float]

    @pytest.mark.parametrize("p_dark, p_bright_false",
                             [(0.0, 0.0), (0.05, 0.02), (0.5, 0.0), (0.0, 0.3)])
    def test_dark_rate_against_the_table(self, p_dark, p_bright_false):
        # the pooled dark count against the exact rate sum |phi1|^2 q, with
        # phi1 from the polynomial table and q from dark_probability, so the
        # expected count comes from neither the sampler nor the thinning
        model = ReadoutModel(p_dark=p_dark, p_bright_false=p_bright_false)
        q = np.array([model.dark_probability(i.bit_count()) for i in range(16)])
        states = [PureState(1, 0, 0, 0), BELL]
        states += [PureState.haar_random(np.random.default_rng(s)) for s in (31, 32, 33)]
        n, seeds = 10**5, range(20)
        for psi in states:
            rate = float(np.abs(analytic_phi1_batch(psi.amplitudes[None])[0]) ** 2 @ q)
            k = sum(simulate_shots(psi, n, model, seed).n_no_fluorescence for seed in seeds)
            total = n * len(seeds)
            sigma = math.sqrt(total * rate * (1.0 - rate))
            assert abs(k - total * rate) <= 5 * sigma, (psi, k, total * rate)

    def test_bell_large_n(self):
        summary = simulate_shots(BELL, 10**6, IDEAL, seed=5)
        sigma = math.sqrt(0.125 * 0.875 / 10**6)
        assert abs(summary.p_hat - 0.125) < 5 * sigma
        assert summary.ci_low <= summary.c_hat <= summary.ci_high

    def test_product_state_exact_zero(self):
        psi = PureState(1, 0, 0, 0)
        summary = simulate_shots(psi, 10**4, IDEAL, seed=6)
        assert summary.n_no_fluorescence == 0
        assert summary.c_hat == 0.0

    def test_deterministic_per_seed(self):
        a = simulate_shots(BELL, 10**4, IDEAL, seed=7)
        b = simulate_shots(BELL, 10**4, IDEAL, seed=7)
        assert a == b

    def test_dark_counts_bias_upward(self):
        ideal = simulate_shots(BELL, 10**5, IDEAL, seed=8)
        noisy = simulate_shots(BELL, 10**5, ReadoutModel(p_dark=0.05), seed=8)
        assert noisy.p_hat > ideal.p_hat

    def test_consistency_over_seeds(self):
        c_true = concurrence_pure(BELL)
        n = 10**5
        errors = [abs(simulate_shots(BELL, n, IDEAL, seed=s).c_hat - c_true)
                  for s in range(50)]
        # delta method: sd(c_hat) ~ |dC/dp| * sd(p_hat) at p = 1/8
        sd_p = math.sqrt(0.125 * 0.875 / n)
        dcdp = math.sqrt(2.0 / 0.125)
        assert np.mean(errors) < 3 * dcdp * sd_p

    def test_estimator_bias_direction(self):
        # sqrt is concave: E[c_hat] <= C + small slack
        c_true = concurrence_pure(BELL)
        n = 10**4
        c_hats = [simulate_shots(BELL, n, IDEAL, seed=s).c_hat
                  for s in range(200)]
        se = np.std(c_hats) / math.sqrt(len(c_hats))
        assert np.mean(c_hats) <= c_true + 2 * se

    def test_interval_coverage_interior_state(self):
        # C = 0.6 sits away from the clamp at 1, so the mapped interval
        # stays two-sided and inherits the Wilson coverage on p
        psi = PureState(0, 3 / math.sqrt(10), 1 / math.sqrt(10), 0)
        c_true = concurrence_pure(psi)
        assert abs(c_true - 0.6) < 1e-12
        n = 10**4
        reps = 1000
        covered = 0
        for s in range(reps):
            summary = simulate_shots(psi, n, IDEAL, seed=1000 + s)
            if summary.ci_low <= c_true <= summary.ci_high:
                covered += 1
        assert 0.93 <= covered / reps <= 0.97

    def test_interval_coverage_bell_probability(self):
        # at C = 1 the clamp makes the C-interval one-sided; coverage is
        # assessed on the underlying no-fluorescence probability p = 1/8
        n = 10**4
        reps = 1000
        covered = 0
        for s in range(reps):
            summary = simulate_shots(BELL, n, IDEAL, seed=1000 + s)
            lo, hi = wilson_interval(summary.n_no_fluorescence, n)
            if lo <= 0.125 <= hi:
                covered += 1
        assert 0.93 <= covered / reps <= 0.97
