"""Finite-shot concurrence estimation with the global electron-shelving
readout: one yes/no bit per shot (total darkness = all ions ground)."""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .concurrence import PureState
from .protocol import extract_concurrence, run_circuit

# Phi^-1(0.975), for the 95% Wilson score interval
_Z95 = 1.959963984540054
# the number of excited ions in each of the 16 outcomes, in index order
_N_EXCITED = np.array([i.bit_count() for i in range(16)])
_MAX_SHOTS = np.iinfo(np.int64).max  # the largest count numpy's samplers take


@dataclass(frozen=True)
class ReadoutModel:
    """p_dark: per-ion missed-detection probability for an excited ion;
    p_bright_false: spurious fluorescence on an all-ground register.
    Defaults give the ideal binary readout.

    The dark probability q of each of the 16 outcomes, in index order, is
    tabled once, at construction, with the masks of the outcomes that
    `simulate_shots` counts whole (q == 1) and of those it thins
    (0 < q < 1)."""

    p_dark: float = 0.0
    p_bright_false: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.p_dark <= 1.0 and 0.0 <= self.p_bright_false <= 1.0):
            raise ValueError("readout probabilities must lie in [0, 1]")
        q = np.array([self.dark_probability(m) for m in range(5)])[_N_EXCITED]
        object.__setattr__(self, "_table", (q, q == 1.0, (0.0 < q) & (q < 1.0)))

    def dark_probability(self, n_excited: int) -> float:
        """Chance the global readout stays dark when a true outcome has
        n_excited ions excited (the outcome's count of 'e' letters)."""
        if n_excited == 0:
            return 1.0 - self.p_bright_false
        return self.p_dark**n_excited


@dataclass(frozen=True)
class ShotSummary:
    n_shots: int
    n_no_fluorescence: int
    p_hat: float
    c_hat: float
    ci_low: float
    ci_high: float


def wilson_interval(k: int, n: int) -> tuple[float, float]:
    """Wilson score interval on a binomial proportion."""
    if n < 1 or not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n with n >= 1")
    p_hat = k / n
    denom = 1.0 + _Z95 * _Z95 / n
    center = (p_hat + _Z95 * _Z95 / (2 * n)) / denom
    margin = (_Z95 / denom) * math.sqrt(p_hat * (1 - p_hat) / n + _Z95 * _Z95 / (4 * n * n))
    # at the extremes one endpoint is exactly 0 or 1; snap past roundoff
    low = 0.0 if k == 0 else max(0.0, center - margin)
    high = 1.0 if k == n else min(1.0, center + margin)
    return low, high


def confidence_interval(k: int, n: int) -> tuple[float, float]:
    """95% interval on the concurrence, from the Wilson interval on the
    no-fluorescence probability mapped through the monotone 2*sqrt(2p)."""
    p_low, p_high = wilson_interval(k, n)
    return extract_concurrence(p_low), extract_concurrence(p_high)


def _born_counts(amps: np.ndarray, n_shots: int, rng: np.random.Generator) -> np.ndarray:
    """Born-rule sampling of one state's flat amplitudes: the count of each
    basis state in index order, drawn from rng."""
    probs = np.abs(amps) ** 2
    probs = probs / np.add.reduce(probs)  # remove roundoff before multinomial
    return rng.multinomial(n_shots, probs)


def simulate_shots(psi: PureState, n: int, model: ReadoutModel = ReadoutModel(),
                   seed: int = 0) -> ShotSummary:
    """Sample n protocol shots and summarize the yes/no readout record.

    n is taken with operator.index, so a numpy integer gives what the
    Python int gives and a float is a TypeError; it is checked here, once,
    by one rule with one message: outside [1, 2**63 - 1] (2**63 - 1 is the
    largest count numpy's samplers take), it is a ValueError. The 16 Born
    counts are then drawn once, in index order, by _born_counts; each
    outcome class is thinned binomially by its dark probability, read from
    the model's table of ReadoutModel.dark_probability per outcome, from
    one generator seeded once. A class with q == 1 counts whole.

    Domain: pure input states only. The readout C = 2*sqrt(2*P_gggg) is
    the concurrence only for two copies of a pure state; a mixed pair
    gives no such relation (the maximally mixed state has P_gggg = 1/16,
    which reads as C = 0.707 where its concurrence is 0).
    """
    n = operator.index(n)
    if not 1 <= n <= _MAX_SHOTS:
        raise ValueError(f"shot count must be in [1, {_MAX_SHOTS}]")
    result = run_circuit(psi)
    rng = np.random.default_rng(seed)
    counts = _born_counts(result.final_state, n, rng)
    q, whole, thinned = model._table
    k = int(np.add.reduce(counts[whole]))
    thin = (counts > 0) & thinned
    if thin.any():  # with none, the call would draw nothing from the stream
        # one call draws the classes in index order, the same stream as one call per class
        k += int(np.add.reduce(rng.binomial(counts[thin], q[thin])))
    p_hat = k / n
    ci_low, ci_high = confidence_interval(k, n)
    return ShotSummary(
        n_shots=n,
        n_no_fluorescence=k,
        p_hat=p_hat,
        c_hat=extract_concurrence(p_hat),
        ci_low=ci_low,
        ci_high=ci_high,
    )
