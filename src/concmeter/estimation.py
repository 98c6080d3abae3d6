"""Finite-shot concurrence estimation with the global electron-shelving
readout: one yes/no bit per shot (total darkness = all ions ground)."""
from __future__ import annotations

import functools
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

    The model is tabled as `simulate_shots` reads it out: the indices of
    the outcomes it counts whole (q == 1), the indices of those it thins
    (0 < q < 1) and the dark probability q of each thinned one, with q
    from `dark_probability` per outcome. The table is built once per
    distinct model per process, not once per construction, and equal
    models share one read-only table (see `_readout_table`)."""

    p_dark: float = 0.0
    p_bright_false: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.p_dark <= 1.0 and 0.0 <= self.p_bright_false <= 1.0):
            raise ValueError("readout probabilities must lie in [0, 1]")
        object.__setattr__(self, "_table", _readout_table(self))

    def dark_probability(self, n_excited: int) -> float:
        """Chance the global readout stays dark when a true outcome has
        n_excited ions excited (the outcome's count of 'e' letters)."""
        if n_excited == 0:
            return 1.0 - self.p_bright_false
        return self.p_dark**n_excited


# A shot study reads out with one or two models again and again: the table
# of each of the 16 most recently used distinct models, built once. The
# frozen dataclass hashes and compares by (p_dark, p_bright_false), so
# -0.0 and 0.0 share a table; a q of either sign is neither counted whole
# nor thinned, so they give the same counts.
@functools.lru_cache(maxsize=16)
def _readout_table(model: ReadoutModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    q = np.array([model.dark_probability(m) for m in range(5)])[_N_EXCITED]
    thinned = np.flatnonzero((0.0 < q) & (q < 1.0))
    table = np.flatnonzero(q == 1.0), thinned, q[thinned]
    for a in table:
        a.flags.writeable = False  # shared by every equal model
    return table


# A shot study samples one prepared state again and again, and the circuit
# memo returns the same final amplitudes on a repeat: the normalised Born
# distribution of each of the 16 most recently used distinct final states,
# by their bytes. A circuit that fails its checks never reaches here.
@functools.lru_cache(maxsize=16)
def _born_distribution(final_state: bytes) -> np.ndarray:
    probs = np.abs(np.frombuffer(final_state, dtype=complex)) ** 2
    probs = probs / np.add.reduce(probs)  # remove roundoff before multinomial
    probs.flags.writeable = False  # shared by every equal state
    return probs


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


def simulate_shots(psi: PureState, n: int, model: ReadoutModel = ReadoutModel(),
                   seed: int = 0) -> ShotSummary:
    """Sample n protocol shots and summarize the yes/no readout record.

    n is taken with operator.index, so a numpy integer gives what the
    Python int gives and a float is a TypeError; it is checked here, once,
    by one rule with one message: outside [1, 2**63 - 1] (2**63 - 1 is the
    largest count numpy's samplers take), it is a ValueError. From one
    generator seeded once, the 16 Born counts are drawn in index order by
    one multinomial on the final state's Born distribution (kept per
    distinct final state, see `_born_distribution`); the classes the
    model's table counts whole (q == 1) are summed, and each class it
    thins (0 < q < 1) with a non-zero count draws one scalar binomial, in
    index order.

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
    counts = rng.multinomial(n, _born_distribution(result.final_state.tobytes()))
    whole, thinned, q = model._table
    counts = counts.tolist()
    k = sum([counts[j] for j in whole.tolist()])
    for j, q_j in zip(thinned.tolist(), q.tolist()):
        if counts[j]:  # a scalar draw gives a Python int, so p_hat stays a float
            k += rng.binomial(counts[j], q_j)
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
