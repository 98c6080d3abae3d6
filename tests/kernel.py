"""Test drivers for the state-vector kernel: one gate, or one read of
marginals, resolved and run in a single call. The package resolves every
plan once, at import, and has no such call; the tests use these to drive
the kernel on any gate, placement and pattern. Unlike `oracles`, these
run the simulator itself."""
from concmeter import statevec


def apply_gate(states, gate, qubits):
    """`gate` on the given qubits (1-based, 1 = leftmost, in the gate's
    order) of every state in a batch of shape (N,) + (2,)*n: the plan
    checked and resolved by `_gate_plan`, then run by `_apply_plan`."""
    return statevec._apply_plan(states, statevec._gate_plan(states.ndim - 1, tuple(qubits), gate))


def marginal(amps, *patterns):
    """The probability of each {qubit: bit} pattern, summed over all other
    qubits, for one state's 2**n amplitudes in an array of any shape: each
    index checked by `_marginal_plan`, all read by `_read` from one pass.
    One pattern gives one float, several a tuple, in order."""
    n = amps.size.bit_length() - 1
    sums = statevec._read(amps, [statevec._marginal_plan(n, tuple(bits.items()))
                                 for bits in patterns])
    return sums[0] if len(sums) == 1 else tuple(sums)
