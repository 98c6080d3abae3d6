"""Test references: independent re-implementations that the tests compare
the package against. The package itself never runs them."""
import numpy as np

from concmeter import cavity, gates, statevec
from concmeter.cavity import ATOM4, DECOMPOSED_CNOT, PHOTON
from concmeter.concurrence import validate_density_matrix

_SYSY = np.kron(gates.SIGMA_Y.matrix, gates.SIGMA_Y.matrix)


def composed_cnot_matrix() -> np.ndarray:
    """Product of the cavity's CNOT decomposition steps (last step leftmost)."""
    steps = [g.matrix for _, g in DECOMPOSED_CNOT]
    return steps[2] @ steps[1] @ steps[0]


def shelving_readout(outcome: str, model, rng: np.random.Generator) -> bool:
    """Single-shot global readout of a 4-letter g/e outcome under a
    `ReadoutModel`: True means no fluorescence observed. simulate_shots
    draws the same record a class of outcomes at a time."""
    if len(outcome) != 4 or any(ch not in "ge" for ch in outcome):
        raise ValueError(f"outcome must be a 4-letter g/e string, got {outcome!r}")
    p = model.dark_probability(outcome.count("e"))
    if p == 1.0:
        return True
    if p == 0.0:
        return False
    return bool(rng.random() < p)


def split_haar_amplitudes(rng: np.random.Generator) -> list[complex]:
    """A Haar state's amplitudes by the split construction: eight standard
    normals, the first four the real parts and the last four the imaginary
    parts, joined as x[:4] + 1j * x[4:] and divided by their norm."""
    x = rng.standard_normal(8)
    a = x[:4] + 1j * x[4:]
    return (a / np.linalg.norm(a)).tolist()


def spin_flip(rho) -> np.ndarray:
    """(sigma_y x sigma_y) conj(rho) (sigma_y x sigma_y)."""
    rho = validate_density_matrix(rho)
    return _SYSY @ rho.conj() @ _SYSY


def circuit_unitary() -> np.ndarray:
    """The protocol's four-qubit circuit as one dense 16x16 matrix, built
    from the gate matrices alone: sigma_y on qubits 3 and 4, CNOT with
    control 2 and target 4, then R- on qubit 2 (qubit 1 leftmost)."""
    eye = np.eye(2)
    ground, excited = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    flip = gates.CNOT.matrix[2:, 2:]
    sy = gates.SIGMA_Y.matrix
    prepare = np.kron(np.kron(eye, eye), np.kron(sy, sy))
    cnot_24 = (np.kron(np.kron(eye, ground), np.kron(eye, eye))
               + np.kron(np.kron(eye, excited), np.kron(eye, flip)))
    r_minus_2 = np.kron(np.kron(eye, gates.R_MINUS.matrix), np.kron(eye, eye))
    return r_minus_2 @ cnot_24 @ prepare


def tensor(a, b) -> np.ndarray:
    """Kronecker product of two flat amplitude arrays, norm-checked; qubits
    of `a` precede qubits of `b`."""
    amps = np.kron(a, b)
    assert abs(np.linalg.norm(amps) - 1.0) <= statevec.NORM_TOL_UNITARY
    return amps


def binomial_thinning(counts: np.ndarray, model, rng: np.random.Generator) -> int:
    """The dark count of index-ordered Born counts under a `ReadoutModel`,
    one scalar binomial draw per sampled class in index order: a class with
    q == 1 stays dark whole and a class with q == 0 draws nothing. An
    index's excitation count is its number of set bits."""
    k = 0
    for index, c in enumerate(counts.tolist()):
        if c == 0:
            continue
        q = model.dark_probability(index.bit_count())
        if q == 1.0:
            k += c
        elif q > 0.0:
            k += int(rng.binomial(c, q))
    return k


def map_atom_to_photon(amps: np.ndarray) -> np.ndarray:
    """The relay's atom-2 -> photon step on six-qubit flat amplitudes, with
    the relay's arguments: the photon's vacuum check, then the hand-over;
    atom 2 exits in |g>."""
    return cavity._swap_from_ground(
        amps.reshape((1,) + (2,) * 6), cavity._TO_PHOTON,
        "photon must be in vacuum before the atom-2 map", "atom-to-photon map").reshape(-1)


def map_photon_to_atom5(amps: np.ndarray) -> np.ndarray:
    """The relay's photon -> atom-5 step on six-qubit flat amplitudes, with
    the relay's arguments: atom 5's ground check, then the retrieval; the
    photon is left in vacuum."""
    return cavity._swap_from_ground(
        amps.reshape((1,) + (2,) * 6), cavity._TO_ATOM5,
        "atom 5 must start in the ground state", "photon-to-atom map").reshape(-1)


def cnot_steps_with_flipped_cphase() -> tuple:
    """The relay's CNOT step plans with the sign CPHASE puts on |ee>
    flipped, so the decomposition no longer composes to a CNOT."""
    flipped = statevec.Gate(dict(DECOMPOSED_CNOT)["cphase"].matrix * [1, 1, 1, -1])
    steps = list(cavity._CNOT_STEPS)
    steps[1] = statevec._gate_plan(6, (PHOTON, ATOM4), flipped)
    return tuple(steps)


def order_at(cfg, t: float) -> tuple[int, ...]:
    """The atoms of a `FlightConfig` at time t on a clock that starts at
    atom 1's emission, nearest the source first, sorted by position; on a
    tie the atom emitted later sits behind. Each atom waits at the source,
    x = 0, until its emission, then flies at its speed."""
    t0 = {1: 0.0, 2: cfg.tau, 3: cfg.tau + cfg.tau_prime, 4: 2.0 * cfg.tau + cfg.tau_prime}
    speed = {1: cfg.v, 2: cfg.w, 3: cfg.v, 4: cfg.w}
    pos = {a: speed[a] * max(0.0, t - t0[a]) for a in (1, 2, 3, 4)}
    return tuple(sorted(pos, key=lambda a: (pos[a], -t0[a])))
