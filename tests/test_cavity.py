import contextlib
import copy
import math
import pickle
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from concmeter import cavity, gates, statevec
from concmeter.cavity import (
    ATOM1,
    ATOM2,
    ATOM3,
    ATOM4,
    ATOM5,
    DECOMPOSED_CNOT,
    PHOTON,
    FlightConfig,
    kinematics_report,
    run_cavity_realization,
    solve_delays,
)
from concmeter.cli import main
from concmeter.concurrence import PureState
from concmeter.protocol import analytic_phi1_batch, run_circuit
from concmeter.statevec import Gate, InvariantViolation
from oracles import (
    cnot_steps_with_flipped_cphase,
    composed_cnot_matrix,
    map_atom_to_photon,
    map_photon_to_atom5,
    order_at,
    tensor,
)

SQ2 = 1.0 / math.sqrt(2.0)


def haar_states(n, seed=0):
    rng = np.random.default_rng(seed)
    return [PureState.haar_random(rng) for _ in range(n)]


def relay_with(atom2_amps, atom4_amps=(1, 0), photon_amps=(1, 0),
               atom5_amps=(1, 0)):
    """Six-slot relay register with atoms 1 and 3 in |g>, as flat amplitudes."""
    reg = np.array([1, 0], dtype=complex)
    for amps in (atom2_amps, (1, 0), atom4_amps, photon_amps, atom5_amps):
        reg = tensor(reg, amps)
    return reg


def photonic_cphase(r):
    """The relay's CPHASE step on (photon, atom 4); six-qubit amplitudes."""
    cphase = dict(DECOMPOSED_CNOT)["cphase"]
    out = statevec.apply_gate(r.reshape((1,) + (2,) * 6), cphase, (PHOTON, ATOM4))
    return out.reshape([2] * 6)


class TestDecomposedCnot:
    def test_step_order(self):
        names = [name for name, _ in DECOMPOSED_CNOT]
        assert names == ["r_minus_target", "cphase", "r_plus_target"]

    def test_composition_equals_cnot(self):
        diff = np.abs(composed_cnot_matrix() - gates.CNOT.matrix)
        assert np.max(diff) < 1e-12

    def test_action_on_eg(self):
        eg = np.array([0, 0, 1.0, 0])
        np.testing.assert_allclose(composed_cnot_matrix() @ eg, [0, 0, 0, 1],
                                   atol=1e-12)

    def test_action_on_gg(self):
        gg = np.array([1.0, 0, 0, 0])
        np.testing.assert_allclose(composed_cnot_matrix() @ gg, gg, atol=1e-12)


class TestPhotonicRelay:
    def test_excited_atom_to_photon(self):
        r = map_atom_to_photon(relay_with((0, 1)))
        psi = r.reshape([2] * 6)
        assert abs(abs(psi[0, 0, 0, 0, 1, 0]) - 1.0) < 1e-12

    def test_superposition_to_photon(self):
        r = map_atom_to_photon(relay_with((SQ2, SQ2)))
        psi = r.reshape([2] * 6)
        assert abs(psi[0, 0, 0, 0, 0, 0] - SQ2) < 1e-12
        assert abs(psi[0, 0, 0, 0, 1, 0] - SQ2) < 1e-12

    def test_norm_preserved(self):
        r = map_atom_to_photon(relay_with((0.6, 0.8j)))
        assert abs(np.linalg.norm(r) - 1.0) < 1e-12

    def test_occupied_photon_rejected(self, monkeypatch):
        # the relay's own check, on a register whose photon starts in |1>
        monkeypatch.setattr(cavity, "_VACUUM", np.array([0, 0, 1, 0], dtype=complex))
        with pytest.raises(InvariantViolation, match="vacuum"):
            run_cavity_realization(PureState(0, SQ2, SQ2, 0))

    @pytest.mark.parametrize("relay_step, slot, stage", [
        (map_atom_to_photon, (0, 0, 0, 0, 1, 0), "atom-to-photon map"),
        (map_photon_to_atom5, (0, 0, 0, 0, 0, 1), "photon-to-atom map")])
    def test_nan_in_the_checked_slot_fails_its_own_check(self, relay_step, slot, stage):
        # a NaN population is not within PHOTON_VACUUM_TOL: it must fail the
        # slot's own check, not the norm check of the SWAP after it
        r = relay_with((1, 0)).reshape([2] * 6)
        r[slot] = np.nan
        with pytest.raises(InvariantViolation) as info:
            relay_step(r.reshape(-1))
        assert info.value.stage == stage
        assert math.isnan(info.value.value)

    def test_cphase_flips_e1(self):
        r = relay_with((1, 0), atom4_amps=(0, 1), photon_amps=(0, 1))
        psi = photonic_cphase(r)
        assert abs(psi[0, 0, 0, 1, 1, 0] + 1.0) < 1e-12

    def test_cphase_leaves_g1(self):
        r = relay_with((1, 0), atom4_amps=(1, 0), photon_amps=(0, 1))
        psi = photonic_cphase(r)
        assert abs(psi[0, 0, 0, 0, 1, 0] - 1.0) < 1e-12

    def test_cphase_leaves_e0(self):
        r = relay_with((1, 0), atom4_amps=(0, 1), photon_amps=(1, 0))
        psi = photonic_cphase(r)
        assert abs(psi[0, 0, 0, 1, 0, 0] - 1.0) < 1e-12

    def test_photon_to_atom5(self):
        r = map_photon_to_atom5(relay_with((1, 0), photon_amps=(0, 1)))
        psi = r.reshape([2] * 6)
        assert abs(abs(psi[0, 0, 0, 0, 0, 1]) - 1.0) < 1e-12

    def test_occupied_atom5_rejected(self, monkeypatch):
        # the relay's own check, on a register whose atom 5 starts in |e>
        monkeypatch.setattr(cavity, "_VACUUM", np.array([0, 1, 0, 0], dtype=complex))
        with pytest.raises(InvariantViolation, match="atom 5"):
            run_cavity_realization(PureState(0, SQ2, SQ2, 0))

    def test_full_relay_is_logical_identity(self):
        r = relay_with((0.6, 0.8j))
        out = map_photon_to_atom5(map_atom_to_photon(r))
        psi = out.reshape([2] * 6)
        assert abs(psi[0, 0, 0, 0, 0, 0] - 0.6) < 1e-12
        assert abs(psi[0, 0, 0, 0, 0, 1] - 0.8j) < 1e-12


class TestCavityRealization:
    def test_bell(self):
        res = run_cavity_realization(PureState(0, SQ2, SQ2, 0))
        assert abs(res.p_gggg - 0.125) < 1e-10

    def test_product(self):
        res = run_cavity_realization(PureState(1, 0, 0, 0))
        assert res.p_gggg < 1e-20

    def test_relay_runs_the_decomposition(self, monkeypatch, tmp_path, capsys):
        # flip the sign CPHASE puts on |ee>: the relay must notice
        monkeypatch.setattr(cavity, "_CNOT_STEPS", cnot_steps_with_flipped_cphase())
        path = tmp_path / "bell.json"
        path.write_text('{"amplitudes": [[0, 0], [0.7071067811865476, 0], '
                        '[0.7071067811865476, 0], [0, 0]]}')
        assert main(["cavity", str(path)]) == 2
        assert "cavity vs ideal P_gggg" in capsys.readouterr().err

    @staticmethod
    def fault_after_relay(monkeypatch, gate, qubit):
        """Apply `gate` to `qubit` right after the photon-to-atom-5 map, the
        relay's SWAP from a ground atom 5."""
        relay_swap = cavity._swap_from_ground

        def faulty(states, hand_over, *rest):
            out = relay_swap(states, hand_over, *rest)
            if hand_over is not cavity._TO_ATOM5:
                return out
            return statevec.apply_gate(out, gate, (qubit,))

        monkeypatch.setattr(cavity, "_swap_from_ground", faulty)

    def test_phase_flip_caught_by_the_table(self, monkeypatch, tmp_path, capsys):
        # Z on atom 1 changes no probability, so only the phase-strict
        # table check can see it
        self.fault_after_relay(monkeypatch, Gate(np.diag([1.0, -1.0])), ATOM1)
        path = tmp_path / "bell.json"
        path.write_text('{"amplitudes": [[0, 0], [0.7071067811865476, 0], '
                        '[0.7071067811865476, 0], [0, 0]]}')
        assert main(["cavity", str(path)]) == 2
        assert "cavity amplitude table" in capsys.readouterr().err

    def test_leak_out_of_the_subspace_caught(self, monkeypatch):
        # a 1e-5 rad photon rotation leaks 1e-10 of weight: below
        # CAVITY_MATCH_TOL in P_gggg and ORACLE_TOL in the table
        t = 1e-5
        leak = Gate([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
        self.fault_after_relay(monkeypatch, leak, PHOTON)
        with pytest.raises(InvariantViolation) as info:
            run_cavity_realization(PureState(0, SQ2, SQ2, 0))
        assert info.value.stage == "cavity logical subspace"
        assert info.value.value == pytest.approx(math.sin(t) ** 2)

    def test_final_register_embeds_the_table(self):
        states = haar_states(100, seed=41)
        table = analytic_phi1_batch([s.amplitudes for s in states])
        for psi, expected in zip(states, table):
            res = run_cavity_realization(psi)
            psi6 = res.final_state.reshape([2] * 6)
            # atom 2 = g, photon = 0; logical qubits (1, 2, 3, 4) = atoms (1, 5, 3, 4)
            logical = psi6[:, 0, :, :, 0, :].transpose(0, 3, 1, 2).reshape(16)
            assert res.oracle_residual == np.max(np.abs(logical - expected))
            assert res.oracle_residual <= 1e-15
            assert not np.any(psi6[:, 1]) and not np.any(psi6[:, 0, :, :, 1])

    def test_final_reads_equal_one_marginal_per_pattern(self):
        # the relay reads all four from one pass; each must be what a
        # marginal call of its own gives, bit for bit
        for psi in haar_states(2000, seed=43):
            res = run_cavity_realization(psi)
            final = res.final_state
            assert res.p_gggg == statevec.marginal(final, {ATOM1: 0, ATOM5: 0, ATOM3: 0, ATOM4: 0})
            assert res.p_egeg == statevec.marginal(final, {ATOM1: 1, ATOM5: 0, ATOM3: 1, ATOM4: 0})
            assert statevec.marginal(final, {ATOM2: 1}) == 0.0
            assert statevec.marginal(final, {ATOM2: 0, PHOTON: 1}) == 0.0

    @pytest.mark.parametrize("run, size", [(run_circuit, 16), (run_cavity_realization, 64)])
    def test_final_state_is_a_read_only_flat_array(self, run, size):
        final = run(PureState(0, SQ2, SQ2, 0)).final_state
        assert final.shape == (size,)
        with pytest.raises(ValueError, match="read-only"):
            final[0] = 1.0

    def test_matches_ideal_circuit(self):
        for psi in haar_states(200, seed=31):
            real = run_cavity_realization(psi)
            ideal = run_circuit(psi)
            assert abs(real.p_gggg - ideal.p_gggg) < 1e-10
            assert abs(real.p_egeg - ideal.p_egeg) < 1e-10


class TestFlightConfig:
    def test_invalid_speeds(self):
        # an infinite w would put atoms at NaN positions (inf * 0.0)
        for v, w in [(500, 300), (300, math.inf), (math.inf, math.inf), (math.nan, 500)]:
            with pytest.raises(ValueError, match="w > v"):
                FlightConfig(v=v, w=w, tau=1e-4, tau_prime=0,
                             x_C=0.2, x_D=0.6, L_C=0.02, L_D=0.02)

    def test_invalid_geometry(self):
        for x_C, x_D in [(0.6, 0.2), (0.2, math.inf), (math.nan, 0.6)]:
            with pytest.raises(ValueError, match="x_D > x_C"):
                FlightConfig(v=300, w=500, tau=1e-4, tau_prime=0,
                             x_C=x_C, x_D=x_D, L_C=0.02, L_D=0.02)

    @pytest.mark.parametrize("L_C, L_D", [(0.0, 0.02), (0.02, -0.01), (math.nan, 0.02),
                                          (0.02, math.inf)])
    def test_non_positive_mode_length_rejected(self, L_C, L_D):
        with pytest.raises(ValueError, match="mode lengths must be positive"):
            FlightConfig(v=300, w=500, tau=1e-4, tau_prime=0,
                         x_C=0.2, x_D=0.6, L_C=L_C, L_D=L_D)

    @pytest.mark.parametrize("tau, tau_prime", [(-1e-4, 0.0), (1e-4, -1e-9), (math.nan, 0.0),
                                                (1e-4, math.nan)])
    def test_negative_delay_rejected(self, tau, tau_prime):
        with pytest.raises(ValueError, match="delays must be non-negative"):
            FlightConfig(v=300, w=500, tau=tau, tau_prime=tau_prime,
                         x_C=0.2, x_D=0.6, L_C=0.02, L_D=0.02)

    @pytest.mark.parametrize("field, value, message", [
        ("w", 300.0, "w > v"), ("v", 0.0, "w > v"),
        ("x_D", 0.2, "x_D > x_C"), ("x_C", 0.0, "x_D > x_C"),
        ("L_C", math.inf, "mode lengths must be positive")],
        ids=["w_equals_v", "v_zero", "x_D_equals_x_C", "x_C_zero", "L_C_inf"])
    def test_each_strict_bound_refuses_its_edge(self, field, value, message):
        # L_C == 0 is test_non_positive_mode_length_rejected's first case
        fields = dict(v=300.0, w=500.0, tau=1e-4, tau_prime=0.0,
                      x_C=0.2, x_D=0.6, L_C=0.02, L_D=0.02)
        fields[field] = value
        with pytest.raises(ValueError, match=message):
            FlightConfig(**fields)

    def test_numpy_scalars_judged_as_python_floats(self):
        # tau * w overflows: numpy float64 fields warned (an error under -W
        # error) where Python floats overflow to inf quietly
        fields = dict(v=1e-300, w=1e300, tau=1e300, tau_prime=0.0,
                      x_C=1e300, x_D=1e301, L_C=0.02, L_D=0.02)
        cfg = FlightConfig(**{k: np.float64(x) for k, x in fields.items()})
        assert all(type(getattr(cfg, k)) is float for k in fields)
        assert kinematics_report(cfg) == kinematics_report(FlightConfig(**fields))

    def test_solved_config_survives_copy_and_pickle(self):
        cfg = solve_delays(300, 500, 0.2, 0.6, 0.02, 0.02)
        assert copy.deepcopy(cfg) == cfg
        assert pickle.loads(pickle.dumps(cfg)) == cfg


class TestKinematicsReport:
    def test_crossing_at_cavity_center(self):
        tau = 0.2 * (1 / 300 - 1 / 500)
        cfg = FlightConfig(v=300, w=500, tau=tau, tau_prime=0.0,
                           x_C=0.2, x_D=0.6, L_C=0.02, L_D=0.02)
        report = kinematics_report(cfg)
        assert abs(report.pair12_cross_position - 0.2) < 1e-12

    def test_zero_delay_crossing_at_source(self):
        cfg = FlightConfig(v=300, w=500, tau=0.0, tau_prime=1e-4,
                           x_C=0.2, x_D=0.6, L_C=0.02, L_D=0.02)
        report = kinematics_report(cfg)
        assert report.pair12_cross_position == 0.0
        assert "pair12_cross_outside_C" in report.violations
        assert not report.feasible

    def test_zero_delays_put_atoms_2_and_4_together_in_d(self):
        cfg = FlightConfig(v=300, w=500, tau=0.0, tau_prime=0.0,
                           x_C=0.2, x_D=0.6, L_C=0.02, L_D=0.02)
        report = kinematics_report(cfg)
        assert "atoms_2_4_cross_in_D" in report.violations
        assert not report.feasible

    def test_symmetric_pairs(self):
        # the report gives one crossing for both pairs: atom 4, emitted tau
        # after atom 3, catches it where atom 2 catches atom 1
        cfg = FlightConfig(v=280, w=450, tau=2e-4, tau_prime=5e-5,
                           x_C=0.25, x_D=0.7, L_C=0.03, L_D=0.03)
        report = kinematics_report(cfg)
        t3, t4 = cfg.tau + cfg.tau_prime, 2 * cfg.tau + cfg.tau_prime
        t34 = (cfg.w * t4 - cfg.v * t3) / (cfg.w - cfg.v)  # v (t - t3) = w (t - t4)
        assert report.pair12_cross_position == pytest.approx(cfg.v * (t34 - t3), rel=1e-12)

    def test_orderings_are_permutations(self):
        cfg = FlightConfig(v=300, w=500, tau=2.6667e-4, tau_prime=1e-5,
                           x_C=0.2, x_D=0.6, L_C=0.02, L_D=0.02)
        report = kinematics_report(cfg)
        for order in (report.order_before_C, report.order_after_C,
                      report.order_at_D):
            assert sorted(order) == [1, 2, 3, 4]

    def test_overtake_monotone_in_tau(self):
        positions = []
        for tau in (1e-4, 2e-4, 3e-4, 4e-4):
            cfg = FlightConfig(v=300, w=500, tau=tau, tau_prime=0.0,
                               x_C=0.2, x_D=0.6, L_C=0.02, L_D=0.02)
            positions.append(kinematics_report(cfg).pair12_cross_position)
        assert positions == sorted(positions)
        assert len(set(positions)) == len(positions)


@st.composite
def flight_positions(draw):
    """A flight plan and a position of atom 4 at which to order its atoms:
    zero delays, emissions and crossings give ties in position, and delays
    on a coarse binary grid give a clock on which no sum rounds."""
    v = draw(st.one_of(st.floats(1.0, 1e3), st.floats(5e-324, 1e300)))
    w = draw(st.one_of(st.floats(1e-6, 1e3).map(lambda gap: v + gap),
                       st.floats(v, allow_infinity=False)))
    delay = st.one_of(st.just(0.0), st.integers(0, 2**20).map(lambda n: math.ldexp(n, -30)),
                      st.floats(0.0, 1e-3), st.floats(0.0, allow_infinity=True))
    tau, tau_prime = draw(delay), draw(delay)
    if not w > v:
        w = math.nextafter(v, math.inf)
    cfg = FlightConfig(v=v, w=w, tau=tau, tau_prime=tau_prime,
                       x_C=0.2, x_D=0.6, L_C=0.02, L_D=0.02)
    heads = (2.0 * tau + tau_prime, tau + tau_prime, tau, 0.0)
    catch = v * tau / (w - v)  # atom 2 reaches atom 1 this long after its emission
    # atom 4 at each emission, as atom 2 catches atom 1 and atom 4 atom 3, and in the cavities
    positions = [*(-w * head for head in heads), w * (catch - heads[1]), w * catch, 0.21, 0.59]
    x4 = draw(st.one_of(st.sampled_from(positions), st.floats(-1.0, 10.0), st.floats()))
    return cfg, x4


def _exact_sum(total: float, *terms: float) -> bool:
    """Whether the float `total` is the exact sum of the finite `terms`."""
    return (all(map(math.isfinite, (total, *terms)))
            and Fraction(total) == sum(map(Fraction, terms)))


class TestOrderAt:
    @given(flight_positions())
    @settings(max_examples=500, deadline=None)
    def test_equals_the_reference_sort(self, case):
        # the reference orders the atoms at t4 + x4 / w on a clock from atom
        # 1's emission; wherever no sum on that clock rounds, the head starts
        # on atom 4 give the same elapsed flight times, so the same order
        cfg, x4 = case
        tau, tau_prime = cfg.tau, cfg.tau_prime
        t3, t4, flown = tau + tau_prime, 2.0 * tau + tau_prime, x4 / cfg.w
        t = t4 + flown
        assume(_exact_sum(t3, tau, tau_prime) and _exact_sum(t4, 2.0 * tau, tau_prime)
               and _exact_sum(t, t4, flown)
               and all(_exact_sum(t - t0, t, -t0) for t0 in (0.0, tau, t3, t4)))
        assert cavity._order_at(cfg, x4) == order_at(cfg, t)

    def test_ties_at_the_source(self):
        # before its emission each atom waits at the source, x = 0: the one
        # emitted later sits behind, nearer the source, so it comes first
        cfg = FlightConfig(v=300, w=500, tau=1e-4, tau_prime=2e-4,
                           x_C=0.2, x_D=0.6, L_C=0.02, L_D=0.02)
        assert cavity._order_at(cfg, -1.0) == order_at(cfg, 4e-4 - 1.0 / 500) == (4, 3, 2, 1)
        # emitted at once, 1 and 3 tie at v*t and 2 and 4 at w*t: atom order
        cfg = FlightConfig(v=300, w=500, tau=0.0, tau_prime=0.0,
                           x_C=0.2, x_D=0.6, L_C=0.02, L_D=0.02)
        assert cavity._order_at(cfg, 0.5) == order_at(cfg, 0.5 / 500) == (1, 3, 2, 4)


# speeds, speed gaps and geometry whose plan is feasible: the pairs cross in C,
# and cavity D starts beyond C and beyond the swap at zero inter-pair delay
@st.composite
def physical_geometries(draw):
    v = draw(st.floats(1.0, 1e4))
    w = v + draw(st.floats(2e-6, 1e4))  # clear of MIN_SPEED_GAP after rounding
    x_C = draw(st.floats(1e-3, 10.0))
    L_C = x_C * draw(st.floats(1e-2, 1.0))
    L_D = x_C * draw(st.floats(1e-3, 1.0))
    d_entry = max(x_C + L_C / 2.0, 2.0 * x_C) * (1.0 + draw(st.floats(1e-3, 10.0)))
    return v, w, x_C, d_entry + L_D / 2.0, L_C, L_D


# overlapping cavities, at scales where (w - v) * x_mid overflows float64
OVERFLOW_INPUT = (8.60264206784788e+33, 2.582280531452439e+201, 5.177719195774479e-205,
                  5.1238838141742e+40, 7.231957997754775e+221, 1.8764291362952554e+63)


class TestSolveDelays:
    def test_closed_form_tau(self):
        cfg = solve_delays(300, 500, 0.2, 0.6, 0.02, 0.02)
        assert kinematics_report(cfg).feasible
        assert abs(cfg.tau - 0.2 * (1 / 300 - 1 / 500)) < 1e-12
        assert abs(cfg.tau - 2.6667e-4) < 1e-8

    def test_round_trip_feasible(self):
        report = kinematics_report(solve_delays(300, 500, 0.2, 0.6, 0.02, 0.02))
        assert report.feasible
        assert report.order_before_C == (4, 3, 2, 1)
        assert report.order_after_C == (3, 4, 1, 2)
        assert report.order_at_D == (3, 1, 4, 2)

    @given(physical_geometries())
    @example((244.0, 851.0, 1e-22, 1.7, 0.02, 0.02))  # x_C below one ulp of the midpoint
    @example((300.0, 500.0, 2e-10, 6.1e-10, 2e-11, 2e-11))  # no length scale enters the delays
    @settings(max_examples=300, deadline=None)
    def test_plan_lands_on_its_targets(self, args):
        v, w, x_C, x_D, L_C, L_D = args
        cfg = solve_delays(*args)
        report = kinematics_report(cfg)
        assert report.feasible
        x_mid = ((x_C + L_C / 2.0) + (x_D - L_D / 2.0)) / 2.0
        swap14, bound = report.swap14_position, 4 * math.ulp(x_mid)
        if cfg.tau_prime > 0.0:
            assert abs(swap14 - x_mid) <= bound
        else:
            # no delay is needed when the pairs' own gap puts the swap past the midpoint
            assert cfg.tau_prime == 0.0 and swap14 >= x_mid - bound

    def test_fast_atoms_feasible(self):
        # v * w overflows here, but neither crossing nor the plan does
        report = kinematics_report(solve_delays(3e162, 9e162, 0.2, 0.6, 0.02, 0.02))
        assert report.feasible
        assert report.pair12_cross_position == pytest.approx(0.2, rel=1e-15)
        assert report.swap14_position == pytest.approx(0.4, rel=1e-15)

    def test_near_max_speeds_an_ulp_apart_are_infeasible(self):
        # the lag (w - v)/w/v underflows to 0 and tau to 0: no crossing exists
        cfg = solve_delays(1e308, math.nextafter(1e308, math.inf), 0.2, 0.6, 0.02, 0.02)
        report = kinematics_report(cfg)
        assert not report.feasible
        assert report.violations[0] == "pair12_cross_outside_C"
        assert math.isnan(report.pair12_cross_position)

    @given(physical_geometries(), st.integers(-60, 1000))
    @example((300.0, 500.0, 0.2, 0.6, 0.02, 0.02), 504)  # v * w overflows from k = 504
    @settings(max_examples=300, deadline=None)
    def test_speeds_scaled_by_a_power_of_two(self, args, k):
        # scaling both speeds by 2**k scales every delay by 2**-k exactly and
        # leaves every position as it is, wherever no intermediate leaves the
        # normal range and the scaled gap stays clear of MIN_SPEED_GAP
        v, w, *geometry = args
        sv, sw = math.ldexp(v, k), math.ldexp(w, k)
        assume(sw < math.inf and sw - sv >= 2 * cavity.MIN_SPEED_GAP)
        base, scaled = solve_delays(v, w, *geometry), solve_delays(sv, sw, *geometry)
        delays = (base.tau, base.tau_prime)
        assume(all(d == 0.0 or sys.float_info.min <= math.ldexp(d, -k) for d in delays))
        assume(sys.float_info.min <= 1.0 / sw and sys.float_info.min <= (sw - sv) / sw / sv)
        assert (scaled.tau, scaled.tau_prime) == tuple(math.ldexp(d, -k) for d in delays)
        # the same verdict and binding constraint, and the same positions and orders
        assert kinematics_report(scaled) == kinematics_report(base)

    def test_subnormal_lag_keeps_the_verdict(self):
        # scaled by 2**997 the lag (w - v)/w/v is about 1.5e-308, subnormal, so
        # tau_prime loses its last digits; the plan and its orders still hold
        args, k = (7060.0, 7061.0, 2.0, 9.0, 2.0, 2.0), 997
        scaled_args = (math.ldexp(args[0], k), math.ldexp(args[1], k), *args[2:])
        cfg = solve_delays(*scaled_args)
        assert 0.0 < (cfg.w - cfg.v) / cfg.w / cfg.v < sys.float_info.min
        base, scaled = kinematics_report(solve_delays(*args)), kinematics_report(cfg)
        assert scaled.feasible == base.feasible
        assert scaled.violations[:1] == base.violations[:1]  # the binding constraint, if any

        def orders(report):
            return report.order_before_C, report.order_after_C, report.order_at_D

        assert orders(scaled) == orders(base)

    def test_overlapping_cavities_bind_after_c_at_any_scale(self):
        # a finite delay, and no delay puts the swap between the cavities: it
        # lands inside C, so atom 4 has passed atom 1 as it exits C; exact
        # arithmetic gives the same three violations, this one first
        cfg = solve_delays(*OVERFLOW_INPUT)
        report = kinematics_report(cfg)
        assert math.isfinite(cfg.tau_prime)
        assert report.violations[0] == "order_after_C_wrong"
        assert "swap14_not_between_cavities" in report.violations

    def test_delays_that_dwarf_the_flight_through_c(self):
        # tau is about 2e302 s and atom 4 crosses C in 1e4 s: on a clock from
        # atom 1's emission, atom 4's exit from C rounds back to its emission
        report = kinematics_report(solve_delays(1e-303, 2e-6, 0.2, 0.6, 0.02, 0.02))
        assert report.feasible
        assert (report.order_after_C, report.order_at_D) == ((3, 4, 1, 2), (3, 1, 4, 2))
        assert (report.pair12_cross_position, report.swap14_position) == (0.2, 0.4)

    @pytest.mark.parametrize("v", [5e-324, 1e-320])
    def test_speed_whose_inverse_overflows_is_infeasible(self, v):
        # 1/v is inf, so tau is; at 5e-324, v * w also underflows to 0
        cfg = solve_delays(v, 0.5, 1.0, 2.0, 1.0, 1.0)
        report = kinematics_report(cfg)
        assert not report.feasible
        assert math.isinf(cfg.tau) and cfg.tau_prime == 0.0
        assert report.violations[0] == "pair12_cross_outside_C"  # an infinite crossing

    def test_degenerate_speed_gap(self):
        with pytest.raises(ValueError, match="^invalid kinematics input: speed_gap$"):
            solve_delays(300, 300 + 1e-7, 0.2, 0.6, 0.02, 0.02)

    @pytest.mark.parametrize("gap, binds", [(2e-6, False), (5e-7, True)])
    def test_speed_gap_boundary(self, gap, binds):
        # either side of MIN_SPEED_GAP = 1e-6 m/s, and inside ten times it
        with pytest.raises(ValueError, match="speed_gap") if binds else contextlib.nullcontext():
            solve_delays(300.0, 300.0 + gap, 0.2, 0.6, 0.02, 0.02)

    @pytest.mark.parametrize("w, binds", [(2e-6, False), (math.nextafter(2e-6, 0.0), True)],
                             ids=["gap_exactly_min", "gap_an_ulp_below_min"])
    def test_speed_gap_edge(self, w, binds):
        # v = 1e-6: 2e-6 - 1e-6 is exactly MIN_SPEED_GAP, the ulp below is not
        assert (w - 1e-6 < cavity.MIN_SPEED_GAP) == binds
        with (pytest.raises(ValueError, match="^invalid kinematics input: speed_gap$") if binds
              else contextlib.nullcontext()):
            solve_delays(1e-6, w, 0.2, 0.6, 0.02, 0.02)

    def test_numpy_float64_inputs_give_the_python_float_plan(self):
        # tau = x_C * (1/v - 1/w) overflows: numpy float64 inputs warned (an
        # error under -W error) where Python floats overflow to inf quietly
        args = (1e-300, 1e300, 1e300, 1e301, 0.02, 0.02)
        cfg = solve_delays(*(np.float64(x) for x in args[:4]), *args[4:])
        assert cfg == solve_delays(*args)
        assert type(cfg.tau) is float and cfg.tau == math.inf
        assert kinematics_report(cfg).violations == (
            "pair12_cross_outside_C", "order_after_C_wrong",
            "swap14_not_between_cavities", "order_at_D_wrong")

    def test_w_below_v_infeasible(self):
        # an input error, not a plan: w - v is below MIN_SPEED_GAP
        with pytest.raises(ValueError, match="speed_gap"):
            solve_delays(500, 300, 0.2, 0.6, 0.02, 0.02)

    @pytest.mark.parametrize("x_D", [0.2, 0.1])
    def test_cavity_d_not_past_c_rejected(self, x_D):
        with pytest.raises(ValueError, match="^invalid kinematics input: geometry$"):
            solve_delays(300, 500, 0.2, x_D, 0.02, 0.02)

    def test_varied_geometries_round_trip(self):
        for v, w, xc, xd in [(250, 400, 0.15, 0.5), (300, 500, 0.2, 0.6),
                             (320, 600, 0.3, 0.9), (200, 350, 0.1, 0.45)]:
            assert kinematics_report(solve_delays(v, w, xc, xd, 0.02, 0.02)).feasible
