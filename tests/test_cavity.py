import copy
import math
import pickle

import numpy as np
import pytest

from concmeter import cavity, gates, statevec
from concmeter.cavity import (
    ATOM1,
    ATOM4,
    ATOM5,
    PHOTON,
    FlightConfig,
    decomposed_cnot,
    kinematics_report,
    map_atom_to_photon,
    map_photon_to_atom5,
    run_cavity_realization,
    solve_delays,
)
from concmeter.cli import main
from concmeter.concurrence import PureState
from concmeter.protocol import analytic_phi1_batch, run_circuit
from concmeter.statevec import Gate, InvariantViolation, Register
from oracles import composed_cnot_matrix, tensor

SQ2 = 1.0 / math.sqrt(2.0)


def haar_states(n, seed=0):
    rng = np.random.default_rng(seed)
    return [PureState.haar_random(rng) for _ in range(n)]


def relay_with(atom2_amps, atom4_amps=(1, 0), photon_amps=(1, 0),
               atom5_amps=(1, 0)):
    """Six-slot relay register with atoms 1 and 3 in |g>."""
    reg = statevec.ground_register(1)
    for amps in (atom2_amps, (1, 0), atom4_amps, photon_amps, atom5_amps):
        reg = tensor(reg, Register(amps))
    return reg


def photonic_cphase(r):
    """The relay's CPHASE step on (photon, atom 4); six-qubit amplitudes."""
    cphase = dict(decomposed_cnot())["cphase"]
    out = statevec.apply_gate(r.amplitudes.reshape((1,) + (2,) * 6), cphase, (PHOTON, ATOM4))
    return out.reshape([2] * 6)


class TestDecomposedCnot:
    def test_step_order(self):
        names = [name for name, _ in decomposed_cnot()]
        assert names == ["r_minus_target", "cphase", "r_plus_target"]

    def test_composition_equals_cnot(self):
        diff = np.abs(composed_cnot_matrix() - gates.cnot().matrix)
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
        psi = r.amplitudes.reshape([2] * 6)
        assert abs(abs(psi[0, 0, 0, 0, 1, 0]) - 1.0) < 1e-12

    def test_superposition_to_photon(self):
        r = map_atom_to_photon(relay_with((SQ2, SQ2)))
        psi = r.amplitudes.reshape([2] * 6)
        assert abs(psi[0, 0, 0, 0, 0, 0] - SQ2) < 1e-12
        assert abs(psi[0, 0, 0, 0, 1, 0] - SQ2) < 1e-12

    def test_norm_preserved(self):
        r = map_atom_to_photon(relay_with((0.6, 0.8j)))
        assert abs(np.linalg.norm(r.amplitudes) - 1.0) < 1e-12

    def test_occupied_photon_rejected(self):
        with pytest.raises(InvariantViolation, match="vacuum"):
            map_atom_to_photon(relay_with((1, 0), photon_amps=(0, 1)))

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
        psi = r.amplitudes.reshape([2] * 6)
        assert abs(abs(psi[0, 0, 0, 0, 0, 1]) - 1.0) < 1e-12

    def test_occupied_atom5_rejected(self):
        with pytest.raises(InvariantViolation, match="atom 5"):
            map_photon_to_atom5(relay_with((1, 0), atom5_amps=(0, 1)))

    def test_full_relay_is_logical_identity(self):
        r = relay_with((0.6, 0.8j))
        out = map_photon_to_atom5(map_atom_to_photon(r))
        psi = out.amplitudes.reshape([2] * 6)
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
        tested = decomposed_cnot()

        def sign_flipped():
            return [(name, Gate(g.matrix * [1, 1, 1, -1]) if name == "cphase" else g)
                    for name, g in tested]

        monkeypatch.setattr(cavity, "decomposed_cnot", sign_flipped)
        path = tmp_path / "bell.json"
        path.write_text('{"amplitudes": [[0, 0], [0.7071067811865476, 0], '
                        '[0.7071067811865476, 0], [0, 0]]}')
        assert main(["cavity", str(path)]) == 2
        assert "cavity vs ideal P_gggg" in capsys.readouterr().err

    @staticmethod
    def fault_after_relay(monkeypatch, gate, qubit):
        """Apply `gate` to `qubit` right after the photon-to-atom-5 map."""
        relay_step = cavity._photon_to_atom5

        def faulty(states):
            return statevec.apply_gate(relay_step(states), gate, (qubit,))

        monkeypatch.setattr(cavity, "_photon_to_atom5", faulty)

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
            psi6 = res.final_state.amplitudes.reshape([2] * 6)
            # atom 2 = g, photon = 0; logical qubits (1, 2, 3, 4) = atoms (1, 5, 3, 4)
            logical = psi6[:, 0, :, :, 0, :].transpose(0, 3, 1, 2).reshape(16)
            assert res.oracle_residual == np.max(np.abs(logical - expected))
            assert res.oracle_residual <= 1e-15
            assert not np.any(psi6[:, 1]) and not np.any(psi6[:, 0, :, :, 1])

    def test_matches_ideal_circuit(self):
        for psi in haar_states(200, seed=31):
            real = run_cavity_realization(psi)
            ideal = run_circuit(psi)
            assert abs(real.p_gggg - ideal.p_gggg) < 1e-10
            assert abs(real.p_egeg - ideal.p_egeg) < 1e-10


class TestFlightConfig:
    def test_invalid_speeds(self):
        with pytest.raises(ValueError, match="w > v"):
            FlightConfig(v=500, w=300, tau=1e-4, tau_prime=0,
                         x_C=0.2, x_D=0.6, L_C=0.02, L_D=0.02)

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            FlightConfig(v=300, w=500, tau=1e-4, tau_prime=0,
                         x_C=0.6, x_D=0.2, L_C=0.02, L_D=0.02)

    @pytest.mark.parametrize("L_C, L_D", [(0.0, 0.02), (0.02, -0.01)])
    def test_non_positive_mode_length_rejected(self, L_C, L_D):
        with pytest.raises(ValueError, match="mode lengths must be positive"):
            FlightConfig(v=300, w=500, tau=1e-4, tau_prime=0,
                         x_C=0.2, x_D=0.6, L_C=L_C, L_D=L_D)

    @pytest.mark.parametrize("tau, tau_prime", [(-1e-4, 0.0), (1e-4, -1e-9)])
    def test_negative_delay_rejected(self, tau, tau_prime):
        with pytest.raises(ValueError, match="delays must be non-negative"):
            FlightConfig(v=300, w=500, tau=tau, tau_prime=tau_prime,
                         x_C=0.2, x_D=0.6, L_C=0.02, L_D=0.02)

    def test_emission_schedule(self):
        cfg = FlightConfig(v=300, w=500, tau=1e-4, tau_prime=2e-4,
                           x_C=0.2, x_D=0.6, L_C=0.02, L_D=0.02)
        assert cfg.emission_times == pytest.approx(
            {1: 0.0, 2: 1e-4, 3: 3e-4, 4: 4e-4})

    def test_schedule_computed_once(self):
        cfg = FlightConfig(v=300, w=500, tau=1e-4, tau_prime=2e-4,
                           x_C=0.2, x_D=0.6, L_C=0.02, L_D=0.02)
        assert cfg.emission_times is cfg.emission_times
        assert cfg.speeds is cfg.speeds
        assert cfg.speeds == {1: 300, 2: 500, 3: 300, 4: 500}

    def test_solved_config_survives_copy_and_pickle(self):
        cfg = solve_delays(300, 500, 0.2, 0.6, 0.02, 0.02).config  # schedule cached
        assert copy.deepcopy(cfg) == cfg
        assert pickle.loads(pickle.dumps(cfg)).emission_times == cfg.emission_times


class TestKinematicsReport:
    def test_crossing_at_cavity_center(self):
        tau = 0.2 * (1 / 300 - 1 / 500)
        cfg = FlightConfig(v=300, w=500, tau=tau, tau_prime=0.0,
                           x_C=0.2, x_D=0.6, L_C=0.02, L_D=0.02)
        report = kinematics_report(cfg)
        assert abs(report.pair12_cross_position - 0.2) < 1e-12
        assert abs(report.pair34_cross_position - 0.2) < 1e-12

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
        cfg = FlightConfig(v=280, w=450, tau=2e-4, tau_prime=5e-5,
                           x_C=0.25, x_D=0.7, L_C=0.03, L_D=0.03)
        report = kinematics_report(cfg)
        assert report.pair12_cross_position == report.pair34_cross_position

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


class TestSolveDelays:
    def test_closed_form_tau(self):
        sol = solve_delays(300, 500, 0.2, 0.6, 0.02, 0.02)
        assert sol.feasible
        assert abs(sol.config.tau - 0.2 * (1 / 300 - 1 / 500)) < 1e-12
        assert abs(sol.config.tau - 2.6667e-4) < 1e-8

    def test_round_trip_feasible(self):
        sol = solve_delays(300, 500, 0.2, 0.6, 0.02, 0.02)
        report = kinematics_report(sol.config)
        assert report.feasible
        assert report.order_before_C == (4, 3, 2, 1)
        assert report.order_after_C == (3, 4, 1, 2)
        assert report.order_at_D == (3, 1, 4, 2)

    def test_bracket_doubled_when_it_rounds_below_the_midpoint(self):
        # x_C is below one ulp of the midpoint, so the first bracket, which
        # is exact in real numbers, rounds to a swap just short of it
        sol = solve_delays(244.0, 851.0, 1e-22, 1.7, 0.02, 0.02)
        assert sol.feasible
        x_mid = ((1e-22 + 0.01) + (1.7 - 0.01)) / 2.0
        assert abs(sol.report.swap14_position - x_mid) <= cavity.BISECTION_TOL

    @pytest.mark.parametrize("v", [5e-324, 1e-320])
    def test_speed_whose_inverse_overflows_is_infeasible(self, v):
        # 1/v is inf, so tau is; at 5e-324, v * w also underflows to 0
        sol = solve_delays(v, 0.5, 1.0, 2.0, 1.0, 1.0)
        assert not sol.feasible
        assert math.isinf(sol.config.tau) and sol.config.tau_prime == 0.0
        assert sol.binding_constraint == sol.report.violations[0]

    def test_degenerate_speed_gap(self):
        sol = solve_delays(300, 300 + 1e-7, 0.2, 0.6, 0.02, 0.02)
        assert not sol.feasible
        assert sol.binding_constraint == "speed_gap"

    def test_w_below_v_infeasible(self):
        sol = solve_delays(500, 300, 0.2, 0.6, 0.02, 0.02)
        assert not sol.feasible

    def test_varied_geometries_round_trip(self):
        for v, w, xc, xd in [(250, 400, 0.15, 0.5), (300, 500, 0.2, 0.6),
                             (320, 600, 0.3, 0.9), (200, 350, 0.1, 0.45)]:
            sol = solve_delays(v, w, xc, xd, 0.02, 0.02)
            if sol.feasible:
                assert kinematics_report(sol.config).feasible
