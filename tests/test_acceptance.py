"""Acceptance suite: one test per exit criterion, each printing a
pass/fail line. Run with `pytest tests/test_acceptance.py -v -s`."""
import math
import time

import numpy as np
import pytest

from concmeter.cavity import kinematics_report, run_cavity_realization, solve_delays
from concmeter.concurrence import PureState, concurrence_pure, concurrence_wootters
from concmeter.estimation import ReadoutModel, simulate_shots
from concmeter.gates import cnot
from concmeter.protocol import analytic_phi1_batch, run_circuit
from oracles import composed_cnot_matrix

SQ2 = 1.0 / math.sqrt(2.0)


def haar_states(n, seed):
    rng = np.random.default_rng(seed)
    return [PureState.haar_random(rng) for _ in range(n)]


def report(criterion, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


def test_criterion_1_protocol_identity():
    start = time.perf_counter()
    worst = 0.0
    for psi in haar_states(1000, seed=101):
        res = run_circuit(psi)
        worst = max(worst, abs(res.concurrence_measured - concurrence_pure(psi)))
    elapsed = time.perf_counter() - start
    report(
        "criterion 1 (protocol identity, 1000 states)",
        worst < 1e-10 and elapsed < 5.0,
        f"max deviation {worst:.3e} (< 1e-10), runtime {elapsed:.2f}s (< 5s)",
    )


def test_criterion_2_amplitude_table_oracle():
    worst = 0.0
    for psi in haar_states(1000, seed=102):
        res = run_circuit(psi)
        oracle = analytic_phi1_batch(psi.amplitudes[None])[0]
        worst = max(worst, float(np.max(np.abs(res.final_state - oracle))))
    report(
        "criterion 2 (phase-strict amplitude-table match, 1000 states)",
        worst < 1e-12,
        f"max amplitude deviation {worst:.3e} (< 1e-12)",
    )


def test_criterion_3_point_checks():
    bell = run_circuit(PureState(0, SQ2, SQ2, 0))
    flat = run_circuit(PureState(0.5, 0.5, 0.5, 0.5))
    ok = (abs(bell.p_gggg - 0.125) < 1e-12
          and abs(bell.concurrence_measured - 1.0) < 1e-12
          and flat.p_gggg < 1e-24)
    report(
        "criterion 3 (Bell and factorized point checks)",
        ok,
        f"Bell P_gggg={bell.p_gggg!r}, C={bell.concurrence_measured!r}; "
        f"flat P_gggg={flat.p_gggg:.3e} (< 1e-24)",
    )


def test_criterion_4_egeg_variant():
    worst = 0.0
    for psi in haar_states(1000, seed=104):
        res = run_circuit(psi)
        worst = max(worst, abs(res.p_gggg - res.p_egeg))
    report(
        "criterion 4 (P_gggg == P_egeg, 1000 states)",
        worst < 1e-12,
        f"max |P_gggg - P_egeg| = {worst:.3e} (< 1e-12)",
    )


def test_criterion_5_wootters_oracle():
    worst = 0.0
    for psi in haar_states(1000, seed=105):
        worst = max(worst, abs(concurrence_wootters(psi.density_matrix())
                               - concurrence_pure(psi)))
    mixed = concurrence_wootters(np.eye(4) / 4.0)
    report(
        "criterion 5 (Wootters oracle agreement, 1000 states)",
        worst < 1e-8 and mixed == 0.0,
        f"max pure/mixed-formula gap {worst:.3e} (< 1e-8); "
        f"maximally mixed -> {mixed!r} (== 0)",
    )


def test_criterion_6_cavity_equivalence():
    gate_diff = float(np.max(np.abs(composed_cnot_matrix() - cnot().matrix)))
    worst = 0.0
    for psi in haar_states(200, seed=106):
        worst = max(worst, abs(run_cavity_realization(psi).p_gggg
                               - run_circuit(psi).p_gggg))
    report(
        "criterion 6 (decomposed CNOT + cavity realization, 200 states)",
        gate_diff < 1e-12 and worst < 1e-10,
        f"CNOT decomposition deviation {gate_diff:.3e} (< 1e-12); "
        f"max cavity-vs-ideal P_gggg gap {worst:.3e} (< 1e-10)",
    )


def test_criterion_7_kinematics():
    sol = solve_delays(300, 500, 0.2, 0.6, 0.02, 0.02)
    tau_expected = 0.2 * (1 / 300 - 1 / 500)
    rpt = kinematics_report(sol.config) if sol.config else None
    orders_ok = (rpt is not None
                 and rpt.order_before_C == (4, 3, 2, 1)
                 and rpt.order_after_C == (3, 4, 1, 2)
                 and rpt.order_at_D == (3, 1, 4, 2)
                 and rpt.feasible)
    degenerate = solve_delays(500, 300, 0.2, 0.6, 0.02, 0.02)
    ok = (sol.feasible
          and abs(sol.config.tau - tau_expected) < 1e-12
          and abs(sol.config.tau - 2.6667e-4) < 1e-8
          and orders_ok
          and not degenerate.feasible)
    report(
        "criterion 7 (kinematics solver + checker round trip)",
        ok,
        f"tau = {sol.config.tau!r} s (expected 2.6667e-4); orderings "
        f"{rpt.order_before_C} -> {rpt.order_after_C} -> {rpt.order_at_D}; "
        f"w<=v rejected: {not degenerate.feasible}",
    )


def test_criterion_8_shot_statistics():
    bell = PureState(0, SQ2, SQ2, 0)
    ideal = ReadoutModel()
    bound = 5 * math.sqrt(0.125 * 0.875 / 10**6)  # ~1.65e-3
    deviations = [abs(simulate_shots(bell, 10**6, ideal, seed=s).p_hat - 0.125)
                  for s in range(20)]
    within = all(d < bound for d in deviations)

    # coverage of the 95% interval on the no-fluorescence probability;
    # C = 1 itself sits at the clamp boundary where the mapped interval
    # degenerates to one-sided, so coverage is assessed on p = 1/8
    from concmeter.estimation import wilson_interval

    covered = 0
    reps = 1000
    for s in range(reps):
        summary = simulate_shots(bell, 10**4, ideal, seed=5000 + s)
        lo, hi = wilson_interval(summary.n_no_fluorescence, 10**4)
        if lo <= 0.125 <= hi:
            covered += 1
    coverage = covered / reps
    report(
        "criterion 8 (shot statistics: 5-sigma bound and interval coverage)",
        within and 0.93 <= coverage <= 0.97,
        f"max |p_hat - 0.125| = {max(deviations):.3e} (< {bound:.3e}) over 20 "
        f"seeds at n=1e6; coverage {coverage:.3f} in [0.93, 0.97] at n=1e4",
    )
