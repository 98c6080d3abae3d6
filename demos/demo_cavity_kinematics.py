"""The microwave-cavity version of the protocol.

Two things are demonstrated: (1) the CNOT realized as R-(target),
CPHASE through a cavity photon, R+(target), with the atom-2 qubit
relayed via the photon into a fresh atom 5, reproduces the ideal
circuit exactly; (2) the atom flight plan (slow atoms 1 and 3 at v,
fast atoms 2 and 4 at w) can be timed so each pair crosses inside
cavity C and atom 4 overtakes atom 1 between the cavities.
"""
import math

import numpy as np

from concmeter import (PureState, kinematics_report, run_circuit, run_cavity_realization,
                       solve_delays)

SQ2 = 1.0 / math.sqrt(2.0)

print("--- gate-level equivalence ---")
rng = np.random.default_rng(7)
worst = 0.0
for _ in range(100):
    psi = PureState.haar_random(rng)
    worst = max(worst, abs(run_cavity_realization(psi).p_gggg
                           - run_circuit(psi).p_gggg))
print(f"max |P_all_ground(cavity) - P_gggg(ideal)| over 100 states: {worst:.2e}")

bell = PureState(0, SQ2, SQ2, 0)
print(f"Bell state through the cavity sequence: "
      f"P = {run_cavity_realization(bell).p_gggg:.6f} (expect 0.125)")

print()
print("--- flight kinematics ---")
cfg = solve_delays(v=300.0, w=500.0, x_C=0.2, x_D=0.6, L_C=0.02, L_D=0.02)
rpt = kinematics_report(cfg)
print(f"intra-pair delay tau       = {cfg.tau * 1e6:.2f} us")
print(f"inter-pair delay tau_prime = {cfg.tau_prime * 1e6:.2f} us")
print(f"pairs cross at x = {rpt.pair12_cross_position:.4f} m (cavity C center 0.2 m)")
print(f"atom 4 passes atom 1 at x = {rpt.swap14_position:.4f} m (between cavities)")
print(f"order before C: {rpt.order_before_C}")
print(f"order after C:  {rpt.order_after_C}")
print(f"order at D:     {rpt.order_at_D}")
print(f"feasible: {rpt.feasible}")

print()
print("A too-short gap between cavities leaves no room for the atom-1/4 swap:")
bad = kinematics_report(solve_delays(v=300.0, w=500.0, x_C=0.3, x_D=0.5, L_C=0.02, L_D=0.02))
print(f"feasible: {bad.feasible}, binding constraint: {bad.violations[0]}")
