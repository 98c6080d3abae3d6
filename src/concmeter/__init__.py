"""Direct measurement of two-qubit concurrence from two state copies:
state-vector simulation of the four-qubit circuit, analytic oracles,
the cavity realization with flight kinematics, and shot statistics."""

from .concurrence import PureState, concurrence_pure, concurrence_wootters, spin_flip
from .estimation import ReadoutModel, ShotSummary, confidence_interval, simulate_shots
from .protocol import (
    BatchResult,
    Phi1Coefficients,
    ProtocolResult,
    analytic_phi1,
    analytic_phi1_batch,
    extract_concurrence,
    prepare_input,
    run_batch,
    run_circuit,
    verify_egeg_variant,
)
from .cavity import (
    DelaySolution,
    FlightConfig,
    OrderingReport,
    kinematics_report,
    run_cavity_realization,
    solve_delays,
)
from .statevec import (
    Gate1Q,
    Gate2Q,
    InvariantViolation,
    Register,
    apply_1q,
    apply_2q,
    apply_gate,
    basis_probability,
    from_amplitudes,
    ground_register,
    overlap_fidelity,
    sample_outcomes,
    tensor,
)

__all__ = [
    "PureState", "concurrence_pure", "concurrence_wootters", "spin_flip",
    "ReadoutModel", "ShotSummary", "confidence_interval", "simulate_shots",
    "BatchResult", "Phi1Coefficients", "ProtocolResult", "analytic_phi1",
    "analytic_phi1_batch", "extract_concurrence", "prepare_input", "run_batch",
    "run_circuit", "verify_egeg_variant",
    "DelaySolution", "FlightConfig", "OrderingReport",
    "kinematics_report", "run_cavity_realization", "solve_delays",
    "Gate1Q", "Gate2Q", "InvariantViolation", "Register",
    "apply_1q", "apply_2q", "apply_gate", "basis_probability", "from_amplitudes",
    "ground_register", "overlap_fidelity", "sample_outcomes", "tensor",
]

__version__ = "0.1.0"
