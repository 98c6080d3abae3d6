"""Direct measurement of two-qubit concurrence from two state copies:
state-vector simulation of the four-qubit circuit, analytic oracles,
the cavity realization with flight kinematics, and shot statistics."""

from .concurrence import PureState, concurrence_pure, concurrence_wootters
from .estimation import ReadoutModel, ShotSummary, confidence_interval, simulate_shots
from .protocol import (
    BatchResult,
    ProtocolResult,
    analytic_phi1_batch,
    extract_concurrence,
    run_batch,
    run_circuit,
)
from .cavity import (
    FlightConfig,
    OrderingReport,
    kinematics_report,
    run_cavity_realization,
    solve_delays,
)
from .statevec import InvariantViolation

__all__ = [
    "PureState", "concurrence_pure", "concurrence_wootters",
    "ReadoutModel", "ShotSummary", "confidence_interval", "simulate_shots",
    "BatchResult", "ProtocolResult", "analytic_phi1_batch", "extract_concurrence",
    "run_batch", "run_circuit",
    "FlightConfig", "OrderingReport",
    "kinematics_report", "run_cavity_realization", "solve_delays",
    "InvariantViolation",
]

__version__ = "0.1.0"
