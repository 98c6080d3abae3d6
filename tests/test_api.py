"""The package's public names: `concmeter.__all__` is pinned, so a name
added or removed is a deliberate change to this list."""
import concmeter

PUBLIC = {
    "PureState", "concurrence_pure", "concurrence_wootters",
    "ReadoutModel", "ShotSummary", "confidence_interval", "simulate_shots",
    "BatchResult", "ProtocolResult", "analytic_phi1_batch", "extract_concurrence",
    "run_batch", "run_circuit",
    "DelaySolution", "FlightConfig", "OrderingReport",
    "kinematics_report", "run_cavity_realization", "solve_delays",
    "Gate", "InvariantViolation", "apply_gate",
}


def test_all_is_pinned():
    assert len(concmeter.__all__) == len(PUBLIC) == 22
    assert set(concmeter.__all__) == PUBLIC


def test_every_name_resolves():
    for name in concmeter.__all__:
        obj = getattr(concmeter, name)
        assert obj.__module__.startswith("concmeter."), name
