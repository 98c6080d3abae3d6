"""The package's public names: `concmeter.__all__` is pinned, so a name
added or removed is a deliberate change to this list. Also pinned: the
one function of the package that builds an InvariantViolation."""
import ast
import pathlib

import concmeter

PUBLIC = {
    "PureState", "concurrence_pure", "concurrence_wootters",
    "ReadoutModel", "ShotSummary", "confidence_interval", "simulate_shots",
    "BatchResult", "ProtocolResult", "analytic_phi1_batch", "extract_concurrence",
    "run_batch", "run_circuit",
    "FlightConfig", "OrderingReport",
    "kinematics_report", "run_cavity_realization", "solve_delays",
    "Gate", "InvariantViolation", "apply_gate",
}


def test_all_is_pinned():
    assert len(concmeter.__all__) == len(PUBLIC) == 21
    assert set(concmeter.__all__) == PUBLIC


def test_every_name_resolves():
    for name in concmeter.__all__:
        obj = getattr(concmeter, name)
        assert obj.__module__.startswith("concmeter."), name


def invariant_violation_sites(tree: ast.AST, where: str = "<module>"):
    """The innermost enclosing function of every `InvariantViolation(...)`
    call, or bare `raise InvariantViolation`, in a syntax tree."""
    if isinstance(tree, (ast.FunctionDef, ast.AsyncFunctionDef)):
        where = tree.name
    target = tree.func if isinstance(tree, ast.Call) else getattr(tree, "exc", None)
    if isinstance(tree, (ast.Call, ast.Raise)) and "InvariantViolation" in (
            getattr(target, "id", None), getattr(target, "attr", None)):
        yield where
    for child in ast.iter_child_nodes(tree):
        yield from invariant_violation_sites(child, where)


def test_one_function_constructs_invariant_violation():
    # every runtime check raises through one helper: the one place to
    # switch a check off in a mutation run, or to read its value and margin
    package = pathlib.Path(concmeter.__file__).parent
    sites = {(path.name, where) for path in sorted(package.glob("*.py"))
             for where in invariant_violation_sites(ast.parse(path.read_text(), str(path)))}
    assert sites == {("statevec.py", "_check_invariant")}
