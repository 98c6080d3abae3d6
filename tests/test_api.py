"""The package's public names: `concmeter.__all__` is pinned, so a name
added or removed is a deliberate change to this list. Also pinned: the
one function of the package that builds an InvariantViolation, and that
every gate plan and marginal index is resolved at import."""
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
    "InvariantViolation",
}


def test_all_is_pinned():
    assert len(concmeter.__all__) == len(PUBLIC) == 19
    assert set(concmeter.__all__) == PUBLIC


def test_every_name_resolves():
    for name in concmeter.__all__:
        obj = getattr(concmeter, name)
        assert obj.__module__.startswith("concmeter."), name


def call_sites(tree: ast.AST, name: str, where: str = "<module>"):
    """The innermost enclosing function of every `name(...)` call, as a
    bare or an attribute name, or bare `raise name`, in a syntax tree;
    "<module>" for one that runs at import."""
    if isinstance(tree, (ast.FunctionDef, ast.AsyncFunctionDef)):
        where = tree.name
    elif isinstance(tree, ast.Lambda):
        where = "<lambda>"
    target = tree.func if isinstance(tree, ast.Call) else getattr(tree, "exc", None)
    if isinstance(tree, (ast.Call, ast.Raise)) and name in (
            getattr(target, "id", None), getattr(target, "attr", None)):
        yield where
    for child in ast.iter_child_nodes(tree):
        yield from call_sites(child, name, where)


def package_call_sites(name: str) -> list[tuple[str, str]]:
    """(file, enclosing function) of every call of `name` in the package."""
    package = pathlib.Path(concmeter.__file__).parent
    return [(path.name, where) for path in sorted(package.glob("*.py"))
            for where in call_sites(ast.parse(path.read_text(), str(path)), name)]


def test_one_function_constructs_invariant_violation():
    # every runtime check raises through one helper: the one place to
    # switch a check off in a mutation run, or to read its value and margin
    assert set(package_call_sites("InvariantViolation")) == {("statevec.py", "_check_invariant")}


def test_plans_resolved_only_at_import():
    # no plan is cached, so a resolve that crept into a function would
    # run on every call of it, and no other test would see it
    sites = package_call_sites("_gate_plan") + package_call_sites("_marginal_plan")
    assert {path for path, _ in sites} == {"protocol.py", "cavity.py"}
    assert all(where == "<module>" for _, where in sites), sites


def test_every_process_cache_is_emptied_between_tests(process_caches):
    # conftest.py finds the caches by scanning the module globals and
    # empties each before every test; a cache added later joins this list
    # on purpose, so a value kept from an earlier test never hides a fault
    assert sorted(process_caches) == [
        "concmeter.cli._parsed_state",
        "concmeter.cli._shared_parser",
        "concmeter.estimation._born_distribution",
        "concmeter.estimation._readout_table",
        "concmeter.protocol._circuit_result",
    ]
