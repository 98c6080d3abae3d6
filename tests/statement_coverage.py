"""Statement coverage of src/concmeter under the test suite, with the
standard library alone (no coverage package is needed).

    PYTHONPATH=src python tests/statement_coverage.py

Runs pytest on tests/ in this process under a `sys.settrace` line
recorder and exits 1 when a statement of src/concmeter never runs,
apart from those in EXCLUDED, or when the tests fail. Both branches of
every `if` are statements of their own, so the gather and the matrix
product of `statevec.apply_gate` must each run. Tracing slows the tests
several times, so this is a CI step of its own, not part of tier-1.
"""
from __future__ import annotations

import ast
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "concmeter")

# (file, first line of the statement's source): statements that no test
# can run, each with its reason
EXCLUDED = {
    # the module run as a script; tests call cli.main directly
    ("cli.py", "raise SystemExit(main())"),
}


def statements(path: str) -> dict[int, tuple[range, str]]:
    """The statements of a source file, by first line: the lines a run of
    each can report, and its first line of source. A compound statement
    (if, for, def, class, ...) reports its header, decorators included;
    a try statement has no header of its own to run, and a docstring is
    no statement."""
    with open(path) as fh:
        source = fh.read()
    text = source.splitlines()
    found = {}
    for node in ast.walk(ast.parse(source, path)):
        if not isinstance(node, ast.stmt) or isinstance(node, (ast.Try, ast.Global,
                                                               ast.Nonlocal)):
            continue
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        last = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
        found[first] = (range(first, last + 1), text[node.lineno - 1].strip())
    return found


class LineRecorder:
    """Records every line run in files under `prefix` between start() and
    stop(), with sys.settrace."""

    def __init__(self, prefix: str):
        self.prefix = prefix
        self.lines: dict[str, set[int]] = {}
        self._previous = None

    def _trace(self, frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(self.prefix):
            return None
        lines = self.lines.setdefault(path, set())
        lines.add(frame.f_lineno)

        def local(frame, event, arg):
            lines.add(frame.f_lineno)
            return local
        return local

    def start(self) -> None:
        self._previous = sys.gettrace()
        sys.settrace(self._trace)

    def stop(self) -> None:
        """Stop recording and restore the tracer that ran before, if any."""
        sys.settrace(self._previous)

    def missed(self, path: str) -> list[tuple[int, str]]:
        """(first line, source) of each statement of `path` that never ran."""
        ran = self.lines.get(path, set())
        return [(first, text) for first, (lines, text) in sorted(statements(path).items())
                if ran.isdisjoint(lines)]


def main() -> int:
    import pytest
    from hypothesis import settings

    # tracing slows every example, so no deadline; and the same examples on
    # every run, so that what runs does not depend on the draw
    settings.register_profile("statement-coverage", deadline=None, derandomize=True,
                              database=None)
    settings.load_profile("statement-coverage")
    recorder = LineRecorder(PACKAGE + os.sep)
    recorder.start()
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider",
                              "-W", "ignore::pytest.PytestAssertRewriteWarning",
                              os.path.join(ROOT, "tests")])
    finally:
        recorder.stop()
    files = sorted(name for name in os.listdir(PACKAGE) if name.endswith(".py"))
    total = missed = excluded = 0
    for name in files:
        path = os.path.join(PACKAGE, name)
        total += len(statements(path))
        for first, text in recorder.missed(path):
            if (name, text) in EXCLUDED:
                excluded += 1
            else:
                missed += 1
                print(f"never run: src/concmeter/{name}:{first}: {text}")
    print(f"statement coverage: {total - missed - excluded} of {total} statements run, "
          f"{excluded} excluded, {missed} never run")
    if status != 0:
        print(f"the tests failed (pytest exit {int(status)})")
        return 1
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
