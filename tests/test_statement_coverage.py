"""The statement recorder of tests/statement_coverage.py, on a module
of its own: it must report a statement that never ran, and only that."""
import importlib.util
import os

from statement_coverage import LineRecorder, statements

TOY = '''\
import functools
import math


@functools.cache
def sign(x):
    """A docstring is no statement."""
    if x >= 0:
        return 1
    elif math.isnan(x):
        raise ValueError("NaN")
    return -1


class Pair:
    first = sign(
        2.0)
'''


def run_toy(tmp_path, *args):
    path = tmp_path / "toy.py"
    path.write_text(TOY)
    recorder = LineRecorder(str(tmp_path) + os.sep)
    recorder.start()
    try:
        spec = importlib.util.spec_from_file_location("toy", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        for x in args:
            try:
                module.sign(x)
            except ValueError:
                pass
    finally:
        recorder.stop()
    return recorder.missed(str(path))


def test_statements_are_headers_and_simple_statements(tmp_path):
    path = tmp_path / "toy.py"
    path.write_text(TOY)
    found = statements(str(path))
    assert sorted(found) == [1, 2, 5, 8, 9, 10, 11, 12, 15, 16]
    assert found[5] == (range(5, 7), "def sign(x):")  # decorator included
    assert found[16] == (range(16, 18), "first = sign(")


def test_unrun_statements_reported(tmp_path):
    assert run_toy(tmp_path) == [(10, 'elif math.isnan(x):'), (11, 'raise ValueError("NaN")'),
                                 (12, "return -1")]
    assert run_toy(tmp_path, -1.0) == [(11, 'raise ValueError("NaN")')]
    assert run_toy(tmp_path, -1.0, float("nan")) == []
