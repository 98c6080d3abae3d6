"""CLI output pinned byte for byte: exit code, stdout and stderr of `run`,
`cavity`, `shots` and `cavity --kinematics` on fixed state files and
arguments (tests/cli_golden.json). A refactor must leave every byte as
it is; a change that means to alter output updates the file with it."""
import json
import pathlib

import pytest

from concmeter.cli import main

GOLDEN = json.loads((pathlib.Path(__file__).with_name("cli_golden.json")).read_text())


def _case_id(case):
    return " ".join([case["state"] or "-", *(a for a in case["argv"] if a != "{state}")])


@pytest.mark.parametrize("case", GOLDEN["cases"], ids=_case_id)
def test_output_unchanged(case, tmp_path, capsys):
    argv = case["argv"]
    if case["state"] is not None:
        path = tmp_path / "state.json"
        path.write_text(json.dumps(GOLDEN["states"][case["state"]]))
        argv = [str(path) if a == "{state}" else a for a in argv]
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (case["exit"], case["stdout"], case["stderr"])


@pytest.mark.parametrize("case", [c for c in GOLDEN["cases"] if c["argv"][0] == "shots"],
                         ids=_case_id)
def test_shots_twice_in_one_process(case, tmp_path, capsys):
    # the second run finds its circuit result kept by the first
    path = tmp_path / "state.json"
    path.write_text(json.dumps(GOLDEN["states"][case["state"]]))
    argv = [str(path) if a == "{state}" else a for a in case["argv"]]
    for _ in range(2):
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (case["exit"], case["stdout"],
                                                      case["stderr"])
