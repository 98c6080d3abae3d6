"""The CLI's input boundary and process-level behaviour: the shared
argument parser, kinematics input that once hung or crashed, state
files with booleans or extreme magnitudes, and the sweep's row stream."""
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import signal
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from concmeter import cli
from concmeter.cli import build_parser, main
from concmeter.concurrence import PureState
from concmeter.protocol import run_circuit

SQ2 = 1.0 / math.sqrt(2.0)
TIME_BOUND_S = 5.0
KINEMATICS = ["cavity", "--kinematics", "--v", "300", "--w", "500",
              "--xc", "0.2", "--xd", "0.6"]
BELL_TEXT = ('{"amplitudes": [[0, 0], [0.7071067811865476, 0], '
             '[0.7071067811865476, 0], [0, 0]]}')


class Overran(Exception):
    pass


def _alarm(signum, frame):
    raise Overran(f"call overran {TIME_BOUND_S} s")


@contextlib.contextmanager
def bounded():
    """Fail, instead of hanging, when the body runs past TIME_BOUND_S."""
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, TIME_BOUND_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def write_doc(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


class TestSharedParser:
    def test_built_once(self):
        assert cli._shared_parser() is cli._shared_parser()

    def test_no_value_or_default_leaks_between_calls(self, tmp_path, capsys):
        bell = write_doc(tmp_path / "bell.json",
                         {"amplitudes": [[0, 0], [SQ2, 0], [SQ2, 0], [0, 0]]})
        sequence = [
            KINEMATICS + ["--lc", "0.01"],
            ["shots", bell, "--shots", "500", "--seed", "9", "--p-dark", "0.3"],
            ["sweep", "3", "--out", str(tmp_path / "a.csv")],
            ["shots", bell],
            KINEMATICS,
            ["sweep", "3", "--seed", "4", "--out", str(tmp_path / "b.csv")],
            ["sweep", "3", "--out", str(tmp_path / "c.csv")],
        ]
        shared = cli._shared_parser()
        for argv in sequence:
            fresh = vars(build_parser().parse_args(argv))
            assert vars(shared.parse_args(argv)) == fresh, argv
            capsys.readouterr()
            assert main(argv) == 0, argv
            in_process = capsys.readouterr().out
            args = build_parser().parse_args(argv)
            args.func(args)
            assert capsys.readouterr().out == in_process, argv
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "c.csv").read_bytes()


def _nested_parse(argv):
    """argparse's own two-pass parse: the top-level parser, then the command's."""
    return build_parser().parse_args(argv)


def _outcome(argv, capsys):
    """Exit code, stdout and stderr of main(argv); help exits through SystemExit."""
    capsys.readouterr()
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSingleParse:
    """main() reads a plain line with its command's `read_plain` and hands
    every other line to argparse's nested parse; it must read every command
    line as argparse's nested parse does: the same namespace, or the same
    exit code, stdout and stderr."""

    ARGVS = [
        ["run", "{bell}"], ["run", "--normalize", "{bell}"], ["run", "{bell}", "--normalize"],
        ["sweep", "3", "--seed", "4", "--out", "{out}"], ["sweep", "2", "--out={out}"],
        ["shots", "{bell}", "--shots", "500", "--seed", "9", "--p-dark", "0.1",
         "--p-bright-false", "0.02", "--normalize"],
        ["shots", "{bell}", "--p-dark=0.1", "--shots", "10", "--shots", "20"],
        ["cavity", "{bell}"], ["cavity", "{bell}", "--normalize"],
        KINEMATICS + ["--lc", "0.01", "--ld", "0.03"], ["cavity", "--kinematics"],
        ["cavity", "--kinematics", "--v", "300", "--w", "500"],
        ["cavity", "--kinematics", "--v"], ["cavity"],
        # help at both levels, and no arguments
        [], ["-h"], ["--help"], ["-h", "run"], ["run", "-h"], ["sweep", "-h"],
        ["shots", "-h"], ["cavity", "--help"], ["run", "{bell}", "-h"], ["shots", "{bell}", "--he"],
        # unknown commands and options, abbreviations
        ["shot", "{bell}"], ["--bogus"], ["shots", "{bell}", "--bogus"],
        ["shots", "{bell}", "--sho", "500"], ["shots", "{bell}", "--s", "5"],
        # '--' before and after the command
        ["--", "run", "{bell}"], ["run", "--", "{bell}"], ["shots", "--", "{bell}", "--shots", "5"],
        # extra tokens, missing values, wrong types, out-of-range seeds
        ["run", "{bell}", "extra"], ["run", "{bell}", "extra", "more"], ["run"], ["sweep", "3"],
        ["sweep", "x", "--out", "{out}"], ["shots", "{bell}", "--shots", "1e3"],
        ["shots", "{bell}", "--seed", "-1"], ["sweep", "2", "--seed", "-1", "--out", "{out}"],
        ["cavity", "--kinematics", "--v", "300", "--xc", "-inf"],
        # plain lines without the optional positional and with options after
        # it; a value that fails its conversion; a repeated flag
        ["cavity", "--normalize"], ["cavity", "{bell}", *KINEMATICS[1:]],
        ["sweep", "3", "--out", "{out}", "--seed", "4"], ["shots", "{bell}", "--shots", ""],
        ["run", "{bell}", "--normalize", "--normalize"],
    ]

    @pytest.mark.parametrize("template", ARGVS, ids=" ".join)
    def test_same_as_nested_parse(self, template, tmp_path, capsys, monkeypatch):
        bell = write_doc(tmp_path / "bell.json",
                         {"amplitudes": [[0, 0], [SQ2, 0], [SQ2, 0], [0, 0]]})
        argv = [t.format(bell=bell, out=tmp_path / "out.csv") for t in template]
        try:
            expected = vars(_nested_parse(argv))
        except (ValueError, SystemExit):
            expected = None
        if expected is not None:
            assert vars(cli._parse(argv)) == expected
        once = _outcome(argv, capsys)
        monkeypatch.setattr(cli, "_parse", _nested_parse)
        assert once == _outcome(argv, capsys)

    def test_argv_none_reads_sys_argv(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("sys.argv", ["concmeter", "shots", "nonexistent.json", "--bogus"])
        code, out, err = _outcome(None, capsys)
        assert (code, out) == (1, "")
        assert err.startswith("usage: concmeter [-h] {run,sweep,shots,cavity} ...\n")
        assert err.endswith("error: concmeter: unrecognized arguments: --bogus\n")


def _parse_outcome(parse, argv):
    """The namespace parse(argv) returns, or how it fails, with its output.
    The namespace is compared by the repr of its sorted items, so that a
    NaN value (two float("nan") objects are never equal) equals itself."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = repr(sorted(vars(parse(argv)).items()))
        except ValueError as exc:
            result = ("input error", str(exc))
        except SystemExit as exc:
            result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


COMMANDS = cli._shared_parser().commands
VALUES = st.one_of(
    st.sampled_from(["", "-1", "-2.5", "-inf", "-1e-05", "-x", "inf", "nan", "1e3", "0",
                     "7", "0.25", "bell.json", "out dir/s.csv", "x"]),
    st.integers(-10, 10**20).map(str),
    st.floats().map(repr),
)


def _typed_value(action):
    """A token that converts by the action's type."""
    typed = {int: st.integers(0, 10**6).map(str), float: st.floats(min_value=0.0).map(repr)}
    return typed.get(action.type, st.just("state.json"))


@st.composite
def _command_lines(draw):
    """A command line from its command's vocabulary: a plain line, the
    same with one token inserted, replaced, negated or moved or a pair
    repeated, or any sequence of option names (help included),
    abbreviations, "--opt=value" forms, "--" and values."""
    name = draw(st.sampled_from(sorted(COMMANDS)))
    arguments = COMMANDS[name].arguments
    names = [s for a in arguments for s in a.option_strings]
    longs = [s for s in names if s.startswith("--")]
    token = st.one_of(
        VALUES,
        st.sampled_from(names + ["--"]),
        st.sampled_from([s[:k] for s in longs for k in range(3, len(s))]),
        st.tuples(st.sampled_from(longs), VALUES).map("=".join),
    )
    edit = draw(st.sampled_from(["none", "insert", "replace", "negate", "move", "repeat",
                                 "any"]))
    if edit == "any":
        return [name, *draw(st.lists(token, max_size=8))]
    line = [draw(_typed_value(a)) for a in arguments
            if not a.option_strings and (a.required or draw(st.booleans()))]
    options = [a for a in arguments if a.option_strings and "-h" not in a.option_strings]
    for action in draw(st.lists(st.sampled_from(options), unique=True)):
        line.append(action.option_strings[0])
        if action.nargs != 0:
            line.append(draw(_typed_value(action)))
    k = draw(st.integers(0, len(line)))
    if edit == "insert":
        line.insert(k, draw(token))
    elif edit == "replace":
        line[k:k + 1] = [draw(st.one_of(VALUES, token))]
    elif edit == "negate":  # "-1e-05" or "-inf" is an option to argparse, "-1.5" is not
        line[k:k + 1] = ["-" + t for t in line[k:k + 1]]
    elif edit == "move":
        moved = line[k:k + 1]
        del line[k:k + 1]
        j = draw(st.integers(0, len(line)))
        line[j:j] = moved
    elif edit == "repeat":
        line += line[k:k + 2]
    return [name, *line]


class TestPlainReader:
    """The direct reader of plain lines must read every line as argparse's
    nested parse does, and must be what reads the lines the benchmark sends."""

    @given(_command_lines())
    @settings(max_examples=400, deadline=None)
    def test_same_as_nested_parse(self, argv):
        assert _parse_outcome(cli._parse, argv) == _parse_outcome(_nested_parse, argv)

    @pytest.mark.parametrize("argv", [
        ["sweep", "10", "--seed", "716281737312", "--out", "/tmp/bench/sweep_12.csv"],
        ["cavity", "/tmp/bench/state_12.json"],
        ["cavity", "--kinematics", "--v", "312.5", "--w", "640.0625", "--xc", "0.125",
         "--xd", "0.5512", "--lc", "0.0125", "--ld", "7.5e-03"],
        ["shots", "/tmp/bench/state_3.json", "--shots", "100000", "--seed", "716281737312"],
        ["shots", "/tmp/bench/state_3.json", "--shots", "100000", "--seed", "716281737312",
         "--p-dark", "0.05", "--p-bright-false", "0.02"],
    ])
    def test_benchmark_lines_skip_argparse(self, argv, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a plain line went to argparse")

        monkeypatch.setattr(cli._shared_parser(), "parse_args", refuse)
        for command in COMMANDS.values():
            monkeypatch.setattr(command, "parse_known_args", refuse)
        assert vars(cli._parse(argv)) == vars(_nested_parse(argv))


class TestKinematicsBoundary:
    @pytest.mark.parametrize("extra", [
        ["--xd", "inf"], ["--xc=-inf"], ["--v", "0"], ["--v", "nan"],
        ["--w", "inf"], ["--v", "-300"], ["--lc", "0"], ["--ld", "-0.01"],
    ])
    def test_non_finite_or_non_positive_rejected(self, extra, capsys):
        with bounded():
            assert main(KINEMATICS + extra) == 1
        assert "finite and positive" in capsys.readouterr().err

    def test_usage_error_is_an_input_error(self, capsys):
        # argparse reads "-inf" as an option; its usage error would exit 2,
        # the code reserved for invariant violations
        assert main(KINEMATICS + ["--xc", "-inf"]) == 1
        assert "expected one argument" in capsys.readouterr().err

    @pytest.mark.parametrize("w, code", [("300.0000005", 1), ("300.000002", 0)])
    def test_speed_gap_boundary(self, w, code, capsys):
        argv = ["cavity", "--kinematics", "--v", "300", "--w", w, "--xc", "0.2", "--xd", "0.6"]
        assert main(argv) == code
        assert ("speed_gap" in capsys.readouterr().err) == (code == 1)

    def test_speed_whose_inverse_overflows_ends(self, capsys):
        argv = ["cavity", "--kinematics", "--v", "5e-324", "--w", "0.1", "--xc", "1", "--xd", "2"]
        with bounded():
            assert main(argv) in (1, 3)
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("v, w, xc, xd, lc", [
        # cavities 10^4 km out, speeds and lengths at the ends of the float range
        (300.0, 500.0, 1e7, 1e8, 0.02),
        (1e-300, 1e300, 0.2, 0.6, 0.02),
        (1e300, 1.7e308, 0.2, 0.6, 0.02),
        (1e-320, 1.0, 1e-300, 1e300, 0.02),
        (300.0, 500.0, 1e-320, 1e-310, 1e-320),
    ])
    def test_extreme_finite_inputs_end(self, v, w, xc, xd, lc, capsys):
        argv = ["cavity", "--kinematics", "--v", repr(v), "--w", repr(w),
                "--xc", repr(xc), "--xd", repr(xd), "--lc", repr(lc), "--ld", repr(lc)]
        with bounded():
            assert main(argv) in (0, 3)

    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=6, max_size=6))
    # (w - v) * x_mid overflows, and the cavities overlap
    @example([8.60264206784788e+33, 2.582280531452439e+201, 5.177719195774479e-205,
              5.1238838141742e+40, 7.231957997754775e+221, 1.8764291362952554e+63])
    # near-max speeds one ulp apart: the lag (w - v)/w/v underflows to 0
    @example([1e308, 1.0000000000000002e308, 0.2, 0.6, 0.02, 0.02])
    @settings(max_examples=150, deadline=None)
    def test_any_float_input_ends_with_an_exit_code(self, values):
        argv = ["cavity", "--kinematics"]
        for flag, x in zip(("--v", "--w", "--xc", "--xd", "--lc", "--ld"), values):
            argv += [flag, repr(x)]
        with bounded():
            assert main(argv) in (0, 1, 3)


class TestStateFileBoundary:
    @pytest.mark.parametrize("pair", [[True, 0], [0, False]])
    def test_boolean_amplitude_rejected(self, tmp_path, capsys, pair):
        path = write_doc(tmp_path / "b.json",
                         {"amplitudes": [pair, [0, 0], [0, 0], [1, 0]]})
        assert main(["run", path]) == 1
        assert "amplitudes[0]" in capsys.readouterr().err

    def test_non_boolean_normalize_rejected(self, tmp_path, capsys):
        path = write_doc(tmp_path / "n.json",
                         {"amplitudes": [[1, 0], [1, 0], [0, 0], [0, 0]], "normalize": "yes"})
        assert main(["run", path]) == 1
        assert "normalize" in capsys.readouterr().err

    @pytest.mark.parametrize("scale", [1e-200, 1e200, 1e-320, 1.7e308])
    def test_extreme_magnitudes_normalise(self, tmp_path, capsys, scale):
        path = write_doc(tmp_path / "x.json",
                         {"amplitudes": [[0, 0], [scale, 0], [0, scale], [0, 0]],
                          "normalize": True})
        assert main(["run", path]) == 0
        fields = dict(line.split("=") for line in capsys.readouterr().out.splitlines())
        assert abs(float(fields["C_measured       "]) - 1.0) < 1e-12


    @pytest.mark.parametrize("command", ["run", "shots", "cavity"])
    @pytest.mark.parametrize("amps, concurrence", [
        # typed to 11 digits: |norm - 1| is 9e-12 and 5e-10, inside the
        # input tolerance 1e-9 but outside the gates' 1e-12
        ([[0, 0], [0.70710678118, 0], [0.70710678118, 0], [0, 0]], 1.0),
        ([[0.70710678155, 0], [0.70710678155, 0], [0, 0], [0, 0]], 0.0),
    ])
    def test_near_normalised_file_accepted(self, tmp_path, capsys, command, amps, concurrence):
        path = write_doc(tmp_path / "near.json", {"amplitudes": amps})
        assert main([command, path]) == 0
        fields = dict(line.split("=") for line in capsys.readouterr().out.splitlines())
        if command != "shots":  # shots prints a finite-sample estimate
            assert abs(float(fields["C_measured       "]) - concurrence) < 1e-9

    @pytest.mark.parametrize("command", ["run", "shots", "cavity"])
    @pytest.mark.parametrize("data", [
        b"\xff" + BELL_TEXT.encode(),  # not UTF-8 from its first byte
        BELL_TEXT.replace("}", ', "note": "\u00e9"}').encode("latin-1"),
        BELL_TEXT.encode("utf-16"),  # with a byte-order mark
        BELL_TEXT.encode("utf-16-le"),
        BELL_TEXT.encode("utf-32"),
    ], ids=["invalid-byte", "latin-1", "utf-16-bom", "utf-16-le", "utf-32"])
    def test_file_not_utf8_rejected(self, tmp_path, capsys, command, data):
        path = tmp_path / "state.json"
        path.write_bytes(data)
        assert main([command, str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: malformed JSON in {path}: ") and "Traceback" not in err

    def test_file_read_as_utf8(self, tmp_path, capsys):
        # the same document, with a non-ASCII string, in UTF-8
        path = tmp_path / "state.json"
        path.write_bytes(BELL_TEXT.replace("}", ', "note": "\u00e9 \u2192 \U0001d49e"}').encode())
        assert main(["run", str(path)]) == 0
        assert "C_measured       = 1.0" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["run", "shots", "cavity"])
    def test_deeply_nested_document_rejected(self, tmp_path, capsys, command):
        # json.loads ends in RecursionError long before this depth
        path = tmp_path / "deep.json"
        path.write_text('{"amplitudes": ' + "[" * 100_000 + "]" * 100_000 + "}")
        assert main([command, str(path)]) == 1
        err = capsys.readouterr().err
        assert "nested too deeply" in err and "Traceback" not in err

    def test_integer_beyond_float_range_rejected(self, tmp_path, capsys):
        path = write_doc(tmp_path / "big.json",
                         {"amplitudes": [[10**400, 0], [0, 0], [0, 0], [0, 0]]})
        assert main(["run", path]) == 1
        assert "amplitudes[0]" in capsys.readouterr().err


def _json_documents():
    number = st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.integers(),
        st.sampled_from([True, False, 10**400, -(2**1024), 5e-324, 1.7e308, 1e-200]),
    )
    scalar = st.one_of(number, st.none(), st.text(max_size=3))
    pair = st.one_of(st.lists(number, min_size=2, max_size=2),
                     st.lists(scalar, max_size=3), scalar)
    amplitudes = st.one_of(st.lists(pair, min_size=4, max_size=4),
                           st.lists(pair, max_size=5), scalar)
    state_file = st.fixed_dictionaries(
        {"amplitudes": amplitudes},
        optional={"normalize": st.one_of(st.booleans(), scalar)})
    # unit-norm amplitudes scaled by 1 + eps, |eps| <= 1e-9
    near_unit = st.tuples(
        st.lists(st.complex_numbers(max_magnitude=1.0, allow_nan=False), min_size=4,
                 max_size=4).filter(lambda c: sum(abs(x) ** 2 for x in c) > 1e-6),
        st.floats(-1e-9, 1e-9),
    ).map(lambda t: {"amplitudes": [
        [x.real * (1 + t[1]) / n, x.imag * (1 + t[1]) / n]
        for n in [math.sqrt(sum(abs(x) ** 2 for x in t[0]))] for x in t[0]]})
    anything = st.recursive(scalar, lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=3), inner, max_size=3)),
        max_leaves=8)
    return st.one_of(state_file, near_unit, anything)


class TestStateFileProperty:
    @given(_json_documents())
    @settings(max_examples=300, deadline=None)
    def test_any_json_document_ends_with_exit_0_or_1(self, doc):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "state.json")
            with open(path, "w") as fh:
                json.dump(doc, fh)
            for command in ("run", "shots", "cavity"):
                with bounded(), contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = main([command, path])
                assert code in (0, 1), (command, doc)


class TestShotCountBoundary:
    def test_count_beyond_int64_rejected(self, tmp_path, capsys):
        # numpy's samplers take at most 2**63 - 1; this once ended in a traceback
        bell = write_doc(tmp_path / "bell.json",
                         {"amplitudes": [[0, 0], [SQ2, 0], [SQ2, 0], [0, 0]]})
        assert main(["shots", bell, "--shots", str(2**63)]) == 1
        assert "shot count must be in [1, 9223372036854775807]" in capsys.readouterr().err

    @pytest.mark.parametrize("count", [0, -5, 2**63])
    def test_one_message_on_either_side(self, tmp_path, capsys, count):
        # one rule, one check and one message: below 1 and beyond 2**63 - 1
        # once printed two wordings
        bell = write_doc(tmp_path / "bell.json",
                         {"amplitudes": [[0, 0], [SQ2, 0], [SQ2, 0], [0, 0]]})
        assert main(["shots", bell, "--shots", str(count)]) == 1
        assert capsys.readouterr().err == "error: shot count must be in [1, 9223372036854775807]\n"

    @pytest.mark.parametrize("readout", [[], ["--p-dark", "0.1", "--p-bright-false", "0.05"]],
                             ids=["ideal", "noisy"])
    def test_largest_count_accepted(self, tmp_path, capsys, readout):
        # the edge of the same rule, 2**63 - 1, with the readout thinning
        # a count that large when it is noisy
        bell = write_doc(tmp_path / "bell.json",
                         {"amplitudes": [[0, 0], [SQ2, 0], [SQ2, 0], [0, 0]]})
        with bounded():
            assert main(["shots", bell, "--shots", str(2**63 - 1), *readout]) == 0
        assert "n_shots           = 9223372036854775807" in capsys.readouterr().out


class TestSeedBoundary:
    @pytest.mark.parametrize("command", ["sweep", "shots"])
    def test_negative_seed_rejected(self, tmp_path, capsys, command):
        bell = write_doc(tmp_path / "bell.json",
                         {"amplitudes": [[0, 0], [SQ2, 0], [SQ2, 0], [0, 0]]})
        argv = {"sweep": ["sweep", "2", "--out", str(tmp_path / "s.csv")],
                "shots": ["shots", bell]}[command]
        assert main(argv + ["--seed", "-1"]) == 1
        assert "--seed" in capsys.readouterr().err


class TestSweepStream:
    # SHA-256 of the seed, amplitude and concurrence_analytic columns of
    # `sweep 50 --seed 0`, as written by the engine that built one
    # validated register per gate
    GOLDEN = "3069d0fcb4c785f80f9e5356886762bbf8c4c6ec20bbc7c0a72b49d2060f066f"
    HASHED = ("seed", "c0_re", "c0_im", "c1_re", "c1_im", "c2_re", "c2_im",
              "c3_re", "c3_im", "concurrence_analytic")

    def test_golden_columns(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["sweep", "50", "--seed", "0", "--out", str(out)]) == 0
        digest = hashlib.sha256()
        with open(out, newline="") as fh:
            for row in csv.DictReader(fh):
                digest.update((",".join(row[k] for k in self.HASHED) + "\n").encode())
        assert digest.hexdigest() == self.GOLDEN

    # SHA-256 of every column of `sweep 200 --seed 11`, a column's cells
    # one per line, as written by the per-call gate checks before gate
    # plans were cached: a last-bit change in any column fails
    COLUMN_DIGESTS = {
        "seed": "ea01ba3592e27c871b63b32e37d6532234edf7eee7077bdcc094061ee72922e6",
        "c0_re": "1db0c7a0d3dfccebd4d12a55dffa4bce03677d6905a256c3f4113d7aa7e8b8e7",
        "c0_im": "500992349e8062c878c0bf37b2c1486a3f6e6e1bf3a7ce7233c688c2d0168ae8",
        "c1_re": "76809c92ea2311ae8a0d1f531a6d3d0c111c690f3c8e1e869e81c1b3c968cd02",
        "c1_im": "9c1fb5b76398394a20d0c261b86609ac833bb7b176c6f86f4c088c4df3754fe1",
        "c2_re": "f25e62a85ca2369500fd7a38aad1599cd8fc62f92bb6a3db39b854873f07e8ce",
        "c2_im": "8056c02bb476254c0fbf90b3227444af8dc2ebdba70718d0a772aa502caa6ced",
        "c3_re": "1704585663c81f52d5249f4983e733372f696cce5ae6e3f232cccdf037d5bb8c",
        "c3_im": "3c9bb3fd6c54e65e3936a505c511a11b83efc785f24166bf1a5c09eb7e5c3b86",
        "concurrence_analytic":
            "2f7672c417bf1b514a12220d9a5f563984fd287afc7b0e8fe0e454f192a489d4",
        "p_gggg": "0a8b397fe4ddbe944640451b7923f4b54a7cb32da862b6be5388e50092a8e0ea",
        "p_egeg": "b8e3b7a50061c5d0f18d1f22e8ad20186640b45017dbc74d466ce7a7b6122498",
        "concurrence_measured":
            "026689e50e02091dbc63725c6b9f1e19f0582362297e46b0a7fc803d28dcb1ff",
        "oracle_residual": "3d113882f7b88a0682140e6086bc989423149164902e9162b994cfe4fc05a238",
    }

    def test_every_column_pinned(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["sweep", "200", "--seed", "11", "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 200 and list(rows[0]) == cli.SWEEP_COLUMNS
        digests = {k: hashlib.sha256("".join(row[k] + "\n" for row in rows).encode())
                   .hexdigest() for k in cli.SWEEP_COLUMNS}
        assert digests == self.COLUMN_DIGESTS

    def test_row_reproducible_alone(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["sweep", "11", "--seed", "6", "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 11
        for i in (0, 7, 10):
            psi = PureState.haar_random(np.random.default_rng([6, i]))
            amps = [repr(x) for x in psi.amplitudes.view(float).tolist()]
            assert [rows[i][k] for k in self.HASHED[1:9]] == amps
            assert rows[i]["p_gggg"] == repr(run_circuit(psi).p_gggg)
