import json
import math
import os
import subprocess
import sys
import tempfile
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import concmeter
from concmeter import cli
from concmeter.cli import STATE_FILE_CAP, load_state_file, main

try:
    import resource
except ImportError:  # not on every platform
    resource = None
try:
    import pty
except ImportError:  # POSIX only
    pty = None

SQ2 = 1.0 / math.sqrt(2.0)


def write_state(path, amps, normalize=None):
    doc = {"amplitudes": [[a.real, a.imag] for a in map(complex, amps)]}
    if normalize is not None:
        doc["normalize"] = normalize
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def bell_file(tmp_path):
    return write_state(tmp_path / "bell.json", [0, SQ2, SQ2, 0])


class TestCmdRun:
    def test_bell(self, bell_file, capsys):
        assert main(["run", bell_file]) == 0
        out = capsys.readouterr().out
        fields = {line.split("=")[0].strip(): float(line.split("=")[1])
                  for line in out.strip().splitlines()}
        assert abs(fields["P_gggg"] - 0.125) < 1e-12
        assert abs(fields["C_measured"] - 1.0) < 1e-12

    def test_product_state(self, tmp_path, capsys):
        path = write_state(tmp_path / "gg.json", [1, 0, 0, 0])
        assert main(["run", path]) == 0
        assert "C_measured       = 0.0" in capsys.readouterr().out

    def test_unnormalized_rejected(self, tmp_path, capsys):
        path = write_state(tmp_path / "bad.json", [1, 1, 0, 0])
        assert main(["run", path]) == 1
        assert "amplitudes" in capsys.readouterr().err

    def test_norm_error_printed_byte_for_byte(self, tmp_path, capsys):
        # one state: the message names no row
        path = tmp_path / "off.json"
        path.write_text('{"amplitudes": [[0.7071074882933, 0], [0.7071074882933, 0], '
                        '[0, 0], [0, 0]]}')
        assert main(["run", str(path)]) == 1
        assert capsys.readouterr().err == (
            "error: invalid state in 'amplitudes': state norm 1.0000009999999593 deviates "
            "from 1 beyond tolerance 1e-09\n")

    def test_normalize_flag(self, tmp_path):
        path = write_state(tmp_path / "raw.json", [1, 1, 0, 0])
        assert main(["run", path, "--normalize"]) == 0

    def test_normalize_in_file(self, tmp_path):
        path = write_state(tmp_path / "raw.json", [1, 1, 0, 0], normalize=True)
        assert main(["run", path]) == 0

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["run", str(path)]) == 1
        assert "JSON" in capsys.readouterr().err

    def test_missing_field(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text("{}")
        assert main(["run", str(path)]) == 1
        assert "amplitudes" in capsys.readouterr().err

    def test_wrong_pair_shape(self, tmp_path, capsys):
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps({"amplitudes": [[1, 0], [0], [0, 0], [0, 0]]}))
        assert main(["run", str(path)]) == 1
        assert "amplitudes[1]" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.json")]) == 1

    def test_file_over_the_size_cap(self, tmp_path, capsys):
        # a valid state padded with blanks: read at the cap, rejected one byte over
        doc = json.dumps({"amplitudes": [[0, 0], [SQ2, 0], [SQ2, 0], [0, 0]]})
        path = tmp_path / "padded.json"
        path.write_text(doc + " " * (STATE_FILE_CAP - len(doc)))
        assert main(["run", str(path)]) == 0
        path.write_text(doc + " " * (STATE_FILE_CAP + 1 - len(doc)))
        capsys.readouterr()
        assert main(["run", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"error: state file {path} exceeds the {STATE_FILE_CAP}-byte cap\n")

    @pytest.mark.skipif(resource is None or not os.path.exists("/dev/zero"),
                        reason="needs the resource module and /dev/zero")
    def test_endless_file_read_in_bounded_memory(self):
        # the child alone runs under a 1 GiB address-space limit; an
        # unbounded read of /dev/zero ends there in a MemoryError traceback
        child = ("import resource, runpy, sys; "
                 "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
                 "sys.argv = ['concmeter', 'run', '/dev/zero']; "
                 "runpy.run_module('concmeter.cli', run_name='__main__')")
        src = os.path.dirname(os.path.dirname(concmeter.__file__))
        proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                              timeout=60, env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 1
        assert proc.stderr == (
            f"error: state file /dev/zero exceeds the {STATE_FILE_CAP}-byte cap\n")

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
    def test_fifo_with_no_writer_rejected(self, tmp_path, capsys):
        # a plain open() of a FIFO waits for a writer, and none comes: in a
        # child first, under a timeout, then, known not to hang, in process
        fifo = tmp_path / "state.fifo"
        os.mkfifo(fifo)
        message = f"error: state file {fifo} is a FIFO, not a regular file\n"
        src = os.path.dirname(os.path.dirname(concmeter.__file__))
        proc = subprocess.run([sys.executable, "-m", "concmeter.cli", "run", str(fifo)],
                              capture_output=True, text=True, timeout=30,
                              env={**os.environ, "PYTHONPATH": src})
        assert (proc.returncode, proc.stderr) == (1, message)
        assert main(["run", str(fifo)]) == 1
        assert capsys.readouterr().err == message

    def test_directory_refused_as_open_refuses_it(self, tmp_path, capsys):
        # os.open opens a directory without complaint, so the read refuses
        # it itself, with the error that open() raises
        assert main(["run", str(tmp_path)]) == 1
        assert capsys.readouterr().err == (
            f"error: cannot read state file: [Errno 21] Is a directory: '{tmp_path}'\n")

    @pytest.mark.skipif(not os.path.exists("/dev/null"), reason="needs /dev/null")
    def test_empty_character_device_is_malformed_json(self, capsys):
        # not a regular file, so read blocking, to its immediate end
        assert main(["run", "/dev/null"]) == 1
        assert capsys.readouterr().err == (
            "error: malformed JSON in /dev/null: Expecting value: line 1 column 1 (char 0)\n")

    @pytest.mark.skipif(pty is None, reason="needs the pty module")
    def test_terminal_waits_for_its_input(self, capsys):
        # opened without blocking, for the FIFO check, a terminal is read
        # blocking again: a state typed after the open still arrives
        controller, terminal = pty.openpty()
        doc = json.dumps({"amplitudes": [[0, 0], [SQ2, 0], [SQ2, 0], [0, 0]]})
        typist = threading.Timer(0.2, os.write, (controller, doc.encode() + b"\n\x04"))
        typist.start()
        try:
            assert main(["run", os.ttyname(terminal)]) == 0
        finally:
            typist.join(10)
            os.close(controller)
            os.close(terminal)
        assert not typist.is_alive()
        assert capsys.readouterr().out.startswith("C_analytic       = ")


class TestStateFileMemo:
    """A state file is read on every call and parsed once per distinct
    content: the memo is keyed by the file's bytes and force_normalize,
    never by its path or mtime, and keeps only a state that passed."""

    def test_same_bytes_at_two_paths_share_one_state(self, tmp_path):
        first = write_state(tmp_path / "a.json", [0, SQ2, SQ2, 0])
        second = write_state(tmp_path / "b.json", [0, SQ2, SQ2, 0])
        assert load_state_file(second) is load_state_file(first)
        assert cli._parsed_state.cache_info().currsize == 1

    def test_rewritten_file_with_the_same_size_and_mtime_seen(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text('{"amplitudes": [[1, 0], [0, 0], [0, 0], [0, 0]]}')
        stamp = os.stat(path).st_mtime_ns
        assert load_state_file(str(path)).amplitudes.tolist() == [1, 0, 0, 0]
        path.write_text('{"amplitudes": [[0, 0], [0, 0], [0, 0], [1, 0]]}')
        os.utime(path, ns=(stamp, stamp))
        assert os.stat(path).st_mtime_ns == stamp
        assert load_state_file(str(path)).amplitudes.tolist() == [0, 0, 0, 1]

    @pytest.mark.parametrize("text, message", [
        ('{"amplitudes": [[1, 0], [1, 0], [0, 0], [0, 0]]}', "invalid state in 'amplitudes'"),
        ("{not json", "malformed JSON in {path}: "),
    ])
    def test_failed_file_stores_nothing(self, tmp_path, text, message):
        for name in ("one.json", "two.json", "one.json"):
            path = tmp_path / name
            path.write_text(text)
            with pytest.raises(ValueError, match="^" + message.format(path=path)):
                load_state_file(str(path))
        assert cli._parsed_state.cache_info().currsize == 0

    def test_normalize_flag_is_part_of_the_key(self, tmp_path):
        path = write_state(tmp_path / "raw.json", [1, 1, 0, 0])
        psi = load_state_file(path, True)
        assert psi.amplitudes.tolist() == [SQ2, SQ2, 0, 0]
        with pytest.raises(ValueError, match="^invalid state in 'amplitudes'"):
            load_state_file(path)
        assert load_state_file(path, True) is psi
        assert cli._parsed_state.cache_info().currsize == 1

    @given(st.lists(st.tuples(st.sampled_from([0.0, -0.0, 5e-324, -2.5e-320, 0.5, SQ2, -SQ2,
                                               1e-200, 3.0]),
                              st.sampled_from([0.0, -0.0, 5e-324, 0.5, -1.0])),
                    min_size=4, max_size=4),
           st.sampled_from([None, True, False]), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_hit_equals_a_cold_parse(self, pairs, normalize, force):
        doc = {"amplitudes": [list(p) for p in pairs]}
        if normalize is not None:
            doc["normalize"] = normalize
        data = json.dumps(doc).encode()

        def outcome(load):
            try:
                return load().amplitudes.tobytes()
            except ValueError as exc:
                return str(exc)

        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "state.json")
            with open(path, "wb") as fh:
                fh.write(data)
            cold = outcome(lambda: cli._parsed_state.__wrapped__(data, force))
            first = outcome(lambda: load_state_file(path, force))
            hit = outcome(lambda: load_state_file(path, force))
            if isinstance(cold, bytes):  # a state: the second load was a hit
                assert load_state_file(path, force) is load_state_file(path, force)
        assert first == hit == cold


class TestCmdSweep:
    def test_summary_and_rows(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "50", "--seed", "3", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 51
        assert lines[0].startswith("seed,c0_re")
        assert "max |C_measured - C_analytic|" in capsys.readouterr().out

    def test_deterministic_csv(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["sweep", "20", "--seed", "9", "--out", str(a)])
        main(["sweep", "20", "--seed", "9", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_rows_are_plain_decimal(self, tmp_path):
        out = tmp_path / "sweep.csv"
        main(["sweep", "5", "--seed", "2", "--out", str(out)])
        body = out.read_text()
        assert "np.float64" not in body
        # round-trip check on one amplitude column
        import csv

        with open(out) as fh:
            row = next(csv.DictReader(fh))
        assert float(row["c0_re"]) == float(row["c0_re"])

    def test_per_row_invariant(self, tmp_path):
        out = tmp_path / "sweep.csv"
        main(["sweep", "100", "--seed", "1", "--out", str(out)])
        import csv

        with open(out) as fh:
            for row in csv.DictReader(fh):
                dev = abs(float(row["concurrence_measured"])
                          - float(row["concurrence_analytic"]))
                assert dev < 1e-10

    def test_unwritable_path(self, tmp_path):
        assert main(["sweep", "1", "--out", str(tmp_path / "no/dir.csv")]) == 1

    def test_one_state_is_the_smallest_sweep(self, tmp_path):
        # the edge of the n_states >= 1 rule: the header and one row
        out = tmp_path / "one.csv"
        assert main(["sweep", "1", "--seed", "4", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2 and lines[1].startswith("0,")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_failed_write_is_an_input_error(self, capsys):
        # opening /dev/full succeeds; writing to it, or flushing at close, fails
        assert main(["sweep", "3", "--out", "/dev/full"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot write /dev/full: ")

    def test_zero_states_rejected(self, tmp_path):
        assert main(["sweep", "0", "--out", str(tmp_path / "x.csv")]) == 1

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
    def test_standard_output_pipe_gets_the_file_bytes(self, tmp_path):
        # /dev/stdout opens the child's pipe again, with its reader present
        regular = tmp_path / "s.csv"
        argv = ["sweep", "5", "--seed", "3", "--out"]
        assert main(argv + [str(regular)]) == 0
        src = os.path.dirname(os.path.dirname(concmeter.__file__))
        proc = subprocess.run([sys.executable, "-m", "concmeter.cli", *argv, "/dev/stdout"],
                              capture_output=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": src})
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout.startswith(regular.read_bytes() + b"wrote 5 rows to /dev/stdout; ")

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
    def test_fifo_with_no_reader_fails_at_once(self, tmp_path, capsys):
        # a plain open() of a FIFO for writing waits for a reader, and none
        # comes: in a child first, under a timeout, then in process
        fifo = tmp_path / "out.fifo"
        os.mkfifo(fifo)
        message = (f"error: cannot write {fifo}: [Errno 6] No such device or address: "
                   f"'{fifo}'\n")
        src = os.path.dirname(os.path.dirname(concmeter.__file__))
        proc = subprocess.run([sys.executable, "-m", "concmeter.cli", "sweep", "2",
                               "--out", str(fifo)], capture_output=True, text=True,
                              timeout=10, env={**os.environ, "PYTHONPATH": src})
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", message)
        assert main(["sweep", "2", "--out", str(fifo)]) == 1
        assert capsys.readouterr() == ("", message)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
    def test_fifo_with_a_reader_gets_the_file_bytes(self, tmp_path):
        # more than a pipe buffer of rows, and a reader that starts late, so
        # the writer must wait for it: the descriptor blocks again after its open
        regular, fifo = tmp_path / "s.csv", tmp_path / "out.fifo"
        argv = ["sweep", "500", "--seed", "3", "--out"]
        assert main(argv + [str(regular)]) == 0
        os.mkfifo(fifo)
        received = []

        def read():
            with open(fifo, "rb") as fh:  # waits for the writer
                time.sleep(0.5)
                received.append(fh.read())

        # a reader from the start, so the child's open never finds none
        held = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        try:
            src = os.path.dirname(os.path.dirname(concmeter.__file__))
            proc = subprocess.run([sys.executable, "-m", "concmeter.cli", *argv, str(fifo)],
                                  capture_output=True, text=True, timeout=60,
                                  env={**os.environ, "PYTHONPATH": src})
            reader.join(10)
        finally:
            os.close(held)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert not reader.is_alive()
        assert received == [regular.read_bytes()]


class TestCmdShots:
    def test_bell(self, bell_file, capsys):
        assert main(["shots", bell_file, "--shots", "100000", "--seed", "4"]) == 0
        out = capsys.readouterr().out
        assert "p_hat" in out and "ci_95" in out

    def test_product_state_exact_zero(self, tmp_path, capsys):
        path = write_state(tmp_path / "gg.json", [1, 0, 0, 0])
        assert main(["shots", path, "--shots", "1000"]) == 0
        assert "c_hat             = 0.0" in capsys.readouterr().out

    def test_dark_counts_bias(self, bell_file, capsys):
        main(["shots", bell_file, "--shots", "100000", "--seed", "4"])
        ideal = capsys.readouterr().out
        main(["shots", bell_file, "--shots", "100000", "--seed", "4",
              "--p-dark", "0.05"])
        noisy = capsys.readouterr().out

        def p_hat(text):
            return float([l for l in text.splitlines()
                          if l.startswith("p_hat")][0].split("=")[1])

        assert p_hat(noisy) > p_hat(ideal)


class TestCmdCavity:
    def test_state_mode(self, bell_file, capsys):
        assert main(["cavity", bell_file]) == 0
        out = capsys.readouterr().out
        assert "deviation" in out

    def test_kinematics_mode(self, capsys):
        code = main(["cavity", "--kinematics", "--v", "300", "--w", "500",
                     "--xc", "0.2", "--xd", "0.6", "--lc", "0.02",
                     "--ld", "0.02"])
        assert code == 0
        out = capsys.readouterr().out
        assert "tau        = 0.000266666666666" in out
        assert "(4, 3, 2, 1)" in out
        assert "(3, 4, 1, 2)" in out
        assert "(3, 1, 4, 2)" in out
        assert "feasible       = True" in out

    def test_w_not_greater_than_v(self, capsys):
        code = main(["cavity", "--kinematics", "--v", "500", "--w", "300",
                     "--xc", "0.2", "--xd", "0.6"])
        assert code == 1

    def test_infeasible_geometry_exit_3(self, capsys):
        # cavities too close: the atom-1/atom-4 swap overshoots cavity D
        code = main(["cavity", "--kinematics", "--v", "300", "--w", "500",
                     "--xc", "0.3", "--xd", "0.5"])
        assert code == 3
        assert "binding constraint" in capsys.readouterr().out

    def test_missing_kinematics_flags(self, capsys):
        assert main(["cavity", "--kinematics", "--v", "300"]) == 1
        assert capsys.readouterr().err == "error: --kinematics requires --w --xc --xd\n"

    @pytest.mark.parametrize("argv, message", [
        (["cavity", "{bell}", "--kinematics", "--v", "300", "--w", "500", "--xc", "0.2",
          "--xd", "0.6"], "--kinematics takes no state file"),
        (["cavity", "--v", "300", "{bell}"], "--v given without --kinematics"),
        (["cavity", "--xc", "0.2", "--xd", "0.6"], "--xc --xd given without --kinematics"),
        (["cavity", "{bell}", "--lc", "0.5"], "--lc given without --kinematics"),
        (["cavity", "{bell}", "--ld", "0.5"], "--ld given without --kinematics"),
        (["cavity", "--kinematics", "--normalize", "--v", "250", "--w", "600", "--xc", "0.3",
          "--xd", "1.0"], "--kinematics takes no --normalize"),
    ])
    def test_modes_do_not_mix(self, argv, message, bell_file, capsys):
        # the state file, --normalize or the kinematics inputs would be ignored
        assert main([a.format(bell=bell_file) for a in argv]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_no_input_at_all(self, capsys):
        assert main(["cavity"]) == 1


class TestFailedStdout:
    """A failed write to standard output is an input error, as a failed
    write of sweep's CSV is: exit 1 and one line on stderr, with no
    traceback and no second failure when the interpreter flushes at exit."""

    @staticmethod
    def child(argv, stdout):
        # default buffering, so an unflushed report would fail only at exit
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(concmeter.__file__))}
        env.pop("PYTHONUNBUFFERED", None)
        return subprocess.run([sys.executable, "-m", "concmeter.cli", *argv], stdout=stdout,
                              stderr=subprocess.PIPE, text=True, timeout=60, env=env)

    @pytest.mark.parametrize("argv", [
        ["run", "{bell}"],
        ["shots", "{bell}", "--shots", "1000"],
        ["cavity", "{bell}"],
        ["cavity", "--kinematics", "--v", "300", "--w", "500", "--xc", "0.2", "--xd", "0.6"],
        ["sweep", "2", "--out", "{csv}"],
    ])
    def test_closed_pipe(self, argv, bell_file, tmp_path):
        read, write = os.pipe()
        os.close(read)  # the reader is gone before the first write
        try:
            proc = self.child([a.format(bell=bell_file, csv=tmp_path / "s.csv") for a in argv],
                              write)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (
            1, "error: cannot write standard output: [Errno 32] Broken pipe\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_device(self, bell_file):
        with open("/dev/full", "w") as full:
            proc = self.child(["run", bell_file], full)
        assert (proc.returncode, proc.stderr) == (
            1, "error: cannot write standard output: [Errno 28] No space left on device\n")

    def test_in_process(self, bell_file, monkeypatch, capsys):
        read, write = os.pipe()
        os.close(read)
        with open(write, "w") as closed:
            monkeypatch.setattr(sys, "stdout", closed)
            assert main(["run", bell_file]) == 1
            monkeypatch.undo()
        # the descriptor now writes to os.devnull, so the close flushed without error
        assert capsys.readouterr() == (
            "", "error: cannot write standard output: [Errno 32] Broken pipe\n")
