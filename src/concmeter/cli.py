"""Command-line interface: single-state runs, random sweeps, shot
experiments, cavity checks, and kinematics solving.

Exit codes: 0 success, 1 input error, 2 internal invariant violation,
3 infeasible kinematics.
"""
from __future__ import annotations

import argparse
import errno
import functools
import json
import os
import stat
import sys

import numpy as np

from . import cavity as cavity_mod
from .concurrence import PureState, concurrence_pure
from .estimation import ReadoutModel, simulate_shots
from .protocol import run_circuit
from .statevec import InvariantViolation, normalized

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INVARIANT = 2
EXIT_INFEASIBLE = 3

CAVITY_LENGTH = 0.02  # m, of C and of D when --lc or --ld is not given
STATE_FILE_CAP = 1 << 20  # bytes; a valid state file is under 1 KB

SWEEP_COLUMNS = [
    "seed",
    "c0_re", "c0_im", "c1_re", "c1_im", "c2_re", "c2_im", "c3_re", "c3_im",
    "concurrence_analytic", "p_gggg", "p_egeg",
    "concurrence_measured", "oracle_residual",
]


class _Parser(argparse.ArgumentParser):
    """A usage error is an input error, a ValueError: exit code 1, not
    argparse's 2, which this CLI reserves for invariant violations. The
    parser keeps the Action that each add_argument call returns, for
    `read_plain`."""

    def __init__(self, *args, **kwargs):
        self.arguments = []  # before super().__init__, which adds -h
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        self.arguments.append(action)
        return action

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValueError(f"{self.prog}: {message}")

    @functools.cached_property
    def _plain_table(self):
        # the arguments that argparse stores a default for (all but -h):
        # the positionals in order, the options by name, the required
        # options, and the namespace of a line that gives none of them
        actions = [a for a in self.arguments if a.default is not argparse.SUPPRESS]
        options = {name: a for a in actions for name in a.option_strings}
        defaults = {a.dest: a.default for a in actions}
        defaults["func"] = self.get_default("func")
        return ([a for a in actions if not a.option_strings], options,
                {a for a in options.values() if a.required}, defaults)

    def read_plain(self, tokens) -> argparse.Namespace | None:
        """The namespace of a plain line (see `_parse`), read without
        argparse; None for any other line."""
        positionals, options, required, defaults = self._plain_table
        values = defaults.copy()
        given = []  # (action, token) pairs, converted once the line is known plain
        i, n = 0, len(tokens)
        for action in positionals:
            if i < n and not tokens[i].startswith("-"):
                given.append((action, tokens[i]))
                i += 1
            elif action.required:
                return None
        seen = set()
        while i < n:
            action = options.get(tokens[i])
            if action is None or action in seen:
                return None
            seen.add(action)
            if action.nargs == 0:  # a flag
                values[action.dest] = action.const
                i += 1
            elif i + 1 < n and not tokens[i + 1].startswith("-"):
                given.append((action, tokens[i + 1]))
                i += 2
            else:
                return None
        if not required <= seen:
            return None
        try:
            for action, token in given:
                values[action.dest] = action.type(token) if action.type else token
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None  # argparse reports the failed conversion
        return argparse.Namespace(**values)


class _MalformedJSON(ValueError):
    """Bytes that are not a UTF-8 JSON document that json.loads can read;
    load_state_file names the file."""


# A shot study reads the same few state files again and again: the state
# of each of the 16 most recently used distinct (bytes, force_normalize)
# keys, parsed and checked once. functools.lru_cache keeps only a returned
# value, so a failed input stores nothing. The keys hold at most 16 *
# STATE_FILE_CAP bytes (16 MiB); a valid state file is under 1 KB.
@functools.lru_cache(maxsize=16)
def _parsed_state(data: bytes, force_normalize: bool) -> PureState:
    try:
        # decoded here, not by json.loads, which would also take UTF-16 and UTF-32
        doc = json.loads(data.decode("utf-8"))
    except RecursionError as exc:
        raise _MalformedJSON("nested too deeply") from exc
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise _MalformedJSON(exc) from exc
    except ValueError as exc:
        # json.loads's one plain ValueError: an integer literal past the
        # interpreter's digit limit, which PYTHONINTMAXSTRDIGITS may move
        raise _MalformedJSON(f"an integer literal has more than "
                             f"{sys.get_int_max_str_digits()} digits") from exc
    # json.loads builds no subclass, so an exact type test is isinstance's
    # verdict, apart from bool: a subclass of int, but true/false are not amplitudes
    if type(doc) is not dict or "amplitudes" not in doc:
        raise ValueError("state file must be an object with an 'amplitudes' field")
    raw = doc["amplitudes"]
    if type(raw) is not list or len(raw) != 4:
        raise ValueError("'amplitudes' must list exactly four [re, im] pairs")
    amps = []
    for i, pair in enumerate(raw):
        if (type(pair) is not list or len(pair) != 2
                or type(pair[0]) not in (int, float) or type(pair[1]) not in (int, float)):
            raise ValueError(f"'amplitudes[{i}]' must be a [re, im] number pair")
        try:
            amps.append(complex(pair[0], pair[1]))
        except OverflowError as exc:  # a JSON integer beyond float range
            raise ValueError(f"'amplitudes[{i}]': {exc}") from exc
    normalize = doc.get("normalize", False)
    if not isinstance(normalize, bool):
        raise ValueError("'normalize' must be true or false")
    try:
        return PureState(*(normalized(amps) if normalize or force_normalize else amps))
    except ValueError as exc:
        raise ValueError(f"invalid state in 'amplitudes': {exc}") from exc


def load_state_file(path: str, force_normalize: bool = False) -> PureState:
    """Read a JSON state file, UTF-8 whatever the locale, of at most
    STATE_FILE_CAP bytes: {"amplitudes": [[re, im] x 4], "normalize": bool
    (optional)}. A FIFO is refused.

    The file is opened, checked and read on every call, so a rewritten
    file is always seen. Its bytes, with force_normalize, are then parsed
    and validated once per process: a repeat of the same content, at any
    path, returns the same frozen PureState (see `_parsed_state`). An
    input that fails stores nothing and raises again on every call."""
    try:
        # a FIFO with no writer would block the open until one comes; a
        # terminal never becomes the process's controlling one
        fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK | os.O_NOCTTY)
        try:
            mode = os.fstat(fd).st_mode
            if stat.S_ISFIFO(mode):
                raise ValueError(f"state file {path} is a FIFO, not a regular file")
            if stat.S_ISDIR(mode):  # which open() refuses, but os.open does not
                raise OSError(errno.EISDIR, os.strerror(errno.EISDIR), path)
            if not stat.S_ISREG(mode):  # a terminal is read as before
                os.set_blocking(fd, True)
            # bounded, as the path may be endless (/dev/zero), and in requests
            # of 64 KiB: glibc's malloc serves one of 128 KiB or more with an
            # mmap of its own, and a whole-cap request raised peak memory
            data = b""
            while len(data) <= STATE_FILE_CAP:
                chunk = os.read(fd, min(1 << 16, STATE_FILE_CAP + 1 - len(data)))
                if not chunk:
                    break
                data += chunk
        finally:
            os.close(fd)
        if len(data) > STATE_FILE_CAP:
            raise ValueError(f"state file {path} exceeds the {STATE_FILE_CAP}-byte cap")
    except OSError as exc:
        raise ValueError(f"cannot read state file: {exc}") from exc
    try:
        return _parsed_state(data, force_normalize)
    except _MalformedJSON as exc:
        raise ValueError(f"malformed JSON in {path}: {exc}") from exc


def _print(text: str) -> None:
    """Print a command's report, flushed at once: a failed write to
    standard output is an input error, as a failed write of sweep's CSV is."""
    try:
        print(text, flush=True)
    except OSError as exc:
        # the interpreter flushes stdout again at exit, which would fail as
        # well: point the descriptor at os.devnull first
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise ValueError(f"cannot write standard output: {exc}") from exc


def cmd_run(args) -> int:
    psi = load_state_file(args.state_file, args.normalize)
    result = run_circuit(psi)
    _print(f"C_analytic       = {concurrence_pure(psi)!r}\n"
           f"P_gggg           = {result.p_gggg!r}\n"
           f"P_egeg           = {result.p_egeg!r}\n"
           f"C_measured       = {result.concurrence_measured!r}\n"
           f"oracle_residual  = {result.oracle_residual!r}")
    return EXIT_OK


def _seed_words(n: int) -> list[int]:
    """The little-endian 32-bit words of a non-negative integer, [0] for 0:
    the words numpy's SeedSequence takes from an int in a seed list, so
    default_rng(np.array(_seed_words(s) + _seed_words(i), dtype=np.uint32))
    draws what default_rng([s, i]) draws."""
    if n < 0:  # numpy's seeds are non-negative; a negative n would loop forever
        raise ValueError(f"expected a non-negative integer, got {n}")
    words = [n & 0xFFFFFFFF]
    n >>= 32
    while n:
        words.append(n & 0xFFFFFFFF)
        n >>= 32
    return words


def _csv_line(values) -> str:
    """One CSV line as csv.writer writes it, for values that need no
    quoting (names, ints and floats): str of each, comma-separated, CRLF."""
    return ",".join(map(str, values)) + "\r\n"


def cmd_sweep(args) -> int:
    if args.n_states < 1:
        raise ValueError("n_states must be >= 1")
    max_dev = 0.0
    max_residual = 0.0
    seed_words = _seed_words(args.seed)
    try:  # a failed open, write or close: the last flush happens at close
        # opened without blocking, so a FIFO with no reader fails at once
        # (ENXIO) instead of waiting for one; a terminal never becomes the
        # process's controlling one
        fd = os.open(args.out, os.O_WRONLY | os.O_CREAT | os.O_TRUNC | os.O_NONBLOCK
                     | os.O_NOCTTY, 0o666)
        with open(fd, "w", newline="") as out:
            os.set_blocking(fd, True)
            out.write(_csv_line(SWEEP_COLUMNS))
            for i in range(args.n_states):
                # row i is reproducible on its own from default_rng([seed, i])
                words = np.array(seed_words + _seed_words(i), dtype=np.uint32)
                psi = PureState.haar_random(np.random.default_rng(words))
                try:
                    result = run_circuit(psi)
                except InvariantViolation as exc:
                    exc.row, exc.seed = i, args.seed
                    raise
                c_analytic = concurrence_pure(psi)
                max_dev = max(max_dev, abs(result.concurrence_measured - c_analytic))
                max_residual = max(max_residual, result.oracle_residual)
                out.write(_csv_line([i, *psi.amplitudes.view(float).tolist(),
                                     c_analytic, result.p_gggg, result.p_egeg,
                                     result.concurrence_measured, result.oracle_residual]))
    except OSError as exc:
        raise ValueError(f"cannot write {args.out}: {exc}") from exc
    _print(f"wrote {args.n_states} rows to {args.out}; "
           f"max |C_measured - C_analytic| = {max_dev:.3e}, "
           f"max oracle residual = {max_residual:.3e}")
    return EXIT_OK


def cmd_shots(args) -> int:
    psi = load_state_file(args.state_file, args.normalize)
    model = ReadoutModel(p_dark=args.p_dark, p_bright_false=args.p_bright_false)
    summary = simulate_shots(psi, args.shots, model, args.seed)
    _print(f"n_shots           = {summary.n_shots}\n"
           f"n_no_fluorescence = {summary.n_no_fluorescence}\n"
           f"p_hat             = {summary.p_hat!r}\n"
           f"c_hat             = {summary.c_hat!r}\n"
           f"ci_95             = [{summary.ci_low!r}, {summary.ci_high!r}]")
    return EXIT_OK


def cmd_cavity(args) -> int:
    # the kinematics inputs have no default, so a line that gives one is seen
    required = ("--v", "--w", "--xc", "--xd")
    flags = required + ("--lc", "--ld")
    given = [f for f in flags if getattr(args, f[2:]) is not None]
    if args.kinematics:
        if args.state_file is not None:
            raise ValueError("--kinematics takes no state file")
        if args.normalize:
            raise ValueError("--kinematics takes no --normalize")
        missing = [f for f in required if f not in given]
        if missing:
            raise ValueError(f"--kinematics requires {' '.join(missing)}")
        lc, ld = (CAVITY_LENGTH if x is None else x for x in (args.lc, args.ld))
        cfg = cavity_mod.solve_delays(args.v, args.w, args.xc, args.xd, lc, ld)
        report = cavity_mod.kinematics_report(cfg)
        if not report.feasible:
            _print(f"infeasible: binding constraint {report.violations[0]}")
            return EXIT_INFEASIBLE
        # both pairs share tau, so the 3-4 pair crosses where the 1-2 pair does
        _print(f"tau        = {cfg.tau!r} s\n"
               f"tau_prime  = {cfg.tau_prime!r} s\n"
               f"order_before_C = {report.order_before_C}\n"
               f"order_after_C  = {report.order_after_C}\n"
               f"order_at_D     = {report.order_at_D}\n"
               f"pair12_cross   = {report.pair12_cross_position!r} m\n"
               f"pair34_cross   = {report.pair12_cross_position!r} m\n"
               f"swap14         = {report.swap14_position!r} m\n"
               f"feasible       = {report.feasible}")
        return EXIT_OK
    if given:
        raise ValueError(f"{' '.join(given)} given without --kinematics")
    if args.state_file is None:
        raise ValueError("cavity mode needs a state file or --kinematics")
    psi = load_state_file(args.state_file, args.normalize)
    ideal = run_circuit(psi)
    real = cavity_mod.run_cavity_realization(psi)
    _print(f"P_gggg ideal     = {ideal.p_gggg!r}\n"
           f"P_gggg cavity    = {real.p_gggg!r}\n"
           f"deviation        = {abs(ideal.p_gggg - real.p_gggg)!r}\n"
           f"C_measured       = {real.concurrence_measured!r}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="concmeter",
        description="Two-copy concurrence measurement: circuit simulation, "
                    "shot statistics, cavity realization, flight kinematics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # command name -> its own parser, for main()

    p_run = sub.add_parser("run", help="run the ideal circuit on one state")
    p_run.add_argument("state_file")
    p_run.add_argument("--normalize", action="store_true",
                       help="normalize the input amplitudes")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser(
        "sweep",
        help="verify the protocol on random states, writing one CSV row per "
             f"state with columns: {', '.join(SWEEP_COLUMNS)}; row i is the "
             "Haar state drawn from numpy's default_rng([seed, i])",
    )
    p_sweep.add_argument("n_states", type=int)
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--out", required=True)
    p_sweep.set_defaults(func=cmd_sweep)

    p_shots = sub.add_parser("shots", help="finite-shot estimate with the "
                                           "global shelving readout (pure input "
                                           "states only: for a mixed pair the "
                                           "readout is not its concurrence)")
    p_shots.add_argument("state_file")
    p_shots.add_argument("--shots", type=int, default=10000)
    p_shots.add_argument("--seed", type=int, default=0)
    p_shots.add_argument("--p-dark", type=float, default=0.0)
    p_shots.add_argument("--p-bright-false", type=float, default=0.0)
    p_shots.add_argument("--normalize", action="store_true")
    p_shots.set_defaults(func=cmd_shots)

    p_cav = sub.add_parser("cavity", help="cavity realization check or "
                                          "flight-kinematics solving")
    p_cav.add_argument("state_file", nargs="?")
    p_cav.add_argument("--normalize", action="store_true")
    p_cav.add_argument("--kinematics", action="store_true")
    p_cav.add_argument("--v", type=float, help="slow-atom speed (m/s)")
    p_cav.add_argument("--w", type=float, help="fast-atom speed (m/s)")
    p_cav.add_argument("--xc", type=float, help="cavity-C center (m)")
    p_cav.add_argument("--xd", type=float, help="cavity-D center (m)")
    p_cav.add_argument("--lc", type=float,
                       help=f"cavity-C length (m), default {CAVITY_LENGTH}")
    p_cav.add_argument("--ld", type=float,
                       help=f"cavity-D length (m), default {CAVITY_LENGTH}")
    p_cav.set_defaults(func=cmd_cavity)
    return parser


# built on first use, then shared by every main() call of the process
_shared_parser = functools.cache(build_parser)


def _parse(argv) -> argparse.Namespace:
    """Parse a command line as argparse's nested parse would.

    A plain line is read by its command's `read_plain`, without argparse:
    the command's positionals first, as tokens that do not start with "-";
    then exact option names, each at most once, a valued one followed by
    one token that does not start with "-"; every value converted by its
    argument's own type, and no required option missing. On such a line
    argparse itself takes the same tokens in the same roles and stores the
    same values and defaults, so the two namespaces agree
    (`tests/test_cli_boundary.py` checks this against argparse on drawn
    lines). Every other line (no command name, help, abbreviations,
    "--opt=value", "--", values starting with "-", repeats, reordering,
    extra tokens, failed conversions) goes to argparse's nested parse,
    which prints help and every usage error.
    """
    parser = _shared_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = parser.commands.get(argv[0]) if argv else None
    args = command.read_plain(argv[1:]) if command is not None else None
    if args is None:
        return parser.parse_args(argv)
    args.command = argv[0]
    return args


def main(argv=None) -> int:
    try:
        args = _parse(argv)
        if getattr(args, "seed", 0) < 0:  # numpy's generators take only seeds >= 0
            raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    raise SystemExit(main())
