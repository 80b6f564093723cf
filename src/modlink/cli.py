"""Command-line front end.

Exit codes: 0 success, 1 when ``cutting --check`` finds an oracle that
disagrees (a line reads ``mismatch``) or when a fault breaks an
invariant of the package (a traceback, not an ``error:`` line), 2
malformed input, an output that cannot be opened or written, or a
command that runs out of memory (``out-of-memory``), 3 domain error
(negative slope where unsupported, parabolic word, 0/0) or an input
past a command's size limit (``too-large``), 130 (128 + SIGINT) when
Ctrl-C stops the command, 141 (128 + SIGPIPE) when the reader of the
output closes it early, as in ``modlink census --max-x 9 | head``; the
last two print nothing.  An error that a command raises prints a single
line ``error: <slug>: <detail>`` to stderr; a malformed command line
prints argparse's single line ``error: <message>``, which names the
argument.  Output is deterministic: reals are fixed at 12 significant
digits and orderings never depend on hashing.

The size limits are checked before any work and before an output file
is opened: ``word``, ``cutting`` and ``family`` refuse p/q when its LR
word, of 2 max(p, q) letters, cannot be a str (more than sys.maxsize
characters; the AB word's p + q letters are no more); ``family`` takes
a Farey path of at most 1000 triangles, ``svg-path`` one of at most
10000, and ``svg-line`` at most 100000 lattice crossings, p + q.

A well-formed command line is read straight from the command table
``_COMMANDS``; argparse, whose parser is built from the same table on
first need, reads only a line that asks for help or is malformed, so
help screens and error lines are argparse's own.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import re
import sys

from . import figures, links, serialize
from .cutting import (
    UnsupportedSlopeError,
    ab_sequence,
    ab_sequence_geometric,
    continued_fraction,
    lr_geometric_oracle,
    require_positive,
    slope_to_word,
)
from .farey import (
    NegativeSlopeError,
    Slope,
    UndefinedSlopeError,
    farey_path,
    nonnegative_representative,
    require_nonnegative,
    v_orbit,
)
from .psl2z import (
    ParabolicError,
    field_discriminant,
    geodesic_length,
    least_rotation,
    word_to_matrix,
)


class DomainInputError(Exception):
    """Well-formed input naming an undefined object (e.g. 0/0), or one
    past a command's size limit."""


class UnwritableOutputError(Exception):
    """The named output file cannot be opened or written."""


_NEGATIVE_NUMBER_START = re.compile(r"-[0-9.]")
# What str.splitlines breaks a line at.
_LINE_BREAK = re.compile("[\n\r\v\f\x1c-\x1e\x85\u2028\u2029]")
# An integer option is ASCII digits with an optional sign, as one side
# of a slope is: no whitespace, no underscores, no other script's digits.
_INTEGER_PATTERN = re.compile(r"[+-]?[0-9]+")
# A word argument is the ASCII letters L and R only, matched whole:
# fullmatch lets no trailing newline through, as "$" would.
_WORD_PATTERN = re.compile("[LR]+")
# The largest input each command takes; above it, it refuses the slope
# with a too-large error before any work.  family and svg-path bound x,
# the triangles of the Farey path, and svg-line p + q, the lattice lines
# crossed.  Each sits far above the sizes the tests use; family's bounds
# the path, not the factoring of its traces, which has no budget.
_MAX_FAMILY_X = 1000
_MAX_SVG_PATH_X = 10_000
_MAX_SVG_LINE_CROSSINGS = 100_000


def _error(detail: str) -> None:
    """Print the one ``error:`` line, escaping any line break in detail.

    argparse echoes unrecognized arguments as they are, and an output
    file's name is the user's, so either may hold a line break.
    """
    detail = _LINE_BREAK.sub(lambda m: repr(m.group())[1:-1], detail)
    print(f"error: {detail}", file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse prefix-matches this: an argument that starts like a
        # negative number (-2, -2/1, -.5) is a value, not an option flag
        self._negative_number_matcher = _NEGATIVE_NUMBER_START

    def error(self, message):
        _error(message)
        raise SystemExit(2)


def _slope_arg(text: str) -> Slope:
    try:
        return Slope.parse(text)
    except UndefinedSlopeError:
        raise DomainInputError("undefined-slope: 0/0") from None
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"malformed-slope: {text!r} is not 'p/q'"
        ) from None


def _word_arg(text: str) -> str:
    if not _WORD_PATTERN.fullmatch(text):
        raise argparse.ArgumentTypeError(
            f"malformed-word: {text!r} is not a nonempty word over L, R"
        )
    return text


def _positive_int(text: str) -> int:
    if not _INTEGER_PATTERN.fullmatch(text):
        raise argparse.ArgumentTypeError(f"malformed-integer: {text!r}")
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"malformed-integer: {value} is not >= 1")
    return value


@contextlib.contextmanager
def _output_stream(destination: str):
    """Stdout for '-', otherwise the named file opened for writing.

    Opening truncates the file, so a command checks its input's domain
    before it opens its output: a domain error leaves the file as it was.
    """
    if destination == "-":
        yield sys.stdout
        return
    try:
        with open(destination, "w") as fh:
            yield fh
    except BrokenPipeError:
        raise
    except OSError as exc:
        raise UnwritableOutputError(f"{destination}: {exc.strerror}") from None


def _route_nonnegative(s: Slope) -> Slope:
    """Replace a negative slope by its nonnegative orbit representative."""
    if s.p >= 0:
        return s
    rep = nonnegative_representative(s)
    print(f"notice: {s} routed via v-orbit representative {rep}", file=sys.stderr)
    return rep


def _path_length(s: Slope) -> "int | None":
    """x of the Farey path to s, or None for a negative slope, which has none.

    x is the digit sum of the continued fraction, 1 on the base triangle,
    so it is known before any path is walked.
    """
    if s.p < 0:
        return None
    return 1 if s.is_infinity else max(1, sum(continued_fraction(s)))


def _require_path_within(s: Slope, limit: int, command: str) -> None:
    x = _path_length(s)
    if x is not None and x > limit:
        raise DomainInputError(
            f"too-large: the Farey path of {s} has {x} triangles;"
            f" {command} takes at most {limit}"
        )


def _require_word_fits(s: Slope) -> None:
    """Refuse s before any spelling when its words cannot be strings.

    The LR word of p/q has 2 max(p, q) letters and the AB word p + q, no
    more; a str holds at most sys.maxsize characters.
    """
    letters = 2 * max(s.p, s.q)
    if letters > sys.maxsize:
        raise DomainInputError(
            f"too-large: the LR word of {s} would have {letters} letters;"
            f" a string holds at most {sys.maxsize}"
        )


def _cmd_slope_info(args) -> int:
    s: Slope = args.slope
    cf = None if (s.is_infinity or s.p < 0) else list(continued_fraction(s))
    x = _path_length(s)
    orbit = sorted(v_orbit(s))
    if args.json:
        payload = {
            "slope": str(s),
            "continued_fraction": cf,
            "farey_path_length": x,
            "v_orbit": [str(t) for t in orbit],
        }
        print(json.dumps(payload, indent=2))
        return 0
    print(f"slope: {s}")
    print(f"continued-fraction: {cf if cf is not None else 'n/a'}")
    print(f"farey-path-length: {x if x is not None else 'n/a'}")
    print("v-orbit: " + " ".join(str(t) for t in orbit))
    return 0


def _cmd_cutting(args) -> int:
    s = _route_nonnegative(args.slope)
    _require_word_fits(s)
    ab = ab_sequence(s)
    lr = slope_to_word(s)
    print(f"slope: {s}")
    print(f"ab-word: {ab}")
    print(f"lr-word: {lr}")
    if args.check:
        ab_ok = ab == ab_sequence_geometric(s)
        lr_ok = lr == lr_geometric_oracle(s).canonical().letters
        print(f"oracle-ab: {'match' if ab_ok else 'mismatch'}")
        print(f"oracle-lr: {'match' if lr_ok else 'mismatch'}")
        if not (ab_ok and lr_ok):
            return 1
    return 0


def _cmd_word(args) -> int:
    s = _route_nonnegative(args.slope)
    _require_word_fits(s)
    print(slope_to_word(s))
    return 0


def _cmd_family(args) -> int:
    require_nonnegative(args.slope)
    _require_path_within(args.slope, _MAX_FAMILY_X, "family")
    _require_word_fits(args.slope)
    if args.json is None:
        sys.stdout.write(serialize.family_text(links.build_family(args.slope)))
        return 0
    with _output_stream(args.json) as out:
        # the census line, indented: json.loads reads each real back to
        # the same double, and main has lifted the int-string digit limit
        line = serialize.family_to_json(links.build_family(args.slope))
        out.write(json.dumps(json.loads(line), indent=2) + "\n")
    return 0


def _cmd_census(args) -> int:
    families = links.census(args.max_x, dedupe_mirror=args.dedupe_mirror)
    with _output_stream(args.jsonl) as out:
        for family in families:
            out.write(serialize.family_to_json(family) + "\n")
    return 0


def _cmd_table(args) -> int:
    with _output_stream(args.csv) as out:
        out.writelines(serialize.report_to_csv(links.volume_length_table(args.n)))
    return 0


def _cmd_length(args) -> int:
    word = least_rotation(args.word)
    matrix = word_to_matrix(word)
    t = matrix.trace()
    length = geodesic_length(t)  # raises before any output on trace < 3
    print(f"word: {word}")
    print(f"trace: {t}")
    print(f"length: {serialize.format_real(length)}")
    print(f"discriminant: {field_discriminant(matrix)}")
    return 0


def _cmd_svg_path(args) -> int:
    require_nonnegative(args.slope)
    _require_path_within(args.slope, _MAX_SVG_PATH_X, "svg-path")
    with _output_stream(args.out) as out:
        out.write(figures.farey_disk_svg(farey_path(args.slope)))
    return 0


def _cmd_svg_line(args) -> int:
    require_positive(args.slope)
    crossings = args.slope.p + args.slope.q
    if crossings > _MAX_SVG_LINE_CROSSINGS:
        raise DomainInputError(
            f"too-large: the lattice line of {args.slope} crosses {crossings}"
            f" lines; svg-line takes at most {_MAX_SVG_LINE_CROSSINGS}"
        )
    with _output_stream(args.out) as out:
        out.write(figures.lattice_line_svg(args.slope))
    return 0


# The command-line grammar, in one place: per command, its handler, its
# help and its arguments, each an add_argument spelling with keywords.
# _build_parser makes argparse's parser from it and _parse reads
# well-formed lines by it; _parse reads only the keywords type, action
# (store_true), default and required, and help and metavar shape only
# argparse's text.
_COMMANDS = {
    "slope-info": (_cmd_slope_info, "normalization, continued fraction, orbit", [
        ("slope", {"type": _slope_arg}),
        ("--json", {"action": "store_true"}),
    ]),
    "cutting": (_cmd_cutting, "AB and LR cutting words of a slope", [
        ("slope", {"type": _slope_arg}),
        ("--check", {"action": "store_true",
                     "help": "also run both geometric oracles"}),
    ]),
    "word": (_cmd_word, "canonical LR word of a slope", [
        ("slope", {"type": _slope_arg}),
    ]),
    "family": (_cmd_family, "full link-family report for a slope", [
        ("slope", {"type": _slope_arg}),
        ("--json", {"metavar": "FILE", "help": "write JSON ('-' for stdout)"}),
    ]),
    "census": (_cmd_census, "enumerate families up to a path length", [
        ("--max-x", {"type": _positive_int, "required": True}),
        ("--jsonl", {"metavar": "FILE", "default": "-",
                     "help": "output file ('-' for stdout)"}),
        ("--dedupe-mirror", {"action": "store_true",
                             "help": "emit one family per link: the targets p/q with p <= q"}),
    ]),
    "table": (_cmd_table, "volume versus length table", [
        ("--n", {"type": _positive_int, "required": True}),
        ("--csv", {"metavar": "FILE", "default": "-",
                   "help": "output file ('-' for stdout)"}),
    ]),
    "length": (_cmd_length, "trace, length and field of an LR word", [
        ("word", {"type": _word_arg}),
    ]),
    "svg-path": (_cmd_svg_path, "Farey tessellation figure with path", [
        ("slope", {"type": _slope_arg}),
        ("--out", {"required": True, "metavar": "FILE"}),
    ]),
    "svg-line": (_cmd_svg_line, "lattice line figure with crossings", [
        ("slope", {"type": _slope_arg}),
        ("--out", {"required": True, "metavar": "FILE"}),
    ]),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parse_args keeps no state on it."""
    parser = _Parser(
        prog="modlink",
        description="Farey paths, cutting sequences and modular-link volumes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for spelling, keywords in arguments:
            p.add_argument(spelling, **keywords)
        p.set_defaults(func=handler)
    return parser


def _grammar(handler, arguments):
    """One command's table entry as _parse reads it.

    Returns the positionals as (dest, type) pairs, the options as a map
    from spelling to (dest, store_true, type), the spellings of the
    required options, and the namespace's defaults.
    """
    positionals, options, required = [], {}, set()
    defaults = {"func": handler}
    for spelling, keywords in arguments:
        kind = keywords.get("type")
        if not spelling.startswith("-"):
            positionals.append((spelling, kind))
            continue
        dest = spelling.lstrip("-").replace("-", "_")
        flag = keywords.get("action") == "store_true"
        options[spelling] = (dest, flag, kind)
        defaults[dest] = keywords.get("default", False if flag else None)
        if keywords.get("required"):
            required.add(spelling)
    return positionals, options, required, defaults


_GRAMMAR = {name: _grammar(handler, arguments)
            for name, (handler, _, arguments) in _COMMANDS.items()}


def _is_value(token: str) -> bool:
    """Whether argparse reads token as a value rather than as an option."""
    return (not token.startswith("-") or token == "-"
            or _NEGATIVE_NUMBER_START.match(token) is not None)


def _parse(argv: "list[str]") -> "argparse.Namespace | None":
    """The namespace argparse returns for a well-formed argv, else None.

    argv is well-formed when it names a command, each later token is a
    value or an exact option string of that command, a store_true option
    stands alone and any other option takes one value, no option is
    repeated, the values left over fill the positionals exactly, and
    every required option is present.  The type functions run once the
    whole line has matched, in the order of argv; a type error returns
    None, so that argparse prints its own line, and a DomainInputError
    propagates as it does from argparse.  Everything else, -h and --help
    among it, returns None.
    """
    if not argv or argv[0] not in _GRAMMAR:
        return None
    positionals, options, required, defaults = _GRAMMAR[argv[0]]
    values = dict(defaults, command=argv[0])
    seen, pending, filled = set(), [], 0
    tokens = iter(argv[1:])
    for token in tokens:
        if _is_value(token):
            if filled == len(positionals):
                return None
            dest, kind = positionals[filled]
            filled += 1
        else:
            if token not in options or token in seen:
                return None
            seen.add(token)
            dest, flag, kind = options[token]
            if flag:
                values[dest] = True
                continue
            token = next(tokens, None)
            if token is None or not _is_value(token):
                return None
        pending.append((dest, kind, token))
    if filled != len(positionals) or not required <= seen:
        return None
    try:
        for dest, kind, text in pending:
            values[dest] = text if kind is None else kind(text)
    except (argparse.ArgumentTypeError, TypeError, ValueError):
        return None
    return argparse.Namespace(**values)


_DOMAIN_SLUGS = [
    (ParabolicError, "parabolic"),
    (NegativeSlopeError, "negative-slope"),
    (UnsupportedSlopeError, "unsupported-slope"),
]


def main(argv: "list[str] | None" = None) -> int:
    # CPython 3.10.7 and later cap int-string conversion at 4300 digits:
    # lift the cap for this call, so exact integers parse and print whole
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        if argv is None:
            argv = sys.argv[1:]
        try:
            args = _parse(argv)
            if args is None:  # help, or a line whose fault argparse names
                args = _build_parser().parse_args(argv)
            status = args.func(args)
            sys.stdout.flush()  # a failed write surfaces here, not at exit
            return status
        except SystemExit as exc:
            # argparse has already printed its reason (or the help text)
            return int(exc.code or 0)
        except DomainInputError as exc:
            _error(str(exc))
            return 3
        except tuple(cls for cls, _ in _DOMAIN_SLUGS) as exc:
            slug = next(slug for cls, slug in _DOMAIN_SLUGS if isinstance(exc, cls))
            _error(f"{slug}: {exc}")
            return 3
        except UnwritableOutputError as exc:
            _error(f"unwritable-output: {exc}")
            return 2
        except BrokenPipeError:
            # the reader has gone: stop quietly, and send what stdout
            # still buffers to devnull, so the interpreter's last flush
            # has nothing to report
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            return 141
        except OSError as exc:  # stdout cannot be written, e.g. a full disk
            detail = f"<stdout>: {exc.strerror}"
            _error(f"unwritable-output: {detail}")
            return 2
    except MemoryError:
        detail = "the command needs more memory than this process may use"
        _error(f"out-of-memory: {detail}")
        return 2
    except KeyboardInterrupt:  # Ctrl-C: the user has stopped the command
        return 130  # 128 + SIGINT
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
