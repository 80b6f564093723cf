"""Command-line front end.

Exit codes: 0 success, 1 when ``cutting --check`` finds an oracle that
disagrees (a line reads ``mismatch``) or when a fault breaks an
invariant of the package (a traceback, not an ``error:`` line), 2
malformed input, an output that cannot be opened or written, or a
command that runs out of memory (``out-of-memory``), 3 domain error
(negative slope where unsupported, parabolic word, 0/0), 130 (128 +
SIGINT) when Ctrl-C stops the command, 141 (128 + SIGPIPE) when the
reader of the output closes it early, as in ``modlink census --max-x 9
| head``; the last two print nothing.  An error that a command raises
prints a single line ``error: <slug>: <detail>`` to stderr; a malformed
command line prints argparse's single line ``error: <message>``, which
names the argument.  Output is deterministic: reals are fixed at 12
significant digits and orderings never depend on hashing.
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
    GeodesicWord,
    ParabolicError,
    field_discriminant,
    geodesic_length,
    word_to_matrix,
)


class DomainInputError(Exception):
    """Well-formed input naming an undefined object (e.g. 0/0)."""


class UnwritableOutputError(Exception):
    """The named output file cannot be opened or written."""


_NEGATIVE_NUMBER_START = re.compile(r"-[0-9.]")
# What str.splitlines breaks a line at.
_LINE_BREAK = re.compile("[\n\r\v\f\x1c-\x1e\x85\u2028\u2029]")
# An integer option is ASCII digits with an optional sign, as one side
# of a slope is: no whitespace, no underscores, no other script's digits.
_INTEGER_PATTERN = re.compile(r"[+-]?[0-9]+")


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


def _word_arg(text: str) -> GeodesicWord:
    try:
        return GeodesicWord(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"malformed-word: {text!r} is not a nonempty word over L, R"
        ) from None


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


def _cmd_slope_info(args) -> int:
    s: Slope = args.slope
    cf = None if (s.is_infinity or s.p < 0) else list(continued_fraction(s))
    # the Farey path's x is the digit sum, 1 on the base triangle
    x = None if s.p < 0 else max(1, sum(cf or ()))
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
    ab = ab_sequence(s)
    lr = slope_to_word(s)
    print(f"slope: {s}")
    print(f"ab-word: {ab}")
    print(f"lr-word: {lr}")
    if args.check:
        ab_ok = ab == ab_sequence_geometric(s)
        lr_ok = lr == lr_geometric_oracle(s)
        print(f"oracle-ab: {'match' if ab_ok else 'mismatch'}")
        print(f"oracle-lr: {'match' if lr_ok else 'mismatch'}")
        if not (ab_ok and lr_ok):
            return 1
    return 0


def _cmd_word(args) -> int:
    s = _route_nonnegative(args.slope)
    print(slope_to_word(s))
    return 0


def _cmd_family(args) -> int:
    if args.json is None:
        sys.stdout.write(serialize.family_text(links.build_family(args.slope)))
        return 0
    require_nonnegative(args.slope)
    with _output_stream(args.json) as out:
        out.write(serialize.family_to_json(links.build_family(args.slope)) + "\n")
    return 0


def _cmd_census(args) -> int:
    families = links.census(args.max_x, dedupe_mirror=args.dedupe_mirror)
    with _output_stream(args.jsonl) as out:
        for family in families:
            out.write(serialize.family_to_json(family, compact=True) + "\n")
    return 0


def _cmd_table(args) -> int:
    with _output_stream(args.csv) as out:
        out.writelines(serialize.report_to_csv(links.volume_length_table(args.n)))
    return 0


def _cmd_length(args) -> int:
    word: GeodesicWord = args.word.canonical()
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
    with _output_stream(args.out) as out:
        out.write(figures.farey_disk_svg(farey_path(args.slope)))
    return 0


def _cmd_svg_line(args) -> int:
    require_positive(args.slope)
    with _output_stream(args.out) as out:
        out.write(figures.lattice_line_svg(args.slope))
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parse_args keeps no state on it."""
    parser = _Parser(
        prog="modlink",
        description="Farey paths, cutting sequences and modular-link volumes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("slope-info", help="normalization, continued fraction, orbit")
    p.add_argument("slope", type=_slope_arg)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_slope_info)

    p = sub.add_parser("cutting", help="AB and LR cutting words of a slope")
    p.add_argument("slope", type=_slope_arg)
    p.add_argument("--check", action="store_true",
                   help="also run both geometric oracles")
    p.set_defaults(func=_cmd_cutting)

    p = sub.add_parser("word", help="canonical LR word of a slope")
    p.add_argument("slope", type=_slope_arg)
    p.set_defaults(func=_cmd_word)

    p = sub.add_parser("family", help="full link-family report for a slope")
    p.add_argument("slope", type=_slope_arg)
    p.add_argument("--json", metavar="FILE", help="write JSON ('-' for stdout)")
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("census", help="enumerate families up to a path length")
    p.add_argument("--max-x", type=_positive_int, required=True)
    p.add_argument("--jsonl", metavar="FILE", default="-",
                   help="output file ('-' for stdout)")
    p.add_argument("--dedupe-mirror", action="store_true",
                   help="emit one family per mirror pair")
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("table", help="volume versus length table")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--csv", metavar="FILE", default="-",
                   help="output file ('-' for stdout)")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("length", help="trace, length and field of an LR word")
    p.add_argument("word", type=_word_arg)
    p.set_defaults(func=_cmd_length)

    p = sub.add_parser("svg-path", help="Farey tessellation figure with path")
    p.add_argument("slope", type=_slope_arg)
    p.add_argument("--out", required=True, metavar="FILE")
    p.set_defaults(func=_cmd_svg_path)

    p = sub.add_parser("svg-line", help="lattice line figure with crossings")
    p.add_argument("slope", type=_slope_arg)
    p.add_argument("--out", required=True, metavar="FILE")
    p.set_defaults(func=_cmd_svg_line)

    return parser


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
        parser = _build_parser()
        try:
            args = parser.parse_args(argv)
        except DomainInputError as exc:
            _error(str(exc))
            return 3
        except SystemExit as exc:
            # argparse has already printed its reason (or the help text)
            return int(exc.code or 0)
        try:
            status = args.func(args)
            sys.stdout.flush()  # a failed write surfaces here, not at exit
            return status
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
