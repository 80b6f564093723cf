"""Check the pinned output digests and error lines without pytest.

Usage: python tools/check_pinned.py

Runs each command of tests/pinned_outputs.py through modlink.cli.main in
this process, on this checkout's sources.  A command of PINNED must exit
0 with the pinned md5 of its stdout and nothing on stderr; one of
PINNED_ERRORS must exit with its pinned code and stderr and nothing on
stdout.  Each argv is also parsed both ways: the CLI's direct parse must
read every PINNED argv to the namespace argparse gives, and on a
PINNED_ERRORS argv it must leave the line to argparse, give argparse's
namespace, or raise argparse's domain error.  Prints one line per
command and exits 1 if any differs.  It needs only the standard
library, so it runs on every Python the package supports.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from modlink.cli import DomainInputError, _build_parser, _parse, main  # noqa: E402
from pinned_outputs import PINNED, PINNED_ERRORS  # noqa: E402

EMPTY_MD5 = hashlib.md5(b"").hexdigest()


def run(argv: "tuple[str, ...]") -> "tuple[int, str, str]":
    """Exit status, stdout md5 and stderr of one in-process command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, hashlib.md5(out.getvalue().encode()).hexdigest(), err.getvalue()


def parsed(parse, argv: "tuple[str, ...]"):
    """vars() of parse's namespace, its domain error's text, or None when
    it reads no namespace (argparse then prints help or an error line)."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            namespace = parse(list(argv))
    except DomainInputError as exc:
        return f"domain error: {exc}"
    except SystemExit:
        return None
    return None if namespace is None else vars(namespace)


def parses_alike(argv: "tuple[str, ...]", well_formed: bool) -> bool:
    """Whether the direct parse agrees with argparse on argv.

    A well-formed argv must be read directly; any other may be left to
    argparse.
    """
    direct = parsed(_parse, argv)
    if direct is None:
        return not well_formed
    return direct == parsed(_build_parser().parse_args, argv)


def check() -> int:
    cases = [(name, argv, (0, md5, ""), True) for argv, md5, name in PINNED]
    cases += [
        (" ".join(argv), argv, (code, EMPTY_MD5, err), False)
        for argv, code, err in PINNED_ERRORS
    ]
    failed = 0
    for name, argv, want, well_formed in cases:
        got = run(argv)
        problems = [] if got == want else ["exit %s, md5 %s, stderr %r" % got]
        if not parses_alike(argv, well_formed):
            problems.append("the direct parse differs from argparse")
        failed += bool(problems)
        print(f"{name}: " + ("FAIL " + "; ".join(problems) if problems else "ok"))
    print(f"python {sys.version.split()[0]}: {failed} of {len(cases)} commands differ")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(check())
