"""Check the pinned output digests and error lines without pytest.

Usage: python tools/check_pinned.py

Runs each command of tests/pinned_outputs.py through modlink.cli.main in
this process, on this checkout's sources.  A command of PINNED must exit
0 with the pinned md5 of its stdout and nothing on stderr; one of
PINNED_ERRORS must exit with its pinned code and stderr and nothing on
stdout.  Prints one line per command and exits 1 if any differs.  It
needs only the standard library, so it runs on every Python the package
supports.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from modlink.cli import main  # noqa: E402
from pinned_outputs import PINNED, PINNED_ERRORS  # noqa: E402

EMPTY_MD5 = hashlib.md5(b"").hexdigest()


def run(argv: "tuple[str, ...]") -> "tuple[int, str, str]":
    """Exit status, stdout md5 and stderr of one in-process command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, hashlib.md5(out.getvalue().encode()).hexdigest(), err.getvalue()


def check() -> int:
    cases = [(name, argv, (0, md5, "")) for argv, md5, name in PINNED]
    cases += [
        (" ".join(argv), argv, (code, EMPTY_MD5, err))
        for argv, code, err in PINNED_ERRORS
    ]
    failed = 0
    for name, argv, want in cases:
        got = run(argv)
        failed += got != want
        verdict = "ok" if got == want else "FAIL exit %s, md5 %s, stderr %r" % got
        print(f"{name}: {verdict}")
    print(f"python {sys.version.split()[0]}: {failed} of {len(cases)} commands differ")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(check())
