"""Check the pinned output digests without pytest.

Usage: python tools/check_pinned.py

Runs each command of tests/pinned_outputs.py through modlink.cli.main in
this process, on this checkout's sources, and compares the md5 of its
stdout with the pinned one.  Prints one line per command and exits 1
if any command differs, fails or writes to stderr.  It needs only the
standard library, so it runs on every Python the package supports.
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
from pinned_outputs import PINNED  # noqa: E402


def run(argv: "tuple[str, ...]") -> "tuple[int, str, str]":
    """Exit status, stdout md5 and stderr of one in-process command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, hashlib.md5(out.getvalue().encode()).hexdigest(), err.getvalue()


def check() -> int:
    failed = 0
    for argv, md5, name in PINNED:
        code, got, err = run(argv)
        ok = (code, got, err) == (0, md5, "")
        failed += not ok
        verdict = "ok" if ok else f"FAIL exit {code}, md5 {got}, stderr {err!r}"
        print(f"{name}: {verdict}")
    print(f"python {sys.version.split()[0]}: {failed} of {len(PINNED)} commands differ")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(check())
