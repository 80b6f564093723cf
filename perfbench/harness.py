"""Loading modlink from the checkout and driving its CLI in process."""

from __future__ import annotations

import contextlib
import importlib
import io
import os
import platform
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"


class SetupError(Exception):
    """The checkout cannot be benchmarked (for example, no sources)."""


def fresh_cli():
    """Import modlink.cli from ``src/`` with no module state left over.

    Every earlier ``modlink`` module is dropped first, so module-level
    caches start empty, as they do in a new CLI process.
    """
    if not (SOURCE / "modlink" / "__init__.py").is_file():
        raise SetupError(f"no modlink sources under {SOURCE}")
    for name in [n for n in sys.modules if n == "modlink" or n.startswith("modlink.")]:
        del sys.modules[name]
    if str(SOURCE) not in sys.path:
        sys.path.insert(0, str(SOURCE))
    cli = importlib.import_module("modlink.cli")
    origin = Path(cli.__file__).resolve()
    if SOURCE.resolve() not in origin.parents:
        raise SetupError(f"modlink was imported from {origin}, not from {SOURCE}")
    return cli


class Capture(io.TextIOBase):
    """Stdout replacement that keeps the text and the time of the first write."""

    def __init__(self):
        super().__init__()
        self.parts: list[str] = []
        self.first_write: float | None = None

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        if text and self.first_write is None:
            self.first_write = perf_counter()
        self.parts.append(text)
        return len(text)

    def getvalue(self) -> str:
        return "".join(self.parts)


@dataclass
class CommandResult:
    argv: tuple[str, ...]
    status: "int | None"  # exit code; None when an exception escaped
    stdout: str
    stderr: str
    latency_s: float
    first_record_s: float  # start to first stdout write (latency if none)


@dataclass
class PassResult:
    wall_s: float
    commands: list[CommandResult]


def run_pass(cli, commands) -> PassResult:
    """Run each command after the previous one finished (closed loop)."""
    results = []
    pass_start = perf_counter()
    for argv in commands:
        out, err = Capture(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            try:
                status = cli.main(list(argv))
            except Exception as exc:  # the command failed; keep running
                status = None
                err.write(f"{type(exc).__name__}: {exc}\n")
            end = perf_counter()
        first = out.first_write if out.first_write is not None else end
        results.append(
            CommandResult(tuple(argv), status, out.getvalue(), err.getvalue(),
                          end - start, first - start)
        )
    return PassResult(perf_counter() - pass_start, results)


def _git_revision() -> str:
    """HEAD of the checkout read from .git, or "unknown" outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def reference_loop_s(repeats: int = 5) -> float:
    """Median time of a fixed pure-Python loop, to show a slowed machine."""
    times = []
    for _ in range(repeats):
        start = perf_counter()
        acc = 0
        for i in range(300_000):
            acc += i * i % 7
        times.append(perf_counter() - start)
    return statistics.median(times)


def machine_stamp() -> dict:
    """Facts that let two results be compared; never used to normalise."""
    return {
        "git_revision": _git_revision(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "reference_loop_s": reference_loop_s(),
    }
