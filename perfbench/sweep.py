"""Scaling sweep: how CLI time grows with census depth, tower size and p + q.

    python3 perfbench/sweep.py

Not a gated benchmark.  Each size point runs in a child process that
imports modlink afresh for each of up to REPEATS runs and reports the
median time; a point that does not finish within POINT_TIMEOUT_S seconds
is killed and listed as left out, together with the larger sizes of its
series.  Every command also pays a fixed CLI cost (import-time set-up
and the argument parser, rebuilt on each call), measured as the median
time of ``word 1/1`` and subtracted from each point before fitting, so
that the fit shows the growth of the computation.  Points whose fixed
cost is over FIT_MAX_FIXED_SHARE of their time are printed but not
fitted.  The growth is fitted by least squares: a power-law exponent for
``table --n`` and ``word`` (time ~ size^k), and a factor per level for
census depth (time ~ b^depth).  The table goes to stdout and the full
record, with the machine stamp, to ``perfbench/out/sweep.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import harness

OUT_DIR = Path(__file__).resolve().parent / "out"

# series name -> (size label, sizes, fit kind)
SERIES = {
    "census": ("depth", (6, 7, 8, 9, 10), "exponential"),
    "table": ("n", (100, 200, 400, 800), "power"),
    "word": ("p+q", (1_000, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000), "power"),
}
FIXED_COST_ARGV = ["word", "1/1"]
REPEATS = 7
POINT_BUDGET_S = 10.0  # stop repeating a point once this much time is spent
POINT_TIMEOUT_S = 60.0  # a point that takes longer is left out
# The fixed cost varies by about 0.3 ms between runs; at a larger share
# that noise would bend the fit.
FIT_MAX_FIXED_SHARE = 0.2


def _word_slope(total: int) -> str:
    """A slope p/q with p + q = total, p near total / phi^2, gcd(p, q) = 1."""
    p = round(total * 0.381966)
    while math.gcd(p, total) != 1:
        p += 1
    return f"{p}/{total - p}"


def _argv(series: str, size: int) -> list[str]:
    if series == "census":
        return ["census", "--max-x", str(size)]
    if series == "table":
        return ["table", "--n", str(size)]
    return ["word", _word_slope(size)]


def _time_point(argv: list[str]) -> list[float]:
    """Time one command on a fresh import per repeat (child process side)."""
    times = []
    start = perf_counter()
    while len(times) < REPEATS and (not times or perf_counter() - start < POINT_BUDGET_S):
        result = harness.run_pass(harness.fresh_cli(), [argv])
        if result.commands[0].status != 0:
            raise SystemExit(f"{' '.join(argv)} exited {result.commands[0].status}")
        times.append(result.wall_s)
    return times


def _fit(points: list[tuple[int, float]], kind: str) -> "float | None":
    """Least-squares slope of log time against log size (or size)."""
    if len(points) < 2:
        return None
    xs = [x if kind == "exponential" else math.log(x) for x, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)
    return math.exp(slope) if kind == "exponential" else slope


def _median_in_child(argv: list[str]) -> "tuple[float, int] | None":
    """Median time and repeat count of one command, or None on timeout.

    Raises subprocess.CalledProcessError when the command fails.
    """
    try:
        child = subprocess.run(
            [sys.executable, __file__, "--point", *argv],
            capture_output=True, text=True, timeout=POINT_TIMEOUT_S, check=True,
        )
    except subprocess.TimeoutExpired:
        return None
    times = json.loads(child.stdout)
    return statistics.median(times), len(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--point", nargs=argparse.REMAINDER,
                        help=argparse.SUPPRESS)  # child process mode: a CLI command
    args = parser.parse_args(argv)

    if args.point:
        print(json.dumps(_time_point(args.point)))
        return 0

    try:
        harness.fresh_cli()  # fail early when the checkout has no sources
    except harness.SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        fixed_s, fixed_n = _median_in_child(FIXED_COST_ARGV)
    except subprocess.CalledProcessError as exc:
        print(exc.stderr, file=sys.stderr)
        return 1
    print(f"fixed CLI cost ({' '.join(FIXED_COST_ARGV)}): {fixed_s * 1e3:.3f} ms"
          f"  (median of {fixed_n})", flush=True)
    record = {"machine": harness.machine_stamp(), "fixed_cost_s": fixed_s, "series": {}}
    for series, (label, sizes, kind) in SERIES.items():
        points, left_out = [], []
        for size in sizes:
            if left_out:
                left_out.append({"size": size, "reason": "a smaller size did not finish"})
                continue
            try:
                timed = _median_in_child(_argv(series, size))
            except subprocess.CalledProcessError as exc:
                print(exc.stderr, file=sys.stderr)
                return 1
            if timed is None:
                left_out.append({"size": size, "reason": f"over {POINT_TIMEOUT_S:g} s"})
                continue
            median, repeats = timed
            fitted = fixed_s <= FIT_MAX_FIXED_SHARE * median
            points.append({"size": size, "median_s": median, "net_s": median - fixed_s,
                           "fitted": fitted})
            print(f"{series:6} {label}={size:<7} {median:10.4f} s"
                  f"  net {median - fixed_s:10.4f} s  (median of {repeats})"
                  f"{'' if fitted else '  not fitted: fixed cost too large a share'}",
                  flush=True)
        growth = _fit([(p["size"], p["net_s"]) for p in points if p["fitted"]], kind)
        if growth is None:
            summary = "too few points to fit"
        elif kind == "exponential":
            summary = f"net time grows x{growth:.2f} per {label} step"
        else:
            summary = f"net time ~ ({label})^k, fitted k = {growth:.2f}"
        print(f"{series:6} {summary}  (fixed cost {fixed_s * 1e3:.3f} ms subtracted)",
              flush=True)
        for item in left_out:
            print(f"{series:6} left out {label}={item['size']}: {item['reason']}", flush=True)
        record["series"][series] = {
            "command": _argv(series, sizes[0])[0],
            "size": label,
            "points": points,
            "fit": kind,
            "growth": growth,
            "left_out": left_out,
        }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "sweep.json").write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
