"""Benchmark of the modlink command line, end to end and layer by layer.

    python3 perfbench/run.py --workload census --seed 1 --seconds 30 --trace 0

One process, one closed-loop client: ``modlink.cli.main(argv)`` is
called in process with stdout captured, each command after the previous
one returned.  A pass runs the workload's whole command list on a fresh
import of modlink, as a new CLI process would.  With ``--trace 0`` the
passes are untraced and the end-to-end metrics are reported; with
``--trace 1`` untraced and traced passes alternate, and the per-layer
metrics and the tracing overhead are reported.  Outputs are checked
after the timed passes.  The last stdout line is the JSON result; a
readable summary goes to stderr and the full record, with the machine
stamp, to ``perfbench/out/``.  The exit code is 1 when a check fails
and 2 when the checkout holds no modlink sources.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import harness
import tracer as tracing
from workloads import WORKLOADS

OUT_DIR = Path(__file__).resolve().parent / "out"
MIN_PASSES = 3  # untraced run
MIN_TRACED_PASSES = 2  # traced run, each paired with an untraced pass


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _setup(workload, seed):
    """Import, input generation and warm-up; returns commands and seconds."""
    start = perf_counter()
    cli = harness.fresh_cli()
    commands = workload.commands(seed)
    harness.run_pass(cli, workload.warmup(commands))
    return commands, perf_counter() - start


def _one_pass(commands, reference=None, tracer=None, pass_id=0):
    """One pass on a fresh import.

    Outputs equal to the reference pass's are replaced by its strings, so
    that memory does not grow with the number of passes.
    """
    cli = harness.fresh_cli()
    gc.collect()
    if tracer is None:
        result = harness.run_pass(cli, commands)
    else:
        with tracer.installed(pass_id):
            result = harness.run_pass(cli, commands)
        tracer.sizes[pass_id]["cli.main.stdout_bytes"] = sum(
            len(c.stdout.encode()) for c in result.commands
        )
    if reference is not None:
        for mine, theirs in zip(result.commands, reference.commands):
            if mine.stdout == theirs.stdout:
                mine.stdout = theirs.stdout
    return result


def _check(workload, passes, seed):
    """Check every distinct output; returns (attempted, failed, problems)."""
    distinct: dict[tuple[int, str], int] = {}
    outputs = []
    for p in passes:
        for i, c in enumerate(p.commands):
            if (i, c.stdout) not in distinct:
                distinct[(i, c.stdout)] = len(outputs)
                outputs.append((c.argv, c.stdout))
    bad_outputs = workload.check(outputs, random.Random(f"check-{seed}"))
    problems = list(dict.fromkeys(bad_outputs.values()))
    attempted = failed = 0
    for p in passes:
        for i, c in enumerate(p.commands):
            attempted += 1
            if c.status != 0:
                failed += 1
                problems.append(f"{' '.join(c.argv)}: exit {c.status}: {c.stderr.strip()}")
            elif distinct[(i, c.stdout)] in bad_outputs:
                failed += 1
    return attempted, failed, problems


def _end_to_end(workload, passes, setup_times, rss_mb):
    walls = [p.wall_s for p in passes]
    latencies = [c.latency_s for p in passes for c in p.commands]
    firsts = [c.first_record_s for p in passes for c in p.commands]
    records = sum(workload.records(c.stdout) for c in passes[0].commands)
    wall = statistics.median(walls)
    # (value, unit, samples)
    return {
        "wall_s": (wall, "s", len(walls)),
        "records_per_s": (records / wall, "1/s", len(walls)),
        "first_record_s": (statistics.median(firsts), "s", len(firsts)),
        "cmd_p50_ms": (statistics.median(latencies) * 1e3, "ms", len(latencies)),
        "peak_rss_mb": (rss_mb, "MB", 1),
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
    }


def _tail_latency(passes):
    """cmd_p90_ms, or None when fewer than 10 samples lie beyond it.

    Not gated: census and tower run one command per pass, so their few
    samples give no p90, and the benchmark format gates a metric on every
    workload or on none.
    """
    latencies = [c.latency_s for p in passes for c in p.commands]
    if len(latencies) < 100:
        return None
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8]
    return p90 * 1e3, "ms", len(latencies)


def _run_untraced(workload, seed, commands, setup_s, seconds):
    """Timed passes, each followed by one more set-up to time.

    Spreading the set-ups over the run, instead of repeating them at its
    start, lets their median see the same machine as the passes do.
    """
    passes, setup_times = [], [setup_s]
    deadline = perf_counter() + seconds
    while len(passes) < MIN_PASSES or perf_counter() < deadline:
        passes.append(_one_pass(commands, passes[0] if passes else None))
        setup_times.append(_setup(workload, seed)[1])
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return passes, setup_times, rss_mb


def _run_traced(workload, commands, seconds):
    """Alternate untraced and traced passes; the difference is the overhead."""
    tracer = tracing.Tracer()
    plain, traced = [], []
    deadline = perf_counter() + seconds
    while len(traced) < MIN_TRACED_PASSES or perf_counter() < deadline:
        plain.append(_one_pass(commands, plain[0] if plain else None))
        traced.append(_one_pass(commands, plain[0], tracer, len(traced)))
    combined, unstable = tracing.combine(
        [tracer.pass_summary(i) for i in range(len(traced))]
    )
    units = {f"{layer}.{m}": unit for layer in tracing.LAYERS for m, unit in tracing.LAYER_METRICS}
    units.update(tracing.SIZE_METRICS)
    metrics = {key: (value, units[key], len(traced)) for key, value in combined.items()}
    overhead = (statistics.median(p.wall_s for p in traced)
                - statistics.median(p.wall_s for p in plain))
    metrics["trace.overhead_s"] = (overhead, "s", len(traced))
    count_problems = unstable + [
        f"{key} is {combined[key]}, expected {expected}"
        for key, expected in workload.expected_counts.items()
        if combined[key] != expected
    ]
    return plain + traced, metrics, count_problems, tracer


def main(argv=None) -> int:
    args = _parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        commands, setup_s = _setup(workload, args.seed)
    except harness.SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    stamp = harness.machine_stamp()
    tracer = None
    ungated = {}
    if args.trace:
        passes, metrics, problems, tracer = _run_traced(workload, commands, args.seconds)
    else:
        passes, setup_times, rss_mb = _run_untraced(
            workload, args.seed, commands, setup_s, args.seconds
        )
        metrics = _end_to_end(workload, passes, setup_times, rss_mb)
        tail = _tail_latency(passes)
        if tail is not None:
            ungated["cmd_p90_ms"] = tail
        problems = []
    attempted, failed, check_problems = _check(workload, passes, args.seed)
    problems += check_problems
    correct = not problems

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": stamp,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "problems": problems,
        "pass_wall_s": [p.wall_s for p in passes],
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()},
        "ungated_metrics": {k: {"value": v, "unit": u, "samples": n}
                            for k, (v, u, n) in ungated.items()},
    }
    stem.with_suffix(".json").write_text(json.dumps(record, indent=2) + "\n")
    if tracer is not None:
        tracer.write_spans(stem.with_suffix(".spans.tsv"))

    print(f"{args.workload} seed={args.seed} trace={args.trace} {json.dumps(stamp)}",
          file=sys.stderr)
    for key, (value, unit, n) in metrics.items():
        print(f"  {key} = {value:.6g} {unit} (n={n})", file=sys.stderr)
    for key, (value, unit, n) in ungated.items():
        print(f"  {key} = {value:.6g} {unit} (n={n}, not gated)", file=sys.stderr)
    print(f"  failed_frac = {failed / attempted:.6g} ({failed}/{attempted} commands)",
          file=sys.stderr)
    for problem in problems:
        print(f"  check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
