"""The three workloads: their commands, record counts and output checks.

Checks run outside the timed region.  Each returns, for the distinct
outputs it is given, a map from output index to the first problem found;
an index that is absent passed.  sympy is used only here, as an oracle.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from typing import Callable

Argv = tuple[str, ...]

CENSUS_DEPTH = 9
TOWER_N = 600
WORD_COUNT = 100
WORD_MAX = 20000

CENSUS_SAMPLE = 40  # orbit records factored again by sympy
WORD_SAMPLE = 3  # words recomputed by the geometric oracle


def _matrix_trace(word: str) -> int:
    """Trace of the product of L = (1 1; 0 1) and R = (1 0; 1 1), by hand."""
    a, b, c, d = 1, 0, 0, 1
    for ch in word:  # multiply on the right by the letter's matrix
        if ch == "L":
            b, d = b + a, d + c
        else:
            a, c = a + b, c + d
    return a + d


def _squarefree_of_trace(t: int) -> int:
    from sympy import factorint

    exponents: dict[int, int] = {}
    for n in (t - 2, t + 2):
        for prime, exp in factorint(n).items():
            exponents[prime] = exponents.get(prime, 0) + exp
    return math.prod(p for p, e in exponents.items() if e % 2)


def _each_output(problem_of):
    """Check outputs one by one; output that cannot be parsed is a problem."""

    def check(outputs: list[tuple[Argv, str]], rng: random.Random) -> dict[int, str]:
        problems = {}
        for index, (_, stdout) in enumerate(outputs):
            try:
                problem = problem_of(stdout, rng)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                problem = f"unparsable output: {type(exc).__name__}: {exc}"
            if problem:
                problems[index] = problem
        return problems

    return check


def _census_problem(stdout: str, rng: random.Random) -> "str | None":
    lines = stdout.splitlines()
    if len(lines) != 2**CENSUS_DEPTH - 1:
        return f"{len(lines)} lines, expected {2**CENSUS_DEPTH - 1}"
    orbits = []
    per_depth: dict[int, int] = {}
    last_x = 0
    for line in lines:
        family = json.loads(line)
        x = family["x"]
        if x < last_x:
            return f"family {family['target']} of depth {x} after depth {last_x}"
        last_x = x
        per_depth[x] = per_depth.get(x, 0) + 1
        if len(family["slopes"]) != 3 * x or len(family["orbits"]) != x:
            return f"family {family['target']} has wrong slope or orbit count"
        orbits.extend(family["orbits"])
    if per_depth != {x: 2 ** (x - 1) for x in range(1, CENSUS_DEPTH + 1)}:
        return f"families per depth {per_depth}"
    for orbit in rng.sample(orbits, CENSUS_SAMPLE):
        t = int(orbit["trace"])
        if _matrix_trace(orbit["word"]) != t:
            return f"trace of {orbit['word']} is not {t}"
        if _squarefree_of_trace(t) != orbit["discriminant"]:
            return f"discriminant of trace {t} is not {orbit['discriminant']}"
    return None


def _tower_problem(stdout: str, rng: random.Random) -> "str | None":
    rows = list(csv.reader(io.StringIO(stdout)))
    if len(rows) != TOWER_N + 1:
        return f"{len(rows) - 1} rows, expected {TOWER_N}"
    prev, expected = 3, 3  # t_0 = 3 makes t_1 = 3, t_2 = 6, t_3 = 15, ...
    for n, row in enumerate(rows[1:], start=1):
        if row[0] != str(n) or len(row[1]) != 2 * n or row[5] != str(n):
            return f"row {n} is malformed: {row[:2]}"
        if int(row[2]) != expected:
            return f"trace of row {n} is {row[2]}, expected {expected}"
        prev, expected = expected, 3 * expected - prev
    return None


def check_words(outputs: list[tuple[Argv, str]], rng: random.Random) -> dict[int, str]:
    from modlink.cutting import lr_geometric_oracle
    from modlink.farey import Slope

    problems = {}
    for index, (argv, stdout) in enumerate(outputs):
        p, q = map(int, argv[1].split("/"))
        word = stdout.removesuffix("\n")
        if "\n" in word or set(word) != {"L", "R"}:
            problems[index] = f"{argv[1]}: output is not one LR word"
        elif len(word) != p + q + abs(p - q):
            problems[index] = f"{argv[1]}: word has {len(word)} letters"
    for index in rng.sample(range(len(outputs)), min(WORD_SAMPLE, len(outputs))):
        argv, stdout = outputs[index]
        p, q = map(int, argv[1].split("/"))
        if index not in problems:
            expected = lr_geometric_oracle(Slope(p, q)).canonical().letters
            if stdout != expected + "\n":
                problems[index] = f"{argv[1]}: differs from the geometric oracle"
    return problems


def _census_commands(seed: int) -> list[Argv]:
    return [("census", "--max-x", str(CENSUS_DEPTH))]


def _tower_commands(seed: int) -> list[Argv]:
    return [("table", "--n", str(TOWER_N))]


def _word_commands(seed: int) -> list[Argv]:
    """WORD_COUNT slopes p/q with coprime p, q uniform on [1, WORD_MAX].

    Latin-hypercube draw: [1, WORD_MAX] is cut into WORD_COUNT equal
    strata, p takes one value in each stratum and q one value in each
    stratum in a shuffled order.  Each of p and q is still uniform, but
    the total word length varies far less between seeds than with
    independent draws, so a seed changes the slopes and not the load.
    """
    rng = random.Random(seed)
    width = WORD_MAX // WORD_COUNT
    q_strata = list(range(WORD_COUNT))
    rng.shuffle(q_strata)
    commands = []
    for p_stratum, q_stratum in zip(range(WORD_COUNT), q_strata):
        while True:
            p = p_stratum * width + rng.randint(1, width)
            q = q_stratum * width + rng.randint(1, width)
            if math.gcd(p, q) == 1:
                break
        commands.append(("word", f"{p}/{q}"))
    rng.shuffle(commands)
    return commands


def _lines(stdout: str) -> int:
    return stdout.count("\n")


def _csv_rows(stdout: str) -> int:
    return max(stdout.count("\n") - 1, 0)


@dataclass(frozen=True)
class Workload:
    name: str
    commands: Callable[[int], list[Argv]]
    warmup: Callable[[list[Argv]], list[Argv]]  # a smaller run of the same paths
    records: Callable[[str], int]  # output records in one command's stdout
    check: Callable[[list[tuple[Argv, str]], random.Random], dict[int, str]]
    expected_counts: dict[str, int]  # every traced pass must reproduce these


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "census",
            _census_commands,
            lambda commands: [("census", "--max-x", "7")],
            _lines,
            _each_output(_census_problem),
            {
                "links.build_family.calls": 511,
                "psl2z.field_discriminant.calls": 4097,
                "psl2z.word_to_matrix.letters": 75662,
            },
        ),
        Workload(
            "tower",
            _tower_commands,
            lambda commands: [("table", "--n", "200")],
            _csv_rows,
            _each_output(_tower_problem),
            {"psl2z.word_to_matrix.letters": 360600},
        ),
        Workload(
            "words",
            _word_commands,
            lambda commands: commands[:10],
            _lines,
            check_words,
            {"psl2z.word_to_matrix.calls": 0, "psl2z.field_discriminant.calls": 0},
        ),
    )
}
