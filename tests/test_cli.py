"""Command-line interface tests.

Exit code contract: 0 success, 1 when ``cutting --check`` finds an
oracle that disagrees, 2 malformed invocation (argparse level), an
output that cannot be opened or written, or a command out of memory, 3
well-formed input outside the mathematical domain, 130 with nothing
printed on Ctrl-C, 141 with nothing printed when the reader closes the
output pipe early.  All error text goes to stderr as a single
"error: ..." line; stdout stays machine readable.  A broken invariant
is a fault: main raises it rather than exit with a domain error.
"""

import contextlib
import errno
import functools
import hashlib
import io
import itertools
import json
import math
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from modlink import cli, cutting, farey, figures, links, psl2z
from modlink.cli import main
from modlink.farey import INFINITY, ONE, NotAChainError, Slope, farey_path
from modlink.psl2z import EllipticError, GeodesicWord, least_rotation

from pinned_outputs import PINNED, PINNED_ERRORS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- success


def test_word(capsys):
    code, out, err = run(capsys, "word", "1/7")
    assert (code, out, err) == (0, "LLRRLRLRLRLRLR\n", "")


def test_word_routes_negative_slope_with_notice(capsys):
    for slope in ("-2/1", "-2/+1"):
        code, out, err = run(capsys, "word", slope)
        assert code == 0
        assert out == "LLRRLR\n"
        assert err == "notice: -2/1 routed via v-orbit representative 1/3\n"


def test_slope_info(capsys):
    code, out, err = run(capsys, "slope-info", "3/2")
    assert code == 0
    assert out.splitlines() == [
        "slope: 3/2",
        "continued-fraction: [1, 2]",
        "farey-path-length: 3",
        "v-orbit: -2/1 1/3 3/2",
    ]


def test_slope_info_json_handles_infinity(capsys):
    code, out, _ = run(capsys, "slope-info", "1/0", "--json")
    data = json.loads(out)
    assert code == 0
    assert data["slope"] == "1/0"
    assert data["continued_fraction"] is None
    assert data["v_orbit"] == ["0/1", "1/1", "1/0"]


def test_slope_info_reads_x_off_the_continued_fraction(capsys, monkeypatch):
    # x is the digit sum; walking the Farey path would take time and
    # memory linear in x
    slopes = [Slope(p, q) for p in range(21) for q in range(1, 21) if math.gcd(p, q) == 1]
    expected = {s: farey_path(s).x for s in slopes + [INFINITY]}

    def no_walk(target):
        raise AssertionError(f"slope-info walked the Farey path to {target}")

    monkeypatch.setattr(farey, "_descent", no_walk)
    code, out, _ = run(capsys, "slope-info", "1/1000000000")
    assert code == 0
    assert "farey-path-length: 1000000000" in out.splitlines()
    for s, x in expected.items():
        code, out, _ = run(capsys, "slope-info", str(s))
        assert (code, out.splitlines()[2]) == (0, f"farey-path-length: {x}"), s


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"),
    reason="interpreters before 3.10.7 have no int-string limit",
)
def test_cli_lifts_the_int_string_limit_for_one_call(capsys):
    a, b = 1, 1
    while len(str(b)) < 641:
        a, b = b, a + b
    fibonacci_ratio = f"{b}/{a}"  # spelled before the limit is lowered
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        # the table's traces reach 669 digits
        code, out, err = run(capsys, "table", "--n", "1600")
        assert (code, err) == (0, "")
        assert hashlib.md5(out.encode()).hexdigest() == "fb8f34deb44458714ad1a9facad9cf79"
        assert sys.get_int_max_str_digits() == 640
        code, out, err = run(capsys, "slope-info", fibonacci_ratio)
        assert (code, err) == (0, "")
        assert out.splitlines()[0] == f"slope: {fibonacci_ratio}"
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(saved)


def test_cutting_with_oracle_check(capsys):
    code, out, err = run(capsys, "cutting", "3/2", "--check")
    assert code == 0
    assert out.splitlines() == [
        "slope: 3/2",
        "ab-word: ABABB",
        "lr-word: LLRRLR",
        "oracle-ab: match",
        "oracle-lr: match",
    ]


def test_cutting_check_scans_each_word_once(capsys, monkeypatch):
    calls = []

    def counting(s):
        calls.append(len(s))
        return least_rotation(s)

    # the AB oracle calls it through cutting's own binding
    monkeypatch.setattr(psl2z, "least_rotation", counting)
    monkeypatch.setattr(cutting, "least_rotation", counting)
    code, out, err = run(capsys, "cutting", "10007/7777", "--check")
    assert (code, err) == (0, "")
    assert out.endswith("oracle-ab: match\noracle-lr: match\n")
    # the AB and LR words are built canonical; only the two oracle words are scanned
    assert sorted(calls) == [17784, 20014]


@pytest.mark.parametrize(
    "argv",
    [("word", "10007/7777"), ("census", "--max-x", "5")],
    ids=["word", "census"],
)
def test_words_are_built_canonical_without_a_rotation_scan(capsys, monkeypatch, argv):
    calls = []

    def counting(s):
        calls.append(len(s))
        return least_rotation(s)

    monkeypatch.setattr(psl2z, "least_rotation", counting)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert calls == []


def test_one_parser_serves_a_sequence_of_commands(capsys):
    commands = [
        ("word", "3/"),
        ("word", "0/0"),
        ("word", "1/7"),
        ("table", "--n", "2"),
    ]
    alone = []
    for argv in commands:
        cli._build_parser.cache_clear()
        alone.append(run(capsys, *argv))
    cli._build_parser.cache_clear()
    in_sequence = [run(capsys, *argv) for argv in commands]
    assert in_sequence == alone
    assert [code for code, _, _ in alone] == [2, 3, 0, 0]
    assert cli._build_parser.cache_info().misses == 1


def test_well_formed_lines_never_build_argparse(capsys):
    cli._build_parser.cache_clear()
    for argv in [("word", "3/2"), ("census", "--max-x", "3"), ("table", "--n", "2"),
                 ("family", "3/2", "--json", "-")]:
        assert run(capsys, *argv)[0] == 0
    assert cli._build_parser.cache_info().misses == 0


def test_length(capsys):
    code, out, err = run(capsys, "length", "LLRR")
    assert code == 0
    assert out.splitlines() == [
        "word: LLRR",
        "trace: 6",
        "length: 3.52549434808",
        "discriminant: 2",
    ]


def test_length_of_a_long_perfect_power_word(capsys):
    # trace 418 digits; t - 2 and t + 2 are 5 F_1000^2 and L_1000^2
    code, out, err = run(capsys, "length", "LR" * 1000)
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "discriminant: 5"


def test_family_json(capsys):
    code, out, err = run(capsys, "family", "3/2", "--json", "-")
    assert code == 0
    data = json.loads(out)
    assert data["target"] == "3/2"
    assert data["x"] == 3
    assert data["counts"] == {"modular": 3, "ut_single": 9, "ut_both": 18}
    assert data["volume_modular"] == 10.9915871301


def test_family_text(capsys):
    code, out, err = run(capsys, "family", "3/2")
    assert code == 0
    assert "target: 3/2" in out
    assert "ratio: 3.33576633705" in out


def test_census_jsonl(capsys):
    code, out, err = run(capsys, "census", "--max-x", "3")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert [r["target"] for r in rows] == [
        "1/1", "1/2", "2/1", "1/3", "2/3", "3/2", "3/1",
    ]
    code, out, err = run(capsys, "census", "--max-x", "3", "--dedupe-mirror")
    rows = [json.loads(line) for line in out.splitlines()]
    assert [r["target"] for r in rows] == ["1/1", "1/2", "1/3", "2/3"]


@pytest.mark.parametrize(
    "argv",
    [
        ("family", "3/2", "--json"),
        ("census", "--max-x", "4", "--jsonl"),
        ("table", "--n", "20", "--csv"),
        ("svg-path", "3/2", "--out"),
        ("svg-line", "3/2", "--out"),
    ],
    ids=["family-json", "census-jsonl", "table-csv", "svg-path-out", "svg-line-out"],
)
def test_an_output_file_gets_the_same_bytes_as_stdout(tmp_path, capsys, argv):
    code, out, err = run(capsys, *argv, "-")
    assert (code, err) == (0, "")
    assert out
    path = tmp_path / "out"
    code, file_out, err = run(capsys, *argv, str(path))
    assert (code, file_out, err) == (0, "", "")
    assert path.read_text() == out


def test_census_streams_one_line_per_family(monkeypatch):
    built, writes = [], []
    census = links.census

    def counting_census(*args, **kwargs):
        for family in census(*args, **kwargs):
            built.append(family)
            yield family

    class Recorder(io.StringIO):
        def write(self, text):
            writes.append((len(built), text))
            return super().write(text)

    monkeypatch.setattr(links, "census", counting_census)
    monkeypatch.setattr("sys.stdout", Recorder())
    assert main(["census", "--max-x", "3"]) == 0
    # each line is written as soon as its family is built
    assert [n for n, _ in writes] == list(range(1, 8))
    assert all(text.count("\n") == 1 for _, text in writes)


def test_table_csv(capsys):
    code, out, err = run(capsys, "table", "--n", "2", "--csv", "-")
    assert code == 0
    assert out.splitlines() == [
        "n,word,trace,length,cumulative_length,octahedra,"
        "volume,volume_paper_formula,ratio",
        "1,LR,3,1.92484730024,1.92484730024,1,"
        "3.66386237671,1.83193118835,2.64083344221",
        "2,LLRR,6,3.52549434808,5.45034164832,2,"
        "7.32772475342,3.66386237671,3.13875403957",
    ]


def test_table_streams_each_row_as_it_is_computed(monkeypatch):
    multiplied, writes = [], []
    word_to_matrix = links.word_to_matrix

    def counting_word_to_matrix(word):
        multiplied.append(word)
        return word_to_matrix(word)

    class Recorder(io.StringIO):
        def write(self, text):
            writes.append((len(multiplied), text))
            return super().write(text)

    monkeypatch.setattr(links, "word_to_matrix", counting_word_to_matrix)
    monkeypatch.setattr("sys.stdout", Recorder())
    assert main(["table", "--n", "5"]) == 0
    # the header before any row, each row as soon as its matrix is built
    assert [n for n, _ in writes] == list(range(6))
    assert writes[0][1].startswith("n,word,")
    assert all(text.count("\n") == 1 for _, text in writes)


def test_table_memory_stays_flat_in_n():
    # the whole table --n 2000 is 5.0 MB of text; streamed, it holds
    # one row of at most 4.9 kB at a time (peak 33 kB measured)
    tracemalloc.start()
    try:
        assert main(["table", "--n", "2000", "--csv", os.devnull]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak


def test_svg_outputs(tmp_path, capsys):
    disk = tmp_path / "disk.svg"
    line = tmp_path / "line.svg"
    assert run(capsys, "svg-path", "3/2", "--out", str(disk))[0] == 0
    assert run(capsys, "svg-line", "3/2", "--out", str(line))[0] == 0
    ET.parse(disk)
    ET.parse(line)


def test_outputs_are_deterministic(capsys):
    first = run(capsys, "family", "3/2", "--json", "-")
    second = run(capsys, "family", "3/2", "--json", "-")
    assert first == second
    assert run(capsys, "svg-line", "2/3", "--out", "-") == run(
        capsys, "svg-line", "2/3", "--out", "-"
    )


@pytest.mark.parametrize(
    "argv, md5",
    [(argv, md5) for argv, md5, _ in PINNED],
    ids=[name for _, _, name in PINNED],
)
def test_outputs_are_byte_identical_to_the_pinned_digests(capsys, argv, md5):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.md5(out.encode()).hexdigest() == md5


@pytest.mark.parametrize(
    "oracle, wrong, verdicts",
    [
        ("ab_sequence_geometric", "AB", "oracle-ab: mismatch\noracle-lr: match\n"),
        ("lr_geometric_oracle", GeodesicWord("LR"), "oracle-ab: match\noracle-lr: mismatch\n"),
    ],
    ids=["ab", "lr"],
)
def test_a_disagreeing_oracle_exits_1(capsys, monkeypatch, oracle, wrong, verdicts):
    monkeypatch.setattr(cli, oracle, lambda s: wrong)
    code, out, err = run(capsys, "cutting", "--check", "3/2")
    assert (code, err) == (1, "")
    assert out.endswith(verdicts)


def test_cutting_output_slopes_reparse(capsys):
    _, out, _ = run(capsys, "cutting", "5/3")
    slope_line = out.splitlines()[0]
    assert slope_line.removeprefix("slope: ") == "5/3"


# ----------------------------------------------------- malformed, exit 2


@pytest.mark.parametrize(
    "argv",
    [
        ("word", "3"),
        ("word", "3/"),
        ("word", "a/b"),
        ("length", "LRX"),
        ("length", ""),
        ("census", "--max-x", "0"),
        ("census", "--max-x", "two"),
        ("table", "--n", "-1"),
        ("table",),
        ("svg-path", "3/2"),
        ("nonsense",),
        (),
        ("word", "3/2\n"),
        ("word", "\u0663/\u0662"),
        ("word", "1_0/3"),
        ("word", "-.5"),
        ("census", "--max-x", "-3"),
        ("word", "-2"),
        ("word", "-2/1x"),
        ("table", "--n", "1_0"),
        ("census", "--max-x", "\u0663"),
        ("table", "--n", " 5"),
    ],
)
def test_malformed_invocations_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert len(err.rstrip("\n").splitlines()) == 1


def _reaches_the_word_check(text: str) -> bool:
    """Whether argparse passes text on as the word rather than as an option flag."""
    return not text.startswith("-") or bool(cli._NEGATIVE_NUMBER_START.match(text))


# the alphabets of test_psl2z's letter-check test; at most 24 letters, so
# that no valid word has a trace that takes long to factor
@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.text(max_size=24).filter(_reaches_the_word_check),
    st.text(alphabet="LR", max_size=24),
    st.text(alphabet="LRlr\uff2c\x00\u0301", max_size=24),
))
@example("LR\n")
@example("L\uff2c")  # fullwidth L
@example("L\u0301R")  # L with a combining acute accent
@example("-5")
@example("RRRL")
@example("LLLL")
def test_length_checks_its_letters_at_the_cli(text):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["length", text])
    malformed = (
        f"error: argument word: malformed-word: {text!r} is not a nonempty word over L, R\n"
    )
    if text and set(text) <= {"L", "R"}:
        # a power of L or of R has trace 2: parabolic, exit 3
        assert code in (0, 3) and err.getvalue() != malformed
    else:
        assert (code, out.getvalue(), err.getvalue()) == (2, "", malformed)


@pytest.mark.parametrize(
    "argv, message",
    [
        (("table", "--n", "-1"), "argument --n: malformed-integer: -1 is not >= 1"),
        (("census", "--max-x", "-3"), "argument --max-x: malformed-integer: -3 is not >= 1"),
        (("word", "-2"), "argument slope: malformed-slope: '-2' is not 'p/q'"),
        (("word", "-2/1x"), "argument slope: malformed-slope: '-2/1x' is not 'p/q'"),
        (("word", "-.5"), "argument slope: malformed-slope: '-.5' is not 'p/q'"),
        (("slope-info", "-.5/2"),
         "argument slope: malformed-slope: '-.5/2' is not 'p/q'"),
        (("table", "--n", "-.5"), "argument --n: malformed-integer: '-.5'"),
    ],
    ids=["table-n", "census-max-x", "word-integer", "word-trailing-text",
         "word-dot", "slope-info-dot", "table-n-dot"],
)
def test_negative_numbers_are_values_that_name_the_error(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("family", "3/2", "--json"),
        ("census", "--max-x", "2", "--jsonl"),
        ("table", "--n", "2", "--csv"),
        ("svg-path", "3/2", "--out"),
        ("svg-line", "3/2", "--out"),
    ],
    ids=["family-json", "census-jsonl", "table-csv", "svg-path-out", "svg-line-out"],
)
def test_unwritable_output_file_exits_2_with_one_line(tmp_path, capsys, argv):
    target = tmp_path / "missing-directory" / "out"
    detail = os.strerror(errno.ENOENT)
    assert run(capsys, *argv, str(target)) == (
        2, "", f"error: unwritable-output: {target}: {detail}\n"
    )


@pytest.mark.parametrize(
    "argv, module, compute",
    [
        (("family", "89/55", "--json"), links, "build_family"),
        (("table", "--n", "1600", "--csv"), links, "volume_length_table"),
        (("svg-path", "89/55", "--out"), figures, "farey_disk_svg"),
        (("svg-line", "89/55", "--out"), figures, "lattice_line_svg"),
    ],
    ids=["family-json", "table-csv", "svg-path-out", "svg-line-out"],
)
def test_unwritable_output_fails_before_computing(tmp_path, capsys, monkeypatch,
                                                  argv, module, compute):
    def refuse(*args):
        raise AssertionError(f"{compute} ran before the output was opened")

    monkeypatch.setattr(module, compute, refuse)
    target = tmp_path / "missing-directory" / "out"
    detail = os.strerror(errno.ENOENT)
    assert run(capsys, *argv, str(target)) == (
        2, "", f"error: unwritable-output: {target}: {detail}\n"
    )


# ------------------------------------------- closed pipes and full outputs


def _cli_process(*argv, stdout, **options) -> subprocess.Popen:
    """modlink run in a process of its own, on this checkout's sources."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    return subprocess.Popen([sys.executable, "-m", "modlink.cli", *argv],
                            stdout=stdout, stderr=subprocess.PIPE, env=env,
                            **options)


@pytest.mark.parametrize(
    "argv, read",
    [
        (("census", "--max-x", "9"), lambda out: out.read(100)),
        (("table", "--n", "3000"), lambda out: out.readline()),
    ],
    ids=["census-head-c-100", "table-head-1"],
)
def test_a_closed_pipe_ends_the_command_quietly_with_status_141(argv, read):
    child = _cli_process(*argv, stdout=subprocess.PIPE)
    assert read(child.stdout)
    child.stdout.close()  # as head does once it has its bytes or lines
    err = child.stderr.read()
    child.stderr.close()
    assert (child.wait(timeout=120), err) == (141, b"")


_needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"),
                                     reason="no /dev/full on this system")


@_needs_dev_full
def test_a_full_output_file_exits_2_with_one_line(capsys):
    detail = os.strerror(errno.ENOSPC)
    assert run(capsys, "census", "--max-x", "3", "--jsonl", "/dev/full") == (
        2, "", f"error: unwritable-output: /dev/full: {detail}\n"
    )


@_needs_dev_full
def test_a_full_stdout_exits_2_with_one_line():
    with open("/dev/full", "w") as full:
        child = _cli_process("word", "3/2", stdout=full)
        _, err = child.communicate(timeout=120)
    detail = os.strerror(errno.ENOSPC)
    assert (child.returncode, err.decode()) == (
        2, f"error: unwritable-output: <stdout>: {detail}\n"
    )


# ------------------------------------------------ out of memory and Ctrl-C


def _limit_address_space_to_1_gib():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


@pytest.mark.skipif(sys.platform == "win32", reason="needs RLIMIT_AS")
def test_running_out_of_memory_exits_2_with_one_line():
    # the word of 3000000000/1 has 6e9 letters, past the child's 1 GiB;
    # the limit is set in the child only
    child = _cli_process("word", "3000000000/1", stdout=subprocess.PIPE,
                         preexec_fn=_limit_address_space_to_1_gib)
    out, err = child.communicate(timeout=120)
    assert (child.returncode, out, err.decode()) == (
        2, b"", "error: out-of-memory: the command needs more memory than this"
        " process may use\n"
    )


@pytest.mark.skipif(sys.platform == "win32", reason="needs SIGINT")
def test_ctrl_c_ends_the_command_quietly_with_status_130():
    # family 144/89 spends minutes factoring a 187-bit number
    child = _cli_process("family", "144/89", stdout=subprocess.PIPE)
    try:
        time.sleep(2)
        child.send_signal(signal.SIGINT)
        out, err = child.communicate(timeout=60)
    finally:
        child.kill()
        child.wait()
    assert (child.returncode, out, err) == (130, b"", b"")


# -------------------------------------------------- domain errors, exit 3


@pytest.mark.parametrize("existing", [True, False], ids=["existing", "missing"])
@pytest.mark.parametrize(
    "argv, slug",
    [
        (("family", "-2/1", "--json"), "negative-slope"),
        (("svg-path", "-1/2", "--out"), "negative-slope"),
        (("svg-line", "1/0", "--out"), "unsupported-slope"),
    ],
    ids=["family-json", "svg-path-out", "svg-line-out"],
)
def test_domain_error_leaves_the_output_file_alone(tmp_path, capsys, argv, slug,
                                                   existing):
    target = tmp_path / "out"
    if existing:
        target.write_bytes(b"kept\n")
    code, out, err = run(capsys, *argv, str(target))
    assert (code, out) == (3, "")
    assert err.startswith(f"error: {slug}: ")
    if existing:
        assert target.read_bytes() == b"kept\n"
    else:
        assert not target.exists()


@pytest.mark.parametrize(
    "argv, slug",
    [
        (("slope-info", "0/0"), "undefined-slope"),
        (("word", "0/0"), "undefined-slope"),
        (("length", "LL"), "parabolic"),
        (("length", "RRR"), "parabolic"),
        (("family", "-2/1"), "negative-slope"),
        (("svg-line", "1/0", "--out", "-"), "unsupported-slope"),
        (("cutting", "1/0"), "unsupported-slope"),
        # F_93/F_92: a path of 92 triangles, within family's limit, to a
        # word of 2 F_93 > sys.maxsize letters
        (("family", "12200160415121876738/7540113804746346429"), "too-large"),
    ],
)
def test_domain_errors_exit_3(capsys, argv, slug):
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("error: ")
    assert slug in err
    assert len(err.rstrip("\n").splitlines()) == 1


class _Reached(Exception):
    """The command got past its size check to the work."""


def _reach(*args):
    raise _Reached


@pytest.mark.parametrize(
    "command, module, compute, largest",
    [
        ("word", cli, "slope_to_word", sys.maxsize // 2),
        ("cutting", cli, "ab_sequence", sys.maxsize // 2),
        ("family", links, "build_family", cli._MAX_FAMILY_X),
        ("svg-path", figures, "farey_disk_svg", cli._MAX_SVG_PATH_X),
        ("svg-line", figures, "lattice_line_svg", cli._MAX_SVG_LINE_CROSSINGS - 1),
    ],
    ids=["word", "cutting", "family", "svg-path", "svg-line"],
)
def test_a_slope_past_the_limit_is_refused_before_any_work(tmp_path, capsys, monkeypatch,
                                                           command, module, compute,
                                                           largest):
    # 1/largest is the largest slope of the fan 1/n that the command takes:
    # a word of 2n letters, a path of n triangles, a line crossing n + 1
    monkeypatch.setattr(module, compute, _reach)
    target = tmp_path / "out"
    output = ["--out", str(target)] if command.startswith("svg") else []
    with pytest.raises(_Reached):
        main([command, f"1/{largest}", *output])
    target.write_bytes(b"kept\n")
    code, out, err = run(capsys, command, f"1/{largest + 1}", *output)
    assert (code, out) == (3, "")
    assert err.startswith("error: too-large: ") and err.count("\n") == 1
    assert target.read_bytes() == b"kept\n"


@pytest.mark.parametrize(
    "argv, code, err", PINNED_ERRORS,
    ids=[" ".join(argv) for argv, _, _ in PINNED_ERRORS],
)
def test_error_lines_are_byte_identical_to_the_pinned_ones(capsys, argv, code, err):
    assert run(capsys, *argv) == (code, "", err)


# ----------------------------------------------------- invariant failures


def test_a_broken_chain_is_a_fault_not_a_domain_error(capsys, monkeypatch):
    # no argument reaches a chain the package did not build itself, so a
    # failing chain is a broken invariant and must not exit 3 as bad input
    def broken(slopes):
        raise NotAChainError(ONE, ONE)

    monkeypatch.setattr(links, "order_as_farey_chain", broken)
    with pytest.raises(NotAChainError):
        main(["family", "3/2"])
    assert capsys.readouterr().err == ""


def test_an_elliptic_word_is_a_fault_not_a_domain_error(capsys, monkeypatch):
    # every CLI word is a nonempty product of L and R, with trace >= 2, so
    # an elliptic trace is a broken invariant, not input to exit 3 on
    def broken(t):
        raise EllipticError(f"trace {t}")

    monkeypatch.setattr(cli, "geodesic_length", broken)
    with pytest.raises(EllipticError):
        main(["length", "LR"])
    assert capsys.readouterr().err == ""


# ------------------------------------------------------- the CLI contract

# Sides, depths, rows and words stay small: each command must finish in
# well under a second.  A 20-digit side would make family factor without
# end, which is the open problem of bounded work, not of this contract.
_SIDE = st.one_of(
    st.integers(-40, 40).map(str), st.integers(0, 40).map(lambda n: f"+{n}")
)
_ODD_TEXT = ["", "0/0", "7/0", "-3/0", "-.5", "-.5/2", "1_0/3", " 5/2", "3/2\n",
             "\u0663/\u0662", "3", "a/b", "-", "1_0", " 5", "\u0663", "two"]
_SLOPE = st.one_of(
    st.builds("{}/{}".format, _SIDE, _SIDE), st.sampled_from(_ODD_TEXT)
)
_WORD = st.one_of(st.text("LR", max_size=16), st.sampled_from(_ODD_TEXT + ["LRX"]))


# The one line of an exit 3: a slug that names the domain, then a detail.
_DOMAIN_ERROR_LINE = (
    r"error: (undefined-slope|parabolic|negative-slope|unsupported-slope|too-large): .+"
)


def _count(most: int):
    return st.one_of(st.integers(-2, most).map(str), st.sampled_from(_ODD_TEXT))


# Per command: the parts it requires, then the parts it may take, each
# part an argument or an option with its value.  Every output goes to '-'.
_COMMANDS = {
    "slope-info": ([(_SLOPE,)], [("--json",)]),
    "cutting": ([(_SLOPE,)], [("--check",)]),
    "word": ([(_SLOPE,)], []),
    "family": ([(_SLOPE,)], [("--json", "-")]),
    "census": ([("--max-x", _count(4))], [("--jsonl", "-"), ("--dedupe-mirror",)]),
    "table": ([("--n", _count(40))], [("--csv", "-")]),
    "length": ([(_WORD,)], []),
    "svg-path": ([(_SLOPE,), ("--out", "-")], []),
    "svg-line": ([(_SLOPE,), ("--out", "-")], []),
}


def _tokens(part):
    return st.tuples(*(st.just(t) if isinstance(t, str) else t for t in part))


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    required, optional = _COMMANDS[command]
    parts = [draw(_tokens(part)) for part in required]
    parts += [draw(_tokens(part)) for part in optional if draw(st.booleans())]
    argv = [command] + [t for part in draw(st.permutations(parts)) for t in part]
    if draw(st.integers(0, 3)) == 0:  # a missing argument
        del argv[draw(st.integers(1, len(argv) - 1))]
    if draw(st.integers(0, 3)) == 0:  # an extra argument
        argv.append(draw(st.one_of(_SLOPE, _WORD)))
    return argv


@settings(deadline=None, max_examples=500)
@given(_argvs())
@example(["cutting", "0/1", "3/2\n"])  # argparse echoes the extra argument
@example(["svg-line", "3/2", "--out", "3/2\n"])  # the name of the output
def test_every_invocation_keeps_the_exit_and_stderr_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    here = os.getcwd()
    # an option whose '-' went missing takes the next argument as its file
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        finally:
            os.chdir(here)
    assert code in (0, 2, 3)
    lines = err.getvalue().splitlines()
    if lines[:1] and lines[0].startswith("notice: "):
        del lines[0]
    assert len(lines) == (code != 0)
    assert all(line.startswith("error: ") for line in lines)
    if code == 3:
        assert re.fullmatch(_DOMAIN_ERROR_LINE, lines[0]), lines[0]


# ------------------------------------------------ the direct parse of argv

@functools.cache
def _reference_parser():
    """The parser as it was spelled before the command table: the oracle."""
    parser = cli._Parser(
        prog="modlink",
        description="Farey paths, cutting sequences and modular-link volumes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("slope-info", help="normalization, continued fraction, orbit")
    p.add_argument("slope", type=cli._slope_arg)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cli._cmd_slope_info)

    p = sub.add_parser("cutting", help="AB and LR cutting words of a slope")
    p.add_argument("slope", type=cli._slope_arg)
    p.add_argument("--check", action="store_true",
                   help="also run both geometric oracles")
    p.set_defaults(func=cli._cmd_cutting)

    p = sub.add_parser("word", help="canonical LR word of a slope")
    p.add_argument("slope", type=cli._slope_arg)
    p.set_defaults(func=cli._cmd_word)

    p = sub.add_parser("family", help="full link-family report for a slope")
    p.add_argument("slope", type=cli._slope_arg)
    p.add_argument("--json", metavar="FILE", help="write JSON ('-' for stdout)")
    p.set_defaults(func=cli._cmd_family)

    p = sub.add_parser("census", help="enumerate families up to a path length")
    p.add_argument("--max-x", type=cli._positive_int, required=True)
    p.add_argument("--jsonl", metavar="FILE", default="-",
                   help="output file ('-' for stdout)")
    p.add_argument("--dedupe-mirror", action="store_true",
                   help="emit one family per link: the targets p/q with p <= q")
    p.set_defaults(func=cli._cmd_census)

    p = sub.add_parser("table", help="volume versus length table")
    p.add_argument("--n", type=cli._positive_int, required=True)
    p.add_argument("--csv", metavar="FILE", default="-",
                   help="output file ('-' for stdout)")
    p.set_defaults(func=cli._cmd_table)

    p = sub.add_parser("length", help="trace, length and field of an LR word")
    p.add_argument("word", type=cli._word_arg)
    p.set_defaults(func=cli._cmd_length)

    p = sub.add_parser("svg-path", help="Farey tessellation figure with path")
    p.add_argument("slope", type=cli._slope_arg)
    p.add_argument("--out", required=True, metavar="FILE")
    p.set_defaults(func=cli._cmd_svg_path)

    p = sub.add_parser("svg-line", help="lattice line figure with crossings")
    p.add_argument("slope", type=cli._slope_arg)
    p.add_argument("--out", required=True, metavar="FILE")
    p.set_defaults(func=cli._cmd_svg_line)

    return parser


def _reference_parse(argv):
    """vars() of the reference parser's namespace, its domain error, or
    None when it prints help or an error line."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(_reference_parser().parse_args(argv))
        except cli.DomainInputError as exc:
            return exc
        except SystemExit:
            return None


# Tokens that only argparse may read: help, an abbreviation, an attached
# value, the end of options, and values that start with '-'.
_JUNK = st.sampled_from([["-h"], ["--help"], ["--max"], ["--max-x=3"], ["--"], ["-"],
                         ["-", "5"], ["-5"], ["-2/1"], ["-.5"], ["-x"]])


@st.composite
def _lines(draw):
    """An argv of _argvs with up to three junk or repeated tokens put in,
    each in front of a token or in its place."""
    argv = draw(_argvs())
    for _ in range(draw(st.integers(0, 3))):
        tokens = draw(st.one_of(_JUNK, st.sampled_from(argv).map(lambda t: [t])))
        at = draw(st.integers(0, len(argv)))
        argv[at:at + draw(st.integers(0, 1))] = tokens
    return argv


def _agrees_with_argparse(argv) -> bool:
    """Check _parse against the reference on argv; return whether it read it."""
    try:
        direct = cli._parse(argv)
    except cli.DomainInputError as exc:
        direct = exc
    if direct is None:
        return False  # argparse reads the line
    reference = _reference_parse(argv)
    if isinstance(direct, cli.DomainInputError):
        assert isinstance(reference, cli.DomainInputError), argv
        assert str(direct) == str(reference), argv
    else:
        assert vars(direct) == reference, argv
    return True


@settings(deadline=None, max_examples=1000)
@given(_lines())
@example(["census", "--max-x", "3", "--max-x", "4"])
@example(["census", "--dedupe-mirror", "--max-x", "3", "--dedupe-mirror"])
@example(["word", "-", "5"])
@example(["family", "3/2", "--json", "-5"])
@example(["svg-path", "--out", "-", "0/0"])
def test_the_direct_parse_agrees_with_argparse(argv):
    _agrees_with_argparse(argv)


def test_the_direct_parse_agrees_with_argparse_on_every_short_line():
    # every line of up to five tokens over the command's options, another
    # command's option, values of each kind and junk
    read = 0
    for command, (required, optional) in _COMMANDS.items():
        options = {t for part in required + optional for t in part
                   if isinstance(t, str) and t.startswith("--")}
        vocabulary = sorted(options | {"--n" if "--json" in options else "--json"})
        vocabulary += ["3/2", "0/0", "5", "LR", "-", "-2/1", "-h", "--", "-x"]
        for size in range(6):
            for tokens in itertools.product(vocabulary, repeat=size):
                read += _agrees_with_argparse([command, *tokens])
    assert read > 150, read  # the well-formed lines among them


def test_the_command_table_uses_only_what_the_direct_parse_reads():
    arguments = [kw for _, _, spec in cli._COMMANDS.values() for _, kw in spec]
    assert set().union(*arguments) <= {"type", "action", "default", "required",
                                       "help", "metavar"}
    assert {kw["action"] for kw in arguments if "action" in kw} == {"store_true"}


@pytest.mark.parametrize(
    "argv", [["-h"]] + [[command, "-h"] for command in sorted(_COMMANDS)],
    ids=["modlink"] + sorted(_COMMANDS),
)
def test_help_screens_are_the_reference_parsers(capsys, argv):
    with pytest.raises(SystemExit):
        _reference_parser().parse_args(argv)
    screen = capsys.readouterr().out
    assert screen.startswith("usage: modlink")
    assert run(capsys, *argv) == (0, screen, "")
