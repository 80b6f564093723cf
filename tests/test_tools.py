"""Tests of the repository's line-count tool, tools/linecount.py."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "linecount.py"
_spec = importlib.util.spec_from_file_location("linecount", TOOL)
linecount = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(linecount)

SAMPLE = '''"""A module docstring,
over two lines."""

# a comment on a line of its own
import os  # a trailing comment


def f():
    """A function docstring."""
    return os.sep
'''


def test_count_sorts_each_line_into_one_kind():
    assert linecount.count(SAMPLE) == {
        "code": 3, "docstring": 3, "comment": 1, "blank": 3,
    }


def _numbers(line: str) -> list[int]:
    """The five counts that end a row: lines, then one per kind."""
    return [int(field) for field in line.split()[-5:]]


def test_main_prints_one_row_per_file_and_their_sum(tmp_path, capsys):
    first, second = tmp_path / "first.py", tmp_path / "second.py"
    first.write_text(SAMPLE)
    second.write_text("x = 1\n\n# done\n")
    assert linecount.main([str(first), str(second)]) == 0
    header, *rows, total = capsys.readouterr().out.splitlines()
    assert header.split() == ["module", "lines", *linecount.KINDS]
    assert [row.split()[0] for row in rows] == [str(first), str(second)]
    assert _numbers(rows[0]) == [10, 3, 3, 1, 3]
    assert _numbers(rows[1]) == [3, 1, 0, 1, 1]
    assert total.split()[0] == "total"
    assert _numbers(total) == [a + b for a, b in zip(*map(_numbers, rows))]
