"""Count code, docstring, comment and blank lines of Python modules.

Usage: python tools/linecount.py [PATH ...]

Each PATH is a .py file or a directory searched for .py files; the
default is src/modlink.  A line is blank when it holds only whitespace,
docstring when it lies in a module, class or function docstring,
comment when it holds only a comment, and code otherwise.  One row is
printed per module, then the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> dict[str, int]:
    """Lines of each kind in one module's source."""
    docstrings = _docstring_lines(ast.parse(source))
    comments = {
        tok.start[0]
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type == tokenize.COMMENT and not tok.line[:tok.start[1]].strip()
    }
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(source.splitlines(), 1):
        if number in docstrings:
            counts["docstring"] += 1
        elif not line.strip():
            counts["blank"] += 1
        elif number in comments:
            counts["comment"] += 1
        else:
            counts["code"] += 1
    return counts


def main(argv: list[str]) -> int:
    files = []
    for name in argv or ["src/modlink"]:
        path = Path(name)
        files += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    total = dict.fromkeys(KINDS, 0)
    print(f"{'module':<32}{'lines':>7}" + "".join(f"{k:>11}" for k in KINDS))
    for path in files:
        counts = count(path.read_text())
        for kind in KINDS:
            total[kind] += counts[kind]
        print(f"{str(path):<32}{sum(counts.values()):>7}"
              + "".join(f"{counts[k]:>11}" for k in KINDS))
    print(f"{'total':<32}{sum(total.values()):>7}"
          + "".join(f"{total[k]:>11}" for k in KINDS))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
