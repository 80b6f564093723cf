"""Module boundary checks on the package source.

Production modules use only the public names of their siblings: a
helper shared by an oracle and production code is public by name, so
no module reaches into another's private internals.  The package's
``__all__`` lists exactly the names its ``__init__`` imports.
"""

import ast
from pathlib import Path

import modlink

SOURCE = Path(__file__).resolve().parents[1] / "src" / "modlink"


def _private_sibling_imports(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("modlink"):
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                found.append(f"{path.name}:{node.lineno} imports {alias.name}")
    return found


def test_no_module_imports_a_private_name_from_a_sibling():
    modules = sorted(SOURCE.glob("*.py"))
    assert modules
    assert [hit for path in modules for hit in _private_sibling_imports(path)] == []


def test_package_all_is_exactly_the_imported_names():
    tree = ast.parse((SOURCE / "__init__.py").read_text())
    imported = [
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert sorted(modlink.__all__) == sorted(imported)
    assert [name for name in modlink.__all__ if not hasattr(modlink, name)] == []
