"""Module boundary checks on the package source.

Production modules use only the public names of their siblings: a
helper shared by an oracle and production code is public by name, so
no module reaches into another's private internals.  The package's
``__all__`` lists exactly the names its ``__init__`` imports, and each
of them is used by some other module of the package, as is each public
method, property and field of the classes among them, so the package
carries no API that only the tests call.  The geometric oracles stay in
``cutting``, named only by the CLI and the figures.  Every import is
relative or from the standard library, so the package has no runtime
dependency.
"""

import ast
import sys
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


def _names_used(path: Path) -> set[str]:
    used = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            used.update(alias.name for alias in node.names)
    return used


def test_every_public_name_is_used_by_the_package():
    modules = [path for path in SOURCE.glob("*.py") if path.name != "__init__.py"]
    used = set().union(*map(_names_used, modules))
    assert sorted(set(modlink.__all__) - used) == []


# The geometric oracles of modlink.cutting and their event lists, and the
# only modules besides cutting that may name them: the CLI's --check and
# the figures, which draw the crossings.
_ORACLES = {
    "ab_sequence_geometric", "ab_to_lr", "lr_geometric_oracle",
    "ab_events", "lr_events",
}
_ORACLE_USERS = {"cli.py", "figures.py"}


def _oracles_named(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        found += [
            f"{path.name}:{node.lineno} names {name}" for name in names if name in _ORACLES
        ]
    return found


def test_only_the_cli_and_the_figures_reach_the_oracles():
    modules = [
        path for path in sorted(SOURCE.glob("*.py"))
        if path.name not in _ORACLE_USERS | {"cutting.py"}
    ]
    assert modules
    assert [hit for path in modules for hit in _oracles_named(path)] == []


# Public class members no package module reads, each with the reason it is kept.
_UNREAD_PUBLIC_MEMBERS: set[str] = set()


def _attributes_read(path: Path) -> set[str]:
    return {
        node.attr
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def _public_members(cls: type) -> set[str]:
    """Methods, properties and annotated fields defined in the package."""
    members = set()
    for klass in cls.__mro__:
        if klass.__module__.startswith("modlink"):
            members.update(vars(klass), vars(klass).get("__annotations__", {}))
    return {name for name in members if not name.startswith("_")}


def test_every_public_class_member_is_read_by_the_package():
    modules = [path for path in SOURCE.glob("*.py") if path.name != "__init__.py"]
    read = set().union(*map(_attributes_read, modules))
    exported = [getattr(modlink, name) for name in modlink.__all__]
    classes = [obj for obj in exported if isinstance(obj, type)]
    unread = {
        f"{cls.__name__}.{name}"
        for cls in classes
        for name in _public_members(cls) - read
    }
    assert sorted(unread) == sorted(_UNREAD_PUBLIC_MEMBERS)


def _absolute_imports(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            found.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append(node.module)
    return found


def test_package_imports_only_itself_and_the_standard_library():
    # sympy and the other test oracles must never become runtime dependencies
    modules = sorted(SOURCE.glob("*.py"))
    assert modules
    outside = [
        f"{path.name} imports {name}"
        for path in modules
        for name in _absolute_imports(path)
        if name.partition(".")[0] not in sys.stdlib_module_names
    ]
    assert outside == []
