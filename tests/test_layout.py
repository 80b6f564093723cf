"""Module boundary checks on the package source.

Production modules use only the public names of their siblings: a
helper shared by an oracle and production code is public by name, so
no module reaches into another's private internals.  The package's
``__all__`` lists exactly the names its ``__init__`` imports, and each
of them is used by some other module of the package, as is each public
method, property and field of the classes among them, so the package
carries no API that only the tests call.  No parameter with a default
is passed one and the same value by every package call, so the package
has no knob that never turns.  No module imports a name it never
reads or defines a private name that no package module uses, so a
refactor leaves no leftovers behind.  The geometric oracles stay in
``cutting``, named only by the CLI and the figures.  Every import is
relative or from the standard library, so the package has no runtime
dependency, and ``arith`` imports from the standard library alone, so
the number theory stays a leaf.
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


# Parameters to which package calls pass one value only, each with the
# reason it is kept.
_SINGLE_VALUED_PARAMETERS = {
    # the entry point: the console script calls it bare, and the
    # benchmark harness and the tests pass argv
    "main.argv",
}

_VARYING = "<not a literal>"


def _literal(node: ast.expr) -> str:
    """The source of a literal expression, else _VARYING."""
    try:
        ast.literal_eval(node)
    except ValueError:
        return _VARYING
    return ast.unparse(node)


def _signatures(trees) -> dict[str, tuple[list[str], dict[str, str]]]:
    """Per function with a defaulted parameter: the parameters a call
    fills by position, and the source of each default."""
    methods = {
        id(node)
        for tree in trees
        for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        for node in cls.body
    }
    signatures = {}
    for node in (node for tree in trees for node in ast.walk(tree)):
        if not isinstance(node, ast.FunctionDef):
            continue
        a = node.args
        positional = [arg.arg for arg in a.posonlyargs + a.args]
        defaulted = list(zip(positional[::-1], a.defaults[::-1]))
        defaulted += [(arg.arg, d) for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d]
        decorators = {ast.unparse(d) for d in node.decorator_list}
        if id(node) in methods and "staticmethod" not in decorators:
            positional = positional[1:]  # self or cls
        if defaulted:
            signatures[node.name] = positional, {
                name: ast.unparse(d) for name, d in defaulted
            }
    return signatures


def _single_valued_parameters() -> set[str]:
    """'function.parameter' for each defaulted parameter to which package
    calls pass a single literal value; an omitted argument passes the
    default, and any other expression, or a function passed around
    uncalled, counts as varying."""
    trees = [ast.parse(path.read_text(), str(path)) for path in SOURCE.glob("*.py")]
    signatures = _signatures(trees)
    values = {
        f"{name}.{param}": set()
        for name, (_, defaults) in signatures.items()
        for param in defaults
    }
    nodes = [node for tree in trees for node in ast.walk(tree)]
    called = set()
    for call in nodes:
        if not isinstance(call, ast.Call):
            continue
        name = getattr(call.func, "id", getattr(call.func, "attr", None))
        if name not in signatures:
            continue
        called.add(id(call.func))
        positional, defaults = signatures[name]
        passed = dict(zip(positional, call.args))
        passed.update((kw.arg, kw.value) for kw in call.keywords)
        spread = None in passed or any(isinstance(a, ast.Starred) for a in call.args)
        for param, default in defaults.items():
            value = _VARYING if spread else (
                _literal(passed[param]) if param in passed else default
            )
            values[f"{name}.{param}"].add(value)
    for node in nodes:
        name = getattr(node, "id", getattr(node, "attr", None))
        if name in signatures and id(node) not in called and isinstance(
            getattr(node, "ctx", None), ast.Load
        ):
            for param in signatures[name][1]:
                values[f"{name}.{param}"].add(_VARYING)
    return {
        key for key, seen in values.items() if len(seen) == 1 and _VARYING not in seen
    }


def test_no_defaulted_parameter_is_passed_a_single_value():
    assert sorted(_single_valued_parameters()) == sorted(_SINGLE_VALUED_PARAMETERS)


def _loaded_names(tree: ast.AST) -> set[str]:
    """Names the tree reads, as variables or as attributes."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }


def _unread_imports(path: Path, tree: ast.Module) -> list[str]:
    """Names a module imports and never reads; __init__ re-exports its
    imports through __all__, so a name listed there counts as read."""
    read = _loaded_names(tree)
    if path.name == "__init__.py":
        read |= set(modlink.__all__)
    return [
        f"{path.name}:{node.lineno} imports {name}"
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(
            node, "module", None) != "__future__"
        for name in (
            (alias.asname or alias.name).partition(".")[0] for alias in node.names
        )
        if name not in read
    ]


def _private_module_names(path: Path, tree: ast.Module) -> set[str]:
    """The private (single-underscore) names a module defines at top level."""
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(
                name.id for target in targets for name in ast.walk(target)
                if isinstance(name, ast.Name)
            )
    return {name for name in defined if name.startswith("_") and not name.startswith("__")}


def test_no_module_carries_an_unread_import_or_private_name():
    # a leftover of a refactor: an import nothing reads, or a private
    # helper, constant or class that no package module uses any more
    trees = {path: ast.parse(path.read_text(), str(path)) for path in SOURCE.glob("*.py")}
    assert trees
    read = set().union(*map(_loaded_names, trees.values()))
    leftovers = [hit for path, tree in trees.items() for hit in _unread_imports(path, tree)]
    leftovers += [
        f"{path.name} defines {name}"
        for path, tree in trees.items()
        for name in sorted(_private_module_names(path, tree) - read)
    ]
    assert sorted(leftovers) == []


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


def test_arith_imports_only_the_standard_library():
    # the number theory is a leaf: no word, matrix or psl2z error class
    # may reach it, relatively or through modlink
    path = SOURCE / "arith.py"
    tree = ast.parse(path.read_text(), str(path))
    relative = [
        f"arith.py:{node.lineno}" for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level
    ]
    outside = [
        name for name in _absolute_imports(path)
        if name.partition(".")[0] not in sys.stdlib_module_names
    ]
    assert (relative, outside) == ([], [])
