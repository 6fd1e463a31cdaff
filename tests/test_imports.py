"""Every name a module of the package imports is used there or listed in its ``__all__``,
and every private module-level name is used somewhere in the package."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "fvr"
MODULES = sorted(SRC.glob("*.py"))


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds, with the line of that statement."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def exported_names(tree: ast.Module) -> set[str]:
    """The string entries of a module-level ``__all__ = [...]``, if there is one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            if isinstance(node.value, (ast.List, ast.Tuple)):
                return {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return set()


def test_every_module_is_checked():
    assert {path.name for path in MODULES} >= {"__init__.py", "cli.py", "core.py", "oracles.py"}


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_no_unused_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= exported_names(tree)
    unused = [
        f"{path.name}:{line}: {name}"
        for name, line in sorted(imported_names(tree).items(), key=lambda item: item[1])
        if name not in used
    ]
    assert not unused, "imported but unused: " + ", ".join(unused)


def private_names(tree: ast.Module) -> dict[str, int]:
    """Each private name a module-level def, class or assignment binds, with its line;
    module dunders such as ``__all__`` are not private."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound = [node.name]
        elif isinstance(node, ast.Assign):
            bound = [target.id for target in node.targets if isinstance(target, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            bound = [node.target.id]
        else:
            bound = []
        for name in bound:
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                names[name] = node.lineno
    return names


def test_every_private_module_level_name_is_used_in_the_package():
    # A private helper that only tests call is dead code: the tests should
    # reach the package through what the package itself runs.
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in MODULES}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    defined = [(name, line, file) for file, tree in trees.items() for name, line in private_names(tree).items()]
    assert defined
    unused = [f"{file}:{line}: {name}" for name, line, file in defined if name not in used]
    assert not unused, "private but unused in the package: " + ", ".join(unused)
