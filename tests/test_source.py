"""Checks a linter would make on the package source, written with `ast`
so that they need nothing beyond the standard library: every imported
name is used, and every module-level private name is used."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "jetclust"
MODULES = {path.name: ast.parse(path.read_text(), filename=str(path))
           for path in sorted(SRC.glob("*.py"))}


def _reads(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Every name that `tree` reads, as a variable or as an attribute,
    outside the subtree `skip`."""
    skipped = {id(node) for node in ast.walk(skip)} if skip is not None else set()
    names = set()
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.level > 0:
            names.update(alias.name for alias in node.names)  # a name another module takes
    return names


@pytest.mark.parametrize("name", sorted(set(MODULES) - {"__init__.py"}))
def test_every_imported_name_is_used(name):
    tree = MODULES[name]
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


def _private_definitions(tree: ast.Module):
    """(name, node) of each module-level private, non-dunder function,
    class or constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = [t.id for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
                       for t in ast.walk(target) if isinstance(t, ast.Name)]
        else:
            continue
        for target in targets:
            if target.startswith("_") and not (target.startswith("__") and target.endswith("__")):
                yield target, node


@pytest.mark.parametrize("name", sorted(MODULES))
def test_every_private_module_name_is_used(name):
    others = set().union(*(_reads(tree) for other, tree in MODULES.items() if other != name))
    unused = [target for target, node in _private_definitions(MODULES[name])
              if target not in others and target not in _reads(MODULES[name], skip=node)]
    assert unused == []
