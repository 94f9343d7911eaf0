"""No public definition ships in ``src/comdet`` unless the package reaches it.

A public top-level ``def`` or ``class`` (a name without a leading underscore)
counts as reached when some module of the package names it: as a ``Name``
(a call or any other read), an ``Attribute`` (``module.name``), an imported
name (``from .module import name``) or a string in an ``__all__`` list. A
definition that only tests use belongs in ``tests/``; one that nothing uses
should go.

A private top-level ``def`` or ``class`` counts as used when its own module
names it outside its definition, or another module imports it by name, so a
helper left behind by the code that called it fails the suite.
"""

from __future__ import annotations

import ast
from pathlib import Path

import comdet

PACKAGE = Path(comdet.__file__).parent


def _all_entries(tree: ast.Module):
    for node in tree.body:
        if (isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple))
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            yield from (e.value for e in node.value.elts if isinstance(e, ast.Constant))


def _trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


def _names(node: ast.AST) -> set[str]:
    """The names read inside ``node``: ``Name`` ids and ``Attribute`` attrs."""
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})


def test_every_public_definition_is_reached_from_the_package():
    trees = _trees()
    reached: set[str] = set()
    for tree in trees.values():
        reached.update(_all_entries(tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                reached.add(node.id)
            elif isinstance(node, ast.Attribute):
                reached.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                reached.update(alias.name for alias in node.names)
    unreached = [f"{module}.{node.name}" for module, tree in trees.items()
                 for node in tree.body
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                 and not node.name.startswith("_") and node.name not in reached]
    assert unreached == [], f"public definitions nothing in the package reaches: {unreached}"


def test_every_private_definition_is_used_in_the_package():
    trees = _trees()
    imported = {(node.module, alias.name) for tree in trees.values() for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names}
    unused = []
    for module, tree in trees.items():
        names = [_names(node) for node in tree.body]
        for i, node in enumerate(tree.body):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")
                    and (module, node.name) not in imported
                    and not any(node.name in other for j, other in enumerate(names) if j != i)):
                unused.append(f"{module}.{node.name}")
    assert unused == [], f"private definitions nothing else in the package names: {unused}"
