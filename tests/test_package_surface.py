"""No public definition ships in ``src/comdet`` unless the package reaches it.

A public top-level ``def`` or ``class`` (a name without a leading underscore)
counts as reached when some module of the package names it: as a ``Name``
(a call or any other read), an ``Attribute`` (``module.name``), an imported
name (``from .module import name``) or a string in an ``__all__`` list. A
definition that only tests use belongs in ``tests/``; one that nothing uses
should go.
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


def test_every_public_definition_is_reached_from_the_package():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
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
