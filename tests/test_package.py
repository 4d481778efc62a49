"""The shipped package holds only code that a shipped path runs.

Every top-level function and class in `src/jmscatter` must be named
somewhere else in the package (as a name, an attribute or an import) or
be exported in `jmscatter.__all__`. Routes that only tests reach belong
in `tests/oracles.py`. Imports sit at the top of each module, never
inside a function, so a module's dependencies can be read off its head.
"""

import ast
from collections import Counter
from pathlib import Path

import jmscatter

PACKAGE = Path(jmscatter.__file__).parent
# The console script's entry point is run from outside the package.
ENTRY_POINTS = {"cli.main"}


def _names(tree) -> Counter:
    """How often each name is used in `tree` as a name, an attribute or an import."""
    used = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used[node.id] += 1
        elif isinstance(node, ast.Attribute):
            used[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def unreferenced() -> list[str]:
    """Top-level definitions that no other package code names and `__all__` does not export."""
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    everywhere = sum((_names(tree) for tree in trees.values()), Counter())
    found = []
    for stem, tree in trees.items():
        for definition in tree.body:
            if not isinstance(definition, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = definition.name
            if name in jmscatter.__all__ or f"{stem}.{name}" in ENTRY_POINTS:
                continue
            if everywhere[name] == _names(definition)[name]:
                found.append(f"{stem}.{name}")
    return found


def test_every_top_level_definition_is_used_or_exported():
    assert unreferenced() == []


def imports_inside_functions() -> list[str]:
    """Package functions (nested ones included) whose bodies hold an import."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                isinstance(inner, (ast.Import, ast.ImportFrom)) for inner in ast.walk(node)
            ):
                found.append(f"{path.stem}.{node.name}")
    return found


def test_no_imports_inside_functions():
    assert imports_inside_functions() == []
