"""The shipped package holds only code that a shipped path runs.

Every top-level function and class in `src/jmscatter` must be named
somewhere else in the package (as a name, an attribute or an import);
`__init__` only re-exports, so its imports do not count, and being in
`jmscatter.__all__` exempts nothing. Only the console scripts' entry
points are exempt, and `solver.solve_energy`, which the benchmark's
tracer still wraps by name (ROADMAP item 1 deletes it).
Routes that only tests reach belong in `tests/oracles.py`. Imports sit
at the top of each module, never inside a function, so a module's
dependencies can be read off its head. At run time the package needs
only numpy and PyYAML: no module imports
scipy, importing the CLI loads no scipy module, and every CLI verb runs
where importing scipy fails. scipy is a test dependency, the oracle of
the special functions. Every source file parses under the oldest Python
grammar that `requires-python` admits.
"""

import ast
import importlib
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import jmscatter
from jmscatter import solver

PACKAGE = Path(jmscatter.__file__).parent
ROOT = Path(__file__).resolve().parent.parent


def console_scripts() -> dict[str, str]:
    """The `[project.scripts]` table of pyproject.toml: script name -> "module:function"."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    table = re.search(r"^\[project\.scripts\]\n(.*?)(?:^\[|\Z)", text, re.MULTILINE | re.DOTALL).group(1)
    return dict(re.findall(r'^([\w-]+) = "([\w.]+:\w+)"$', table, re.MULTILINE))


# Reached from outside the package, as "<module stem>.<function>": the console
# scripts' entry points, and `solver.solve_energy`, which no package path calls
# but perfbench/spans.py still traces by name; ROADMAP item 1 drops it from
# `LAYERS` and deletes it.
EXEMPT = {
    f"{module.rpartition('.')[2]}.{function}"
    for module, function in (target.split(":") for target in console_scripts().values())
} | {"solver.solve_energy"}


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
    """Top-level definitions that no other package code names and nothing outside runs."""
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    everywhere = sum((_names(tree) for stem, tree in trees.items() if stem != "__init__"), Counter())
    found = []
    for stem, tree in trees.items():
        for definition in tree.body:
            if not isinstance(definition, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = definition.name
            if f"{stem}.{name}" in EXEMPT:
                continue
            if everywhere[name] == _names(definition)[name]:
                found.append(f"{stem}.{name}")
    return found


def test_console_scripts_resolve_to_package_callables():
    scripts = console_scripts()
    assert "jmscatter" in scripts
    for target in scripts.values():
        module, function = target.split(":")
        assert module.startswith("jmscatter.")
        assert callable(getattr(importlib.import_module(module), function))


def test_every_top_level_definition_is_used_by_other_package_code():
    assert unreferenced() == []


def test_package_exports_scan_and_its_result():
    assert jmscatter.__all__ == ["ScatteringResult", "scan"]
    assert all(getattr(jmscatter, name) is getattr(solver, name) for name in jmscatter.__all__)


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


def scipy_imports() -> list[str]:
    """Package modules that import `scipy` or anything under it."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module]
            else:
                continue
            if any(name == "scipy" or name.startswith("scipy.") for name in names):
                found.append(path.stem)
    return found


def test_no_module_imports_scipy():
    assert scipy_imports() == []


def test_cli_import_loads_no_scipy():
    probe = (
        f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); import jmscatter.cli; "
        "print(' '.join(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    ).stdout
    assert out.split() == []


# Every CLI verb, each basis of basis-check included, in a process where importing scipy fails.
BLOCKED_SCIPY_RUN = """
import os, sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, BlockScipy())
sys.path.insert(0, sys.argv[1])
from jmscatter.cli import main

configs = os.path.join(sys.argv[1], "jmscatter", "configs")
runs = [("scan", "table1"), ("table", "table1"), ("stability-scan", "table1"),
        ("basis-check", "fig3b"), ("basis-check", "fig5")]
codes = []
for verb, config in runs:
    argv = [verb, "--config", os.path.join(configs, config + ".yaml"), "--output", os.devnull]
    codes.append(main(argv if verb == "basis-check" else argv + ["--override-quadrature-bound"]))
print(codes)
"""


def test_every_verb_runs_with_scipy_blocked():
    out = subprocess.run(
        [sys.executable, "-c", BLOCKED_SCIPY_RUN, str(PACKAGE.parent)], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[0, 0, 0, 0, 0]"


def oldest_python() -> tuple[int, int]:
    """The (major, minor) floor of `requires-python` in pyproject.toml."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', text, re.MULTILINE).groups()
    return int(major), int(minor)


def test_sources_parse_under_the_oldest_supported_grammar():
    # ast.parse with feature_version checks the grammar only: no interpreter starts and no bytecode is written
    version = oldest_python()
    folders = (PACKAGE, ROOT / "tests", ROOT / "perfbench")
    sources = [path for folder in folders for path in sorted(folder.rglob("*.py"))]
    assert PACKAGE / "reference.py" in sources and Path(__file__).resolve() in sources
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=version)
    with pytest.raises(SyntaxError):  # a 3.11 construct, so the version is enforced, not ignored
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
