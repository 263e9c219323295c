"""The runtime stays stdlib-only: every import in the package is relative
or names a standard-library module, and importing the command line leaves
the host process's ``logging``, ``dataclasses``, ``inspect``, ``argparse``
and ``gettext`` unloaded.  The package also carries nothing unused: every
name a module imports is used there, and every private function or method
is referenced somewhere in the package."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "surfsat"


def test_package_modules_are_found():
    assert (PACKAGE / "__init__.py").is_file()


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_imports_are_relative_or_stdlib(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    outside = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        top = [name.partition(".")[0] for name in names]
        outside += [name for name in top if name not in sys.stdlib_module_names]
    assert outside == [], f"{path.name} imports non-stdlib modules {outside}"


def test_importing_the_cli_leaves_logging_unloaded():
    # dataclasses pulls in inspect, and with it ast, dis and tokenize;
    # argparse, which pulls in gettext, is imported when a parser is built
    unloaded = ("logging", "dataclasses", "inspect", "argparse", "gettext")
    probe = f"import sys, surfsat.cli; print([m in sys.modules for m in {unloaded}])"
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    )
    assert (proc.returncode, proc.stdout) == (
        0, f"{[False] * len(unloaded)}\n"
    ), proc.stderr


TREES = {
    path.name: ast.parse(path.read_text(), filename=str(path))
    for path in sorted(PACKAGE.glob("*.py"))
}


def _referenced(tree):
    """Every name read in ``tree``: a bare name or an attribute."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }


@pytest.mark.parametrize("name", sorted(set(TREES) - {"__init__.py"}))
def test_every_imported_name_is_used(name):
    # __init__.py imports to re-export, so it is left out
    tree = TREES[name]
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).partition(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    unused = sorted(imported - _referenced(tree))
    assert unused == [], f"{name} imports {unused} and never uses them"


def test_every_private_function_is_referenced():
    referenced = set().union(*map(_referenced, TREES.values()))
    unreferenced = sorted(
        f"{name}:{node.name}"
        for name, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_")
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in referenced
    )
    assert unreferenced == [], f"private functions nobody calls: {unreferenced}"
