"""The runtime stays stdlib-only: every import in the package is relative
or names a standard-library module, and importing the command line leaves
the host process's ``logging``, ``dataclasses``, ``inspect``, ``argparse``
and ``gettext`` unloaded.  The package also carries nothing unused: every
name a module imports is used there, every private function or method
is referenced somewhere in the package, and every function, method and
class is reached.  A definition is reached when module-level code (such
as ``cli.COMMANDS``) or a reached definition names it, or when it is a
pinned name: one that ``tests/test_acceptance.py`` imports or reads as an
attribute, that README's ``## Library`` example uses, or that the
benchmark's layer trace wraps.  Names are matched as names, so a
definition that shares its name with a reached one counts as reached; a
method, though, is named only by an attribute read (``x.name``), never by
a bare name such as a parameter's.  The few definitions that stay
unreached are listed, each with its reason, in ``UNREACHED_ALLOWED``."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest
from test_perfbench_names import traced_names
from test_readme import library_block

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "surfsat"
ACCEPTANCE = Path(__file__).resolve().parent / "test_acceptance.py"


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


# definitions no command reaches that stay, and why
UNREACHED_ALLOWED = {
    "nslattice.py:adjunction_genus": "library API on lattice classes, kept "
    "for the planned class-document input, which is to use it or delete it",
}

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def unreached(trees, roots):
    """The functions, methods and classes in ``trees`` (file name -> parsed
    module) that neither module-level code nor a reached definition names,
    and that are not in ``roots``, as ``"file:Qualified.name"``, sorted.

    ``__init__.py`` only re-exports, so its names count for nothing.  A
    function or class is named by a bare name or an attribute read
    (``x.name``); a method only by an attribute read, so a parameter or a
    local that shares its name does not reach it.  A method is reached
    only on a reached class, and a dunder method is reached with its
    class, which Python calls it through.  Reaching is run to a fixed
    point, so code that only unreached code names is unreached too.
    """
    # [label, name, enclosing definition's index, is a method, bare names
    # read in its body, attribute names read in its body]
    definitions = []
    loose = (set(), set())  # what module-level code reads: bare, attribute

    def scan(node, label, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _DEFINITIONS):
                method = isinstance(node, ast.ClassDef) and not isinstance(
                    child, ast.ClassDef
                )
                definitions.append(
                    [f"{label}{child.name}", child.name, owner, method, set(), set()]
                )
                scan(child, f"{label}{child.name}.", len(definitions) - 1)
                continue
            bare, attrs = loose if owner is None else definitions[owner][4:]
            if isinstance(child, ast.Name):
                bare.add(child.id)
            elif isinstance(child, ast.Attribute):
                attrs.add(child.attr)
            scan(child, label, owner)

    for module, tree in trees.items():
        if module != "__init__.py":
            scan(tree, f"{module}:", None)

    def dunder(name):
        return name.startswith("__") and name.endswith("__")

    reached = set()
    while True:
        bare = loose[0].union(*(definitions[i][4] for i in reached))
        attrs = loose[1].union(*(definitions[i][5] for i in reached))
        grown = {
            i for i, (_, name, owner, method, _, _) in enumerate(definitions)
            if (owner is None or owner in reached)
            and (
                name in attrs or name in roots or dunder(name)
                or (not method and name in bare)
            )
        }
        if grown == reached:
            break
        reached = grown
    return sorted(
        label for i, (label, name, *_) in enumerate(definitions)
        if i not in reached and not dunder(name)
    )


def pinned_names():
    """What ``test_acceptance.py`` imports from the package and reads as
    attributes, the names README's library example uses, and every part
    of each name the benchmark's layer trace wraps."""
    acceptance = ast.parse(ACCEPTANCE.read_text(), filename=str(ACCEPTANCE))
    names = {
        node.attr for node in ast.walk(acceptance) if isinstance(node, ast.Attribute)
    }
    for node in ast.walk(acceptance):
        if isinstance(node, ast.ImportFrom) and node.module.startswith("surfsat"):
            names |= {alias.name for alias in node.names}
    names |= _referenced(ast.parse(library_block()))
    for _, attr in traced_names():
        names |= set(attr.split("."))
    return names


def test_every_definition_is_reached():
    # an allowlist entry whose definition is gone, or now reached, is stale
    assert unreached(TREES, pinned_names()) == sorted(UNREACHED_ALLOWED), (
        "definitions no command or pinned name reaches, against the allowlist"
    )


def test_the_reach_check_flags_an_unreached_function_and_method():
    path = PACKAGE / "configuration.py"
    mutant = ast.parse(path.read_text(), filename=str(path))
    (config_class,) = (
        node for node in mutant.body
        if isinstance(node, ast.ClassDef) and node.name == "Configuration"
    )
    config_class.body += ast.parse(
        "def orphan_method(self):\n    return self.gram_on(())\n"
    ).body
    # the helper is named, but only by an unreached function
    mutant.body += ast.parse(
        "def orphan_function():\n    return orphan_helper()\n"
        "def orphan_helper():\n    return Configuration.build([])\n"
    ).body
    trees = {**TREES, "configuration.py": mutant}
    roots = pinned_names()
    base = set(unreached(TREES, roots))
    flagged = set(unreached(trees, roots)) - base
    assert flagged == {
        "configuration.py:Configuration.orphan_method",
        "configuration.py:orphan_function",
        "configuration.py:orphan_helper",
    }
    # a pinned name is reached, and so is what it names
    assert set(unreached(trees, roots | {"orphan_function"})) - base == {
        "configuration.py:Configuration.orphan_method",
    }


def test_a_parameter_does_not_reach_a_method_of_its_name():
    # `from_entries` reads its parameter `diagonal`; a method `diagonal` that
    # no attribute read names is still unreached
    path = PACKAGE / "linalg.py"
    mutant = ast.parse(path.read_text(), filename=str(path))
    bare = {node.id for node in ast.walk(mutant) if isinstance(node, ast.Name)}
    assert "diagonal" in bare
    (matrix_class,) = (
        node for node in mutant.body
        if isinstance(node, ast.ClassDef) and node.name == "SymmetricMatrix"
    )
    matrix_class.body += ast.parse("def diagonal(self):\n    return self._diag\n").body
    trees = {**TREES, "linalg.py": mutant}
    roots = pinned_names()
    flagged = set(unreached(trees, roots)) - set(unreached(TREES, roots))
    assert flagged == {"linalg.py:SymmetricMatrix.diagonal"}
