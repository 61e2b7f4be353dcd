"""Every name a module of the package imports is used in that module,
every third-party module it imports is a declared dependency, and every
name the package re-exports resolves."""

import ast
import inspect
import re
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "boxforms"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
PYPROJECT = SRC.parents[1] / "pyproject.toml"

#: (module file, name) pairs imported only to be re-exported
RE_EXPORTS = set()


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name


def unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in set(imported_names(tree))
                  if name not in used and (path.name, name) not in RE_EXPORTS)


def test_modules_found():
    assert {"exactla.py", "solver.py", "whitney.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_scan_flags_an_unused_import():
    tree = ast.parse("import math\nfrom os import path as p, sep\nprint(sep)\n")
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(set(imported_names(tree)) - used) == ["math", "p"]


def top_level_imports(tree):
    """Top-level names of the absolute imports in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def declared_dependencies(text):
    """Names in ``[project].dependencies``, read by regex: tomllib needs Python 3.11."""
    block = re.search(r"^\[project\]\n(?:(?!\[).*\n)*?dependencies\s*=\s*\[([^\]]*)\]",
                      text, re.M)
    assert block, "no [project].dependencies list"
    return {re.match(r"[A-Za-z0-9_.-]+", spec).group().lower()
            for spec in re.findall(r'"([^"]+)"', block.group(1))}


# every third-party package the program imports is installed under its own name
@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_third_party_imports_are_declared_dependencies(path):
    imported = set(top_level_imports(ast.parse(path.read_text(), filename=str(path))))
    third_party = imported - set(sys.stdlib_module_names) - {"boxforms"}
    assert third_party <= declared_dependencies(PYPROJECT.read_text())


def test_dependency_scan_flags_an_undeclared_import():
    tree = ast.parse("import os.path\nimport sympy as sp\nfrom scipy.sparse import csr_matrix\n"
                     "from . import forms\n")
    third_party = set(top_level_imports(tree)) - set(sys.stdlib_module_names)
    assert sorted(third_party) == ["scipy", "sympy"]
    declared = declared_dependencies(PYPROJECT.read_text())
    assert {"numpy", "scipy"} <= declared and "sympy" not in declared


def exported_names(tree):
    """(eager, lazy) names of a package ``__init__``: its imports, and the
    names its module ``__getattr__`` loads."""
    eager, lazy = [], []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            eager += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.FunctionDef) and node.name == "__getattr__":
            for test in ast.walk(node):
                if isinstance(test, ast.Compare) and isinstance(test.ops[0], ast.In):
                    lazy += [elt.value for elt in test.comparators[0].elts]
    return eager, lazy


def stale_exports(source):
    """Exports of ``source`` (a package ``__init__``) that do not resolve on
    ``boxforms``, and lazy ones that are not ``boxforms.solver`` functions."""
    import boxforms
    from boxforms import solver
    eager, lazy = exported_names(ast.parse(source))
    stale = [name for name in eager + lazy if not hasattr(boxforms, name)]
    for name in lazy:
        target = getattr(solver, name, None)
        if not (inspect.isfunction(target) and target.__module__ == solver.__name__):
            stale.append(name)
    return stale


def test_every_export_resolves():
    source = (SRC / "__init__.py").read_text()
    eager, lazy = exported_names(ast.parse(source))
    assert len(eager) > 40 and "solve" in lazy
    assert stale_exports(source) == []


def test_export_scan_flags_a_misspelled_lazy_name():
    source = (SRC / "__init__.py").read_text().replace('"convergence_sweep"',
                                                       '"convergence_sweeps"')
    assert stale_exports(source) == ["convergence_sweeps", "convergence_sweeps"]
