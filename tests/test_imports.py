"""Every name a module of the package imports is used in that module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "boxforms"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")

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
