"""Every name a module of the package imports is used in that module,
every third-party module it imports is a declared dependency, every
name the package re-exports resolves, every name the package defines
is referenced somewhere, and every one is reached from the program's
entry points or kept by name with a reason."""

import ast
import inspect
import re
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "boxforms"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
PYPROJECT = SRC.parents[1] / "pyproject.toml"
#: the trees whose code may reference a definition of the package
SCANNED = ("src", "tests", "demos", "perfbench")
DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")

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


def definitions(tree):
    """(name, node, class or None) of a module's functions and classes, and of its
    classes' methods, properties and aliases such as ``d = exterior_derivative``."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node, None
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield item.name, item, node
                elif isinstance(item, ast.Assign) and isinstance(item.value, ast.Name):
                    yield from ((t.id, item, node) for t in item.targets
                                if isinstance(t, ast.Name))


def references(tree):
    """(name, node, scope) of what may name a definition: attribute accesses,
    loaded names (scope: the class whose body holds the name, else None),
    imports, and string literals that are a dotted name.  Strings that are
    subscripts, dict keys or f-string pieces are data, not names."""
    out = []

    def visit(node, scope):
        if isinstance(node, ast.Attribute):
            out.append((node.attr, node, None))
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.append((node.id, node, scope))
        elif isinstance(node, ast.alias):
            out.append((node.name.split(".")[-1], node, None))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and DOTTED.fullmatch(node.value)):
            out.append((node.value.split(".")[-1], node, None))
        data = []
        if isinstance(node, ast.Dict):
            data = node.keys
        elif isinstance(node, ast.JoinedStr):
            data = node.values
        elif isinstance(node, ast.Subscript):
            data = [node.slice]
        if isinstance(node, ast.ClassDef):
            scope = node
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            scope = None
        for child in ast.iter_child_nodes(node):
            if not (isinstance(child, ast.Constant) and any(child is d for d in data)):
                visit(child, scope)

    visit(tree, None)
    return out


def dead_definitions(trees, package):
    """Definitions in the ``package`` paths of ``trees`` ({path: module tree}) that
    no reference outside themselves names: a module's function or class by any
    reference, a class member by any but a loaded name outside its class's body.
    Names match by name alone; dunder names are exempt."""
    found = {}
    for tree in trees.values():
        for name, node, scope in references(tree):
            found.setdefault(name, []).append((node, scope))
    dead = []
    for path in package:
        for name, node, owner in definitions(trees[path]):
            if name.startswith("__") and name.endswith("__"):
                continue
            inside = {id(n) for n in ast.walk(node)}
            if not any(id(ref) not in inside and (owner is None or scope is owner
                                                   or not isinstance(ref, ast.Name))
                       for ref, scope in found.get(name, [])):
                dead.append(f"{path.stem}.{owner.name + '.' if owner else ''}{name}")
    return dead


def test_every_definition_is_referenced():
    paths = [p for top in SCANNED for p in sorted((SRC.parents[1] / top).rglob("*.py"))]
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in paths}
    assert len(trees) > 40
    assert dead_definitions(trees, sorted(SRC.glob("*.py"))) == []


SAMPLE = """
class Form:
    def derivative(self):
        return self

    der = derivative

    def twice(self):
        return self.derivative().derivative()

    def unread(self):
        return 0


def used(der):
    table = {"unread": der}
    return table["unread"], f"{der}der"


def helper():
    return used


EXPORTS = ["Form"]
"""


def test_definition_scan_flags_unreferenced_members_and_aliases():
    # a local variable, a dict key, a subscript and an f-string piece share
    # the member names without naming them
    path = Path("sample.py")
    dead = dead_definitions({path: ast.parse(SAMPLE)}, [path])
    assert dead == ["sample.Form.der", "sample.Form.twice", "sample.Form.unread", "sample.helper"]


#: per name of the mesh and cell-shape layout, the modules that may use it: the mesh's
#: integer plane tables are read only inside ``mesh``, its shape map and per-shape table
#: cache only through ``local.shapes``, and only ``local`` builds a LocalTables
LAYOUT_OWNERS = {"planes": {"mesh.py"}, "cell_shapes": {"mesh.py", "local.py"},
                 "local_tables": {"mesh.py", "local.py"}, "LocalTables()": {"local.py"},
                 "dof_tables": {"mesh.py"}, "gauss_coordinates": {"mesh.py"},
                 "moved_bases": {"mesh.py", "whitney.py"}}


def layout_uses(tree):
    """The layout names a module uses: an attribute named in ``LAYOUT_OWNERS`` (a mesh
    cache), and ``LocalTables()`` for a call of a name or attribute ``LocalTables``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in LAYOUT_OWNERS:
            yield node.attr
        elif isinstance(node, ast.Call):
            func = node.func
            if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) \
                    == "LocalTables":
                yield "LocalTables()"


def foreign_uses(sources):
    """Sorted (module, name) pairs of the layout names that modules ({file name: source})
    use without owning them."""
    return sorted((module, name) for module, source in sources.items()
                  for name in layout_uses(ast.parse(source, filename=module))
                  if module not in LAYOUT_OWNERS[name])


def test_only_local_knows_the_cell_shape_layout():
    sources = {path.name: path.read_text() for path in SRC.glob("*.py")}
    uses = {(module, name) for module, source in sources.items()
            for name in layout_uses(ast.parse(source, filename=module))}
    assert {("mesh.py", "planes"), ("local.py", "cell_shapes"), ("local.py", "LocalTables()"),
            ("mesh.py", "dof_tables"), ("mesh.py", "gauss_coordinates"),
            ("whitney.py", "moved_bases")} <= uses
    assert foreign_uses(sources) == []


def test_layout_scan_flags_a_foreign_reader():
    tree = ast.parse("ids = mesh.cell_shapes[0]\nmesh.local_tables.clear()\n"
                     "table = local.LocalTables(1, cell)\nother = LocalTables(0, cell)\n"
                     "def cell_shapes(): return tables\n"
                     "ints, den = mesh.planes[0]\nmesh.planes = []\nplanes = 2\n")
    assert sorted(layout_uses(tree)) == ["LocalTables()", "LocalTables()", "cell_shapes",
                                         "local_tables", "planes", "planes"]
    # a mesh cache read outside its owners
    reader = ("table = mesh.dof_tables[0, False]\naxes = mesh.gauss_coordinates[2]\n"
              "terms = mesh.moved_bases[1, 0]\ndof_tables = {}\n")
    assert foreign_uses({"solver.py": reader}) == [
        ("solver.py", "dof_tables"), ("solver.py", "gauss_coordinates"),
        ("solver.py", "moved_bases")]
    assert foreign_uses({"whitney.py": reader}) == [
        ("whitney.py", "dof_tables"), ("whitney.py", "gauss_coordinates")]
    assert foreign_uses({"mesh.py": reader}) == []


#: the definition the console script and ``python -m boxforms`` run
ENTRY_POINT = "cli.main"
#: definitions that no entry point reaches and that stay, with the reason
KEPT = {
    "solver.DiscreteProblem.G_exact": "perfbench's exact-solve check reads it",
    "whitney.ConstraintSystem.rows": "perfbench's exact-solve check reads the dense rows",
    "fields.FormField.at": "the pointwise oracle of the catalog's separable evaluation",
    "fields.FormField.d_at": "the pointwise oracle of the catalog's separable evaluation",
    "quadrature.box_rule": "the pointwise quadrature oracle of the shape tabulations",
    "projection.check_commuting": "the exact cell-wise commuting check of acceptance criterion 2",
    "forms.Polynomial.coeffs": "the Fraction view that the tests' references and callers read",
}


def import_bindings(tree, package_name, modules):
    """{name: [target]} of what a module's imports from the package bind, function-level
    imports included.  A target is a module's path (``modules`` maps a stem to it) or
    (path, name) for a name that module binds.  A package ``__init__``'s lazy exports
    are bound in each module it imports."""
    out = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level:
            base = node.module
        elif node.module == package_name or node.module.startswith(package_name + "."):
            base = node.module[len(package_name) + 1:] or None
        else:
            continue
        for alias in node.names:
            if base is None and alias.name in modules:
                target = modules[alias.name]
            elif (base or "__init__") in modules:
                target = modules[base or "__init__"], alias.name
            else:
                continue
            out.setdefault(alias.asname or alias.name, []).append(target)
    imported = [t for targets in out.values() for t in targets if isinstance(t, Path)]
    for name in exported_names(tree)[1]:
        out.setdefault(name, []).extend((path, name) for path in imported)
    return out


def foreign_names(tree, package_name):
    """Names that a module's imports, function-level ones included, bind from outside
    the package: ``np`` of ``import numpy as np``, ``prod`` of ``from math import prod``."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(alias.asname or alias.name.split(".")[0] for alias in node.names
                       if alias.name.split(".")[0] != package_name)
        elif (isinstance(node, ast.ImportFrom) and not node.level
              and node.module.split(".")[0] != package_name):
            out.update(alias.asname or alias.name for alias in node.names)
    return out


def unreached_definitions(trees, package, entries, roots):
    """Definitions in the ``package`` paths of ``trees`` that no walk reaches.

    The walk starts from the module-level code of the ``package`` and
    ``entries`` paths and from the definitions named in ``roots`` (dotted,
    as reported); no other tree is read.  A reached definition reaches what
    its references name, resolved from the module that holds them:

    - a bare name, the module's own top-level definition or what its
      imports from the package bind (through a package ``__init__`` among
      the ``package`` paths for ``from package import``), and in a class
      body also that class's member;
    - ``mod.name`` with ``mod`` an imported package module, that module's
      binding of the name;
    - an attribute whose receiver chain starts at a name imported from
      outside the package (``np.add.at``, ``math.prod``), nothing;
    - any other attribute, every class member of that name.

    Imports and string literals are not uses.  A dunder is part of the
    class or module that holds it, since Python calls it implicitly.
    """
    modules = {path.stem: path for path in package}
    top, members, binds, foreign, uses = {}, {}, {}, {}, {None: []}
    for path in package + entries:
        binds[path] = import_bindings(trees[path], package[0].parent.name, modules)
        foreign[path] = foreign_names(trees[path], package[0].parent.name)
        home = {}
        for name, node, owner in definitions(trees[path]) if path in package else ():
            if not (name.startswith("__") and name.endswith("__")):
                dotted = f"{path.stem}.{owner.name + '.' if owner else ''}{name}"
                if owner is None:
                    top[path, name] = dotted
                else:
                    members.setdefault(name, []).append((dotted, owner))
                uses[dotted] = []
                home.update(dict.fromkeys(map(id, ast.walk(node)), dotted))
        for name, ref, scope in references(trees[path]):
            if not isinstance(ref, (ast.alias, ast.Constant)):
                uses[home.get(id(ref))].append((path, name, ref, scope))

    def bound(path, name, seen=()):
        if (path, name) in seen:
            return set()
        found = {top[path, name]} if (path, name) in top else set()
        for target in binds[path].get(name, ()):
            if isinstance(target, tuple):
                found |= bound(*target, seen=(*seen, (path, name)))
        return found

    def named(path, name, ref, scope):
        if isinstance(ref, ast.Name):
            return bound(path, name) | {dotted for dotted, owner in members.get(name, ())
                                        if owner is scope}
        receiver = binds[path].get(ref.value.id, ()) if isinstance(ref.value, ast.Name) else ()
        imported = [target for target in receiver if isinstance(target, Path)]
        if imported:
            return set().union(*(bound(module, name) for module in imported))
        root = ref.value
        while isinstance(root, ast.Attribute):
            root = root.value
        if isinstance(root, ast.Name) and root.id in foreign[path]:
            return set()
        return {dotted for dotted, _ in members.get(name, ())}

    reached = set(roots)
    todo = [use for root in (None, *roots) for use in uses[root]]
    while todo:
        for dotted in named(*todo.pop()) - reached:
            reached.add(dotted)
            todo += uses[dotted]
    return sorted(set(uses) - reached - {None})


def test_every_definition_is_reached_from_an_entry_point():
    # the tests and the benchmark are not entry points; the package's
    # ``__init__`` only binds the names the demos import from the package
    package = sorted(SRC.glob("*.py"))
    demos = sorted((SRC.parents[1] / "demos").glob("*.py"))
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in package + demos}
    assert len(demos) == 5 and SRC / "__main__.py" in package
    assert unreached_definitions(trees, package, demos, [ENTRY_POINT, *KEPT]) == []
    # each kept definition is needed: the program alone does not reach it
    assert unreached_definitions(trees, package, demos, [ENTRY_POINT]) == sorted(KEPT)


WALKED = {
    "__init__": """
from .shapes import Form


def __getattr__(name):
    if name in ("run",):
        from . import engine
        return getattr(engine, name)
    raise AttributeError(name)
""",
    "shapes": """
from . import helpers


class Form:
    def __add__(self, other):
        return self.combine(other)

    def combine(self, other):
        return other

    def derivative(self):
        return helpers.derivative(self)

    def evaluate(self):
        return 0

    def at(self, point):
        return point
""",
    "helpers": """
def derivative(form):
    return form


def solve(form):
    return form


def tested():
    return 1
""",
    "engine": """
import numpy as np

from .helpers import tested
from .shapes import Form


def main():
    return run(Form())


def run(form):
    np.add.at(np.zeros(2), [0], 1)
    return form.derivative(), solve(form), form.factor.solve(), "tested"


def solve(form):
    return form


def derivative(form):
    return form


def oracle():
    return 2


if __name__ == "__main__":
    main()
""",
}
TESTED = """
from pkg import Form, run
from pkg.helpers import tested

assert tested() == Form().evaluate() + 1 and run
"""


def test_walk_flags_what_only_tests_reach():
    # ``helpers.tested`` and ``Form.evaluate`` are reached only from the test,
    # which is not walked; an import and a string are not uses.  A bare name is
    # its module's own (``engine.solve``), ``helpers.derivative`` is reached
    # through its module, another attribute (``Form.derivative``, and
    # ``factor.solve``) reaches class members only, ``combine`` is reached
    # through ``__add__``, a part of the reached class, ``main`` from the
    # module-level code and ``oracle`` from a root.  ``np.add.at`` starts at a
    # name imported from outside the package, so it reaches no ``Form.at``.
    # The test reaches ``run`` through the package's lazy export.
    package = [Path(f"pkg/{stem}.py") for stem in WALKED]
    test = Path("test_sample.py")
    trees = {path: ast.parse(WALKED[path.stem]) for path in package}
    trees[test] = ast.parse(TESTED)
    never = ["engine.derivative", "engine.oracle", "helpers.solve", "shapes.Form.at"]
    assert unreached_definitions(trees, package, [], []) == sorted(
        never + ["helpers.tested", "shapes.Form.evaluate"])
    assert unreached_definitions(trees, package, [test], []) == never
    assert unreached_definitions(trees, package, [], ["engine.oracle"]) == [
        "engine.derivative", "helpers.solve", "helpers.tested", "shapes.Form.at",
        "shapes.Form.evaluate"]
