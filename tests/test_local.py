"""Per-shape local tables against per-cell computation, and the tabulated
quadrature contractions against the per-cell loops they replaced."""

import math
import random
from fractions import Fraction
from functools import cache, cached_property
from math import prod

import numpy as np
import pytest
from test_exactla import invert
from test_mesh import GRADED, cell_faces, face_dof, graded_mesh
from test_spaces import expand_in_span, per_box_basis

from boxforms import local, spaces
from boxforms.fields import manufactured
from boxforms.forms import CellBox, PolyForm, adjoint_table
from boxforms.global_spaces import check_conforming_complex, check_unisolvence
from boxforms.indices import multi_indices
from boxforms.local import LocalTables, face_dof_matrix, shapes
from boxforms.mesh import CubicalMesh, build_grid
from boxforms.projection import LocalProjector
from boxforms.quadrature import box_rule, form_array, polyform_values
from boxforms.solver import (assemble, broken_error, build_solver_space,
                             conjugate_gradient, consistency_with_floor, flavor_for, solve)
from boxforms.verify import random_box
from boxforms.whitney import FULL_TEST, INTERIOR_TEST, check_commuting_squares, check_whitney_complex

MESHES = [
    build_grid([[0, 1], [0, 3]], (3, 2)),
    build_grid([["-1/2", "1/3"], ["1/4", "2"], ["0", "5/3"]], (2, 1, 2)),
]


def local_energy_matrix(basis, cell):
    """<d phi_a, d phi_b> + <phi_a, phi_b> on one cell, exact: one pairing table."""
    entries = [(phi.exterior_derivative(), phi) for phi in basis]
    return cell.pairing_table(entries, entries)


def table_of(mesh, k, cell_id):
    """The degree-k LocalTables of the shape of one cell, through the shape ids."""
    shape_ids, tables = shapes(mesh, k)
    return tables[shape_ids[cell_id]]


def fractions_of(table):
    """The Fractions an integer (rows, den) table stands for."""
    rows, den = table
    return [[Fraction(v, den) for v in row] for row in rows]


def cell_bases(pw):
    """The P1minus basis built on each cell of the broken space's mesh, one cell at a time."""
    return [spaces.basis(spaces.P1MINUS, pw.k, cell) for cell in pw.mesh.cells]


def _cell_data(mesh, k, ci):
    """Energy, Vandermonde inverse and patterns from the cell's own basis."""
    cell = mesh.cells[ci]
    whitney = spaces.basis(spaces.P1MINUS, k, cell)
    energy = local_energy_matrix(whitney, cell)
    q = spaces.basis(spaces.Q1MINUS, k, cell)
    faces = cell_faces(mesh, mesh.cell_tuples[ci], k)
    vinv = invert([[face_dof(mesh, f, phi) for phi in q] for f in faces])
    projector = LocalProjector(k, cell)
    patterns = []
    for a in range(len(faces)):
        form = sum((vinv[j][a] * q[j] for j in range(len(q))), 0 * q[0])
        patterns.append(projector.coefficients(form))
    return energy, vinv, patterns


@pytest.mark.parametrize("mesh", MESHES, ids=["2d", "3d"])
def test_tables_equal_per_cell_exact_data(mesh):
    for k in range(mesh.n + 1):
        for ci in range(mesh.n_cells):
            table = table_of(mesh, k, ci)
            energy, vinv, patterns = _cell_data(mesh, k, ci)
            assert fractions_of(table.energy_integers) == energy
            assert fractions_of(table.vandermonde_inverse) == vinv
            assert fractions_of(table.patterns) == patterns


@pytest.mark.parametrize("mesh", MESHES, ids=["2d", "3d"])
@pytest.mark.parametrize("order", [2, 5])
def test_tabulation_matches_cell_evaluation(mesh, order):
    for k in range(mesh.n + 1):
        for ci, cell in enumerate(mesh.cells):
            tab = table_of(mesh, k, ci).tabulation(order)
            points, weights = box_rule(cell, order)
            center = np.array([float(c) for c in cell.center])
            assert np.array_equal(center + tab.offsets, points)
            assert np.array_equal(tab.weights, weights)
            whitney = spaces.basis(spaces.P1MINUS, k, cell)
            for j, phi in enumerate(whitney):
                for arr, form, deg in ((tab.values, phi, k),
                                       (tab.d_values, phi.exterior_derivative(), k + 1)):
                    alphas = multi_indices(deg, mesh.n) if deg <= mesh.n else []
                    assert arr.shape[1] == len(alphas)
                    vals = polyform_values(form, points)
                    for a, alpha in enumerate(alphas):
                        expect = vals.get(alpha, np.zeros(len(points)))
                        assert np.max(np.abs(arr[j, a] - expect)) <= 1e-13


@pytest.mark.parametrize("name", sorted(GRADED))
def test_tabulation_equals_the_per_box_basis_bit_for_bit(name):
    # the basis moved from the origin evaluates to the same floats, bit for bit,
    # as the basis built at each shape's center
    mesh = graded_mesh(GRADED[name])
    for k in range(mesh.n + 1):
        for s, table in enumerate(shapes(mesh, k)[1]):
            elements, _ = per_box_basis(spaces.P1MINUS, k, table.cell)
            for order in (2, 5):
                tab = table.tabulation(order)
                points = np.array([float(c) for c in table.cell.center]) + tab.offsets
                assert np.array_equal(tab.values, form_array(elements, points)), (k, s)
                assert np.array_equal(tab.d_values, form_array(
                    [phi.exterior_derivative() for phi in elements], points)), (k, s)


@pytest.mark.parametrize("name", sorted(GRADED))
def test_patterns_scale_from_the_reference_on_graded_meshes(name):
    # the reference's patterns with column j times h^-e_j, in lowest terms,
    # against the patterns projected on each shape's own cell
    mesh = graded_mesh(GRADED[name])
    for k in range(mesh.n + 1):
        assert len(shapes(mesh, k)[1]) > 1
        for s, table in enumerate(shapes(mesh, k)[1]):
            patterns = [table.projector.coefficients(f) for f in table.face_functions]
            assert_lowest_integer_rows(table.patterns, patterns, (k, s))


def test_one_table_per_shape():
    mesh = MESHES[0]
    shape_ids, tables = shapes(mesh, 1)
    assert shape_ids.tolist() == [0] * mesh.n_cells and len(tables) == 1
    assert tables[0].cell == mesh.cells[0] and shapes(mesh, 1)[1][0] is tables[0]
    assert shapes(mesh, 0)[1][0] is not tables[0]


# ---------------------------------------------------------------------------
# the width-scaling law: every shape's patterns and energy from the reference cell's


def component_tables(table):
    """{(d applied or not, I): the pairing table of component I of the basis}, on the
    table's own cell: its mass (I a k-index) and stiffness (I a (k+1)-index) by component."""
    out = {}
    n = table.cell.n
    for derived, forms in ((False, list(table.basis)),
                           (True, [phi.exterior_derivative() for phi in table.basis])):
        for alpha in multi_indices(forms[0].k, n) if forms[0].k <= n else []:
            entries = [(PolyForm(n, f.k, {alpha: f.parts[alpha]} if alpha in f.parts else {}),)
                       for f in forms]
            out[derived, alpha] = table.cell.pairing_table(entries, entries)
    return out


def law_exponents(e_i, e_j, alpha, n):
    """The half-width exponents of one component's term: e_i + e_j + (1, ..., 1) - 2I."""
    return [(a in e_i) + (a in e_j) + 1 - 2 * (a in alpha) for a in range(1, n + 1)]


def as_floats(rows):
    return np.array([[c.numerator / c.denominator for c in row] for row in rows])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_shape_tables_scale_from_the_reference(n):
    rng = random.Random(1700 + n)
    for _ in range(3 if n < 4 else 2):
        box = random_box(n, rng)
        h = [w / 2 for w in box.widths]
        for k in range(n + 1):
            table, ref = LocalTables(k, box), local.reference(n, k)
            assert ref.cell == CellBox.reference(n) and ref.basis.labels == table.basis.labels
            # term by term: each component's table is the reference's times its monomial
            e, ref_tables = [label[1] for label in ref.basis.labels], component_tables(ref)
            for key, rows in component_tables(table).items():
                for i, row in enumerate(rows):
                    for j, c in enumerate(row):
                        m = law_exponents(e[i], e[j], key[1], n)
                        assert c == prod(x ** p for x, p in zip(h, m)) * ref_tables[key][i][j]
            # and those reference terms are the ones the energy is scaled from
            terms, den = ref.energy_terms
            expected = [[{} for _ in e] for _ in e]
            for (_, alpha), rows in ref_tables.items():
                for i, row in enumerate(rows):
                    for j, c in enumerate(row):
                        if c:
                            expected[i][j][tuple(law_exponents(e[i], e[j], alpha, n))] = c
            assert [[{m: Fraction(c, den) for m, c in entry} for entry in row]
                    for row in terms] == expected


# ---------------------------------------------------------------------------
# the table contract: every exact per-shape table is integer rows over one den in
# lowest terms, and equals the Fractions built on the shape's own cell


@cache
def oracle_face_functions(k, cell):
    """(Vandermonde, its inverse, face functions) of Q1minus^k on ``cell``, as Fractions,
    the face DOFs taken on the one-cell mesh of the box."""
    q = list(spaces.basis(spaces.Q1MINUS, k, cell))
    vandermonde = reference_face_dof_matrix(cell, q)
    vinv = invert(vandermonde)
    return vandermonde, vinv, [sum((vinv[j][a] * q[j] for j in range(len(q))), 0 * q[0])
                               for a in range(len(q))]


@cache
def oracle_tables(k, cell):
    """{table name: Fractions}: the degree-k tables built on ``cell`` itself."""
    n, basis = cell.n, list(spaces.basis(spaces.P1MINUS, k, cell))
    vandermonde, vinv, face_functions = oracle_face_functions(k, cell)
    energy = local_energy_matrix(basis, cell)
    out = {"vandermonde": vandermonde, "vandermonde_inverse": vinv,
           "energy_integers": energy, "energy_inverse": invert(energy),
           "patterns": [LocalProjector(k, cell).coefficients(f) for f in face_functions]}
    if k < n:
        tests = [f.hodge() for f in oracle_face_functions(n - k - 1, cell)[2]]
        out["gluing_pairings"] = [list(col) for col in zip(*adjoint_table(basis, tests, cell))]
    return out


@cache
def oracle_shared_tables(k, cell):
    """{table name: Fractions}: the tables shared per (n, k), built on ``cell`` itself, k < n:
    each d(phi_j) expanded in the cell's own degree-(k+1) P1minus basis, and the face DOFs
    of d of the cell's own face functions."""
    target = list(spaces.basis(spaces.P1MINUS, k + 1, cell))
    face_functions = oracle_face_functions(k, cell)[2]
    return {"d_matrix": [expand_in_span(target, phi.exterior_derivative())
                         for phi in spaces.basis(spaces.P1MINUS, k, cell)],
            "incidence": reference_face_dof_matrix(
                cell, [f.exterior_derivative() for f in face_functions])}


#: the exact (rows, den) tables of a LocalTables; the last one exists below the top degree
EXACT_TABLES = ("vandermonde", "vandermonde_inverse", "energy_integers", "energy_inverse",
                "patterns", "gluing_pairings")
#: the other cached properties of a LocalTables: families, forms, the projector, the
#: reference's per-component energy terms, and the float tables
OTHER_PROPERTIES = ("basis", "q_basis", "face_functions", "projector", "energy_terms",
                    "energy_float", "float_patterns")


def assert_lowest_integer_rows(table, expected, name):
    rows, den = table
    assert type(rows) is list and all(type(row) is list for row in rows), name
    assert all(type(v) is int for row in rows for v in row), name
    assert type(den) is int and den > 0, name
    assert math.gcd(den, *(v for row in rows for v in row)) == 1, name
    assert fractions_of((rows, den)) == expected, name


def assert_shared_tables(k, cell):
    """The shared d-matrix and incidence of (n, k) equal the builds on ``cell`` itself."""
    expected = oracle_shared_tables(k, cell)
    for name in ("d_matrix", "incidence"):
        assert_lowest_integer_rows(getattr(local, name)(cell.n, k), expected[name], name)


def assert_table_contract(table):
    expected = oracle_tables(table.k, table.cell)
    for name in EXACT_TABLES[:-1 if table.k == table.cell.n else None]:
        assert_lowest_integer_rows(getattr(table, name), expected[name], name)
    patterns, energy = expected["patterns"], expected["energy_integers"]
    for got, expect in ((table.float_patterns, as_floats(patterns)),
                        (table.energy_float, np.array(energy, dtype=float))):
        assert got.dtype == expect.dtype and got.shape == expect.shape
        assert got.tobytes() == expect.tobytes()


def unlisted_properties(cls):
    """The cached properties of ``cls`` named in neither EXACT_TABLES nor OTHER_PROPERTIES."""
    return sorted(name for klass in cls.__mro__ for name, value in vars(klass).items()
                  if isinstance(value, cached_property)
                  and name not in EXACT_TABLES + OTHER_PROPERTIES)


def test_every_cached_table_is_listed():
    # a new per-shape table joins EXACT_TABLES, and so the lowest-terms contract,
    # or OTHER_PROPERTIES by name
    assert unlisted_properties(LocalTables) == []

    class Grown(LocalTables):
        @cached_property
        def mass_integers(self):
            return [[1]], 1

    assert unlisted_properties(Grown) == ["mass_integers"]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_random_box_tables_are_lowest_integer_rows_equal_to_the_cell_build(n):
    # the reference's tables built on it, and the scaled ones of random boxes
    rng = random.Random(1700 + n)
    for k in range(n + 1):
        assert_table_contract(local.reference(n, k))
    for _ in range(3 if n < 4 else 2):
        box = random_box(n, rng)
        for k in range(n + 1):
            assert_table_contract(LocalTables(k, box))
            if k < n:
                assert_shared_tables(k, box)


@pytest.mark.parametrize("name", sorted(GRADED))
def test_graded_shape_tables_are_lowest_integer_rows_equal_to_the_cell_build(name):
    mesh = graded_mesh(GRADED[name])
    for k in range(mesh.n + 1):
        for table in shapes(mesh, k)[1]:
            assert_table_contract(table)


#: uniform meshes (one shape) and graded ones (several)
SHARED_MESHES = {"uniform-2d": lambda: MESHES[0], "uniform-3d": lambda: MESHES[1],
                 **{f"graded-{name}": (lambda bp=bp: graded_mesh(bp))
                    for name, bp in GRADED.items()}}


@pytest.mark.parametrize("name", sorted(SHARED_MESHES))
def test_shared_tables_equal_the_build_on_every_cell(name):
    mesh = SHARED_MESHES[name]()
    for k in range(mesh.n):
        for cell in mesh.cells:
            assert_shared_tables(k, cell)


def test_shared_tables_are_built_once_per_dimension_and_degree():
    # every shape of a graded mesh reads them: the broken d, the commuting
    # squares and the conforming complex, in both flavors
    local.d_matrix.cache_clear()
    local.incidence.cache_clear()
    mesh = graded_mesh(GRADED["2d"])
    assert len(shapes(mesh, 0)[1]) > 1
    for flavor in (INTERIOR_TEST, FULL_TEST):
        assert check_whitney_complex(mesh, flavor).passed
        assert check_commuting_squares(mesh, flavor).passed
    for bc in (False, True):
        assert check_conforming_complex(mesh, with_boundary_conditions=bc).passed
    for shared in (local.d_matrix, local.incidence):
        info = shared.cache_info()
        assert info.misses == mesh.n and info.currsize == mesh.n and info.hits > 0


def test_the_reference_is_built_once_per_dimension_and_degree():
    local.reference.cache_clear()
    mesh = graded_mesh(GRADED["2d"])
    for table in shapes(mesh, 1)[1]:
        table.patterns, table.energy_integers
    assert len(shapes(mesh, 1)[1]) > 1 and local.reference.cache_info().misses == 1
    assert local.reference(2, 0) is not local.reference(2, 1)


# ---------------------------------------------------------------------------
# the per-cell, per-basis-function quadrature loops, kept as the oracle


def reference_load(pw, load, quad_order):
    out = np.zeros(pw.ncols)
    bases = cell_bases(pw)
    for ci, cell in enumerate(pw.mesh.cells):
        points, weights = box_rule(cell, quad_order)
        f_vals = load.at(points)
        for j, phi in enumerate(bases[ci]):
            acc = 0.0
            for alpha, pv in polyform_values(phi, points).items():
                fv = f_vals.get(alpha)
                if fv is not None:
                    acc += float(np.dot(weights, fv * pv))
            out[pw.col(ci, j)] = acc
    return out


def reference_broken_error(exact_field, solution, quad_order):
    pw = solution.space.pw
    bases = cell_bases(pw)
    coeffs = solution.pw_coefficients()
    err0 = 0.0
    err1 = 0.0
    for ci, cell in enumerate(pw.mesh.cells):
        points, weights = box_rule(cell, quad_order)
        local = coeffs[ci * pw.dim_local:(ci + 1) * pw.dim_local]
        acc = {a: -v for a, v in exact_field.at(points).items()}
        for j, phi in enumerate(bases[ci]):
            if local[j]:
                for alpha, pv in polyform_values(phi, points).items():
                    acc[alpha] = acc.get(alpha, 0.0) + local[j] * pv
        err0 += sum(float(np.dot(weights, v * v)) for v in acc.values())
        acc = {a: -v for a, v in exact_field.d_at(points).items()}
        for j, phi in enumerate(bases[ci]):
            if local[j]:
                df = phi.exterior_derivative()
                for alpha, pv in polyform_values(df, points).items():
                    acc[alpha] = acc.get(alpha, 0.0) + local[j] * pv
        err1 += sum(float(np.dot(weights, v * v)) for v in acc.values())
    return math.sqrt(err0), math.sqrt(err0 + err1)


def reference_consistency(entry, problem, quad_order, rtol=1e-12):
    pw = problem.space.pw
    bases = cell_bases(pw)
    ell_pw = np.zeros(pw.ncols)
    for ci, cell in enumerate(pw.mesh.cells):
        points, weights = box_rule(cell, quad_order)
        dw_vals = entry.omega.d_at(points)
        dd_vals = entry.delta_d.at(points)
        for j, phi in enumerate(bases[ci]):
            acc = 0.0
            df = phi.exterior_derivative()
            for alpha, pv in polyform_values(df, points).items():
                dv = dw_vals.get(alpha)
                if dv is not None:
                    acc += float(np.dot(weights, dv * pv))
            for alpha, pv in polyform_values(phi, points).items():
                cv = dd_vals.get(alpha)
                if cv is not None:
                    acc -= float(np.dot(weights, cv * pv))
            ell_pw[pw.col(ci, j)] = acc
    ell = np.asarray(problem.V.T @ ell_pw).ravel()
    if not np.any(ell):
        return 0.0
    y, _ = conjugate_gradient(problem.G, ell, rtol=rtol)
    return math.sqrt(max(float(ell @ y), 0.0))


@pytest.mark.parametrize("name, divisions", [("cos2d_k1", (3, 2)), ("sin3d_k1", (2, 2, 2))])
def test_contraction_matches_per_cell_loops(name, divisions):
    entry = manufactured(name)
    mesh = build_grid(entry.domain, divisions)
    space = build_solver_space(entry.k, mesh, flavor_for(entry))
    problem = assemble(space, entry.load, 5)
    ref_f = np.asarray(problem.V.T @ reference_load(space.pw, entry.load, 5)).ravel()
    assert np.max(np.abs(problem.F - ref_f)) <= 1e-12 * np.max(np.abs(ref_f))

    sol = solve(problem)
    got = broken_error(entry.omega, sol, 5)
    ref = reference_broken_error(entry.omega, sol, 5)
    for g, r in zip(got, ref):
        assert abs(g - r) <= 1e-12 * r

    got_c = consistency_with_floor(entry, problem)[0]
    ref_c = reference_consistency(entry, problem, 5)
    assert abs(got_c - ref_c) <= max(1e-12 * ref_c, 1e-14)


@pytest.mark.parametrize("name, m", [("sin2d_k1", 24), ("cos2d_k0", 16)])
def test_back_solve_consistency_matches_cg(name, m):
    entry = manufactured(name)
    mesh = build_grid(entry.domain, (m, m))
    space = build_solver_space(entry.k, mesh, flavor_for(entry))
    problem = assemble(space, entry.load, 5)
    got = consistency_with_floor(entry, problem)[0]
    ref = reference_consistency(entry, problem, 5)
    assert abs(got - ref) <= max(1e-12 * ref, 1e-14)


def test_float_pipeline_builds_local_bases_once_per_shape(monkeypatch):
    # on each level's one shape only the P1minus basis of the Gauss tabulation;
    # the bases of the projection and the energy are the reference cell's,
    # built on the first level alone
    local.reference.cache_clear()
    calls = []
    original = spaces.basis

    def counting(*args, **kwargs):
        calls.append((*args[:2], args[2].widths))
        return original(*args, **kwargs)

    monkeypatch.setattr(spaces, "basis", counting)
    entry = manufactured("sin2d_k1")
    per_level = []
    for m in (4, 8, 16):
        calls.clear()
        mesh = build_grid(entry.domain, (m, m))
        space = build_solver_space(entry.k, mesh, flavor_for(entry))
        problem = assemble(space, entry.load, 5)
        broken_error(entry.omega, solve(problem), 5)
        consistency_with_floor(entry, problem)[0]
        per_level.append(list(calls))
    on_shape = [[(spaces.P1MINUS, 1, (Fraction(1, m),) * 2)] for m in (4, 8, 16)]
    assert [[c for c in level if c[2] != (2, 2)] for level in per_level] == on_shape
    assert len(per_level[0]) > 1 and per_level[1:] == on_shape[1:]


# -- the shape map from the grid, against hashing every cell's widths


def reference_shapes(mesh):
    """First cell id of each distinct ``cell.widths``, in cell order."""
    first = {}
    for ci, cell in enumerate(mesh.cells):
        first.setdefault(cell.widths, ci)
    return list(first.values())


#: GRADED, uniform, and widths that recur after others on each axis
SHAPE_MESHES = {
    **{f"graded-{name}": (lambda bp=bp: graded_mesh(bp)) for name, bp in GRADED.items()},
    "uniform-2d": lambda: MESHES[0],
    "uniform-3d": lambda: MESHES[1],
    "graded-2d-recurring": lambda: graded_mesh(([0, 1, 2, "5/2", 3, 4], [0, 2, 3, 5])),
}


@pytest.mark.parametrize("name", sorted(SHAPE_MESHES))
def test_one_table_per_shape_of_the_grid(name):
    mesh = SHAPE_MESHES[name]()
    first = reference_shapes(mesh)
    first_of = {mesh.cells[ci].widths: ci for ci in first}
    for k in range(mesh.n + 1):
        shape_ids, tables = shapes(mesh, k)
        ids = shape_ids.tolist()
        assert [ids.index(s) for s in range(len(tables))] == first
        for ci, cell in enumerate(mesh.cells):
            table = tables[ids[ci]]
            assert table.cell == mesh.cells[first_of[cell.widths]]
            for cj, other in enumerate(mesh.cells):
                assert (tables[ids[cj]] is table) == (other.widths == cell.widths)


# -- the face-DOF matrix of the one-cell mesh of the box, which the pairing
# table on the box itself replaced


def reference_face_dof_matrix(cell, forms):
    """Face DOFs entry by entry, on the one-cell mesh whose cell is the box itself."""
    box = CubicalMesh(cell, (1,) * cell.n)
    box.cells = [cell]
    return [[face_dof(box, face, phi) for phi in forms]
            for face in cell_faces(box, (0,) * cell.n, forms[0].k)]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_face_dof_matrix_matches_the_one_cell_mesh_build(n):
    rng = random.Random(300 + n)
    for _ in range(3 if n < 4 else 2):
        cell = random_box(n, rng)
        for k in range(n + 1):
            families = [list(spaces.basis(kind, k, cell))
                        for kind in (spaces.Q1MINUS, spaces.P1MINUS)]
            if k < n:
                families.append([f.exterior_derivative()
                                 for f in LocalTables(k, cell).face_functions])
            for forms in families:
                assert fractions_of(face_dof_matrix(cell, forms)) == \
                    reference_face_dof_matrix(cell, forms), k


def test_face_dofs_build_no_mesh(monkeypatch):
    # unisolvence and the Vandermonde inverse integrate on the cell's own box, the
    # shared incidence table on the reference's: no one-cell mesh is made for them
    meshes = [build_grid([[0, 1], [0, 3]], (3, 2)), graded_mesh(GRADED["3d"])]
    local.incidence.cache_clear()
    made = []
    real_init = CubicalMesh.__init__

    def init(mesh, domain, divisions):
        made.append(divisions)
        real_init(mesh, domain, divisions)

    monkeypatch.setattr(CubicalMesh, "__init__", init)
    for mesh in meshes:
        for k in range(mesh.n + 1):
            assert check_unisolvence(mesh, k).passed
            for shape in shapes(mesh, k)[1]:
                assert LocalTables(k, shape.cell).vandermonde_inverse == \
                    shape.vandermonde_inverse
            if k < mesh.n:
                assert local.incidence(mesh.n, k)[0]
    assert made == []
    build_grid([[0, 1]], (2,))
    assert made == [(2,)]


def test_the_vandermonde_is_built_once_per_shape(monkeypatch):
    # check_unisolvence takes its rank and the face functions invert it; its
    # rows are counted by the freezing of each local face's normal coordinates
    mesh = graded_mesh(GRADED["2d"])
    rows = []
    real = local.face_plane

    def counting(cell, axes, shift):
        rows.append(cell.widths)
        return real(cell, axes, shift)

    monkeypatch.setattr(local, "face_plane", counting)
    assert check_unisolvence(mesh, 1).passed
    for ci in range(mesh.n_cells):
        table_of(mesh, 1, ci).vandermonde_inverse
    widths = [cell.widths for cell in mesh.cells]
    assert rows == [w for i, w in enumerate(widths) if w not in widths[:i] for _ in range(4)]
