import copy
import functools
import gc
import io
import re
import weakref
from contextlib import redirect_stdout
from fractions import Fraction
from math import comb, gcd

import numpy as np
import pytest
import scipy.sparse
from test_exactla import reference_independent_subset, reference_nullspace
from test_global_spaces import CHECK_MESHES, build_space
from test_local import cell_bases, oracle_tables, table_of
from test_mesh import (GRADED, LATTICE_MESHES, cell_faces, cells_of_face, dof_faces, faces,
                       graded_mesh, integrate_on_face, interior_faces, is_boundary)

from boxforms import cli, local, projection, spaces
from boxforms import whitney as whitney_module
from boxforms import exactla
from boxforms.exactla import independent_subset, kernel_vectors, rank, spans_equal
from boxforms.forms import CellBox, Combination, PolyForm, Polynomial, adjoint_table
from boxforms.global_spaces import VQ, VQ0, VQSTAR, VQSTAR0, check_conforming_complex
from boxforms.mesh import build_grid, face_dofs
from boxforms.reports import CheckReport
from boxforms.solver import assemble, basis_matrix
from boxforms.whitney import (FULL_TEST, INTERIOR_TEST, PiecewiseWhitney,
                              apply_broken_d, build_constraints,
                              check_commuting_squares, check_crossing_equivalence,
                              check_whitney_complex, interpolated_generating_set,
                              kernel_space, mean_jump_rows,
                              prune_vectors, space_summary, summarize)

def dense_matrix(space):
    """Vectors of a WhitneySpace as dense Fraction rows (small problems only)."""
    out = []
    for v in space.vectors:
        row = [Fraction(0)] * space.pw.ncols
        for c, val in v.items():
            row[c] = val
        out.append(row)
    return out


MESH2 = build_grid([[0, 1], [0, 1]], (2, 2))
MESH3 = build_grid([[0, 1]] * 3, (2, 2, 2))
SINGLE = build_grid([[0, 1], [0, 1]], (1, 1))


def test_constraint_shapes_match_spec_examples():
    cs = build_constraints(0, MESH2, INTERIOR_TEST)
    assert (cs.n_rows, cs.ncols) == (4, 12)
    assert rank(cs.rows) == 4
    cs1 = build_constraints(1, MESH2, INTERIOR_TEST)
    assert (cs1.n_rows, cs1.ncols) == (1, 12)


def test_single_cell_has_no_constraints():
    for k in (0, 1, 2):
        cs = build_constraints(k, SINGLE, INTERIOR_TEST)
        assert cs.n_rows == 0
        assert kernel_space(cs).dim == comb(3, k + 1)


def test_top_degree_space_is_piecewise_constants():
    cs = build_constraints(2, MESH2, INTERIOR_TEST)
    assert cs.n_rows == 0
    assert kernel_space(cs).dim == MESH2.n_cells


def test_kernel_dimension_2x2():
    cs = build_constraints(0, MESH2, INTERIOR_TEST)
    assert kernel_space(cs).dim == 12 - 4


def test_constants_satisfy_constraints():
    from boxforms.indices import multi_indices
    for mesh in (MESH2, MESH3):
        for k in range(mesh.n + 1):
            cs = build_constraints(k, mesh, INTERIOR_TEST)
            for sigma in multi_indices(k, mesh.n):
                vec = cs.pw.constant_form_vector(sigma, 7)
                assert not any(cs.residual(vec))


@pytest.mark.parametrize("mesh", [MESH2, MESH3])
@pytest.mark.parametrize("flavor", [INTERIOR_TEST, FULL_TEST])
def test_projected_conforming_functions_satisfy_constraints(mesh, flavor):
    for k in range(mesh.n + 1):
        cs = build_constraints(k, mesh, flavor)
        gens = interpolated_generating_set(k, mesh, flavor)
        for vec in gens.vectors:
            assert not any(cs.residual(vec))


@pytest.mark.parametrize("mesh", [MESH2, MESH3])
def test_generator_span_inside_kernel(mesh):
    for k in range(mesh.n):
        cs = build_constraints(k, mesh, INTERIOR_TEST)
        kernel = kernel_space(cs)
        gens = interpolated_generating_set(k, mesh, INTERIOR_TEST)
        dk = dense_matrix(kernel)
        dg = dense_matrix(gens)
        assert rank(dk) == rank(dk + dg)      # containment
        assert rank(dg) <= kernel.dim         # dimension monotonicity


def test_generating_set_can_be_dependent_and_prunes():
    cs = build_constraints(0, MESH2, INTERIOR_TEST)
    gens = interpolated_generating_set(0, MESH2, INTERIOR_TEST)
    assert gens.dim == 9          # one per vertex
    pruned, kept = prune_vectors(gens)
    assert pruned.dim == rank(dense_matrix(gens)) == 8
    assert kept == sorted(kept)


def test_pruning_is_exact_above_the_old_float_switch():
    # 289 vertex generators over 768 broken coordinates: 221,952 dense
    # entries, where pruning used to switch to a float pivoted QR
    mesh = build_grid([[0, 1], [0, 1]], (16, 16))
    gens = interpolated_generating_set(0, mesh, INTERIOR_TEST)
    assert gens.pw.ncols * gens.dim > 200_000
    pruned, kept = prune_vectors(gens)
    assert kept == reference_independent_subset(dense_matrix(gens))
    assert pruned.dim == 288
    assert pruned.vectors == [gens.vectors[i] for i in kept]


# -- pruning on integer rows built per shape, against the Fraction vectors


def per_vector_basis_matrix(space):
    """The float basis matrix built from the Fraction vectors, entry by entry."""
    starts = np.cumsum([0] + [len(vec) for vec in space.vectors])
    rows = [c for vec in space.vectors for c in vec]
    data = [v.numerator / v.denominator for vec in space.vectors for v in vec.values()]
    return scipy.sparse.csc_matrix((data, rows, starts),
                                   shape=(space.pw.ncols, space.dim)).sorted_indices()


PRUNE_MESHES = {
    "uniform-1d-5": lambda: build_grid([[0, 2]], (5,)),
    "uniform-2d-4x3": lambda: build_grid([[0, 1], [0, 3]], (4, 3)),
    "uniform-3d-3x2x2": lambda: build_grid([[0, 1]] * 3, (3, 2, 2)),
    "graded-2d": lambda: graded_mesh(GRADED["2d"]),
    "graded-3d": lambda: graded_mesh(GRADED["3d"]),
}


@pytest.mark.parametrize("name", sorted(PRUNE_MESHES))
@pytest.mark.parametrize("flavor", [INTERIOR_TEST, FULL_TEST])
def test_integer_row_pruning_matches_the_fraction_vectors(monkeypatch, name, flavor):
    mesh = PRUNE_MESHES[name]()
    scans = []

    def scan(rows):
        scans.append(rows)
        return exactla.independent_rows(rows)

    monkeypatch.setattr(whitney_module, "independent_rows", scan)
    for k in range(mesh.n + 1):
        gens = interpolated_generating_set(k, mesh, flavor)
        rows = [exactla._integer_row(v) for v in gens.vectors]
        assert list(gens.integer_rows()) == rows
        scans.clear()
        pruned, kept = prune_vectors(gens)
        assert kept == independent_subset(gens.vectors), k
        assert kept == exactla.independent_rows([dict(row) for row in rows]), k
        # rows are built and eliminated only when two vectors' leading columns
        # collide; the 1D interior-test vertex set has one collision and keeps all
        leads = [min(row) for row in rows]
        assert bool(scans) == (len(set(leads)) < len(leads)), k
        assert pruned.vectors == [gens.vectors[i] for i in kept]
        # elimination works on rows of its own and leaves the per-shape
        # patterns alone: pruning again, or a new generating set on the same
        # mesh, finds the same subset from the same rows
        assert prune_vectors(gens)[1] == kept
        assert list(gens.integer_rows()) == rows
        again = interpolated_generating_set(k, mesh, flavor)
        assert list(again.integer_rows()) == rows
        assert prune_vectors(again)[1] == kept
        for space in (gens, pruned):
            got, expected = basis_matrix(space), per_vector_basis_matrix(space)
            assert got.shape == expected.shape
            for part in ("indptr", "indices", "data"):
                a, b = getattr(got, part), getattr(expected, part)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (k, part)


def test_summary_fields():
    summary = space_summary(0, MESH2, INTERIOR_TEST)
    assert summary == {
        "k": 0, "flavor": INTERIOR_TEST, "n_cells": 4, "dim_piecewise": 12,
        "rank_B": 4, "dim_kernel": 8, "dim_generators_span": 8,
    }


@pytest.mark.parametrize("mesh", [SINGLE, MESH2, MESH3])
@pytest.mark.parametrize("flavor", [INTERIOR_TEST, FULL_TEST])
def test_whitney_complex(mesh, flavor):
    report = check_whitney_complex(mesh, flavor)
    assert report.passed, report.to_dict()


#: uniform meshes in 1D-4D and the graded ones, for the Betti numbers of the complexes
COHOMOLOGY_MESHES = {
    **{f"uniform-{n}d-{m}": (lambda n=n, m=m: build_grid([[0, 1]] * n, (m,) * n))
       for n, m in ((1, 4), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2))},
    **{f"graded-{name}": (lambda bp=bp: graded_mesh(bp)) for name, bp in GRADED.items()},
}


@pytest.mark.parametrize("name", sorted(COHOMOLOGY_MESHES))
@pytest.mark.parametrize("flavor", [INTERIOR_TEST, FULL_TEST])
def test_the_glued_complexes_have_the_cohomology_of_the_box(name, flavor):
    # dim V_k - rank d_k - rank d_(k-1) on the pruned generator bases, exactly: the
    # box's cohomology for interior-test, its cohomology relative to the boundary for
    # full-test.  A space one vector short or long changes a Betti number.
    mesh = COHOMOLOGY_MESHES[name]()
    bases = [prune_vectors(interpolated_generating_set(k, mesh, flavor))[0]
             for k in range(mesh.n + 1)]
    ranks = [rank([apply_broken_d(row, space.pw, up.pw)[0] for row, _ in space.integer_vectors])
             for space, up in zip(bases, bases[1:])]
    betti = [space.dim - r - r_before
             for space, r, r_before in zip(bases, ranks + [0], [0] + ranks)]
    assert betti == ([1] + [0] * mesh.n if flavor == INTERIOR_TEST else [0] * mesh.n + [1])


@pytest.mark.parametrize("mesh", [MESH2, MESH3])
@pytest.mark.parametrize("flavor", [INTERIOR_TEST, FULL_TEST])
def test_commuting_squares(mesh, flavor):
    report = check_commuting_squares(mesh, flavor)
    assert report.passed, report.to_dict()


def test_broken_d_map():
    pw0 = PiecewiseWhitney(0, MESH2)
    pw1 = PiecewiseWhitney(1, MESH2)
    cols, _ = local.d_matrix(2, 0)
    assert len(cols) == pw0.dim_local and len(cols[0]) == pw1.dim_local
    # derivative of a piecewise linear: check on one cell explicitly
    vec = {pw0.col(0, 1): 2}  # 2*(x1 - c1) on cell 0
    dvec, den = apply_broken_d(vec, pw0, pw1)
    assert all(type(v) is int for v in dvec.values())
    form = pw1.form_on_cell({c: Fraction(v, den) for c, v in dvec.items()}, 0)
    from boxforms.forms import PolyForm
    assert form == PolyForm.covector(2, (1,), 2)


@pytest.mark.parametrize("divisions", [(2, 2), (3, 3)])
def test_mean_jump_equivalence(divisions):
    mesh = build_grid([[0, 1], [0, 1]], divisions)
    report = check_crossing_equivalence(mesh)
    assert report.passed, report.to_dict()


def test_mean_jump_equivalence_1d():
    # the same gluing pattern holds on intervals
    mesh = build_grid([[0, 1]], (4,))
    pw = PiecewiseWhitney(0, mesh)
    cs = build_constraints(0, mesh, INTERIOR_TEST)
    kernel_a = [row for row, _ in kernel_vectors(cs.integer_rows, pw.ncols)[1]]
    kernel_b = [row for row, _ in kernel_vectors(mean_jump_rows(mesh, pw)[0], pw.ncols)[1]]
    assert spans_equal(kernel_a, kernel_b)


def reference_mean_jump_rows(mesh, pw):
    """The per-entry build the per-shape scatter replaced: per interior facet, the
    facet integral of each cell's basis, + on the lower cell id and - on the higher."""
    bases, rows = cell_bases(pw), []
    for face in interior_faces(mesh, mesh.n - 1):
        lo, hi = sorted(cells_of_face(mesh, face))
        row = [Fraction(0)] * pw.ncols
        for sign, ci in ((1, lo), (-1, hi)):
            for j, phi in enumerate(bases[ci]):
                poly = phi.parts.get((), None)
                if poly is not None:
                    row[pw.col(ci, j)] = sign * integrate_on_face(mesh, face, poly)
        rows.append(row)
    return rows


@pytest.mark.parametrize("name", sorted(LATTICE_MESHES) + [f"graded-{g}" for g in sorted(GRADED)])
def test_mean_jump_rows_match_the_per_entry_build(name):
    if name.startswith("graded-"):
        mesh = graded_mesh(GRADED[name[len("graded-"):]])
    else:
        mesh = build_grid(*LATTICE_MESHES[name])
    pw = PiecewiseWhitney(0, mesh)
    # the dense view of the sparse integer rows
    rows, den = mean_jump_rows(mesh, pw)
    rows = [[Fraction(row.get(c, 0), den) for c in range(pw.ncols)] for row in rows]
    assert rows == reference_mean_jump_rows(mesh, pw)
    assert len(rows) == len(interior_faces(mesh, mesh.n - 1))
    assert all(any(row) for row in rows)


def test_full_test_flavor_is_smaller():
    for k in (0, 1):
        interior = kernel_space(build_constraints(k, MESH2, INTERIOR_TEST))
        full = kernel_space(build_constraints(k, MESH2, FULL_TEST))
        assert full.dim < interior.dim
        # essential space is contained in the natural one
        di = dense_matrix(interior)
        df = dense_matrix(full)
        assert rank(di) == rank(di + df)


@pytest.mark.parametrize("mesh", [build_grid([[0, 1], [0, 1]], (3, 3)),
                                  build_grid([[0, 1], [0, 1]], (4, 2)),
                                  MESH3], ids=["3x3", "4x2", "2x2x2"])
@pytest.mark.parametrize("flavor", [INTERIOR_TEST, FULL_TEST])
def test_generators_span_the_kernel(mesh, flavor):
    for k in range(mesh.n + 1):
        summary = space_summary(k, mesh, flavor)
        assert summary["dim_generators_span"] == summary["dim_kernel"]
        if flavor == FULL_TEST:
            gens = interpolated_generating_set(k, mesh, flavor)
            assert gens.dim == summary["dim_generators_span"]


# -- the per-(test DOF, cell, basis function) build the pairing tables replaced


def reference_constraints(k, mesh, flavor):
    """Constraint rows by pairing every test expansion with every broken basis function."""
    pw = PiecewiseWhitney(k, mesh)
    if k == mesh.n:
        return []
    test_space = build_space(VQSTAR0 if flavor == INTERIOR_TEST else VQSTAR, k + 1, mesh)
    bases, rows = cell_bases(pw), []
    for dof in range(test_space.ndof):
        row = [Fraction(0)] * pw.ncols
        for ci in test_space.supports[dof]:
            mu = test_space.cell_expansions[ci][dof]
            for j, phi in enumerate(bases[ci]):
                row[pw.col(ci, j)] = adjoint_table([phi], [mu], mesh.cells[ci])[0][0]
        rows.append(row)
    return rows


RATIONAL_BOX = [[Fraction(1, 3), Fraction(7, 5)], [0, Fraction(2, 3)], [Fraction(-1, 2), 1]]
CONSTRAINT_MESHES = {
    "1d-4": ([[0, 1]], (4,)),
    "2d-3x3": ([[0, 1], [0, 1]], (3, 3)),
    "2d-3x2-0..3": ([[0, 1], [0, 3]], (3, 2)),
    "3d-2x2x2": ([[0, 1]] * 3, (2, 2, 2)),
    "3d-2x1x2-rational": (RATIONAL_BOX, (2, 1, 2)),
}


def constraint_mesh(name):
    """A CONSTRAINT_MESHES grid, or a GRADED mesh (``graded-2d``), whose cells differ in width."""
    if name.startswith("graded-"):
        return graded_mesh(GRADED[name[len("graded-"):]])
    return build_grid(*CONSTRAINT_MESHES[name])


@pytest.mark.parametrize("name", sorted(CONSTRAINT_MESHES) + [f"graded-{n}" for n in GRADED])
@pytest.mark.parametrize("flavor", [INTERIOR_TEST, FULL_TEST])
def test_constraint_rows_match_the_per_entry_build(name, flavor):
    # each shape's pairings are the reference cell's scaled by h^e_j
    for k in range(constraint_mesh(name).n + 1):
        rows = build_constraints(k, constraint_mesh(name), flavor).rows
        assert rows == reference_constraints(k, constraint_mesh(name), flavor), k


@pytest.mark.parametrize("name", sorted(CONSTRAINT_MESHES))
def test_face_dof_tables_filter_the_face_lattice(name):
    mesh = build_grid(*CONSTRAINT_MESHES[name])
    for k in range(mesh.n + 1):
        everything = dof_faces(k, mesh)
        interior = dof_faces(k, mesh, interior=True)
        assert everything == faces(mesh, k)
        assert interior == [f for f in faces(mesh, k) if not is_boundary(mesh, f)]
        for table, kept in ((face_dofs(k, mesh), everything),
                            (face_dofs(k, mesh, interior=True), interior)):
            for t, cell_dofs in zip(mesh.cell_tuples, table.cell_dofs):
                local_faces = cell_faces(mesh, t, k)
                assert [(local_faces[a], kept[dof]) for a, dof in cell_dofs] == \
                    [(f, f) for f in local_faces if f in kept]


def test_a_mesh_is_freed_without_the_cycle_collector():
    # the face-DOF and per-shape tables cached on a mesh hold no reference to it
    mesh = build_grid([[0, 1], [0, 2]], (2, 3))
    load = PolyForm(2, 1, {(1,): Polynomial.variable(2, 2), (2,): Polynomial.constant(2, 1)})
    gc.disable()
    try:
        constraints = build_constraints(1, mesh, INTERIOR_TEST)
        kernel = kernel_space(constraints)
        generators, _ = prune_vectors(interpolated_generating_set(1, mesh, INTERIOR_TEST))
        problems = [assemble(space, load) for space in (kernel, generators)]
        squares = check_commuting_squares(mesh, FULL_TEST)
        alive = weakref.ref(mesh)
        del mesh, constraints, kernel, generators, problems
        assert squares.passed and alive() is None
    finally:
        gc.enable()


def test_constraint_build_pairs_once_per_shape(monkeypatch):
    # 2D k=0: 4 edge face functions times 3 P1minus basis functions, paired on
    # the reference cell the first time and scaled to every shape after that,
    # whatever the number of cells or shapes; counted as entries of the pairing
    # kernel, with the 4 x 4 face-DOF Vandermonde of the reference's edge functions
    monkeypatch.setattr(local, "reference", functools.cache(local.reference.__wrapped__))
    entries = []
    real = CellBox.pairing_terms

    def counting(box, left, right, frozen=None):
        entries.append(len(left[0]) * len(right[0]))
        return real(box, left, right, frozen)

    monkeypatch.setattr(CellBox, "pairing_terms", counting)
    counts = []
    for mesh in (build_grid([[0, 1], [0, 1]], (4, 4)), build_grid([[0, 1], [0, 1]], (8, 8)),
                 graded_mesh(GRADED["2d"])):
        entries.clear()
        build_constraints(0, mesh, INTERIOR_TEST)
        counts.append(sum(entries))
    assert counts == [12 + 16, 0, 0]


def test_generators_scatter_matches_the_face_lookup():
    # the per-face build the scatter through the cell DOF table replaced, on uniform
    # meshes and on graded ones, whose shapes' patterns differ in denominator
    for name in sorted(CONSTRAINT_MESHES) + [f"graded-{n}" for n in GRADED]:
        mesh = constraint_mesh(name)
        for k in range(mesh.n + 1):
            for flavor in (INTERIOR_TEST, FULL_TEST):
                pw = PiecewiseWhitney(k, mesh)
                expected = []
                for face in dof_faces(k, mesh, interior=flavor == FULL_TEST):
                    vec = {}
                    for ci in cells_of_face(mesh, face):
                        a = cell_faces(mesh, mesh.cell_tuples[ci], k).index(face)
                        shape = table_of(mesh, k, ci)
                        for j, c in enumerate(oracle_tables(k, shape.cell)["patterns"][a]):
                            if c:
                                vec[pw.col(ci, j)] = c
                    expected.append(vec)
                space = interpolated_generating_set(k, mesh, flavor)
                assert space.vectors == expected, (name, k, flavor)
                # the primitive rows: positive multiples of the vectors, with gcd 1
                for row, vec in zip(space.integer_rows(), expected):
                    assert row.keys() == vec.keys() and gcd(*row.values()) == 1
                    assert len({row[c] / v for c, v in vec.items()}) == 1
                    assert next(iter(row.values())) * next(iter(vec.values())) > 0


def test_summary_from_built_objects_matches_space_summary():
    for flavor in (INTERIOR_TEST, FULL_TEST):
        cs = build_constraints(1, MESH3, flavor)
        gens = interpolated_generating_set(1, MESH3, flavor)
        assert summarize(cs, kernel_space(cs), gens) == space_summary(1, MESH3, flavor)


# -- the per-(dof, cell) square the per-shape squares replaced


def reference_commuting_squares(mesh, flavor=INTERIOR_TEST):
    """Projection then broken d equals d then projection, mesh-wise.

    Checked exactly on every global basis function of the conforming
    source space at every degree.
    """
    n = mesh.n
    source_kind = VQ if flavor == INTERIOR_TEST else VQ0
    for k in range(n):
        space = build_space(source_kind, k, mesh)
        for dof in range(space.ndof):
            for ci in space.supports[dof]:
                shape, shape_up = table_of(mesh, k, ci), table_of(mesh, k + 1, ci)
                # the shape's projectors sit on its first cell: move v there
                shift = [a - b for a, b in zip(mesh.cells[ci].center, shape.cell.center)]
                v = Combination(n, k, [space.cell_expansions[ci][dof]])([1], [-t for t in shift])
                left = shape_up.projector.coefficients(v.exterior_derivative())
                ck = shape.projector.coefficients(v)
                cols, den = local.d_matrix(n, k)
                right = [sum((ck[j] * cols[j][i] for j in range(len(ck))), Fraction(0)) / den
                         for i in range(len(left))]
                if left != right:
                    return CheckReport(
                        "interpolation_commutes", n, k, False,
                        counterexample=f"dof {dof} cell {ci}: {left} != {right}")
    return CheckReport("interpolation_commutes", n, None, True,
                       details={"source": source_kind})


@pytest.mark.parametrize("name", sorted(CHECK_MESHES))
@pytest.mark.parametrize("flavor", [INTERIOR_TEST, FULL_TEST])
def test_per_shape_squares_match_the_per_cell_reference(name, flavor):
    mesh = CHECK_MESHES[name]()
    report = check_commuting_squares(mesh, flavor)
    assert report.passed, report.to_dict()
    assert report == reference_commuting_squares(mesh, flavor)


def assert_names_a_dof_and_cell_of(report, mesh, flavor, shape=None):
    assert not report.passed
    match = re.match(r"dof (\d+) cell (\d+): ", report.counterexample)
    dof, cell = int(match[1]), int(match[2])
    assert shape is None or table_of(mesh, report.k, cell) is shape
    dofs = face_dofs(report.k, mesh, interior=flavor == FULL_TEST).cell_dofs[cell]
    assert dof in {d for _, d in dofs}


def bump_first_linear(columns):
    columns[1][0] += 1  # at degree 0, column 1 of D is d of the first linear function


def double(columns):
    columns[:] = [[2 * v for v in column] for column in columns]


@pytest.mark.parametrize("perturb", [bump_first_linear, double], ids=["bump", "double"])
@pytest.mark.parametrize("flavor", [INTERIOR_TEST, FULL_TEST])
def test_a_perturbed_d_matrix_entry_fails_at_a_dof_and_cell(monkeypatch, flavor, perturb):
    # graded 2D, degree 0: the shared D, edited in a copy, is read on every shape
    mesh = graded_mesh(GRADED["2d"])
    columns, den = copy.deepcopy(local.d_matrix(2, 0))
    perturb(columns)
    real = local.d_matrix
    monkeypatch.setattr(local, "d_matrix",
                        lambda n, k: (columns, den) if (n, k) == (2, 0) else real(n, k))
    report = check_commuting_squares(mesh, flavor)
    assert report.k == 0
    assert_names_a_dof_and_cell_of(report, mesh, flavor)
    # the per-cell reference reads the same D, and fails at the same place
    assert report == reference_commuting_squares(mesh, flavor)


@pytest.mark.parametrize("flavor", [INTERIOR_TEST, FULL_TEST])
def test_a_perturbed_pattern_entry_fails_at_a_dof_and_cell(flavor):
    # graded 3D, degree 1: one coefficient of one face function's projection
    mesh = graded_mesh(GRADED["3d"])
    a = face_dofs(1, mesh, interior=flavor == FULL_TEST).cell_dofs[mesh.n_cells - 1][0][0]
    shape = table_of(mesh, 1, mesh.n_cells - 1)
    patterns = copy.deepcopy(shape.patterns)
    j = next(j for j, col in enumerate(local.d_matrix(3, 1)[0]) if any(col))
    rows, _ = patterns  # (integer rows, den)
    rows[a][j] += 1
    shape.__dict__["patterns"] = patterns
    report = check_commuting_squares(mesh, flavor)
    assert report.k == 1
    assert_names_a_dof_and_cell_of(report, mesh, flavor, shape)


def count_work(monkeypatch, check, *args):
    """Calls of the exact projector product and of the face functional during one check.

    The face functional is counted once per face-DOF row, by the freezing
    of that local face's normal coordinates.  The reference cell's tables
    and the shared ones are cleared first, so every count holds their one build.
    """
    local.reference.cache_clear()
    local.d_matrix.cache_clear()
    local.incidence.cache_clear()
    counts = {"coefficients": 0, "face_dof": 0}
    real_coefficients = projection.LocalProjector.coefficients
    real_face_plane = local.face_plane

    def coefficients(self, omega):
        counts["coefficients"] += 1
        return real_coefficients(self, omega)

    def face_plane(cell, axes, shift):
        counts["face_dof"] += 1
        return real_face_plane(cell, axes, shift)

    with monkeypatch.context() as patch:
        patch.setattr(projection.LocalProjector, "coefficients", coefficients)
        patch.setattr(local, "face_plane", face_plane)
        assert check(*args).passed
    return counts


@pytest.mark.parametrize("small,large", [((2, 2), (4, 4)), ((2, 2, 2), (3, 3, 3))])
def test_mesh_checks_do_per_shape_work(monkeypatch, small, large):
    # one cell shape on both meshes: the exact work must not grow with the cell count
    cases = [(check_commuting_squares, flavor) for flavor in (INTERIOR_TEST, FULL_TEST)] + \
            [(check_conforming_complex, bc) for bc in (False, True)]
    for check, option in cases:
        counts = [count_work(monkeypatch, check, build_grid([[0, 1]] * len(d), d), option)
                  for d in (small, large)]
        assert counts[0] == counts[1], (check.__name__, option, counts)
        assert counts[0]["coefficients" if check is check_commuting_squares else "face_dof"]


def count_bases(monkeypatch, run, *args):
    """Calls of ``spaces.basis`` during one run, the reference cell's tables cleared first."""
    local.reference.cache_clear()
    calls = []
    real_basis = spaces.basis

    def basis(*basis_args):
        calls.append(basis_args[:2])
        return real_basis(*basis_args)

    with monkeypatch.context() as patch:
        patch.setattr(spaces, "basis", basis)
        run(*args)
    return len(calls)


def dump_basis(k, m):
    with redirect_stdout(io.StringIO()):
        assert cli.main(["basis", "--dim", "2", "--k", str(k), "--grid", f"{m},{m}"]) == 0


def solve_exactly(k, m):
    load = PolyForm(2, k, {alpha: Polynomial(2, {(0, 0): Fraction(2, 3), (1, 0): -1, (0, 1): 3})
                           for alpha in ([()] if k == 0 else [(1,), (2,)])})
    space = kernel_space(build_constraints(k, build_grid([[0, 1]] * 2, (m, m))))
    assert assemble(space, load).F_exact is not None


@pytest.mark.parametrize("k", [0, 1])
def test_basis_dump_and_exact_assembly_build_bases_per_shape(monkeypatch, k):
    # one cell shape on both meshes: the local bases must not grow with the cell count
    for run in (dump_basis, solve_exactly):
        counts = [count_bases(monkeypatch, run, k, m) for m in (3, 6)]
        assert counts[0] == counts[1] > 0, (run.__name__, counts)


@pytest.mark.parametrize("name", sorted(CHECK_MESHES))
def test_kernel_space_is_the_dense_nullspace_with_its_free_columns(name):
    # the dense-vector build the sparse pivot rows replaced
    mesh = CHECK_MESHES[name]()
    for k in range(mesh.n + 1):
        for flavor in (INTERIOR_TEST, FULL_TEST):
            constraints = build_constraints(k, mesh, flavor)
            space = kernel_space(constraints)
            dense = reference_nullspace(constraints.rows, ncols=constraints.ncols)
            assert space.vectors == [{c: v for c, v in enumerate(vec) if v} for vec in dense]
            assert len(space.free_columns) == space.dim
            for i, fc in enumerate(space.free_columns):
                assert [vec.get(fc, 0) for vec in space.vectors] == \
                    [int(i == j) for j in range(space.dim)]
