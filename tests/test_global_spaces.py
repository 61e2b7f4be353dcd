import re
from fractions import Fraction

import pytest
from test_local import table_of
from test_mesh import GRADED, cells_of_face, dof_faces, face_dof, graded_mesh, is_boundary

from boxforms import global_spaces, spaces
from boxforms.exactla import rank
from boxforms.forms import PolyForm, Polynomial
from boxforms.global_spaces import (VQ, VQ0, VQSTAR, VQSTAR0, check_conforming_complex,
                                    check_unisolvence)
from boxforms.local import face_dof_matrix, incidence
from boxforms.mesh import build_grid, face_dofs
from boxforms.reports import CheckReport


# -- the conforming spaces as global objects, with one local expansion per cell:
# the references the per-shape checks are tested against


class GlobalSpace:
    """Global-DOF space with cell-local PolyForm expansions."""

    def __init__(self, kind, k, mesh, dof_faces, cell_expansions):
        self.kind = kind
        self.k = k
        self.mesh = mesh
        self.dof_faces = dof_faces
        self.ndof = len(dof_faces)
        self.cell_expansions = cell_expansions  # per cell: {dof id: PolyForm}
        self.supports = [[] for _ in range(self.ndof)]
        for ci, expansion in enumerate(cell_expansions):
            for dof in expansion:
                self.supports[dof].append(ci)


def build_space(kind, k, mesh):
    """Assemble a global space; N counts k-faces (or (n-k)-faces for star kinds)."""
    n = mesh.n
    if kind in (VQSTAR, VQSTAR0):
        primal = build_space(VQ if kind == VQSTAR else VQ0, n - k, mesh)
        expansions = [{dof: form.hodge() for dof, form in expansion.items()}
                      for expansion in primal.cell_expansions]
        return GlobalSpace(kind, k, mesh, primal.dof_faces, expansions)
    if kind not in (VQ, VQ0):
        raise ValueError(f"unknown global space kind {kind!r}")
    table = face_dofs(k, mesh, interior=kind == VQ0)
    # per cell, the local basis dual to the face DOFs: congruent cells share
    # the dual coefficients, only the centered basis differs
    expansions = []
    for ci, cell in enumerate(mesh.cells):
        combine = spaces.basis(spaces.Q1MINUS, k, cell).combination
        rows, den = table_of(mesh, k, ci).vandermonde_inverse
        expansions.append({dof: combine([row[a] for row in rows], den=den)
                           for a, dof in table.cell_dofs[ci]})
    return GlobalSpace(kind, k, mesh, dof_faces(k, mesh, interior=kind == VQ0), expansions)


def expand_in_face_dofs(space, pw_forms):
    """Coefficients of a conforming piecewise form in the global basis.

    ``pw_forms`` gives the form cell by cell.  Coefficients are read off
    as face DOFs; membership must be verified separately.
    """
    mesh = space.mesh
    coeffs = [Fraction(0)] * space.ndof
    for dof, face in enumerate(space.dof_faces):
        if space.supports[dof]:
            coeffs[dof] = face_dof(mesh, face, pw_forms[space.supports[dof][0]])
    return coeffs


MESH2 = build_grid([[0, 1], [0, 1]], (2, 2))
MESH3 = build_grid([[0, 1]] * 3, (2, 2, 2))


def test_spec_dimensions():
    assert build_space(VQ, 0, MESH2).ndof == 9
    assert build_space(VQSTAR0, 1, MESH2).ndof == 4
    assert build_space(VQ0, 2, MESH2).ndof == 4  # n-faces are never boundary
    assert build_space(VQ, 1, MESH2).ndof == 12
    assert build_space(VQ0, 1, MESH2).ndof == 4
    assert build_space(VQSTAR, 2, MESH3).ndof == 54  # star of degree-1 primal


@pytest.mark.parametrize("mesh,kmax", [(MESH2, 2), (MESH3, 3)])
def test_unisolvence(mesh, kmax):
    for k in range(kmax + 1):
        report = check_unisolvence(mesh, k)
        assert report.passed, report.to_dict()


def test_partition_of_unity_for_vertices():
    space = build_space(VQ, 0, MESH2)
    for ci in range(MESH2.n_cells):
        total = PolyForm(2, 0)
        for form in space.cell_expansions[ci].values():
            total = total + form
        assert total == PolyForm.from_scalar(
            Polynomial.constant(2, 1))


def test_dof_duality():
    space = build_space(VQ, 1, MESH2)
    for ci, tup in enumerate(MESH2.cell_tuples):
        for dof, form in space.cell_expansions[ci].items():
            for gid_face, face in enumerate(space.dof_faces):
                if ci not in cells_of_face(MESH2, face):
                    continue
                value = face_dof(MESH2, face, form)
                assert value == (1 if gid_face == dof else 0)


def test_boundary_restriction():
    full = build_space(VQ, 1, MESH2)
    restricted = build_space(VQ0, 1, MESH2)
    assert restricted.ndof == 4
    assert all(not is_boundary(MESH2, f) for f in restricted.dof_faces)


def test_star_spaces_are_cellwise_hodge():
    primal = build_space(VQ, 1, MESH2)
    dual = build_space(VQSTAR, 1, MESH2)
    assert dual.ndof == primal.ndof
    for ci in range(MESH2.n_cells):
        for dof, form in primal.cell_expansions[ci].items():
            assert dual.cell_expansions[ci][dof] == form.hodge()


@pytest.mark.parametrize("mesh", [MESH2, MESH3])
@pytest.mark.parametrize("bc", [False, True])
def test_conforming_complex(mesh, bc):
    report = check_conforming_complex(mesh, with_boundary_conditions=bc)
    assert report.passed, report.to_dict()


def test_single_cell_reduces_to_local_statement():
    mesh = build_grid([[0, 1], [0, 1]], (1, 1))
    report = check_conforming_complex(mesh)
    assert report.passed


@pytest.mark.parametrize("mesh", [MESH2, MESH3])
def test_star_chain_inclusion(mesh):
    """delta maps each dual space into the next one down, cell-wise.

    Images are expanded in the target global basis through the primal
    face DOFs (after un-starring) and the expansion is verified exactly.
    """
    n = mesh.n
    for k in range(2, n + 1):
        upper = build_space(VQSTAR0, k, mesh)
        lower = build_space(VQSTAR0, k - 1, mesh)
        for dof in range(upper.ndof):
            image = {ci: upper.cell_expansions[ci][dof].codifferential()
                     for ci in upper.supports[dof]}
            # candidate coefficients via the primal face DOFs of the un-starred image
            coeffs = {}
            for low_dof, face in enumerate(lower.dof_faces):
                cells = [c for c in cells_of_face(mesh, face) if c in image]
                if not cells:
                    continue
                primal_form = image[cells[0]].hodge()
                scale = (-1) ** ((n - (k - 1)) * (k - 1))  # undo double star
                value = face_dof(mesh, face, scale * primal_form)
                if value:
                    coeffs[low_dof] = value
            for ci in range(mesh.n_cells):
                target = image.get(ci, PolyForm(n, k - 1))
                combo = PolyForm(n, k - 1)
                for low_dof, c in coeffs.items():
                    local = lower.cell_expansions[ci].get(low_dof)
                    if local is not None:
                        combo = combo + c * local
                assert target == combo, (k, dof, ci)


def test_expand_in_face_dofs_roundtrip():
    space = build_space(VQ, 0, MESH2)
    # a conforming function: sum of two hats
    pw = []
    for ci in range(MESH2.n_cells):
        form = PolyForm(2, 0)
        for dof in (0, 4):
            local = space.cell_expansions[ci].get(dof)
            if local is not None:
                form = form + local
        pw.append(form)
    coeffs = expand_in_face_dofs(space, pw)
    assert coeffs[0] == 1 and coeffs[4] == 1
    assert sum(1 for c in coeffs if c) == 2


# -- the per-(dof, cell) checks the per-shape tables replaced


def reference_unisolvence(mesh, k):
    """Face DOFs against the local tensor basis give a nonsingular matrix."""
    for tup, cell in zip(mesh.cell_tuples, mesh.cells):
        local = spaces.basis(spaces.Q1MINUS, k, cell)
        if rank(face_dof_matrix(cell, local)[0]) != len(local):
            return CheckReport("face_dof_unisolvence", mesh.n, k, False,
                               counterexample=f"cell {tup}")
    return CheckReport("face_dof_unisolvence", mesh.n, k, True)


def _d_coefficients(space, space_up, dof):
    """Face-DOF coefficients of d(basis function) in the degree k+1 space."""
    mesh = space.mesh
    coeffs = {}
    for up_dof, face in enumerate(space_up.dof_faces):
        cells = [c for c in cells_of_face(mesh, face) if dof in space.cell_expansions[c]]
        if not cells:
            continue
        value = face_dof(mesh, face, space.cell_expansions[cells[0]][dof].exterior_derivative())
        if value:
            coeffs[up_dof] = value
    return coeffs


def reference_conforming_complex(mesh, with_boundary_conditions=False):
    """d maps each conforming space into the next one, and d o d = 0.

    For every global basis function, d of it is expanded in the
    degree-(k+1) global basis via face DOFs and the expansion is verified
    cell by cell, exactly; the composite coefficient maps multiply to zero.
    """
    kind = VQ0 if with_boundary_conditions else VQ
    n = mesh.n
    level = [build_space(kind, k, mesh) for k in range(n + 1)]
    d_maps = []
    for k in range(n):
        rows = []
        for dof in range(level[k].ndof):
            coeffs = _d_coefficients(level[k], level[k + 1], dof)
            # membership: the DOF expansion must reproduce d phi on every cell
            for ci in range(mesh.n_cells):
                target = level[k].cell_expansions[ci].get(dof)
                d_local = (target.exterior_derivative() if target is not None
                           else PolyForm(n, k + 1))
                combo = PolyForm(n, k + 1)
                for up_dof, c in coeffs.items():
                    local = level[k + 1].cell_expansions[ci].get(up_dof)
                    if local is not None and c:
                        combo = combo + c * local
                if d_local != combo:
                    return CheckReport(
                        "conforming_complex", n, k, False,
                        counterexample=f"dof {dof} cell {ci}: d(phi) not in span")
            rows.append(coeffs)
        d_maps.append(rows)
    for k in range(n - 1):
        for dof, coeffs in enumerate(d_maps[k]):
            acc = {}
            for mid, c in coeffs.items():
                for up, c2 in d_maps[k + 1][mid].items():
                    acc[up] = acc.get(up, Fraction(0)) + c * c2
            if any(acc.values()):
                return CheckReport("conforming_complex", n, k, False,
                                   counterexample=f"d(d(dof {dof})) != 0")
    return CheckReport("conforming_complex", n, None, True,
                       details={"kind": kind, "dims": [sp.ndof for sp in level]})


#: uniform meshes (one cell shape) and graded ones (several)
CHECK_MESHES = {
    "uniform-1d-3": lambda: build_grid([[0, 1]], (3,)),
    "uniform-2d-3x2-0..3": lambda: build_grid([[0, 1], [0, 3]], (3, 2)),
    "uniform-3d-2x2x2": lambda: build_grid([[0, 1]] * 3, (2, 2, 2)),
    **{f"graded-{name}": (lambda bp=bp: graded_mesh(bp)) for name, bp in GRADED.items()},
}


@pytest.mark.parametrize("name", sorted(CHECK_MESHES))
def test_per_shape_checks_match_the_per_cell_references(name):
    mesh = CHECK_MESHES[name]()
    for bc in (False, True):
        report = check_conforming_complex(mesh, with_boundary_conditions=bc)
        assert report.passed, report.to_dict()
        assert report == reference_conforming_complex(mesh, with_boundary_conditions=bc)
    for k in range(mesh.n + 1):
        assert check_unisolvence(mesh, k) == reference_unisolvence(mesh, k)


def named_dof_and_cell(report):
    match = re.fullmatch(r"dof (\d+) cell (\d+): d\(phi\) not in span", report.counterexample)
    assert match, report.counterexample
    return int(match[1]), int(match[2])


def first_cell_of(mesh, table):
    return next(ci for ci in range(mesh.n_cells) if table is table_of(mesh, 1, ci))


@pytest.mark.parametrize("bc", [False, True])
def test_a_perturbed_incidence_entry_fails_at_a_dof_and_cell(monkeypatch, bc):
    # graded 2D: the shared degree-1 table gets one entry off by one, read on every shape
    mesh = graded_mesh(GRADED["2d"])
    a = face_dofs(1, mesh, interior=bc).cell_dofs[mesh.n_cells - 1][0][0]
    rows, den = incidence(2, 1)
    perturbed = [list(row) for row in rows]
    perturbed[0][a] += den  # one more, in integers over den
    real = global_spaces.incidence
    monkeypatch.setattr(global_spaces, "incidence",
                        lambda n, k: (perturbed, den) if (n, k) == (2, 1) else real(n, k))
    report = check_conforming_complex(mesh, with_boundary_conditions=bc)
    assert not report.passed and report.k == 1
    dof, cell = named_dof_and_cell(report)
    assert (a, dof) in face_dofs(1, mesh, interior=bc).cell_dofs[cell]


def test_a_rescaled_face_function_fails_where_its_shape_meets_another():
    # the last shape's hat at its corner 0 is doubled: d of it is still in the
    # shape's span, but the cells of other shapes give the shared edges the
    # old coefficients, so the global function is not conforming
    mesh = graded_mesh(GRADED["2d"])
    shape = table_of(mesh, 0, mesh.n_cells - 1)
    shape.__dict__["face_functions"] = [2 * shape.face_functions[0]] + shape.face_functions[1:]
    report = check_conforming_complex(mesh)
    assert not report.passed and report.k == 0
    dof, _ = named_dof_and_cell(report)
    doubled = {d for ci, cell_dofs in enumerate(face_dofs(0, mesh).cell_dofs)
               if table_of(mesh, 0, ci) is shape for a, d in cell_dofs if a == 0}
    assert dof in doubled


def test_swapped_face_dofs_in_one_cell_fail_like_the_reference():
    # cell 0's top and right edges trade DOFs: every per-shape statement
    # still holds, only the scatter through the face-DOF table can see it
    mesh = graded_mesh(GRADED["2d"])
    table = face_dofs(1, mesh)
    (a, i), (b, j) = table.cell_dofs[0][1], table.cell_dofs[0][3]
    table.cell_dofs[0][1], table.cell_dofs[0][3] = (a, j), (b, i)
    report = check_conforming_complex(mesh)
    assert not report.passed and report.k == 0
    dof, cell = named_dof_and_cell(report)
    assert {i, j} & {d for _, d in face_dofs(1, mesh).cell_dofs[cell]}
    assert not reference_conforming_complex(mesh).passed


def test_a_dof_dropped_from_one_cell_fails_like_the_reference():
    # vertex 4 is corner 3 of cell 0: without it, cell 0 still has the two
    # edges it shares with the rest of the support, where d of the hat is nonzero
    mesh = graded_mesh(GRADED["2d"])
    table = face_dofs(0, mesh)
    assert table.cell_dofs[0][3] == (3, 4)
    table.cell_dofs[0] = table.cell_dofs[0][:3]
    report = check_conforming_complex(mesh)
    assert not report.passed and named_dof_and_cell(report) == (4, 0)
    assert report == reference_conforming_complex(mesh)


def test_an_edge_dropped_from_one_cell_fails_like_the_reference():
    # with boundary conditions, cell 0 loses its interior top edge from the
    # degree-1 table: d of the interior hat at its corner must then vanish there
    mesh = graded_mesh(GRADED["2d"])
    table = face_dofs(1, mesh, interior=True)
    assert [a for a, _ in table.cell_dofs[0]] == [1, 3]
    table.cell_dofs[0] = table.cell_dofs[0][1:]
    report = check_conforming_complex(mesh, with_boundary_conditions=True)
    assert not report.passed and named_dof_and_cell(report) == (0, 0)
    assert report == reference_conforming_complex(mesh, with_boundary_conditions=True)


def test_a_singular_shape_fails_unisolvence_at_its_first_cell(monkeypatch):
    mesh = graded_mesh(GRADED["3d"])
    shape = table_of(mesh, 1, mesh.n_cells - 1)
    ci = first_cell_of(mesh, shape)
    q = shape.q_basis
    monkeypatch.setitem(shape.__dict__, "q_basis", [q[0]] + list(q[:-1]))
    report = check_unisolvence(mesh, 1)
    assert not report.passed
    assert report.counterexample == f"cell {mesh.cell_tuples[ci]}"
