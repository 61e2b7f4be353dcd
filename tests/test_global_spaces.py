from fractions import Fraction

import pytest

from boxforms.forms import PolyForm, Polynomial
from boxforms.global_spaces import (VQ, VQ0, VQSTAR, VQSTAR0, build_space,
                                    check_conforming_complex, check_unisolvence)
from boxforms.mesh import build_grid

def expand_in_face_dofs(space, pw_forms):
    """Coefficients of a conforming piecewise form in the global basis.

    ``pw_forms`` gives the form cell by cell.  Coefficients are read off
    as face DOFs; membership must be verified separately.
    """
    mesh = space.mesh
    coeffs = [Fraction(0)] * space.ndof
    for dof, face in enumerate(space.dof_faces):
        if space.supports[dof]:
            coeffs[dof] = mesh.face_dof(face, pw_forms[space.supports[dof][0]])
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
        total = PolyForm.zero(2, 0)
        for form in space.cell_expansions[ci].values():
            total = total + form
        assert total == PolyForm.from_scalar(
            Polynomial.constant(2, 1))


def test_dof_duality():
    space = build_space(VQ, 1, MESH2)
    for ci, tup in enumerate(MESH2.cell_tuples):
        for dof, form in space.cell_expansions[ci].items():
            for gid_face, face in enumerate(space.dof_faces):
                if ci not in MESH2.cells_of_face(face):
                    continue
                value = MESH2.face_dof(face, form)
                assert value == (1 if gid_face == dof else 0)


def test_boundary_restriction():
    full = build_space(VQ, 1, MESH2)
    restricted = build_space(VQ0, 1, MESH2)
    assert restricted.ndof == 4
    assert all(not MESH2.is_boundary(f) for f in restricted.dof_faces)


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
                cells = [c for c in mesh.cells_of_face(face) if c in image]
                if not cells:
                    continue
                primal_form = image[cells[0]].hodge()
                scale = (-1) ** ((n - (k - 1)) * (k - 1))  # undo double star
                value = mesh.face_dof(face, scale * primal_form)
                if value:
                    coeffs[low_dof] = value
            for ci in range(mesh.n_cells):
                target = image.get(ci, PolyForm.zero(n, k - 1))
                combo = PolyForm.zero(n, k - 1)
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
        form = PolyForm.zero(2, 0)
        for dof in (0, 4):
            local = space.cell_expansions[ci].get(dof)
            if local is not None:
                form = form + local
        pw.append(form)
    coeffs = expand_in_face_dofs(space, pw)
    assert coeffs[0] == 1 and coeffs[4] == 1
    assert sum(1 for c in coeffs if c) == 2
