"""Conforming tensor-product form spaces on a mesh, and their Hodge duals.

Four kinds:

* ``VQ``      one basis function per k-face (trace-continuous across faces);
* ``VQ0``     the sub-basis attached to interior k-faces (vanishing trace);
* ``VQstar``  cell-wise Hodge dual of VQ at complementary degree;
* ``VQstar0`` cell-wise Hodge dual of VQ0 at complementary degree.

Basis functions are stored as per-cell local expansions (never as global
closed forms); the expansion on each cell is obtained from the exact
inverse of the face-DOF Vandermonde of the local tensor-product basis,
which the unisolvence check below guarantees to exist.
"""

from fractions import Fraction

from . import spaces
from .exactla import rank
from .forms import PolyForm
from .local import face_dof_matrix, tables
from .mesh import face_dofs
from .reports import CheckReport

VQ = "VQ"
VQ0 = "VQ0"
VQSTAR = "VQstar"
VQSTAR0 = "VQstar0"

KINDS = (VQ, VQ0, VQSTAR, VQSTAR0)


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
        local = spaces.basis(spaces.Q1MINUS, k, cell)
        shape = tables(mesh, k, ci)
        expansions.append({dof: shape.face_function(local, a) for a, dof in table.cell_dofs[ci]})
    return GlobalSpace(kind, k, mesh, table.faces, expansions)


def check_unisolvence(mesh, k):
    """Face DOFs against the local tensor basis give a nonsingular matrix."""
    for tup, cell in zip(mesh.cell_tuples, mesh.cells):
        local = spaces.basis(spaces.Q1MINUS, k, cell)
        if rank(face_dof_matrix(cell, local)) != len(local):
            return CheckReport("face_dof_unisolvence", mesh.n, k, False,
                               counterexample=f"cell {tup}")
    return CheckReport("face_dof_unisolvence", mesh.n, k, True)


def _d_coefficients(space, space_up, dof):
    """Face-DOF coefficients of d(basis function) in the degree k+1 space."""
    mesh = space.mesh
    coeffs = {}
    for up_dof, face in enumerate(space_up.dof_faces):
        cells = [c for c in mesh.cells_of_face(face) if dof in space.cell_expansions[c]]
        if not cells:
            continue
        value = mesh.face_dof(face, space.cell_expansions[cells[0]][dof].exterior_derivative())
        if value:
            coeffs[up_dof] = value
    return coeffs


def check_conforming_complex(mesh, with_boundary_conditions=False):
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
                           else PolyForm.zero(n, k + 1))
                combo = PolyForm.zero(n, k + 1)
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
