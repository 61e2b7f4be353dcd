"""Conforming tensor-product form spaces on a mesh, and their Hodge duals.

Four kinds:

* ``VQ``      one basis function per k-face (trace-continuous across faces);
* ``VQ0``     the sub-basis attached to interior k-faces (vanishing trace);
* ``VQstar``  cell-wise Hodge dual of VQ at complementary degree;
* ``VQstar0`` cell-wise Hodge dual of VQ0 at complementary degree.

On each cell of its support a basis function is a face function of the
cell's shape (``local.LocalTables.face_functions``), from the exact inverse
of the face-DOF Vandermonde of the local tensor-product basis, which the
unisolvence check below guarantees to exist.  No global space is built.
"""

from .exactla import rank
from .forms import Combination
from .local import incidence, shapes
from .mesh import face_dofs
from .reports import CheckReport

VQ = "VQ"
VQ0 = "VQ0"
VQSTAR = "VQstar"
VQSTAR0 = "VQstar0"

KINDS = (VQ, VQ0, VQSTAR, VQSTAR0)


def check_unisolvence(mesh, k):
    """Face DOFs against the local tensor basis give a nonsingular matrix.

    The matrix of a cell is its shape's matrix (the basis is centered on
    the cell and the faces move with it), so one rank per shape decides
    every cell; a failure names the shape's first cell.
    """
    shape_ids, tables = shapes(mesh, k)
    for s, shape in enumerate(tables):
        if rank(shape.vandermonde[0]) != len(shape.q_basis):
            ci = shape_ids.tolist().index(s)
            return CheckReport("face_dof_unisolvence", mesh.n, k, False,
                               counterexample=f"cell {mesh.cell_tuples[ci]}")
    return CheckReport("face_dof_unisolvence", mesh.n, k, True)


def _d_rows(mesh, k, interior):
    """Face-DOF coefficients c of d of every degree-k basis function, and the
    first (dof, cell) at which ``sum_j c[j] psi_j`` is not d of the function.

    The face functions f_b are independent, so on a support cell, where the
    function is f_a, the sum is ``d f_a = sum_b I[b][a] f_b`` exactly when
    each kept face b (DOF j) has c[j] == I[b][a] and each dropped one has
    I[b][a] == 0; off the support, when c[j] == 0 for each kept face.  c[j]
    is read on the first support cell of face j, in cell order.  The coefficients
    are integers over the shared ``incidence`` table's denominator; the identity is
    checked on each shape's own face functions, so a wrong shared table fails here.
    """
    low, up = face_dofs(k, mesh, interior), face_dofs(k + 1, mesh, interior)
    (shape_ids, tables), (_, tables_up) = shapes(mesh, k), shapes(mesh, k + 1)
    table, den = incidence(mesh.n, k)
    rows = [{} for _ in range(low.n_dofs)]
    support = [set() for _ in range(low.n_dofs)]
    members = {}
    bad = []
    for ci, (s, cell_dofs) in enumerate(zip(shape_ids.tolist(), low.cell_dofs)):
        kept = dict(up.cell_dofs[ci])
        for a, dof in cell_dofs:
            if (s, a) not in members:  # every local face of the shape at once
                combo = Combination(mesh.n, k + 1, tables_up[s].face_functions)
                for b, f in enumerate(tables[s].face_functions):
                    members[s, b] = combo([r[b] for r in table], den=den) == \
                        f.exterior_derivative()
            support[dof].add(ci)
            ok = members[s, a]
            for b, r in enumerate(table):
                j, value = kept.get(b), r[a]
                if j is None:
                    ok = ok and not value
                elif rows[dof].setdefault(j, value) != value:
                    ok = False
            if not ok:
                bad.append((dof, ci))
    cells_of = [[] for _ in range(up.n_dofs)]
    for ci, cell_dofs in enumerate(up.cell_dofs):
        for _, j in cell_dofs:
            cells_of[j].append(ci)
    for dof, row in enumerate(rows):
        rows[dof] = row = {j: c for j, c in row.items() if c}
        bad += [(dof, ci) for j in row for ci in cells_of[j] if ci not in support[dof]]
    return rows, min(bad, default=None)


def check_conforming_complex(mesh, with_boundary_conditions=False):
    """d maps each conforming space into the next one, and d o d = 0.

    On each cell of its support a global basis function is a face function
    f_a of the cell's shape, and d acts cell by cell, so the global
    statement is a per-shape one, ``d f_a = sum_b I[b][a] f_b`` with I the
    shared ``local.incidence`` table (checked once per shape and face used),
    plus a scatter of I through the face-DOF numbering: every cell that
    has a (k+1)-face must give it the same coefficient, a cell off the
    support 0, and a dropped boundary face must get 0.  The composite
    coefficient maps then multiply to zero.  All of it is exact.
    """
    kind = VQ0 if with_boundary_conditions else VQ
    n = mesh.n
    d_maps = []
    for k in range(n):
        rows, bad = _d_rows(mesh, k, with_boundary_conditions)
        if bad is not None:
            return CheckReport("conforming_complex", n, k, False,
                               counterexample=f"dof {bad[0]} cell {bad[1]}: d(phi) not in span")
        d_maps.append(rows)
    for k in range(n - 1):
        for dof, coeffs in enumerate(d_maps[k]):
            acc = {}
            for mid, c in coeffs.items():
                for up, c2 in d_maps[k + 1][mid].items():
                    acc[up] = acc.get(up, 0) + c * c2
            if any(acc.values()):
                return CheckReport("conforming_complex", n, k, False,
                                   counterexample=f"d(d(dof {dof})) != 0")
    dims = [face_dofs(k, mesh, with_boundary_conditions).n_dofs for k in range(n + 1)]
    return CheckReport("conforming_complex", n, None, True, details={"kind": kind, "dims": dims})
