"""Per-shape local data: what every cell of the same widths shares.

Local bases are centered monomial forms ``prod (x_i - c_i)^tau_i dx^sigma``,
so a cell's local matrices, its gluing pairings with the Hodge duals of
the face functions, and its basis values at its own Gauss points depend
only on its widths.  A :class:`LocalTables` is a function of a degree k
and one cell box alone; it knows no mesh, and its face DOFs integrate over
the faces of that box.  :func:`tables` builds one per shape, on its first
cell, and caches them on the mesh in a list indexed by cell id and filled
from the shape ids that ``CubicalMesh.cell_shapes`` reads off the grid, so
no other cell's box is built and none is hashed.  Its exact matrices are
tables of ``CellBox.pairing_table``, equal to every congruent cell's as
Fractions; its float tabulations equal them up to rounding.
"""

from collections import namedtuple
from functools import cached_property

import numpy as np

from . import spaces
from .exactla import invert, primitive_part
from .forms import PolyForm, adjoint_table
from .mesh import local_faces
from .projection import LocalProjector
from .quadrature import centered_rule, form_array


def local_energy_matrix(basis, cell):
    """<d phi_a, d phi_b> + <phi_a, phi_b> on one cell, exact."""
    entries = [(phi.exterior_derivative(), phi) for phi in basis]
    return cell.pairing_table(entries, entries)


def face_plane(cell, axes, shift):
    """The frozen normal coordinates of a local face: lo at offset 0, hi at offset 1."""
    return {i: (cell.hi if s else cell.lo)[i] for i, s in enumerate(shift) if i + 1 not in axes}


def face_dof_matrix(cell, forms):
    """Face DOFs of same-degree forms on one cell, rows in local face order: on
    face a, the integral of the trace, the pairing with dx^axes on the face plane."""
    faces = local_faces(cell.n, forms[0].k)
    return cell.pairing_table([(PolyForm.covector(cell.n, axes),) for axes, _ in faces],
                              [(phi,) for phi in forms],
                              [face_plane(cell, axes, shift) for axes, shift in faces])


#: Gauss offsets from the cell center (point, axis), weights (point,), and the
#: P1minus basis values and d-values as (basis function, component, point)
Tabulation = namedtuple("Tabulation", "offsets weights values d_values")


class LocalTables:
    """Degree-k local data of every cell congruent to ``cell``, built on first use."""

    def __init__(self, k, cell):
        self.k = k
        self.cell = cell
        self._tabulations = {}
        self._gluing_pairings = None

    @cached_property
    def basis(self):
        return spaces.basis(spaces.P1MINUS, self.k, self.cell)

    @cached_property
    def energy(self):
        return local_energy_matrix(self.basis, self.cell)

    @cached_property
    def energy_inverse(self):
        """Exact inverse of the local energy matrix (symmetric, like the matrix)."""
        return invert(self.energy)

    @cached_property
    def energy_float(self):
        return np.array(self.energy, dtype=float)

    @cached_property
    def d_matrix(self):
        """Columns: coefficients of d(phi_j) in the degree-(k+1) P1minus basis."""
        target = list(spaces.basis(spaces.P1MINUS, self.k + 1, self.cell))
        cols = [spaces.expand_in_span(target, phi.exterior_derivative()) for phi in self.basis]
        if None in cols:
            raise AssertionError("d of a Whitney form left the Whitney space")
        return cols

    @cached_property
    def q_basis(self):
        return spaces.basis(spaces.Q1MINUS, self.k, self.cell)

    @cached_property
    def vandermonde(self):
        """Face-DOF Vandermonde of Q1minus^k: row a, the DOFs on local face a."""
        return face_dof_matrix(self.cell, self.q_basis)

    @cached_property
    def vandermonde_inverse(self):
        """Inverse face-DOF Vandermonde of Q1minus^k; column a gives face function a."""
        return invert(self.vandermonde)

    def face_function(self, local, a):
        """The form of ``local`` (a cell's Q1minus^k basis) dual to local face a."""
        return sum((row[a] * phi for row, phi in zip(self.vandermonde_inverse, local) if row[a]),
                   PolyForm.zero(self.cell.n, self.k))

    @cached_property
    def face_functions(self):
        """The face functions of this table's cell, in local face order."""
        return [self.face_function(self.q_basis, a) for a in range(len(self.q_basis))]

    @cached_property
    def incidence(self):
        """Row b, column a: the DOF on local (k+1)-face b of d(face function a).

        If d maps Q1minus^k into Q1minus^(k+1), then
        ``d f_a == sum_b incidence[b][a] * f_b`` with f_b the degree-(k+1)
        face functions of the same cell.
        """
        return face_dof_matrix(self.cell, [f.exterior_derivative() for f in self.face_functions])

    @cached_property
    def projector(self):
        """The exact degree-k adjoint projector of the shape, on this table's cell."""
        return LocalProjector(self.k, self.cell)

    @cached_property
    def patterns(self):
        """P1minus coefficients of the adjoint projection of each face function."""
        return [self.projector.coefficients(f) for f in self.face_functions]

    @cached_property
    def integer_patterns(self):
        """Per local face: (s, primitive integer pattern {j: int}), the pattern s times it."""
        return [primitive_part(p) for p in self.patterns]

    @cached_property
    def float_patterns(self):
        """The patterns as a (local face, j) float array, each the float of its Fraction."""
        return np.array([[c.numerator / c.denominator for c in p] for p in self.patterns])

    def tabulation(self, order):
        """Basis values and d-values at the Gauss points of the given order."""
        if order not in self._tabulations:
            offsets, weights = centered_rule(self.cell.widths, order)
            points = np.array([float(c) for c in self.cell.center]) + offsets
            self._tabulations[order] = Tabulation(
                offsets, weights, form_array(self.basis, points),
                form_array([phi.exterior_derivative() for phi in self.basis], points))
        return self._tabulations[order]


def tables(mesh, k, cell_id):
    """The degree-k LocalTables shared by every cell congruent to ``cell_id``."""
    per_cell = mesh.local_tables.get(k)
    if per_cell is None:
        shape_ids, first = mesh.cell_shapes
        per_shape = [LocalTables(k, mesh.cell(ci)) for ci in first]
        per_cell = mesh.local_tables[k] = [per_shape[s] for s in shape_ids.tolist()]
    return per_cell[cell_id]


def shapes(mesh, k):
    """(first cell id, table) for each cell shape of the mesh, in cell order."""
    return [(ci, tables(mesh, k, ci)) for ci in mesh.cell_shapes[1]]


def gluing_pairings(mesh, k, cell_id):
    """Row a, column j: ``adjoint_pairing(phi_j, star f_a)`` on the cell's shape.

    f_a is face function a of Q1minus^(n-k-1) and phi_j the P1minus^k
    basis: the gluing constraint entries of one cell, before the scatter
    through the face DOFs.  Built once per shape and kept on its degree-k
    table; the face functions come from the mesh's degree-(n-k-1) table,
    so that shape's Vandermonde inverse is computed once.
    """
    table = tables(mesh, k, cell_id)
    if table._gluing_pairings is None:
        dual = tables(mesh, mesh.n - k - 1, cell_id)
        tests = [f.hodge() for f in dual.face_functions]
        table._gluing_pairings = [list(col) for col in
                                  zip(*adjoint_table(table.basis, tests, table.cell))]
    return table._gluing_pairings
