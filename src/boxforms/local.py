"""Per-shape local data: what every cell of the same widths shares.

Local bases are centered monomial forms ``prod (x_i - c_i)^tau_i dx^sigma``,
so a cell's local matrices and its basis values at its own Gauss points
depend only on its widths.  :func:`tables` builds one :class:`LocalTables`
per (mesh, k, widths) on the first cell of that shape and caches it on the
mesh.  Its exact entries equal every congruent cell's as Fractions; its
float tabulations equal them up to rounding.
"""

from collections import namedtuple
from functools import cached_property

import numpy as np

from . import spaces
from .exactla import invert
from .forms import PolyForm
from .projection import LocalProjector
from .quadrature import centered_rule, form_array


def local_energy_matrix(basis, cell):
    """<d phi_a, d phi_b> + <phi_a, phi_b> on one cell, exact."""
    d_forms = [phi.exterior_derivative() for phi in basis]
    size = len(basis)
    rows = [[None] * size for _ in range(size)]
    for a in range(size):
        for b in range(a, size):
            val = (d_forms[a].inner_product(d_forms[b], cell)
                   + basis[a].inner_product(basis[b], cell))
            rows[a][b] = rows[b][a] = val
    return rows


def face_dof_matrix(mesh, cell_id, local):
    """Face DOFs of a local basis on one cell: rows in local face order."""
    faces = mesh.cell_faces(mesh.cell_tuples[cell_id], local.k)
    return [[mesh.face_dof(face, phi) for phi in local] for face in faces]


#: Gauss offsets from the cell center (point, axis), weights (point,), and the
#: P1minus basis values and d-values as (basis function, component, point)
Tabulation = namedtuple("Tabulation", "offsets weights values d_values")


class LocalTables:
    """Degree-k local data of every cell congruent to one mesh cell, built on first use."""

    def __init__(self, mesh, k, cell_id):
        self.k = k
        self.cell = mesh.cells[cell_id]
        self._mesh = mesh
        self._cell_id = cell_id
        self.basis = spaces.basis(spaces.P1MINUS, k, self.cell)
        self._tabulations = {}

    @cached_property
    def energy(self):
        return local_energy_matrix(self.basis, self.cell)

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
    def vandermonde_inverse(self):
        """Inverse face-DOF Vandermonde of Q1minus^k; column a gives face function a."""
        return invert(face_dof_matrix(self._mesh, self._cell_id, self.q_basis))

    def face_function(self, local, a):
        """The form of ``local`` (a cell's Q1minus^k basis) dual to local face a."""
        return sum((row[a] * phi for row, phi in zip(self.vandermonde_inverse, local) if row[a]),
                   PolyForm.zero(self.cell.n, self.k))

    @cached_property
    def patterns(self):
        """P1minus coefficients of the adjoint projection of each face function."""
        projector = LocalProjector(self.k, self.cell)
        return [projector.coefficients(self.face_function(self.q_basis, a))
                for a in range(len(self.q_basis))]

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
    widths = mesh.congruence_key(cell_id)
    if (k, widths) not in mesh.local_tables:
        first = next(ci for ci in range(mesh.n_cells) if mesh.congruence_key(ci) == widths)
        mesh.local_tables[k, widths] = LocalTables(mesh, k, first)
    return mesh.local_tables[k, widths]

