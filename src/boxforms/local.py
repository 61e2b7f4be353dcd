"""Per-shape local data: the one module that knows the cell-shape layout.

A :class:`LocalTables` is a function of a degree k and one cell box; it
knows no mesh.  :func:`shapes` is the one accessor of a mesh's tables:
(shape id of each cell, tables per shape), each shape's built on its first
cell and cached on the mesh, from ``CubicalMesh.cell_shapes``.  Every cell
basis is a family of centered monomials, so per-shape data comes in three
kinds:

* shared per (n, k), equal on every box: the d-matrix (:func:`d_matrix`;
  d of the Koszul lift of dx^gamma is (k+1) dx^gamma) and the face-DOF
  incidence of d (:func:`incidence`; Stokes on the cube), each built once;
* scaled from the reference: :func:`reference` builds the tables of
  [-1, 1]^n once per (n, k), on first use.  P1minus basis function j,
  labelled by an index tuple e_j (sigma of dx^sigma, gamma of the Koszul
  lift of dx^gamma), pulls back to h^e_j times the reference's, h the
  half-widths, and face functions and the projector commute with the
  pullback.  So projection pattern a is the reference's with column j over
  h^e_j (``patterns``), the gluing pairings are the reference's times
  h^e_j, and energy entry (i, j) is ``h^(e_i+e_j) h^(1,...,1) sum_I
  h^(-2I) T_I[i][j]`` with T_I the reference's mass (I a k-index) or
  stiffness ((k+1)-index) table on component I (``energy_integers``): all
  equal the tables built on the cell, and all take their powers of h from
  one integer helper;
* built on the shape's own box, from the families ``spaces.basis`` builds
  once at the origin and moves there: the face-DOF Vandermonde, the face
  functions and the projector, which the mesh checks read, and the Gauss
  tabulations.

Every exact table is one (integer rows, den) pair in lowest terms; a float
table divides its integers, ``int / int``, which rounds once, as a
Fraction's float does.
"""

from collections import namedtuple
from functools import cache, cached_property
from math import prod

import numpy as np

from . import spaces
from .exactla import common_denominator, inverse_integers
from .forms import CellBox, PolyForm, scaled_terms
from .mesh import local_faces
from .projection import LocalProjector
from .quadrature import centered_rule, form_array


def face_plane(cell, axes, shift):
    """The frozen normal coordinates of a local face: lo at offset 0, hi at offset 1."""
    return {i: (cell.hi if s else cell.lo)[i] for i, s in enumerate(shift) if i + 1 not in axes}


def face_dof_matrix(cell, forms):
    """(rows, den): face DOFs of same-degree forms on one cell, rows in local face order:
    on face a, the integral of the trace, the pairing with dx^axes on the face plane."""
    faces = local_faces(cell.n, forms[0].k)
    (rows,), den = common_denominator([cell.pairing_terms(
        scaled_terms([(PolyForm.covector(cell.n, axes),) for axes, _ in faces]),
        scaled_terms([(phi,) for phi in forms]),
        [face_plane(cell, axes, shift) for axes, shift in faces])])
    return rows, den


#: Gauss offsets from the cell center (point, axis), weights (point,), and the
#: P1minus basis values and d-values as (basis function, component, point)
Tabulation = namedtuple("Tabulation", "offsets weights values d_values")


class LocalTables:
    """Degree-k local data of every cell congruent to ``cell``, built on first use."""

    def __init__(self, k, cell):
        self.k = k
        self.cell = cell
        self._tabulations = {}

    @cached_property
    def basis(self):
        return spaces.basis(spaces.P1MINUS, self.k, self.cell)

    @cached_property
    def energy_integers(self):
        """(rows, den): <d phi_i, d phi_j> + <phi_i, phi_j> as integer rows over one
        denominator, the reference's ``energy_terms`` scaled."""
        terms, den = reference(self.cell.n, self.k).energy_terms
        exponents = sorted({m for row in terms for entry in row for m, _ in entry})
        scales, d = self._scales(exponents)
        scale = dict(zip(exponents, scales))
        (rows,), den = common_denominator([(
            [[sum(c * scale[m] for m, c in entry) for entry in row] for row in terms], den * d)])
        return rows, den

    @cached_property
    def energy_terms(self):
        """(terms, den), read on the reference: per energy entry (i, j), the pairs (m, c)
        of its integrals c/den on one component I each, to scale by h^m, m = e_i + e_j
        + 1 - 2I (from 1 to 3)."""
        e, n = [label[1] for label in self.basis.labels], self.cell.n
        components, tables = [], []
        for forms in (list(self.basis), [phi.exterior_derivative() for phi in self.basis]):
            for alpha in {alpha for f in forms for alpha in f.parts}:
                part = scaled_terms([(PolyForm._of(n, f.k, {alpha: f.parts[alpha]}
                                                   if alpha in f.parts else {}),) for f in forms])
                components.append(alpha)
                tables.append(self.cell.pairing_terms(part, part))
        tables, den = common_denominator(tables)
        terms = [[[] for _ in e] for _ in e]
        for alpha, rows in zip(components, tables):
            for i, row in enumerate(rows):
                for j, c in enumerate(row):
                    if c:
                        m = tuple((a in e[i]) + (a in e[j]) + 1 - 2 * (a in alpha)
                                  for a in range(1, n + 1))
                        terms[i][j].append((m, c))
        return terms, den

    @cached_property
    def energy_inverse(self):
        """(rows, den): the exact inverse of the energy matrix (symmetric, like the matrix)."""
        return inverse_integers(*self.energy_integers)

    @cached_property
    def energy_float(self):
        rows, den = self.energy_integers
        return np.array([[v / den for v in row] for row in rows])

    @cached_property
    def q_basis(self):
        return spaces.basis(spaces.Q1MINUS, self.k, self.cell)

    @cached_property
    def vandermonde(self):
        """(rows, den): the face-DOF Vandermonde of Q1minus^k, row a the DOFs on local face a."""
        return face_dof_matrix(self.cell, self.q_basis)

    @cached_property
    def vandermonde_inverse(self):
        """(rows, den): the inverse face-DOF Vandermonde; column a gives face function a."""
        return inverse_integers(*self.vandermonde)

    @cached_property
    def face_functions(self):
        """The face functions of this table's cell, in local face order: column a of the
        inverse Vandermonde, over the Q1minus^k basis, is face function a."""
        rows, den = self.vandermonde_inverse
        return [self.q_basis.combination([row[a] for row in rows], den=den)
                for a in range(len(self.q_basis))]

    @cached_property
    def projector(self):
        """The exact degree-k adjoint projector of the shape, on this table's cell."""
        return LocalProjector(self.k, self.cell)

    def _scales(self, exponents):
        """(ints, den): h^m for each exponent tuple m (one integer per axis), h the
        half-widths, over one den.  With h_a = p/q and lo <= 0 <= hi bounding the
        exponents on axis a, h_a^v is p^(v - lo) q^(hi - v) over p^-lo q^hi."""
        axes = [(w.numerator, 2 * w.denominator, min(0, *m), max(0, *m))
                for w, m in zip(self.cell.widths, zip(*exponents))]
        return ([prod(p ** (v - lo) * q ** (hi - v) for (p, q, lo, hi), v in zip(axes, m))
                 for m in exponents], prod(p ** -lo * q ** hi for p, q, lo, hi in axes))

    def _scaled_columns(self, name, sign):
        """(rows, den) in lowest terms: the reference's table ``name`` with column j times
        h^(sign e_j)."""
        ref = reference(self.cell.n, self.k)
        (rows, d), axes = getattr(ref, name), range(1, self.cell.n + 1)
        scales, den = self._scales([[sign * (a in e) for a in axes] for _, e in ref.basis.labels])
        (rows,), den = common_denominator([
            ([[v * c for v, c in zip(row, scales)] for row in rows], d * den)])
        return rows, den

    @cached_property
    def patterns(self):
        """(rows, den): row a, the P1minus coefficients of the adjoint projection of face
        function a; off the reference, the reference's with column j times h^-e_j."""
        if reference(self.cell.n, self.k) is not self:
            return self._scaled_columns("patterns", -1)
        tables, den = common_denominator(
            [([ints], d) for ints, d in map(self.projector.integers, self.face_functions)])
        return [row for (row,) in tables], den

    @cached_property
    def gluing_pairings(self):
        """(rows, den): row a, column j, ``adjoint_table([phi_j], [star f_a])``, f_a face function
        a of Q1minus^(n-k-1): one cell's gluing constraint entries.  The pairing is a boundary
        integral of traces, so off the reference it is the reference's times h^e_j."""
        n = self.cell.n
        if reference(n, self.k) is not self:
            return self._scaled_columns("gluing_pairings", 1)
        tests = [f.hodge() for f in reference(n, n - self.k - 1).face_functions]
        # <mu, d phi> - <delta mu, phi>: the adjoint table, transposed
        (rows,), den = common_denominator([self.cell.pairing_terms(
            scaled_terms([(mu, -mu.codifferential()) for mu in tests]),
            scaled_terms([(phi.exterior_derivative(), phi) for phi in self.basis]))])
        return rows, den

    @cached_property
    def float_patterns(self):
        """The patterns as a (local face, j) float array, each entry one ``int / int``."""
        rows, den = self.patterns
        return np.array([[v / den for v in row] for row in rows])

    def tabulation(self, order):
        """Basis values and d-values at the Gauss points of the given order."""
        if order not in self._tabulations:
            offsets, weights = centered_rule(self.cell.widths, order)
            points = np.array([float(c) for c in self.cell.center]) + offsets
            self._tabulations[order] = Tabulation(
                offsets, weights, form_array(self.basis, points),
                form_array([phi.exterior_derivative() for phi in self.basis], points))
        return self._tabulations[order]


@cache
def reference(n, k):
    """The degree-k LocalTables of the reference cell [-1, 1]^n, built on first use."""
    return LocalTables(k, CellBox.reference(n))


@cache
def d_matrix(n, k):
    """(columns, den): column j, the coefficients of d(phi_j) in the degree-(k+1) P1minus
    basis, the same on every box.  In coordinates centered on the cell, d of a constant is
    0 and d of the Koszul lift of dx^gamma is (k+1) dx^gamma, so the column of
    ("koszul", gamma) holds k+1 at the row of ("const", gamma); den is 1."""
    rows = reference(n, k + 1).basis.labels
    return [[k + 1 if kind == "koszul" and row == ("const", gamma) else 0 for row in rows]
            for kind, gamma in reference(n, k).basis.labels], 1


@cache
def incidence(n, k):
    """(rows, den): row b, column a, the DOF on local (k+1)-face b of d(face function a),
    the same on every box (by Stokes, +-1 where face a bounds face b, else 0), read on
    the reference.  If d maps Q1minus^k into Q1minus^(k+1), then
    ``d f_a == sum_b rows[b][a] / den * f_b`` with f_b the degree-(k+1) face functions
    of the same box."""
    ref = reference(n, k)
    return face_dof_matrix(ref.cell, [f.exterior_derivative() for f in ref.face_functions])


def shapes(mesh, k):
    """(shape id of each cell, as an int array; the degree-k LocalTables of each shape),
    a shape's tables built on its first cell, once per mesh and degree."""
    shape_ids, first = mesh.cell_shapes
    if k not in mesh.local_tables:
        mesh.local_tables[k] = [LocalTables(k, mesh.cell(ci)) for ci in first]
    return shape_ids, mesh.local_tables[k]
