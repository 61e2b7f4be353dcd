"""Piecewise Whitney-form spaces glued by adjoint constraints.

The space of interest lives inside the broken Whitney space (one P1minus
basis per cell, the reference cell's moved to it; no continuity).  Gluing
is imposed weakly: a piecewise form w belongs to the space iff

    sum_K  <d w, mu>_K - <w, delta mu>_K  =  0

for every test function mu in a conforming Hodge-dual space.  Two flavors:

* ``interior-test``: tests are VQstar0 at degree k+1 (vanishing trace),
  giving the space with natural boundary behaviour;
* ``full-test``: tests are VQstar at degree k+1, giving the essential
  boundary condition variant.

The space is built two ways:

* the exact kernel of the constraint matrix (exact rational elimination),
  each vector an integer row over its denominator: the basis of the exact
  oracle, the ``basis`` dump and the complexes.  The matrix is sparse
  integer rows scattered from one ``gluing`` table per (k, mesh, flavor),
  the test face DOFs and each cell shape's pairings over one denominator,
  which the condensed exact solve reads too;
* the generating set obtained by projecting every conforming
  tensor-product basis function cell by cell (possibly dependent).  It
  stores no vector: each is a scatter of per-shape projection patterns
  through the face-DOF table, the same scatter as the constraint rows,
  over the patterns' common denominator.  Pruning keeps every vector when
  their leading columns, read off the patterns' exact supports, are
  distinct (every full-test and top-degree set); otherwise it eliminates
  the scattered rows, made primitive.  Pruned, it is the basis of every
  float solve.

The second is contained in the first; the test-suite checks containment,
and equality of dimensions on small meshes, exactly.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd

import numpy as np

from . import local, spaces
from .exactla import common_denominator, independent_rows, kernel_vectors, rank, spans_equal
from .forms import PolyForm, print_order, scaled_terms
from .global_spaces import VQ, VQ0
from .mesh import face_dofs, local_faces
from .reports import CheckReport

INTERIOR_TEST = "interior-test"
FULL_TEST = "full-test"
FLAVORS = (INTERIOR_TEST, FULL_TEST)


class PiecewiseWhitney:
    """The broken Whitney space: a P1minus basis on every cell."""

    def __init__(self, k, mesh):
        self.k = k
        self.mesh = mesh
        self.dim_local = spaces.dimension(spaces.P1MINUS, k, mesh.n)
        self.ncols = mesh.n_cells * self.dim_local

    def col(self, cell_id, j):
        return cell_id * self.dim_local + j

    def form_on_cell(self, vector, cell_id):
        """The local PolyForm of a sparse coefficient vector, on the reference's basis moved."""
        cols = range(self.col(cell_id, 0), self.col(cell_id + 1, 0))
        return local.reference(self.mesh.n, self.k).basis.combination(
            [vector.get(c, 0) for c in cols], self.mesh.cells[cell_id].center)

    def cell_terms(self, row, den, cell_id):
        """(components, den): the local form of an integer row over ``den`` on one cell, in
        ``forms.print_order`` with integer values over one denominator, zeros kept."""
        moved = self.mesh.moved_bases
        if (self.k, cell_id) not in moved:  # the reference basis moved there, term by term
            columns, combine = {}, local.reference(self.mesh.n, self.k).basis.combination
            for j, (parts, moved_den) in enumerate(combine.moved(self.mesh.cells[cell_id].center)):
                for alpha, terms in parts.items():
                    for e, t in terms.items():
                        columns.setdefault(alpha, {}).setdefault(e, []).append(
                            (self.col(cell_id, j), t))
            moved[self.k, cell_id] = print_order(columns), moved_den
        components, moved_den = moved[self.k, cell_id]
        out = []  # plain loops: per dump line, comprehensions cost twice as much
        for dx, terms in components:
            values = []
            for monomial, column in terms:
                value = 0
                for c, t in column:
                    if c in row:
                        value += row[c] * t
                values.append((monomial, value))
            out.append((dx, values))
        return out, den * moved_den

    def constant_form_vector(self, sigma, scale=1):
        """Coefficients of the global constant form scale*dx^sigma."""
        j = local.reference(self.mesh.n, self.k).basis.labels.index(("const", tuple(sigma)))
        return {self.col(ci, j): Fraction(scale) for ci in range(self.mesh.n_cells)}


def gluing(k, mesh, flavor=INTERIOR_TEST):
    """The gluing table (cell_dofs, n_dofs, pairings, den) of a degree-k glued space.

    The tests are the face DOFs of degree n-k-1 (interior ones for interior-test),
    ``cell_dofs`` each cell's (local face a, DOF) pairs.  A test is ``star(f_a)``
    on a cell, f_a face function a of Q1minus^(n-k-1); it pairs through row a of
    the shape's ``gluing_pairings``, in ``pairings`` as integers over ``den``.
    """
    if flavor not in FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}")
    tables = local.shapes(mesh, k)[1]
    if k == mesh.n:  # no gluing at the top degree
        return [()] * mesh.n_cells, 0, [[] for _ in tables], 1
    dofs = face_dofs(mesh.n - k - 1, mesh, interior=flavor == INTERIOR_TEST)
    return (dofs.cell_dofs, dofs.n_dofs,
            *common_denominator([table.gluing_pairings for table in tables]))


@dataclass
class ConstraintSystem:
    """Exact matrix of the gluing functionals over the broken space: sparse integer
    rows ``{column: int}`` over one denominator, one per test DOF in face order."""

    k: int
    flavor: str
    pw: PiecewiseWhitney
    integer_rows: list
    den: int

    @property
    def ncols(self):
        return self.pw.ncols

    @property
    def n_rows(self):
        return len(self.integer_rows)

    @property
    def rows(self):
        """The rows as dense lists, Fractions and 0s, built on every read."""
        return [[Fraction(row[c], self.den) if c in row else 0 for c in range(self.ncols)]
                for row in self.integer_rows]

    def residual(self, vector):
        """den * B v for a sparse coefficient vector, exact: zero exactly where B v is."""
        return [sum(v * vector.get(c, 0) for c, v in row.items()) for row in self.integer_rows]


def build_constraints(k, mesh, flavor=INTERIOR_TEST):
    """The constraint matrix, scattered from the ``gluing`` table; none for k = n."""
    pw = PiecewiseWhitney(k, mesh)
    cell_dofs, n_dofs, pairings, den = gluing(k, mesh, flavor)
    return ConstraintSystem(k, flavor, pw, _scatter(pw, cell_dofs, n_dofs, pairings), den)


def _scatter(pw, cell_dofs, n_dofs, per_shape):
    """Sparse rows {column: int}, one per DOF: row a of each cell's shape table at face a.

    It builds the constraint rows, the mean-jump rows and the generator rows.
    """
    entries = [[[(j, v) for j, v in enumerate(row) if v] for row in table] for table in per_shape]
    rows = [{} for _ in range(n_dofs)]
    for ci, (s, pairs) in enumerate(zip(local.shapes(pw.mesh, pw.k)[0].tolist(), cell_dofs)):
        base = ci * pw.dim_local
        for a, dof in pairs:
            rows[dof].update((base + j, v) for j, v in entries[s][a])
    return rows


class WhitneySpace:
    """A concrete basis (or generating set) of the glued space.

    ``independent`` is True only when an exact proof says the vectors are
    linearly independent: always for a kernel basis, and for a generating
    set (``GeneratorSpace``) once it is pruned.
    ``free_columns`` (canonical kernel bases only) holds, per vector, the
    broken column where it is 1 and every other vector is 0.  Vectors are
    integer rows over a denominator each; ``vectors`` views them as Fractions.
    """

    independent = True

    def __init__(self, k, mesh, flavor, integer_vectors, pw, free_columns=None):
        self.k, self.mesh, self.flavor, self.pw = k, mesh, flavor, pw
        self.integer_vectors = integer_vectors  # (sparse {col: int}, den) pairs
        self.free_columns = free_columns

    @property
    def dim(self):
        return len(self.integer_vectors)

    @cached_property
    def vectors(self):
        """The vectors as sparse dicts col -> Fraction, built on first read."""
        return [{c: Fraction(v, den) for c, v in row.items()} for row, den in self.integer_vectors]

    def form_on_cell(self, index, cell_id):
        return self.pw.form_on_cell(self.vectors[index], cell_id)

    def float_columns(self):
        """(data, rows, column starts) of the vectors in broken coordinates, in vector order."""
        starts = np.cumsum([0] + [len(row) for row, _ in self.integer_vectors])
        rows = [c for row, _ in self.integer_vectors for c in row]
        # int / int rounds once, as the float of each entry's Fraction does
        data = [v / den for row, den in self.integer_vectors for v in row.values()]
        return data, rows, starts


class GeneratorSpace(WhitneySpace):
    """Projected conforming basis functions, one per face DOF in ``members``.

    The function of a degree-k face DOF is, on every cell that has the face
    as its local face a, pattern a of the cell's shape
    (``local.LocalTables.patterns``).  No vector is stored: the integer
    rows are scattered from the shapes' patterns over their common den, as
    the constraint rows are from the gluing pairings; ``integer_vectors``
    (for exact callers) on first read, and pruning only when two leading
    columns, read off the patterns, collide.  The float basis matrix reads
    the float patterns.
    """

    def __init__(self, k, mesh, flavor, pw, dofs, members, independent=False):
        self.k, self.mesh, self.flavor, self.pw = k, mesh, flavor, pw
        self.independent, self.free_columns = independent, None
        self.dofs = dofs         # mesh.DofTable of the degree-k face DOFs
        self.members = members   # the DOF id of each vector

    @property
    def dim(self):
        return len(self.members)

    def _scattered_rows(self):
        """(rows, den): each vector as an integer row {column: int} over one den, in order,
        each a new dict, scattered from the shapes' patterns over their common den."""
        patterns, den = common_denominator(
            [table.patterns for table in local.shapes(self.mesh, self.k)[1]])
        rows = _scatter(self.pw, self.dofs.cell_dofs, self.dofs.n_dofs, patterns)
        return [rows[m] for m in self.members], den

    def integer_rows(self):
        """Each vector's primitive integer row {column: int}, in order, each a new dict."""
        for row in self._scattered_rows()[0]:
            g = gcd(*row.values())
            yield {c: v // g for c, v in row.items()}

    @cached_property
    def integer_vectors(self):
        rows, den = self._scattered_rows()
        gcds = [gcd(den, *row.values()) for row in rows]
        return [({c: v // g for c, v in row.items()}, den // g) for row, g in zip(rows, gcds)]

    def independent_indices(self):
        """Indices of a maximal independent subset of the vectors, scanning in order (exact).

        A vector's leading column is the least ``cell * dim_local + min(support)`` of the
        exact integer patterns it takes on its cells.  When every vector has one and no two
        share it, the rows are an echelon form up to order and all are kept: no row is built.
        """
        none = self.pw.ncols  # past every column: the lead of a zero pattern
        shape_ids, tables = local.shapes(self.mesh, self.k)
        leads = np.array([[next((j for j, v in enumerate(row) if v), none)
                           for row in table.patterns[0]] for table in tables])[shape_ids]
        leads += np.arange(self.mesh.n_cells)[:, None] * self.pw.dim_local
        first = np.full(self.dofs.n_dofs + 1, none)  # the last takes the faces with no DOF
        np.minimum.at(first, self.dofs.array, leads)
        first = first[self.members]
        if (first < none).all() and np.unique(first).size == first.size:
            return list(range(self.dim))
        return independent_rows(self.integer_rows())

    def subset(self, kept):
        """The space of the vectors at the indices ``kept``, proved independent."""
        return GeneratorSpace(self.k, self.mesh, self.flavor, self.pw, self.dofs,
                              [self.members[i] for i in kept], independent=True)

    def float_columns(self):
        """(data, rows, column starts) as arrays, scattered from the per-shape float patterns."""
        shape_ids, tables = local.shapes(self.mesh, self.k)
        patterns = np.stack([table.float_patterns for table in tables])
        patterns = patterns[shape_ids]                            # (cell, local face, j)
        column = np.full(self.dofs.n_dofs + 1, -1)
        column[self.members] = np.arange(self.dim)
        columns = column[self.dofs.array]                         # -1 where no member
        cells, faces, js = np.nonzero((columns >= 0)[:, :, None] & (patterns != 0))
        keys = columns[cells, faces]
        # a stable sort keeps each vector's entries in (cell, j) order: rows ascending
        order = np.argsort(keys, kind="stable")
        starts = np.concatenate(([0], np.cumsum(np.bincount(keys, minlength=self.dim))))
        return (patterns[cells, faces, js][order],
                (cells * self.pw.dim_local + js)[order], starts)


def kernel_space(constraints):
    """Exact nullspace basis of the constraint matrix, canonical form."""
    pw = constraints.pw
    free, vectors = kernel_vectors(constraints.integer_rows, pw.ncols)
    return WhitneySpace(constraints.k, pw.mesh, constraints.flavor, vectors, pw,
                        free_columns=free)


def interpolated_generating_set(k, mesh, flavor=INTERIOR_TEST):
    """Cell-wise adjoint projection of every conforming basis function.

    The result generates the projected conforming space; it may be
    linearly dependent and is NOT pruned here.  Each shape's projection
    patterns are built here; the vectors are scattered from them on demand.
    """
    if flavor not in FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}")
    dofs = face_dofs(k, mesh, interior=flavor == FULL_TEST)
    for table in local.shapes(mesh, k)[1]:
        table.patterns  # the exact projections, built once per shape
    return GeneratorSpace(k, mesh, flavor, PiecewiseWhitney(k, mesh), dofs,
                          list(range(dofs.n_dofs)))


def prune_vectors(space):
    """Restrict to an independent subset, found exactly (no tolerance).

    Vectors are kept in the order given, each one unless it lies in the
    span of those kept before it.  Returns (pruned space, kept indices).
    """
    kept = space.independent_indices()
    return space.subset(kept), kept


# ---------------------------------------------------------------------------
# broken exterior derivative in piecewise coordinates


def apply_broken_d(vector, pw_k, pw_k1):
    """(row, den): the broken exterior derivative of a sparse coefficient vector, row / den,
    den that of the shared ``local.d_matrix``; an integer vector gives an integer row."""
    columns, den = local.d_matrix(pw_k.mesh.n, pw_k.k)
    out = {}
    for col, val in vector.items():
        ci, j = divmod(col, pw_k.dim_local)
        for i, c in enumerate(columns[j]):
            if c:
                out[pw_k1.col(ci, i)] = out.get(pw_k1.col(ci, i), 0) + val * c
    return {col: v for col, v in out.items() if v}, den


# ---------------------------------------------------------------------------
# structural checks


def check_whitney_complex(mesh, flavor=INTERIOR_TEST):
    """The glued spaces form a complex under the broken derivative.

    For each k: the broken derivative of every kernel basis vector
    satisfies the degree-(k+1) constraints exactly, and applying the
    broken derivative twice gives the zero vector.
    """
    n = mesh.n
    systems = [build_constraints(k, mesh, flavor) for k in range(n + 1)]
    kernels = [kernel_space(system) for system in systems]
    pws = [system.pw for system in systems]
    for k in range(n):
        for idx, (vec, _) in enumerate(kernels[k].integer_vectors):
            dv = apply_broken_d(vec, pws[k], pws[k + 1])[0]
            res = systems[k + 1].residual(dv)
            if any(res):
                return CheckReport("whitney_complex", n, k, False,
                                   counterexample=f"kernel vector {idx}: residual {res}")
            if k + 1 < n and apply_broken_d(dv, pws[k + 1], pws[k + 2])[0]:
                return CheckReport("whitney_complex", n, k, False,
                                   counterexample=f"kernel vector {idx}: d(d(.)) != 0")
    dims = {k: kernels[k].dim for k in range(n + 1)}
    return CheckReport("whitney_complex", n, None, True,
                       details={"flavor": flavor, "kernel_dims": dims})


def check_commuting_squares(mesh, flavor=INTERIOR_TEST):
    """Projection then broken d equals d then projection, mesh-wise.

    Checked exactly on every global basis function of the conforming
    source space at every degree.  On each cell of its support such a
    function is face function f_a of the cell's shape, centered on the
    cell; the projectors and d act cell by cell and commute with the
    translation onto the shape's first cell.  So the global square is the
    union of the local squares ``P^(k+1)(d f_a) == D . p_a`` (D the shared
    ``local.d_matrix``, p_a the shape's pattern a, ``patterns``), one
    per (shape, local face a) that the source face-DOF table uses: every face
    for interior-test, the interior ones for full-test.  A failure names the
    first (dof, cell) in DOF order.
    """
    n = mesh.n
    source_kind = VQ if flavor == INTERIOR_TEST else VQ0
    for k in range(n):
        (shape_ids, shapes), (_, shapes_up) = local.shapes(mesh, k), local.shapes(mesh, k + 1)
        gaps, bad = {}, []
        cell_dofs = face_dofs(k, mesh, interior=flavor == FULL_TEST).cell_dofs
        for ci, (s, pairs) in enumerate(zip(shape_ids.tolist(), cell_dofs)):
            for a, dof in pairs:
                if (s, a) not in gaps:
                    gaps[s, a] = _square_gap(shapes[s], shapes_up[s], a)
                if gaps[s, a] is not None:
                    bad.append((dof, ci, gaps[s, a]))
        if bad:
            dof, ci, (left, right) = min(bad, key=lambda item: item[:2])
            return CheckReport("interpolation_commutes", n, k, False,
                               counterexample=f"dof {dof} cell {ci}: {left} != {right}")
    return CheckReport("interpolation_commutes", n, None, True,
                       details={"source": source_kind})


def _square_gap(shape, shape_up, a):
    """None when face function a of the shape's cell commutes, else (left, right)."""
    left = shape_up.projector.coefficients(shape.face_functions[a].exterior_derivative())
    (rows, den), (cols, d) = shape.patterns, local.d_matrix(shape.cell.n, shape.k)
    right = [Fraction(sum(c * cols[j][i] for j, c in enumerate(rows[a])), den * d)
             for i in range(len(left))]
    return None if left == right else (left, right)


def mean_jump_rows(mesh, pw):
    """Zero-mean-jump functionals across interior facets (0-forms only): (rows, den).

    Per shape, the facet integrals of the basis: + where the facet is at
    normal offset 1, - at offset 0; scattered through the facet DOFs.
    """
    if pw.k != 0:
        raise ValueError("mean-jump description applies to 0-forms")
    n = mesh.n
    facets = local_faces(n, n - 1)
    jumps = []
    for shape in local.shapes(mesh, 0)[1]:
        rows, den = shape.cell.pairing_terms(
            scaled_terms([(PolyForm.covector(n, ()),)] * len(facets)),
            scaled_terms([(phi,) for phi in shape.basis]),
            [local.face_plane(shape.cell, axes, shift) for axes, shift in facets])
        jumps.append(([[v if sum(shift) else -v for v in row]
                       for row, (_, shift) in zip(rows, facets)], den))
    dofs = face_dofs(n - 1, mesh, interior=True)
    jumps, den = common_denominator(jumps)
    return _scatter(pw, dofs.cell_dofs, dofs.n_dofs, jumps), den


def check_crossing_equivalence(mesh):
    """At k = 0 the glued space equals piecewise-P1 with zero-mean jumps."""
    constraints = build_constraints(0, mesh, INTERIOR_TEST)
    pw = constraints.pw
    kernel_a = [row for row, _ in kernel_vectors(constraints.integer_rows, pw.ncols)[1]]
    kernel_b = [row for row, _ in kernel_vectors(mean_jump_rows(mesh, pw)[0], pw.ncols)[1]]
    ok = spans_equal(kernel_a, kernel_b)
    return CheckReport("mean_jump_equivalence", mesh.n, 0, ok,
                       details={"dim": len(kernel_a), "dim_jump": len(kernel_b)})


def summarize(constraints, kernel, generators):
    """Dimension bookkeeping from a built constraint system, its kernel and generating set.

    ``rank_B`` takes its own elimination, so ``dim_kernel + rank_B =
    dim_piecewise`` stays a check on the kernel rather than an identity.
    """
    return {
        "k": constraints.k,
        "flavor": constraints.flavor,
        "n_cells": constraints.pw.mesh.n_cells,
        "dim_piecewise": constraints.ncols,
        "rank_B": rank(constraints.integer_rows),
        "dim_kernel": kernel.dim,
        "dim_generators_span": len(generators.independent_indices()),
    }


def space_summary(k, mesh, flavor=INTERIOR_TEST):
    """Dimension bookkeeping for one (k, flavor) pair on a mesh."""
    constraints = build_constraints(k, mesh, flavor)
    kernel = kernel_space(constraints)
    generators = interpolated_generating_set(k, mesh, flavor)
    return summarize(constraints, kernel, generators)
