"""Piecewise Whitney-form spaces glued by adjoint constraints.

The space of interest lives inside the broken Whitney space (one P1minus
basis per cell, no continuity).  Gluing is imposed weakly: a piecewise
form w belongs to the space iff

    sum_K  <d w, mu>_K - <w, delta mu>_K  =  0

for every test function mu in a conforming Hodge-dual space.  Two flavors:

* ``interior-test``: tests are VQstar0 at degree k+1 (vanishing trace),
  giving the space with natural boundary behaviour;
* ``full-test``: tests are VQstar at degree k+1, giving the essential
  boundary condition variant.

Two representations are built:

* the exact kernel of the constraint matrix (elimination over Fraction),
* the generating set obtained by projecting every conforming
  tensor-product basis function cell by cell (possibly dependent).

The second is contained in the first; the test-suite checks containment,
and equality of dimensions on small meshes, exactly.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import local, spaces
from .exactla import independent_subset, nullspace, rank, spans_equal
from .forms import PolyForm, adjoint_pairing
from .global_spaces import VQ, VQ0, VQSTAR, VQSTAR0, build_space
from .mesh import face_dofs
from .projection import LocalProjector
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

    @cached_property
    def bases(self):
        """The P1minus basis of every cell, built for exact callers on first use."""
        return [spaces.basis(spaces.P1MINUS, self.k, cell) for cell in self.mesh.cells]

    def col(self, cell_id, j):
        return cell_id * self.dim_local + j

    def form_on_cell(self, vector, cell_id):
        """Reconstruct the local PolyForm of a sparse coefficient vector."""
        out = PolyForm.zero(self.mesh.n, self.k)
        base = cell_id * self.dim_local
        for j in range(self.dim_local):
            c = vector.get(base + j)
            if c:
                out = out + c * self.bases[cell_id][j]
        return out

    def constant_form_vector(self, sigma, scale=1):
        """Coefficients of the global constant form scale*dx^sigma."""
        j = local.tables(self.mesh, self.k, 0).basis.labels.index(("const", tuple(sigma)))
        return {self.col(ci, j): Fraction(scale) for ci in range(self.mesh.n_cells)}


@dataclass
class ConstraintSystem:
    """Exact matrix of the gluing functionals over the broken space."""

    k: int
    flavor: str
    pw: PiecewiseWhitney
    test_space: object        # GlobalSpace or None for k = n
    rows: list = field(default_factory=list)

    @property
    def ncols(self):
        return self.pw.ncols

    @property
    def n_rows(self):
        return len(self.rows)

    def residual(self, vector):
        """B v for a sparse coefficient vector; exact."""
        out = []
        for row in self.rows:
            out.append(sum((row[c] * v for c, v in vector.items() if row[c]), Fraction(0)))
        return out


def build_constraints(k, mesh, flavor=INTERIOR_TEST, pw=None):
    """Assemble the constraint matrix; for k = n there are no constraints."""
    if flavor not in FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}")
    n = mesh.n
    if not 0 <= k <= n:
        raise ValueError(f"no degree-{k} space in dimension {n}")
    pw = pw or PiecewiseWhitney(k, mesh)
    if k == n:
        return ConstraintSystem(k, flavor, pw, None, [])
    kind = VQSTAR0 if flavor == INTERIOR_TEST else VQSTAR
    test_space = build_space(kind, k + 1, mesh)
    rows = []
    for dof in range(test_space.ndof):
        row = [Fraction(0)] * pw.ncols
        for ci in test_space.supports[dof]:
            mu = test_space.cell_expansions[ci][dof]
            cell = mesh.cells[ci]
            for j, phi in enumerate(pw.bases[ci]):
                row[pw.col(ci, j)] = adjoint_pairing(phi, mu, cell)
        rows.append(row)
    return ConstraintSystem(k, flavor, pw, test_space, rows)


class WhitneySpace:
    """A concrete basis (or generating set) of the glued space."""

    def __init__(self, k, mesh, flavor, representation, vectors, pw):
        self.k = k
        self.mesh = mesh
        self.flavor = flavor
        self.representation = representation  # "kernel" | "generators"
        self.vectors = vectors                # sparse dicts col -> Fraction
        self.pw = pw

    @property
    def dim(self):
        return len(self.vectors)

    def form_on_cell(self, index, cell_id):
        return self.pw.form_on_cell(self.vectors[index], cell_id)

    def dense_matrix(self):
        """Vectors as dense Fraction rows (small problems only)."""
        out = []
        for v in self.vectors:
            row = [Fraction(0)] * self.pw.ncols
            for c, val in v.items():
                row[c] = val
            out.append(row)
        return out

    def float_matrix(self):
        """Vectors as a dense float array, one column per vector."""
        out = np.zeros((self.pw.ncols, len(self.vectors)))
        for i, v in enumerate(self.vectors):
            for c, val in v.items():
                out[c, i] = float(val)
        return out


def kernel_space(constraints):
    """Exact nullspace basis of the constraint matrix, canonical form."""
    pw = constraints.pw
    vectors = []
    for dense in nullspace(constraints.rows, ncols=pw.ncols):
        vectors.append({c: val for c, val in enumerate(dense) if val})
    return WhitneySpace(constraints.k, pw.mesh, constraints.flavor,
                        "kernel", vectors, pw)


def interpolated_generating_set(k, mesh, flavor=INTERIOR_TEST, pw=None):
    """Cell-wise adjoint projection of every conforming basis function.

    The result generates the projected conforming space; it may be
    linearly dependent and is NOT pruned here.
    """
    if flavor not in FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}")
    pw = pw or PiecewiseWhitney(k, mesh)
    dofs = face_dofs(k, mesh)
    keep = list(range(dofs.n_dofs)) if flavor == INTERIOR_TEST else dofs.interior_ids
    vectors = []
    for gid in keep:
        face = dofs.faces[gid]
        vec = {}
        for ci in mesh.cells_of_face(face):
            a = mesh.cell_faces(mesh.cell_tuples[ci], k).index(face)
            for j, c in enumerate(local.tables(mesh, k, ci).patterns[a]):
                if c:
                    vec[pw.col(ci, j)] = c
        vectors.append(vec)
    return WhitneySpace(k, mesh, flavor, "generators", vectors, pw)


def prune_vectors(space, tol=1e-10, force_float=False):
    """Restrict to an independent subset (exact for small sets, QR beyond).

    Returns (pruned space, kept indices).
    """
    nvec = len(space.vectors)
    if nvec == 0:
        return space, []
    if not force_float and space.pw.ncols * nvec <= 200_000:
        kept = independent_subset(space.dense_matrix())
    else:
        from scipy.linalg import qr
        mat = space.float_matrix()
        _, r, piv = qr(mat, mode="economic", pivoting=True)
        diag = np.abs(np.diag(r))
        cut = diag > tol * (diag[0] if diag.size else 1.0)
        kept = sorted(piv[: int(np.sum(cut))])
    pruned = WhitneySpace(space.k, space.mesh, space.flavor, space.representation,
                          [space.vectors[i] for i in kept], space.pw)
    return pruned, kept


# ---------------------------------------------------------------------------
# broken exterior derivative in piecewise coordinates


def local_d_matrix(pw_k, pw_k1, cell_id):
    """Columns: coefficients of d(phi_j) in the degree-(k+1) local basis of ``pw_k1``."""
    return local.tables(pw_k.mesh, pw_k.k, cell_id).d_matrix


def apply_broken_d(vector, pw_k, pw_k1):
    """Broken exterior derivative as a map of sparse coefficient vectors."""
    out = {}
    for col, val in vector.items():
        ci, j = divmod(col, pw_k.dim_local)
        for i, c in enumerate(local_d_matrix(pw_k, pw_k1, ci)[j]):
            if c:
                acc = out.get(pw_k1.col(ci, i), Fraction(0)) + val * c
                if acc:
                    out[pw_k1.col(ci, i)] = acc
                else:
                    out.pop(pw_k1.col(ci, i), None)
    return out


# ---------------------------------------------------------------------------
# structural checks


def check_whitney_complex(mesh, flavor=INTERIOR_TEST):
    """The glued spaces form a complex under the broken derivative.

    For each k: the broken derivative of every kernel basis vector
    satisfies the degree-(k+1) constraints exactly, and applying the
    broken derivative twice gives the zero vector.
    """
    n = mesh.n
    pws = {k: PiecewiseWhitney(k, mesh) for k in range(n + 1)}
    kernels = {}
    systems = {}
    for k in range(n + 1):
        systems[k] = build_constraints(k, mesh, flavor, pw=pws[k])
        kernels[k] = kernel_space(systems[k])
    for k in range(n):
        for idx, vec in enumerate(kernels[k].vectors):
            dv = apply_broken_d(vec, pws[k], pws[k + 1])
            res = systems[k + 1].residual(dv)
            if any(res):
                return CheckReport("whitney_complex", n, k, False,
                                   counterexample=f"kernel vector {idx}: residual {res}")
            if k + 1 < n:
                ddv = apply_broken_d(dv, pws[k + 1], pws[k + 2])
                if ddv:
                    return CheckReport("whitney_complex", n, k, False,
                                       counterexample=f"kernel vector {idx}: d(d(.)) != 0")
    dims = {k: kernels[k].dim for k in range(n + 1)}
    return CheckReport("whitney_complex", n, None, True,
                       details={"flavor": flavor, "kernel_dims": dims})


def check_commuting_squares(mesh, flavor=INTERIOR_TEST):
    """Projection then broken d equals d then projection, mesh-wise.

    Checked exactly on every global basis function of the conforming
    source space at every degree.
    """
    n = mesh.n
    source_kind = VQ if flavor == INTERIOR_TEST else VQ0
    for k in range(n):
        space = build_space(source_kind, k, mesh)
        projectors = {}  # cell id -> (P_k, P_{k+1})
        for dof in range(space.ndof):
            for ci in space.supports[dof]:
                v = space.cell_expansions[ci][dof]
                if ci not in projectors:
                    cell = mesh.cells[ci]
                    projectors[ci] = (LocalProjector(k, cell), LocalProjector(k + 1, cell))
                proj_k, proj_k1 = projectors[ci]
                left = proj_k1.coefficients(v.exterior_derivative())
                ck = proj_k.coefficients(v)
                cols = local.tables(mesh, k, ci).d_matrix
                right = [sum((ck[j] * cols[j][i] for j in range(len(ck))), Fraction(0))
                         for i in range(len(left))]
                if left != right:
                    return CheckReport(
                        "interpolation_commutes", n, k, False,
                        counterexample=f"dof {dof} cell {ci}: {left} != {right}")
    return CheckReport("interpolation_commutes", n, None, True,
                       details={"source": source_kind})


def mean_jump_rows(mesh, pw):
    """Zero-mean-jump functionals across interior facets (0-forms only)."""
    if pw.k != 0:
        raise ValueError("mean-jump description applies to 0-forms")
    rows = []
    for face in mesh.interior_faces(mesh.n - 1):
        cells = sorted(mesh.cells_of_face(face))
        lo, hi = cells
        row = [Fraction(0)] * pw.ncols
        for sign, ci in ((1, lo), (-1, hi)):
            for j, phi in enumerate(pw.bases[ci]):
                poly = phi.parts.get((), None)
                if poly is not None:
                    row[pw.col(ci, j)] = sign * mesh.integrate_on_face(face, poly)
        rows.append(row)
    return rows


def check_crossing_equivalence(mesh):
    """At k = 0 the glued space equals piecewise-P1 with zero-mean jumps."""
    pw = PiecewiseWhitney(0, mesh)
    constraints = build_constraints(0, mesh, INTERIOR_TEST)
    kernel_a = nullspace(constraints.rows, ncols=pw.ncols)
    kernel_b = nullspace(mean_jump_rows(mesh, pw), ncols=pw.ncols)
    ok = spans_equal(kernel_a, kernel_b)
    return CheckReport("mean_jump_equivalence", mesh.n, 0, ok,
                       details={"dim": len(kernel_a), "dim_jump": len(kernel_b)})


def space_summary(k, mesh, flavor=INTERIOR_TEST):
    """Dimension bookkeeping for one (k, flavor) pair on a mesh."""
    constraints = build_constraints(k, mesh, flavor)
    kernel = kernel_space(constraints)
    generators = interpolated_generating_set(k, mesh, flavor, pw=constraints.pw)
    gen_rank = rank(generators.dense_matrix()) if generators.vectors else 0
    return {
        "k": k,
        "flavor": flavor,
        "n_cells": mesh.n_cells,
        "dim_piecewise": constraints.ncols,
        "rank_B": rank(constraints.rows) if constraints.rows else 0,
        "dim_kernel": kernel.dim,
        "dim_generators_span": gen_rank,
    }
