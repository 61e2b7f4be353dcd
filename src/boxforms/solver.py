"""Galerkin solver for the reaction-diffusion model problem on glued spaces.

The bilinear form is ``<d_h w, d_h m> + <w, m>`` summed over cells; its
Gram matrix doubles as the square of the broken energy norm.  Stiffness
and mass entries are exact (each shape's energy is integer rows over one
denominator, divided once to floats) in a sparse Gram matrix ``V^T E V``;
only load vectors, error norms and consistency functionals of non-polynomial
data use quadrature.  A generating set's V is scattered from its shapes' float
projection patterns, and its pruning reads the exact supports of their
integer forms, eliminating integer rows only when two vectors' leading
columns collide (``whitney.GeneratorSpace``), so the float path makes no
Fraction per entry.  A quadrature pass reads each field's values on the
whole mesh, evaluated once on the per-axis Gauss coordinates
(``FormField.on_axes``): on a one-shape mesh the arrays themselves, else
sliced by cell id per shape.

Solver paths: conjugate gradients on the sparse Gram matrix (relative
residual 1e-12, at most 50*N iterations) by default; an exact solve when
the caller asks for it and the data is rational.  The exact solve forms
no Gram matrix over the basis.  It works in broken coordinates on the
saddle-point system of the gluing constraints, condensed cell by cell
onto their multipliers (hybridization, with the paper's test space as
the multiplier space: Arnold and Brezzi, RAIRO M2AN 19, 1985; Cockburn,
Gopalakrishnan and Lazarov, SIAM J. Numer. Anal. 47, 2009; the
multipliers and their pairings are ``whitney.gluing``'s table), and reads
the basis coefficients off the broken solution, all on integer rows over
one denominator: Fractions appear only in ``x_exact`` and ``w_exact``.
The exact load on a cell is its moved load's integer terms times one
table per shape, the basis paired with each monomial.  The multiplier
system, the one large elimination, is solved mod a prime and lifted
p-adically, each answer checked exactly in integers
(``exactla.solve_consistent``), so its entries do not swell.
The exact path doubles as the oracle for the iterative one; the exact
Gram over the basis is built only when something reads
``DiscreteProblem.G_exact``.  The consistency residual takes back-solves
with a sparse LU factorization of the Gram matrix, made once per problem
on first demand, integrates at the problem's quadrature order, and comes
with a roundoff floor: a residual at or below it may be all rounding.

``solve_level`` is the one per-level pipeline, from space to consistency
residual: the ``solve`` command reports one level, ``convergence_sweep`` a
sequence of them.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import mul, sub

import numpy as np
import scipy.sparse

from . import local
from .exactla import common_denominator, integer_scaled, solve_consistent
from .fields import manufactured
from .forms import Combination, PolyForm, scaled_terms
from .mesh import build_grid
from .quadrature import component_array
from .whitney import (FULL_TEST, INTERIOR_TEST, WhitneySpace, gluing,
                      interpolated_generating_set, prune_vectors)

#: unit roundoff of float64
UNIT_ROUNDOFF = 2.0 ** -53


def basis_matrix(space):
    """Sparse float matrix with one column per space basis vector; each space's
    ``float_columns`` gives every column's rows in ascending order."""
    return scipy.sparse.csc_matrix(space.float_columns(), shape=(space.pw.ncols, space.dim))


def broken_energy(pw):
    """Block-diagonal float energy of the broken space: each cell's block is its shape's.

    CSC with every block entry stored, zeros too: the layout of
    ``scipy.sparse.block_diag``, so the Gram products round the same way.
    """
    shape_ids, tables = local.shapes(pw.mesh, pw.k)
    blocks = np.stack([table.energy_float for table in tables])
    size = pw.dim_local
    # column j of cell c holds rows c * size + i, i ascending, from column j of its block
    rows = np.arange(pw.ncols).reshape(-1, 1, size).repeat(size, axis=1)
    return scipy.sparse.csc_matrix(
        (blocks[shape_ids].transpose(0, 2, 1).ravel(), rows.ravel(),
         np.arange(0, pw.ncols * size + 1, size)), shape=(pw.ncols, pw.ncols))


@dataclass
class DiscreteProblem:
    space: WhitneySpace
    G: scipy.sparse.csr_matrix  # float Gram (stiffness + mass)
    F: np.ndarray               # float load
    V: scipy.sparse.spmatrix    # piecewise-coordinates-from-basis map (CSC)
    quad_order: int
    F_exact: list | None = None      # exact load over the basis: V^T load_broken
    load_broken: tuple | None = None  # (ints, den): exact load on each piecewise basis form

    @property
    def exact(self):
        return self.F_exact is not None

    @cached_property
    def G_exact(self):
        """Exact Gram matrix over the basis, built on first use (None for a quadrature load).

        Cell by cell, on each vector's integer row over its denominator: the
        local energy applied once to each vector on the cell, then dot
        products among the vectors that share it.  No solve reads it.
        """
        if not self.exact:
            return None
        pw, size = self.space.pw, self.space.dim
        members = [[] for _ in range(pw.mesh.n_cells)]  # per cell: (index, local row, den)
        for i, (row, den) in enumerate(self.space.integer_vectors):
            for ci in {c // pw.dim_local for c in row}:
                members[ci].append((i, [row.get(c, 0) for c in range(
                    pw.col(ci, 0), pw.col(ci + 1, 0))], den))
        g_exact = [[0] * size for _ in range(size)]
        shape_ids, tables = local.shapes(pw.mesh, pw.k)
        for on_cell, s in zip(members, shape_ids.tolist()):
            energy, e_den = tables[s].energy_integers
            for p, (i, li, di) in enumerate(on_cell):
                applied = [sum(map(mul, row, li)) for row in energy]
                for j, lj, dj in on_cell[p:]:
                    g_exact[i][j] += Fraction(sum(map(mul, lj, applied)), di * dj * e_den)
                    g_exact[j][i] = g_exact[i][j]
        return g_exact

    @cached_property
    def factor(self):
        """Sparse LU factorization of G, made on first use."""
        # imported here: at module level it adds about a third to `import boxforms`
        from scipy.sparse.linalg import splu
        # G is symmetric positive definite: a symmetric fill-reducing order with
        # diagonal pivots keeps Cholesky's sparsity
        return splu(self.G.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                    options={"SymmetricMode": True})

    def dual_norm(self, vec):
        """sqrt(vec . G^-1 vec): the norm of a functional on the discrete space."""
        return math.sqrt(max(float(vec @ self.factor.solve(vec)), 0.0))


def gauss_values(mesh, quad_order, degree, on_axes):
    """A field's components on the mesh's Gauss points, as one (component, cell, point) array.

    ``on_axes`` is a ``FormField.on_axes`` or ``d_on_axes`` of a degree-``degree``
    form, evaluated once on the mesh's per-axis Gauss coordinates.
    """
    return component_array(on_axes(mesh.gauss_axes(quad_order)), degree, mesh.n,
                           (mesh.n_cells, quad_order ** mesh.n))


def _gauss_grid(pw, quad_order, *arrays):
    """Per cell shape: (cell ids, tabulation, each ``gauss_values`` array on its cells).

    A one-shape mesh yields the arrays themselves; otherwise each is sliced
    by cell id into a contiguous copy, so einsum sums in the same order on both.
    """
    shape_ids, tables = local.shapes(pw.mesh, pw.k)
    for shape, table in enumerate(tables):
        ids = np.flatnonzero(shape_ids == shape)
        yield (ids, table.tabulation(quad_order),
               *(arrays if len(tables) == 1 else
                 (np.ascontiguousarray(values[:, ids]) for values in arrays)))


def assemble(space, load, quad_order=5):
    """Gram matrix ``V^T E V`` and load vector over the given basis.

    V holds the basis vectors in broken coordinates and E is the broken
    energy, each cell's block its shape's table, picked by shape id.
    ``load`` is a FormField or its ``gauss_values`` at ``quad_order``
    (quadrature path), or a PolyForm, then also assembled exactly, in
    broken coordinates and over the basis; the exact Gram waits for
    ``G_exact``.  Raises when the basis is dependent, as decided exactly
    unless the space carries its proof.
    """
    if not space.independent and len(space.independent_indices()) < space.dim:
        raise ValueError("basis vectors are linearly dependent; "
                         "prune the generating set before assembling")
    pw, mesh = space.pw, space.mesh
    v_mat = basis_matrix(space)
    gram = v_mat.T @ (broken_energy(pw) @ v_mat)
    gram = ((gram + gram.T) / 2.0).tocsr()

    load_broken = f_exact = None
    if isinstance(load, PolyForm):
        # a cell's pairings are those of its shape's first cell with the load moved there:
        # the moved load's integer terms times that cell's pairings of the basis with each
        # monomial they hold, one table per shape
        load_at, (shape_ids, shapes) = Combination(mesh.n, pw.k, [load]), local.shapes(mesh, pw.k)
        shape_of = shape_ids.tolist()
        moved = [load_at.integers([1], list(map(sub, shapes[s].cell.center, cell.center)))
                 for cell, s in zip(mesh.cells, shape_of)]
        support = sorted({(alpha, e) for parts, _ in moved
                          for alpha, terms in parts.items() for e in terms})
        tables = []
        for table in shapes:
            rows, d = table.cell.pairing_terms(([{(0, alpha): {e: 1}} for alpha, e in support], 1),
                                               scaled_terms([(phi,) for phi in table.basis]))
            tables.append(([[row[j] for row in rows] for j in range(pw.dim_local)], d))
        cells = []
        for (parts, den), s in zip(moved, shape_of):
            values = [parts.get(alpha, {}).get(e, 0) for alpha, e in support]
            cells.append(([sum(map(mul, values, col)) for col in tables[s][0]], den * tables[s][1]))
        den = math.lcm(*(d for _, d in cells))
        ints = [v * (den // d) for row, d in cells for v in row]
        load_broken = ints, den  # V^T load_broken in integers, one Fraction per vector
        f_exact = [Fraction(sum(ints[c] * v for c, v in row.items()), den * d)
                   for row, d in space.integer_vectors]
        f_float = np.array([float(x) for x in f_exact])
    else:
        if not isinstance(load, np.ndarray):
            load = gauss_values(mesh, quad_order, pw.k, load.on_axes)
        load_pw = np.zeros((mesh.n_cells, pw.dim_local))
        for ids, tab, f in _gauss_grid(pw, quad_order, load):
            load_pw[ids] = np.einsum("acp,jap->cj", f * tab.weights, tab.values)
        f_float = np.asarray(v_mat.T @ load_pw.ravel())
    return DiscreteProblem(space, gram, f_float, v_mat, quad_order,
                           F_exact=f_exact, load_broken=load_broken)


def conjugate_gradient(gram, rhs, rtol=1e-12, maxiter=None):
    """Plain CG for SPD systems; returns (x, relative residual history)."""
    size = len(rhs)
    maxiter = maxiter or 50 * size
    x = np.zeros(size)
    r = np.asarray(rhs, dtype=float).copy()
    scale = float(np.linalg.norm(r)) or 1.0
    p = r.copy()
    rs = float(r @ r)
    history = []
    if math.sqrt(rs) / scale <= rtol:
        return x, [math.sqrt(rs) / scale]
    for _ in range(maxiter):
        gp = gram @ p
        alpha = rs / float(p @ gp)
        x += alpha * p
        r -= alpha * gp
        rs_new = float(r @ r)
        history.append(math.sqrt(rs_new) / scale)
        if history[-1] <= rtol:
            return x, history
        p = r + (rs_new / rs) * p
        rs = rs_new
    raise RuntimeError(
        f"conjugate gradients did not reach rtol={rtol} in {maxiter} iterations; "
        f"last residuals: {['%.3e' % h for h in history[-5:]]}")


@dataclass
class Solution:
    space: WhitneySpace
    problem: DiscreteProblem
    x: np.ndarray
    x_exact: list | None = None
    w_exact: dict | None = None  # exact path: the solution in broken coordinates
    history: list = field(default_factory=list)

    @property
    def cg_iterations(self):
        """CG iterations taken (a zero load returns at once, with one history entry)."""
        return len(self.history) if np.any(self.problem.F) else 0

    @property
    def cg_residual(self):
        """Final relative CG residual; None on the exact path."""
        return self.history[-1] if self.history else None

    def pw_coefficients(self):
        """Float coefficients in the broken (piecewise) coordinates."""
        return np.asarray(self.problem.V @ self.x).ravel()

    def form_on_cell(self, ci):
        """Exact local PolyForm on cell ci (exact solve path only)."""
        if self.w_exact is None:
            raise ValueError("exact local forms need the exact solve path")
        return self.space.pw.form_on_cell(self.w_exact, ci)


def condensed_solution(problem):
    """The exact Galerkin solution in broken coordinates: (w, den), w an integer
    ``{column: int}`` over den.

    It is the w part of the saddle-point system ``A w + B^T lam = f,
    B w = 0``: A is block-diagonal with the local energy of each cell's
    shape, B holds the gluing constraints and f is ``load_broken``.  The
    cell blocks are eliminated.  With P_c the cell's gluing pairings, the
    multipliers solve ``S lam = g``, where S and g scatter ``P_c A_c^-1 P_c^T``
    and ``P_c A_c^-1 f_c`` through the test face DOFs; then
    ``w_c = A_c^-1 f_c - (P_c A_c^-1)^T lam_c`` cell by cell.  Dependent rows
    of B make S singular but consistent: lam is any one solution, and w is
    unique all the same, since ``S (lam1 - lam2) = 0`` gives
    ``B^T (lam1 - lam2) = 0`` when A is SPD.  All of it is integer matrices
    over denominators every shape shares, ``P A^-1`` and S formed per shape; P_c
    and the test face DOFs are the ``whitney.gluing`` table's.
    """
    pw = problem.space.pw
    mesh, k, (shape_ids, shapes) = pw.mesh, pw.k, local.shapes(pw.mesh, pw.k)
    shape_of = shape_ids.tolist()
    inverses, d_a = common_denominator([t.energy_inverse for t in shapes])
    cell_dofs, n_dofs, pairings, d_p = gluing(k, mesh, problem.space.flavor)
    # P A^-1 (A^-1 is symmetric) and P A^-1 P^T per shape
    pa = [[[sum(map(mul, r, c)) for c in inv] for r in p] for p, inv in zip(pairings, inverses)]
    schur = [[[sum(map(mul, r, c)) for c in p] for r in rows] for rows, p in zip(pa, pairings)]
    loads, d_f = problem.load_broken
    # A^-1 f_c over d_a d_f, g over d_p d_a d_f, S over d_p^2 d_a: S (d_f lam) = d_p g
    applied = [[sum(map(mul, row, loads[pw.col(ci, 0):pw.col(ci + 1, 0)])) for row in inverses[s]]
               for ci, s in enumerate(shape_of)]
    s_rows, g = [{} for _ in range(n_dofs)], [0] * n_dofs
    for ci, (s, pairs) in enumerate(zip(shape_of, cell_dofs)):
        for a, da in pairs:
            g[da] += d_p * sum(map(mul, pairings[s][a], applied[ci]))
            row = s_rows[da]
            for b, db in pairs:
                row[db] = row.get(db, 0) + schur[s][a][b]
    lam, d_lam = integer_scaled(solve_consistent(s_rows, g, n_dofs))  # d_f lam over d_lam
    w = {}
    for ci, pairs in enumerate(cell_dofs):
        rhs = [value * d_p * d_lam for value in applied[ci]]  # over d_a d_f d_p d_lam
        for a, da in pairs:
            if lam[da]:
                rhs = [r - lam[da] * p for r, p in zip(rhs, pa[shape_of[ci]][a])]
        w.update((pw.col(ci, j), value) for j, value in enumerate(rhs) if value)
    return w, d_a * d_f * d_p * d_lam


def _coordinates(space, w, den):
    """Basis coefficients x with ``V x == w / den`` exactly, w an integer {column: int}.

    A canonical kernel basis reads x off w at its free columns and checks
    ``V x`` in integers; any other independent basis takes one sparse exact
    solve on its integer rows.  Raises ValueError when w is not in the span
    of the basis, which then spans less than the glued space.
    """
    vectors = space.integer_vectors
    if space.free_columns is not None:
        x = [w.get(c, 0) for c in space.free_columns]  # over den
        scale = math.lcm(*(d for xi, (_, d) in zip(x, vectors) if xi))
        combined = {}
        for xi, (row, d) in zip(x, vectors):
            if xi:
                for c, v in row.items():
                    combined[c] = combined.get(c, 0) + xi * (scale // d) * v
        if {c: v for c, v in combined.items() if v} == {c: v * scale for c, v in w.items()}:
            return [Fraction(xi, den) for xi in x]
    else:
        # vector i is row_i / d_i: solve for y_i = x_i den / d_i on the integer rows
        by_column = {c: {} for c in w}
        for i, (row, _) in enumerate(vectors):
            for c, v in row.items():
                by_column.setdefault(c, {})[i] = v
        columns = sorted(by_column)
        try:
            y = solve_consistent([by_column[c] for c in columns],
                                 [w.get(c, 0) for c in columns], space.dim)
            return [yi * d / den for yi, (_, d) in zip(y, vectors)]
        except ValueError:
            pass
    raise ValueError("the exact solution is not in the span of the basis vectors: "
                     "they span less than the glued space")


def solve(problem, method="cg"):
    """Solve the Galerkin system by CG, or exactly (see condensed_solution) on request."""
    if method == "exact":
        if not problem.exact:
            raise ValueError("exact solve requested but data is not rational")
        w, den = condensed_solution(problem)
        x_exact = _coordinates(problem.space, w, den)
        x = np.array([float(v) for v in x_exact])
        return Solution(problem.space, problem, x, x_exact=x_exact,
                        w_exact={c: Fraction(v, den) for c, v in w.items()})
    if method != "cg":
        raise ValueError(f"unknown solve method {method!r}")
    x, history = conjugate_gradient(problem.G, problem.F)
    return Solution(problem.space, problem, x, history=history)


# ---------------------------------------------------------------------------
# error measures


def broken_error(exact_field, solution, quad_order=5):
    """(L2 error, broken energy error) of a discrete solution vs a field.

    ``exact_field`` is a FormField, or its values and d values, each as
    ``gauss_values`` at ``quad_order``.  The energy error adds the cell-wise
    L2 error of the exterior derivative: err_Hd = sqrt(err_L2^2 + err_dL2^2).
    """
    pw = solution.space.pw
    if not isinstance(exact_field, tuple):
        exact_field = (gauss_values(pw.mesh, quad_order, pw.k, exact_field.on_axes),
                       gauss_values(pw.mesh, quad_order, pw.k + 1, exact_field.d_on_axes))
    coeffs = solution.pw_coefficients().reshape(pw.mesh.n_cells, pw.dim_local)
    err0 = err1 = 0.0
    for ids, tab, w, dw in _gauss_grid(pw, quad_order, *exact_field):
        u = coeffs[ids]
        e0 = np.einsum("cj,jap->acp", u, tab.values) - w
        e1 = np.einsum("cj,jap->acp", u, tab.d_values) - dw
        err0 += float(np.einsum("acp,p->", e0 * e0, tab.weights))
        err1 += float(np.einsum("acp,p->", e1 * e1, tab.weights))
    return math.sqrt(err0), math.sqrt(err0 + err1)


def consistency_with_floor(entry, problem):
    """(consistency residual, its roundoff floor), from one quadrature pass.

    The residual is the sup over the discrete space, at unit broken norm,
    of the nonconformity functional ``<d w, d_h m> - <delta d w, m>``
    (zero for every m in the continuous energy space): the G^-1 norm of
    its load vector ell.  Each entry of ell sums m rounded products, so
    its rounding error is at most gamma_m = m u / (1 - m u) times the same
    sum over absolute values (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., 2002, section 3.1).  The floor is gamma_m times
    the G^-1 norm of that absolute-value sum; a residual at or below it
    may be all rounding.  The pass uses the order the load was assembled at.
    ``entry`` is a ManufacturedSolution, or its d omega and delta d omega,
    each as ``gauss_values`` at that order.
    """
    pw = problem.space.pw
    if not isinstance(entry, tuple):
        entry = (gauss_values(pw.mesh, problem.quad_order, pw.k + 1, entry.omega.d_on_axes),
                 gauss_values(pw.mesh, problem.quad_order, pw.k, entry.delta_d.on_axes))
    ell_pw = np.zeros((pw.mesh.n_cells, pw.dim_local))
    abs_pw = np.zeros_like(ell_pw)
    terms = 0
    for ids, tab, dw, dd in _gauss_grid(pw, problem.quad_order, *entry):
        dw = dw * tab.weights
        dd = dd * tab.weights
        ell_pw[ids] = (np.einsum("acp,jap->cj", dw, tab.d_values)
                       - np.einsum("acp,jap->cj", dd, tab.values))
        abs_pw[ids] = (np.einsum("acp,jap->cj", np.abs(dw), np.abs(tab.d_values))
                       + np.einsum("acp,jap->cj", np.abs(dd), np.abs(tab.values)))
        terms = max(terms, tab.d_values[0].size + tab.values[0].size)
    ell = problem.V.T @ ell_pw.ravel()
    if not np.any(ell):
        return 0.0, 0.0
    # the sum into ell, then n + 3 roundings inside each product: Gauss
    # weight, field value, their product, and the basis monomial
    m = terms + int(np.diff(problem.V.indptr).max()) + pw.mesh.n + 3
    gamma = m * UNIT_ROUNDOFF / (1 - m * UNIT_ROUNDOFF)
    bound = abs(problem.V).T @ abs_pw.ravel()
    return problem.dual_norm(ell), gamma * problem.dual_norm(bound)


# ---------------------------------------------------------------------------
# space construction and convergence studies


def build_solver_space(k, mesh, flavor=INTERIOR_TEST):
    """An independent basis of the glued space, ready to assemble.

    It is the projected conforming generating set, pruned exactly.  It
    spans the exact kernel of the constraints (``whitney.kernel_space``),
    the basis of the exact oracle, the ``basis`` dump and the complexes.
    """
    return prune_vectors(interpolated_generating_set(k, mesh, flavor))[0]


def flavor_for(entry):
    return FULL_TEST if entry.compatibility == "essential" else INTERIOR_TEST


def solve_level(entry, mesh, flavor, quad_order):
    """The results of the discrete problem of ``entry`` on ``mesh``, solved by CG.

    They are the space dimension, the L2 and broken energy errors,
    the consistency residual and whether it is at its roundoff floor, and
    the CG iteration count and final residual.  omega, d(omega) and
    delta(d(omega)) are evaluated once each on the Gauss points, and the
    load's values are delta(d(omega))'s plus omega's, the same doubles as
    its own evaluation (``ManufacturedSolution``).  The passes run in the
    order that frees each field's values after its last reader: assembly,
    consistency residual, then the solve and the errors.
    """
    space = build_solver_space(entry.k, mesh, flavor)
    omega = gauss_values(mesh, quad_order, entry.k, entry.omega.on_axes)
    delta_d = gauss_values(mesh, quad_order, entry.k, entry.delta_d.on_axes)
    problem = assemble(space, delta_d + omega, quad_order)
    d_omega = gauss_values(mesh, quad_order, entry.k + 1, entry.omega.d_on_axes)
    cons, floor = consistency_with_floor((d_omega, delta_d), problem)
    del delta_d
    sol = solve(problem)
    err_l2, err_hd = broken_error((omega, d_omega), sol, quad_order)
    return {
        "dim_space": space.dim,
        "err_L2": err_l2,
        "err_Hd": err_hd,
        "consistency": cons,
        "consistency_at_floor": cons <= floor,
        "cg_iterations": sol.cg_iterations,
        "cg_residual": sol.cg_residual,
    }


def convergence_sweep(solution, levels, flavor=None, quad_order=5):
    """Solve on a sequence of uniform refinements and report errors/orders.

    ``solution`` is a catalog name or a ManufacturedSolution; ``levels``
    is a list of per-axis division counts.  Returns one row per level:
    its mesh size, the results of ``solve_level`` and observed orders
    between consecutive levels (no consistency order where either level is
    at the floor).
    """
    entry = manufactured(solution) if isinstance(solution, str) else solution
    flavor = flavor or flavor_for(entry)
    rows = []
    for level, m in enumerate(levels):
        mesh = build_grid(entry.domain, (m,) * entry.n)
        row = {"level": level, "h": float(mesh.h_max), "n_cells": mesh.n_cells,
               **solve_level(entry, mesh, flavor, quad_order),
               "order_L2": None, "order_Hd": None, "order_consistency": None}
        if rows:
            prev = rows[-1]
            ratio = math.log(prev["h"] / row["h"])
            for key in ("L2", "Hd"):
                a, b = prev[f"err_{key}"], row[f"err_{key}"]
                row[f"order_{key}"] = math.log(a / b) / ratio if a > 0 and b > 0 else None
            if not (prev["consistency_at_floor"] or row["consistency_at_floor"]):
                row["order_consistency"] = math.log(
                    prev["consistency"] / row["consistency"]) / ratio
        rows.append(row)
    return rows
