"""Galerkin solver for the reaction-diffusion model problem on glued spaces.

The bilinear form is ``<d_h w, d_h m> + <w, m>`` summed over cells; its
Gram matrix doubles as the square of the broken energy norm.  Stiffness
and mass entries are assembled exactly (rational local matrices, cast to
float only at the end); only load vectors, error norms and consistency
functionals of non-polynomial data use quadrature.

Solver paths: conjugate gradients (relative residual 1e-12, at most 50*N
iterations) by default; exact elimination when the caller asks for it
and the data is rational.  The exact path doubles as the oracle for the
iterative one.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from . import local
from .exactla import solve as exact_solve
from .fields import manufactured
from .forms import PolyForm
from .local import local_energy_matrix  # re-exported as part of the solver API
from .mesh import build_grid
from .quadrature import component_array
from .whitney import (FULL_TEST, INTERIOR_TEST, PiecewiseWhitney, WhitneySpace,
                      build_constraints, interpolated_generating_set, kernel_space,
                      prune_vectors)

#: piecewise-coordinate count up to which the exact kernel representation
#: is the default space basis (pure-Python elimination stays fast there)
KERNEL_COLUMN_LIMIT = 400


def basis_matrix(space):
    """Sparse float matrix with one column per space basis vector."""
    data, rows, cols = [], [], []
    for i, vec in enumerate(space.vectors):
        for c, val in vec.items():
            rows.append(c)
            cols.append(i)
            data.append(float(val))
    return scipy.sparse.csc_matrix((data, (rows, cols)),
                                   shape=(space.pw.ncols, space.dim))


@dataclass
class DiscreteProblem:
    space: WhitneySpace
    G: np.ndarray              # float Gram (stiffness + mass)
    F: np.ndarray              # float load
    V: scipy.sparse.spmatrix   # piecewise-coordinates-from-basis map
    quad_order: int
    G_exact: list | None = None
    F_exact: list | None = None

    @property
    def exact(self):
        return self.G_exact is not None

    @property
    def size(self):
        return len(self.F)

    def energy_norm(self, coeffs):
        v = np.asarray(coeffs, dtype=float)
        return math.sqrt(max(float(v @ (self.G @ v)), 0.0))


def _cell_slices(space):
    """Per basis vector: {cell id: dense local coefficient list}."""
    pw = space.pw
    out = []
    for vec in space.vectors:
        per_cell = {}
        for col, val in vec.items():
            ci, j = divmod(col, pw.dim_local)
            per_cell.setdefault(ci, [0] * pw.dim_local)[j] = val
        out.append(per_cell)
    return out


def _gauss_grid(pw, quad_order):
    """Per cell shape: (cell ids, tabulation, Gauss points as (cell, point, axis))."""
    shapes = {}
    for ci in range(pw.mesh.n_cells):
        shapes.setdefault(local.tables(pw.mesh, pw.k, ci), []).append(ci)
    for table, ids in shapes.items():
        tab = table.tabulation(quad_order)
        centers = np.array([[float(c) for c in pw.mesh.cells[ci].center] for ci in ids])
        yield ids, tab, centers[:, None, :] + tab.offsets


def _field_array(values_at, k, points):
    """A field's degree-k components on a Gauss grid, as (component, cell, point)."""
    n = points.shape[-1]
    return component_array(values_at(points.reshape(-1, n)), k, n, points.shape[:-1])


def _load_pw_float(pw, load, quad_order):
    out = np.zeros((pw.mesh.n_cells, pw.dim_local))
    for ids, tab, points in _gauss_grid(pw, quad_order):
        f = _field_array(load.at, pw.k, points) * tab.weights
        out[ids] = np.einsum("acp,jap->cj", f, tab.values)
    return out.ravel()


def assemble(space, load, quad_order=5):
    """Gram matrix and load vector over the given basis.

    ``load`` is a FormField (quadrature path) or a PolyForm, in which case
    everything is also assembled exactly.  Raises when the basis is
    dependent (prune generating sets before assembling).
    """
    pw = space.pw
    mesh = pw.mesh
    v_mat = basis_matrix(space)
    cell_tables = [local.tables(mesh, pw.k, ci) for ci in range(mesh.n_cells)]
    big = scipy.sparse.block_diag([t.energy_float for t in cell_tables], format="csc")
    gram = (v_mat.T @ (big @ v_mat)).toarray()
    gram = (gram + gram.T) / 2.0
    try:
        np.linalg.cholesky(gram + 0.0)
    except np.linalg.LinAlgError as err:
        raise ValueError(
            "basis is not positive definite (linearly dependent vectors); "
            "prune the generating set before assembling") from err

    exact = isinstance(load, PolyForm)
    g_exact = f_exact = None
    if exact:
        slices = _cell_slices(space)
        size = space.dim
        g_exact = [[0] * size for _ in range(size)]
        for i in range(size):
            for j in range(i, size):
                acc = 0
                shared = slices[i].keys() & slices[j].keys()
                for ci in shared:
                    li, lj = slices[i][ci], slices[j][ci]
                    lmat = cell_tables[ci].energy
                    acc += sum(li[a] * sum(lmat[a][b] * lj[b]
                                           for b in range(len(lj)) if lj[b])
                               for a in range(len(li)) if li[a])
                g_exact[i][j] = g_exact[j][i] = acc
        pair = {}
        f_exact = []
        for i in range(size):
            acc = 0
            for ci, loc in slices[i].items():
                if ci not in pair:
                    pair[ci] = [load.inner_product(phi, mesh.cells[ci])
                                for phi in pw.bases[ci]]
                acc += sum(c * p for c, p in zip(loc, pair[ci]) if c)
            f_exact.append(acc)
        f_float = np.array([float(x) for x in f_exact])
    else:
        f_float = np.asarray(v_mat.T @ _load_pw_float(pw, load, quad_order))
    return DiscreteProblem(space, gram, f_float, v_mat, quad_order,
                           G_exact=g_exact, F_exact=f_exact)


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
    history: list = field(default_factory=list)
    _pw_cache: np.ndarray | None = None

    def pw_coefficients(self):
        """Float coefficients in the broken (piecewise) coordinates."""
        if self._pw_cache is None:
            self._pw_cache = np.asarray(self.problem.V @ self.x).ravel()
        return self._pw_cache

    def form_on_cell(self, ci):
        """Exact local PolyForm (exact solve path only)."""
        if self.x_exact is None:
            raise ValueError("exact local forms need the exact solve path")
        vec = {}
        pw = self.space.pw
        for i, xe in enumerate(self.x_exact):
            if xe:
                for c, val in self.space.vectors[i].items():
                    vec[c] = vec.get(c, 0) + xe * val
        return pw.form_on_cell(vec, ci)


def solve(problem, method="cg", rtol=1e-12):
    """Solve the Galerkin system by CG, or by exact elimination on request."""
    if method == "exact":
        if not problem.exact:
            raise ValueError("exact solve requested but data is not rational")
        x_exact = exact_solve(problem.G_exact, problem.F_exact)
        x = np.array([float(v) for v in x_exact])
        return Solution(problem.space, problem, x, x_exact=x_exact)
    if method != "cg":
        raise ValueError(f"unknown solve method {method!r}")
    x, history = conjugate_gradient(problem.G, problem.F, rtol=rtol)
    return Solution(problem.space, problem, x, history=history)


# ---------------------------------------------------------------------------
# error measures


def broken_error(exact_field, solution, quad_order=5):
    """(L2 error, broken energy error) of a discrete solution vs a field.

    The energy error adds the cell-wise L2 error of the exterior
    derivative: err_Hd = sqrt(err_L2^2 + err_dL2^2).
    """
    pw = solution.space.pw
    coeffs = solution.pw_coefficients().reshape(pw.mesh.n_cells, pw.dim_local)
    err0 = err1 = 0.0
    for ids, tab, points in _gauss_grid(pw, quad_order):
        u = coeffs[ids]
        e0 = np.einsum("cj,jap->acp", u, tab.values) - _field_array(exact_field.at, pw.k, points)
        e1 = (np.einsum("cj,jap->acp", u, tab.d_values)
              - _field_array(exact_field.d_at, pw.k + 1, points))
        err0 += float(np.einsum("acp,p->", e0 * e0, tab.weights))
        err1 += float(np.einsum("acp,p->", e1 * e1, tab.weights))
    return math.sqrt(err0), math.sqrt(err0 + err1)


def consistency_residual(entry, problem, quad_order=5, rtol=1e-12):
    """sup over the discrete space of the nonconformity functional.

    The functional is ``<d w, d_h m> - <delta d w, m>`` (zero for every m
    in the continuous energy space); the sup over the discrete space with
    unit broken norm equals the Gram-norm of its Riesz representer.
    """
    pw = problem.space.pw
    ell_pw = np.zeros((pw.mesh.n_cells, pw.dim_local))
    for ids, tab, points in _gauss_grid(pw, quad_order):
        dw = _field_array(entry.omega.d_at, pw.k + 1, points) * tab.weights
        dd = _field_array(entry.delta_d.at, pw.k, points) * tab.weights
        ell_pw[ids] = (np.einsum("acp,jap->cj", dw, tab.d_values)
                       - np.einsum("acp,jap->cj", dd, tab.values))
    ell = np.asarray(problem.V.T @ ell_pw.ravel()).ravel()
    if not np.any(ell):
        return 0.0
    y, _ = conjugate_gradient(problem.G, ell, rtol=rtol)
    return math.sqrt(max(float(ell @ y), 0.0))


# ---------------------------------------------------------------------------
# space construction and convergence studies


def build_solver_space(k, mesh, flavor=INTERIOR_TEST, representation="auto",
                       prune_tol=1e-10):
    """A ready-to-assemble independent basis of the glued space.

    ``representation``: "kernel" (exact nullspace of the constraints),
    "generators" (projected conforming basis, pruned), or "auto" which
    picks the kernel up to KERNEL_COLUMN_LIMIT broken coordinates.
    """
    pw = PiecewiseWhitney(k, mesh)
    if representation == "auto":
        representation = "kernel" if pw.ncols <= KERNEL_COLUMN_LIMIT else "generators"
    if representation == "kernel":
        return kernel_space(build_constraints(k, mesh, flavor, pw=pw))
    if representation == "generators":
        gens = interpolated_generating_set(k, mesh, flavor, pw=pw)
        pruned, _ = prune_vectors(gens, tol=prune_tol)
        return pruned
    raise ValueError(f"unknown representation {representation!r}")


def flavor_for(entry):
    return FULL_TEST if entry.compatibility == "essential" else INTERIOR_TEST


def convergence_sweep(solution, levels, flavor=None, quad_order=5,
                      representation="generators", rtol=1e-12):
    """Solve on a sequence of uniform refinements and report errors/orders.

    ``solution`` is a catalog name or a ManufacturedSolution; ``levels``
    is a list of per-axis division counts.  Returns one row per level with
    errors, the consistency residual, and observed orders between
    consecutive levels.
    """
    entry = manufactured(solution) if isinstance(solution, str) else solution
    flavor = flavor or flavor_for(entry)
    rows = []
    prev = None
    for level, m in enumerate(levels):
        mesh = build_grid(entry.domain, (m,) * entry.n)
        space = build_solver_space(entry.k, mesh, flavor, representation)
        problem = assemble(space, entry.load, quad_order)
        sol = solve(problem, method="cg", rtol=rtol)
        err_l2, err_hd = broken_error(entry.omega, sol, quad_order)
        cons = consistency_residual(entry, problem, quad_order)
        row = {
            "level": level,
            "h": float(mesh.h_max),
            "n_cells": mesh.n_cells,
            "dim_space": space.dim,
            "err_L2": err_l2,
            "err_Hd": err_hd,
            "consistency": cons,
            "order_L2": None,
            "order_Hd": None,
            "order_consistency": None,
        }
        if prev is not None:
            ratio = math.log(prev["h"] / row["h"])
            for key in ("L2", "Hd"):
                a, b = prev[f"err_{key}"], row[f"err_{key}"]
                row[f"order_{key}"] = math.log(a / b) / ratio if a > 0 and b > 0 else None
            if prev["consistency"] > 0 and cons > 0:
                row["order_consistency"] = math.log(prev["consistency"] / cons) / ratio
        rows.append(row)
        prev = row
    return rows
