"""Per-shape local tables against per-cell computation, and the tabulated
quadrature contractions against the per-cell loops they replaced."""

import math
from fractions import Fraction

import numpy as np
import pytest

from boxforms import spaces
from boxforms.exactla import invert
from boxforms.fields import manufactured
from boxforms.indices import multi_indices
from boxforms.local import local_energy_matrix, tables
from boxforms.mesh import build_grid
from boxforms.projection import LocalProjector
from boxforms.quadrature import box_rule, polyform_values
from boxforms.solver import (assemble, broken_error, build_solver_space,
                             conjugate_gradient, consistency_residual, flavor_for, solve)

MESHES = [
    build_grid([[0, 1], [0, 3]], (3, 2)),
    build_grid([["-1/2", "1/3"], ["1/4", "2"], ["0", "5/3"]], (2, 1, 2)),
]


def _cell_data(mesh, k, ci):
    """Energy, d-matrix, Vandermonde inverse and patterns from the cell's own basis."""
    cell = mesh.cells[ci]
    whitney = spaces.basis(spaces.P1MINUS, k, cell)
    energy = local_energy_matrix(whitney, cell)
    d_matrix = None
    if k < mesh.n:
        target = list(spaces.basis(spaces.P1MINUS, k + 1, cell))
        d_matrix = [spaces.expand_in_span(target, phi.exterior_derivative())
                    for phi in whitney]
    q = spaces.basis(spaces.Q1MINUS, k, cell)
    faces = mesh.cell_faces(mesh.cell_tuples[ci], k)
    vinv = invert([[mesh.face_dof(f, phi) for phi in q] for f in faces])
    projector = LocalProjector(k, cell)
    patterns = []
    for a in range(len(faces)):
        form = sum((vinv[j][a] * q[j] for j in range(len(q))), 0 * q[0])
        patterns.append(projector.coefficients(form))
    return energy, d_matrix, vinv, patterns


@pytest.mark.parametrize("mesh", MESHES, ids=["2d", "3d"])
def test_tables_equal_per_cell_exact_data(mesh):
    for k in range(mesh.n + 1):
        for ci in range(mesh.n_cells):
            table = tables(mesh, k, ci)
            energy, d_matrix, vinv, patterns = _cell_data(mesh, k, ci)
            assert table.energy == energy
            assert all(isinstance(x, Fraction) for row in table.energy for x in row)
            if d_matrix is not None:
                assert table.d_matrix == d_matrix
            assert table.vandermonde_inverse == vinv
            assert table.patterns == patterns


@pytest.mark.parametrize("mesh", MESHES, ids=["2d", "3d"])
@pytest.mark.parametrize("order", [2, 5])
def test_tabulation_matches_cell_evaluation(mesh, order):
    for k in range(mesh.n + 1):
        for ci, cell in enumerate(mesh.cells):
            tab = tables(mesh, k, ci).tabulation(order)
            points, weights = box_rule(cell, order)
            center = np.array([float(c) for c in cell.center])
            assert np.array_equal(center + tab.offsets, points)
            assert np.array_equal(tab.weights, weights)
            whitney = spaces.basis(spaces.P1MINUS, k, cell)
            for j, phi in enumerate(whitney):
                for arr, form, deg in ((tab.values, phi, k),
                                       (tab.d_values, phi.exterior_derivative(), k + 1)):
                    alphas = multi_indices(deg, mesh.n) if deg <= mesh.n else []
                    assert arr.shape[1] == len(alphas)
                    vals = polyform_values(form, points)
                    for a, alpha in enumerate(alphas):
                        expect = vals.get(alpha, np.zeros(len(points)))
                        assert np.max(np.abs(arr[j, a] - expect)) <= 1e-13


def test_one_table_per_shape():
    mesh = MESHES[0]
    assert len({id(tables(mesh, 1, ci)) for ci in range(mesh.n_cells)}) == 1
    assert tables(mesh, 1, 4).cell == mesh.cells[0]
    assert tables(mesh, 0, 0) is not tables(mesh, 1, 0)


# ---------------------------------------------------------------------------
# the per-cell, per-basis-function quadrature loops, kept as the oracle


def reference_load(pw, load, quad_order):
    out = np.zeros(pw.ncols)
    for ci, cell in enumerate(pw.mesh.cells):
        points, weights = box_rule(cell, quad_order)
        f_vals = load.at(points)
        for j, phi in enumerate(pw.bases[ci]):
            acc = 0.0
            for alpha, pv in polyform_values(phi, points).items():
                fv = f_vals.get(alpha)
                if fv is not None:
                    acc += float(np.dot(weights, fv * pv))
            out[pw.col(ci, j)] = acc
    return out


def reference_broken_error(exact_field, solution, quad_order):
    pw = solution.space.pw
    coeffs = solution.pw_coefficients()
    err0 = 0.0
    err1 = 0.0
    for ci, cell in enumerate(pw.mesh.cells):
        points, weights = box_rule(cell, quad_order)
        local = coeffs[ci * pw.dim_local:(ci + 1) * pw.dim_local]
        acc = {a: -v for a, v in exact_field.at(points).items()}
        for j, phi in enumerate(pw.bases[ci]):
            if local[j]:
                for alpha, pv in polyform_values(phi, points).items():
                    acc[alpha] = acc.get(alpha, 0.0) + local[j] * pv
        err0 += sum(float(np.dot(weights, v * v)) for v in acc.values())
        acc = {a: -v for a, v in exact_field.d_at(points).items()}
        for j, phi in enumerate(pw.bases[ci]):
            if local[j]:
                df = phi.exterior_derivative()
                for alpha, pv in polyform_values(df, points).items():
                    acc[alpha] = acc.get(alpha, 0.0) + local[j] * pv
        err1 += sum(float(np.dot(weights, v * v)) for v in acc.values())
    return math.sqrt(err0), math.sqrt(err0 + err1)


def reference_consistency(entry, problem, quad_order, rtol=1e-12):
    pw = problem.space.pw
    ell_pw = np.zeros(pw.ncols)
    for ci, cell in enumerate(pw.mesh.cells):
        points, weights = box_rule(cell, quad_order)
        dw_vals = entry.omega.d_at(points)
        dd_vals = entry.delta_d.at(points)
        for j, phi in enumerate(pw.bases[ci]):
            acc = 0.0
            df = phi.exterior_derivative()
            for alpha, pv in polyform_values(df, points).items():
                dv = dw_vals.get(alpha)
                if dv is not None:
                    acc += float(np.dot(weights, dv * pv))
            for alpha, pv in polyform_values(phi, points).items():
                cv = dd_vals.get(alpha)
                if cv is not None:
                    acc -= float(np.dot(weights, cv * pv))
            ell_pw[pw.col(ci, j)] = acc
    ell = np.asarray(problem.V.T @ ell_pw).ravel()
    if not np.any(ell):
        return 0.0
    y, _ = conjugate_gradient(problem.G, ell, rtol=rtol)
    return math.sqrt(max(float(ell @ y), 0.0))


@pytest.mark.parametrize("name, divisions", [("cos2d_k1", (3, 2)), ("sin3d_k1", (2, 2, 2))])
def test_contraction_matches_per_cell_loops(name, divisions):
    entry = manufactured(name)
    mesh = build_grid(entry.domain, divisions)
    space = build_solver_space(entry.k, mesh, flavor_for(entry))
    problem = assemble(space, entry.load, 5)
    ref_f = np.asarray(problem.V.T @ reference_load(space.pw, entry.load, 5)).ravel()
    assert np.max(np.abs(problem.F - ref_f)) <= 1e-12 * np.max(np.abs(ref_f))

    sol = solve(problem)
    got = broken_error(entry.omega, sol, 5)
    ref = reference_broken_error(entry.omega, sol, 5)
    for g, r in zip(got, ref):
        assert abs(g - r) <= 1e-12 * r

    got_c = consistency_residual(entry, problem, 5)
    ref_c = reference_consistency(entry, problem, 5)
    assert abs(got_c - ref_c) <= max(1e-12 * ref_c, 1e-14)


def test_float_pipeline_builds_local_bases_once_per_shape(monkeypatch):
    calls = []
    original = spaces.basis

    def counting(*args, **kwargs):
        calls.append(args[:2])
        return original(*args, **kwargs)

    monkeypatch.setattr(spaces, "basis", counting)
    entry = manufactured("sin2d_k1")
    counts = []
    for m in (4, 8):
        calls.clear()
        mesh = build_grid(entry.domain, (m, m))
        space = build_solver_space(entry.k, mesh, flavor_for(entry), "generators")
        problem = assemble(space, entry.load, 5)
        broken_error(entry.omega, solve(problem), 5)
        consistency_residual(entry, problem, 5)
        counts.append(len(calls))
    assert counts[0] > 0
    assert counts[0] == counts[1]
