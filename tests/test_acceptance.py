"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
All structural criteria are exact (zero tolerance, rational arithmetic);
solver criteria use the stated tolerances.
"""

import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import product
from math import comb

import numpy as np
import pytest
from test_mesh import GRADED, graded_mesh
from test_solver import energy_norm

from boxforms.exactla import kernel_vectors, rank, spans_equal
from boxforms.fields import constant_solution
from boxforms.forms import CellBox, PolyForm, Polynomial, boundary_bump, format_form
from boxforms.indices import multi_indices
from boxforms.mesh import build_grid
from boxforms.projection import LocalProjector, check_commuting
from boxforms.solver import (assemble, broken_error, build_solver_space,
                             convergence_sweep, solve)
from boxforms.spaces import (P1MINUS, Q1MINUS, Q1MINUS_STAR, basis,
                             check_Q_exactness, check_ap_identity,
                             check_local_couple, check_orthogonality,
                             form_spans_equal)
from boxforms.verify import operator_law_suite
from boxforms.whitney import (FULL_TEST, INTERIOR_TEST, PiecewiseWhitney,
                              build_constraints, check_commuting_squares,
                              check_whitney_complex, interpolated_generating_set,
                              kernel_space, mean_jump_rows)

DIMS = (1, 2, 3, 4)


def cells_for(n):
    return (CellBox.reference(n), CellBox((0,) * n, tuple(range(1, n + 1))))


@contextmanager
def criterion(number, description):
    start = time.time()
    try:
        yield
    except Exception:
        print(f"[acceptance] criterion {number}: FAIL - {description}")
        raise
    print(f"[acceptance] criterion {number}: PASS - {description} "
          f"({time.time() - start:.1f}s)")


def tensor_product_presentation(k, cell):
    """Per-axis definition of the tensor family (independent of the library basis)."""
    n = cell.n
    out = []
    for sigma in multi_indices(k, n):
        degrees = [(0,) if (i + 1) in sigma else (0, 1) for i in range(n)]
        for expts in product(*degrees):
            out.append(PolyForm.covector(n, sigma, Polynomial.monomial(n, expts)))
    return out


def test_criterion_1_exact_structural_suite():
    with criterion(1, "exact structural suite, n=1..4, reference and stretched boxes"):
        start = time.time()
        for n in DIMS:
            for report in operator_law_suite(n, seed=0):
                assert report.passed, report.to_dict()
            for cell in cells_for(n):
                for k in range(n + 1):
                    sb = basis(Q1MINUS, k, cell)
                    assert len(sb) == comb(n, k) * 2 ** (n - k)
                    assert form_spans_equal(list(sb), tensor_product_presentation(k, cell))
                    assert check_orthogonality(n, k, cell).passed
                    if k >= 1:
                        assert check_Q_exactness(k, n, cell).passed
                    if k <= n - 1:
                        assert check_local_couple(k, n, cell).passed
                        assert check_ap_identity(k, n, cell).passed
        elapsed = time.time() - start
        assert elapsed < 120, f"structural suite took {elapsed:.0f}s (budget 120s)"


def oracle_project_bilinear_on_reference():
    """Independent 3x3 solve for the projection of x1*x2 on [-1,1]^2.

    Builds the adjoint system from scratch (monomial integrals, Cramer-style
    elimination) without touching the library's projection path.
    """
    def tint(p):  # integral over [-1,1]^2 of exponent dict
        total = Fraction(0)
        for (a, b), c in p.items():
            if a % 2 == 0 and b % 2 == 0:
                total += c * Fraction(2, a + 1) * Fraction(2, b + 1)
        return total

    def pmul(p, q):
        out = {}
        for (a1, b1), c1 in p.items():
            for (a2, b2), c2 in q.items():
                out[(a1 + a2, b1 + b2)] = out.get((a1 + a2, b1 + b2), Fraction(0)) + c1 * c2
        return out

    one = {(0, 0): Fraction(1)}
    xm = {(1, 0): Fraction(1)}
    ym = {(0, 1): Fraction(1)}
    trials = [one, xm, ym]
    d_trials = [{}, {(1,): one}, {(2,): one}]
    # tests: star of {dx, dy, x dy - y dx}
    mus = [{(2,): one},
           {(1,): {(0, 0): Fraction(-1)}},
           {(1,): {(1, 0): Fraction(-1)}, (2,): {(0, 1): Fraction(-1)}}]
    delta_mus = [{}, {}, {(0, 0): Fraction(2)}]
    omega = {(1, 1): Fraction(1)}
    d_omega = {(1,): ym, (2,): xm}

    def pair(d_form, form, mu, delta_mu):
        acc = Fraction(0)
        for idx, component in mu.items():
            acc += tint(pmul(d_form.get(idx, {}), component))
        acc -= tint(pmul(form, delta_mu))
        return acc

    system = [[pair(d_trials[j], trials[j], mus[i], delta_mus[i]) for j in range(3)]
              for i in range(3)]
    rhs = [pair(d_omega, omega, mus[i], delta_mus[i]) for i in range(3)]
    # the frozen system: rows ((0,0,4),(0,-4,0),(-8,0,0)) is nonsingular
    assert system == [[0, 0, 4], [0, -4, 0], [-8, 0, 0]]
    # solve by substitution
    c1 = rhs[2] / Fraction(-8)
    c2 = rhs[1] / Fraction(-4)
    c3 = rhs[0] / Fraction(4)
    return [c1, c2, c3]


def test_criterion_2_adjoint_projection():
    with criterion(2, "adjoint projection: idempotent, identity, nonsingular, commuting"):
        for n in DIMS:
            for cell in cells_for(n):
                for k in range(n + 1):
                    projector = LocalProjector(k, cell)  # raises when singular
                    for phi in projector.trial:
                        assert projector.project(phi) == phi
                    sample = basis(Q1MINUS, k, cell)[-1]
                    once = projector.project(sample)
                    assert projector.project(once) == once
                for k in range(n):
                    for omega in basis(Q1MINUS, k, cell):
                        assert check_commuting(omega, k, cell).passed
        # specific value against the independent 3x3 oracle
        assert oracle_project_bilinear_on_reference() == [0, 0, 0]
        w = PolyForm.from_scalar(Polynomial.variable(2, 1) * Polynomial.variable(2, 2))
        assert LocalProjector(0, CellBox.reference(2)).project(w).is_zero()


MESHES = {
    2: build_grid([[0, 1], [0, 1]], (2, 2)),
    3: build_grid([[0, 1]] * 3, (2, 2, 2)),
}


def test_criterion_3_projected_conforming_basis_in_space():
    with criterion(3, "projected conforming basis functions have zero constraint residual"):
        for n, mesh in MESHES.items():
            for flavor in (INTERIOR_TEST, FULL_TEST):
                for k in range(n + 1):
                    constraints = build_constraints(k, mesh, flavor)
                    gens = interpolated_generating_set(k, mesh, flavor)
                    for vec in gens.vectors:
                        residual = constraints.residual(vec)
                        assert not any(residual), (n, k, flavor)


def test_criterion_4_discrete_complexes_and_commuting_diagrams():
    with criterion(4, "conforming and glued complexes, commuting squares, exact"):
        from boxforms.global_spaces import check_conforming_complex
        for n, mesh in MESHES.items():
            for bc in (False, True):
                assert check_conforming_complex(mesh, with_boundary_conditions=bc).passed
            for flavor in (INTERIOR_TEST, FULL_TEST):
                assert check_whitney_complex(mesh, flavor).passed
                assert check_commuting_squares(mesh, flavor).passed


def test_criterion_5_mean_jump_equivalence():
    with criterion(5, "k=0 glued space equals zero-mean-jump piecewise linears (2d)"):
        for divisions in ((2, 2), (3, 3)):
            mesh = build_grid([[0, 1], [0, 1]], divisions)
            constraints = build_constraints(0, mesh, INTERIOR_TEST)
            pw = constraints.pw
            kernel_a = [row for row, _ in kernel_vectors(constraints.integer_rows, pw.ncols)[1]]
            kernel_b = [row for row, _ in kernel_vectors(mean_jump_rows(mesh, pw)[0],
                                                         pw.ncols)[1]]
            assert spans_equal(kernel_a, kernel_b), divisions


def test_criterion_6_constant_reproduction():
    with criterion(6, "constant forms are reproduced to 1e-10 in the broken energy norm"):
        cases = [
            (1, 0, (), 8),
            (2, 0, (), 8),
            (2, 1, (1,), 8),
            (2, 2, (1, 2), 8),
            (3, 0, (), 8),
            (3, 1, (2,), 4),
            (3, 3, (1, 2, 3), 4),
        ]
        for n, k, sigma, m in cases:
            mesh = build_grid([[0, 1]] * n, (m,) * n)
            entry = constant_solution(n, k, sigma, 3.0)
            space = build_solver_space(k, mesh, INTERIOR_TEST)
            problem = assemble(space, entry.load)
            solution = solve(problem)
            _, err_hd = broken_error(entry.omega, solution)
            assert err_hd <= 1e-10, (n, k, m, err_hd)


def _check_sweep(rows):
    finest = rows[-1]
    assert finest["order_Hd"] is not None and finest["order_Hd"] >= 0.9, rows
    residuals = [r["consistency"] for r in rows]
    if all(c <= 1e-9 for c in residuals):
        return  # identically consistent (conforming case): stronger than decay
    assert finest["order_consistency"] is not None
    assert finest["order_consistency"] >= 0.9, rows


def test_criterion_7_first_order_convergence():
    with criterion(7, "first-order broken-energy convergence and consistency decay"):
        _check_sweep(convergence_sweep("sin2d_k0", [4, 8, 16]))
        _check_sweep(convergence_sweep("sin2d_k1", [4, 8, 16]))
        _check_sweep(convergence_sweep("sin3d_k1", [2, 4, 8]))


def test_criterion_8_solver_paths_agree():
    with criterion(8, "exact elimination and CG agree to 1e-9 in the energy norm"):
        cases = [
            (1, 0, (), (16,)),
            (2, 0, (), (6, 6)),
            (2, 1, (1,), (4, 4)),
        ]
        # cases where CG iterates for at least 100 steps
        iterating = [
            (2, 0, (), (12, 12)),
            (3, 1, (1,), (4, 4, 4)),
        ]
        for n, k, sigma, divisions in cases + iterating:
            mesh = build_grid([[0, 1]] * n, divisions)
            space = kernel_space(build_constraints(k, mesh, INTERIOR_TEST))
            iterative = _exact_and_cg_agree(space, sigma)
            if (n, k, sigma, divisions) in iterating:
                assert iterative.cg_iterations >= 100, (n, k, iterative.cg_iterations)
        # again on the pruned generating set, the basis every float solve assembles,
        # and on meshes whose cells differ in width
        graded = [(2, 1, (1,), "2d"), (3, 1, (1,), "3d")]
        for n, k, sigma, divisions in cases + iterating + graded:
            mesh = (graded_mesh(GRADED[divisions]) if divisions in GRADED
                    else build_grid([[0, 1]] * n, divisions))
            iterative = _exact_and_cg_agree(build_solver_space(k, mesh, INTERIOR_TEST), sigma)
            if (n, k, divisions) == (3, 1, (4, 4, 4)):
                assert iterative.cg_iterations >= 100, (n, k, iterative.cg_iterations)


def _exact_and_cg_agree(space, sigma):
    """Assert the exact and CG solves of the constant load 7/3 dx^sigma agree; the CG one."""
    n = space.mesh.n
    problem = assemble(space, PolyForm.covector(n, sigma, Fraction(7, 3)))
    assert len(problem.F) <= 500
    direct = solve(problem, method="exact")
    iterative = solve(problem, method="cg")
    gap = energy_norm(problem, direct.x - iterative.x)
    scale = energy_norm(problem, direct.x)
    assert gap <= 1e-9 * max(scale, 1.0), (n, space.k, gap, scale)
    return iterative
