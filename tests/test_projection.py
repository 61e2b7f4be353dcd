import io
import random
import sys
from contextlib import redirect_stdout
from fractions import Fraction

import numpy as np
import pytest
from test_exactla import invert

from boxforms import cli, exactla, local, projection
from boxforms.forms import CellBox, PolyForm, Polynomial
from boxforms.mesh import build_grid
from boxforms.projection import LocalProjector, check_commuting
from boxforms.spaces import P1MINUS, Q1MINUS, basis
from boxforms.verify import random_box, random_form, stretched_box

T2 = CellBox.reference(2)


# -- independent brute-force oracle -----------------------------------------
# A tiny standalone implementation for k = 0 and k = 1 on [-1,1]^2:
# polynomials are {(i, j): coeff} dicts, forms are {index: poly} dicts.


def _pmul(p, q):
    out = {}
    for (a1, b1), c1 in p.items():
        for (a2, b2), c2 in q.items():
            key = (a1 + a2, b1 + b2)
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return out


def _pint_T(p):
    """integral over [-1,1]^2 of a polynomial dict."""
    total = Fraction(0)
    for (a, b), c in p.items():
        if a % 2 == 0 and b % 2 == 0:
            total += c * Fraction(2, a + 1) * Fraction(2, b + 1)
    return total


def _solve3(A, rhs):
    import copy
    m = [row[:] + [r] for row, r in zip(copy.deepcopy(A), rhs)]
    for col in range(3):
        piv = next(r for r in range(col, 3) if m[r][col])
        m[col], m[piv] = m[piv], m[col]
        m[col] = [v / m[col][col] for v in m[col]]
        for r in range(3):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [u - f * v for u, v in zip(m[r], m[col])]
    return [m[r][3] for r in range(3)]


ONE = {(0, 0): Fraction(1)}
X = {(1, 0): Fraction(1)}
Y = {(0, 1): Fraction(1)}


def oracle_project_k0(omega_poly):
    """Brute-force 3x3 adjoint system on T for 0-forms; trial {1, x, y}."""
    # tests are star of {dx, dy, x dy - y dx}: mu_1 = dy, mu_2 = -dx,
    # mu_3 = -x dx - y dy, with delta mu = (0, 0, 2)
    trials = [ONE, X, Y]
    d_trials = [{}, {(1,): ONE}, {(2,): ONE}]
    mus = [{(2,): ONE}, {(1,): {(0, 0): Fraction(-1)}},
           {(1,): {(1, 0): Fraction(-1)}, (2,): {(0, 1): Fraction(-1)}}]
    delta_mus = [{}, {}, {(0, 0): Fraction(2)}]
    d_omega = {(1,): {(a - 1, b): c * a for (a, b), c in omega_poly.items() if a},
               (2,): {(a, b - 1): c * b for (a, b), c in omega_poly.items() if b}}
    A = [[sum(_pint_T(_pmul(d_trials[j].get(idx, {}), mu[idx])) for idx in mu)
          - _pint_T(_pmul(trials[j], delta_mus[i]))
          for j in range(3)] for i, mu in enumerate(mus)]
    rhs = [sum(_pint_T(_pmul(d_omega.get(idx, {}), mu[idx])) for idx in mu)
           - _pint_T(_pmul(omega_poly, delta_mus[i])) for i, mu in enumerate(mus)]
    return _solve3(A, rhs)  # coefficients over {1, x, y}


def test_bilinear_bubble_projects_to_zero_against_oracle():
    # library value
    w = PolyForm.from_scalar(Polynomial.variable(2, 1) * Polynomial.variable(2, 2))
    assert LocalProjector(0, T2).project(w).is_zero()
    # independent brute force gives the same zero coefficients
    assert oracle_project_k0({(1, 1): Fraction(1)}) == [0, 0, 0]


def test_oracle_agrees_on_generic_scalar():
    poly = {(2, 0): Fraction(1), (1, 1): Fraction(-2), (0, 0): Fraction(3, 2)}
    coeffs = oracle_project_k0(poly)
    w = PolyForm.from_scalar(Polynomial(2, {(2, 0): 1, (1, 1): -2, (0, 0): Fraction(3, 2)}))
    got = LocalProjector(0, T2).project(w)
    trial = basis(P1MINUS, 0, T2)
    expected = coeffs[0] * trial[0] + coeffs[1] * trial[1] + coeffs[2] * trial[2]
    assert got == expected


def test_spec_edge_form_projection():
    """omega = dx1 + x2 dx1 projects to dx1 - kappa(dx12)/2 (hand 3x3 solve)."""
    w = PolyForm.covector(2, (1,), Polynomial(2, {(0, 0): 1, (0, 1): 1}))
    got = LocalProjector(1, T2).project(w)
    expected = (PolyForm.covector(2, (1,), Polynomial(2, {(0, 0): 1, (0, 1): Fraction(1, 2)}))
                + PolyForm.covector(2, (2,), Polynomial(2, {(1, 0): Fraction(-1, 2)})))
    assert got == expected


@pytest.mark.parametrize("n", [1, 2, 3])
def test_identity_on_whitney_space(n):
    for cell in (CellBox.reference(n), CellBox((0,) * n, tuple(range(1, n + 1)))):
        for k in range(n + 1):
            projector = LocalProjector(k, cell)
            for phi in projector.trial:
                assert projector.project(phi) == phi


@pytest.mark.parametrize("n", [1, 2, 3])
def test_idempotence_on_generic_forms(n):
    rng = random.Random(n)
    for k in range(n + 1):
        projector = LocalProjector(k, CellBox.reference(n))
        for _ in range(3):
            parts = {}
            from boxforms.indices import multi_indices
            for alpha in multi_indices(k, n):
                parts[alpha] = Polynomial(
                    n, {tuple(rng.randint(0, 2) for _ in range(n)): rng.randint(-3, 3)
                        for _ in range(3)})
            w = PolyForm(n, k, parts)
            once = projector.project(w)
            assert projector.project(once) == once


def test_wellposed_on_random_rational_boxes():
    rng = random.Random(42)
    for n in (1, 2, 3, 4):
        for _ in range(3):
            lo = [Fraction(rng.randint(-5, 3), rng.randint(1, 4)) for _ in range(n)]
            hi = [a + Fraction(rng.randint(1, 7), rng.randint(1, 3)) for a in lo]
            cell = CellBox(tuple(lo), tuple(hi))
            for k in range(n + 1):
                LocalProjector(k, cell)  # raises RuntimeError when singular


def system_inverse(projector):
    """The Fraction inverse of the projector's system, from its pairing table."""
    cell, trial = projector.cell, projector.trial
    if projector.k == cell.n:
        tests, left = [(trial[0],)], [(phi,) for phi in trial]
    else:
        tests = [(mu, -mu.codifferential()) for mu in projector.tests]
        left = [(phi.exterior_derivative(), phi) for phi in trial]
    return invert(cell.pairing_table(tests, left))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_integer_product_matches_the_fraction_product(n):
    # the inverse applied as integers over one denominator, against the
    # plain Fraction product of the system's inverse with the right-hand side
    rng = random.Random(200 + n)
    for cell in (CellBox.reference(n), stretched_box(n), random_box(n, rng), random_box(n, rng)):
        for k in range(n + 1):
            projector = LocalProjector(k, cell)
            inverse = system_inverse(projector)
            forms = [PolyForm(n, k)] + [random_form(n, k, rng) for _ in range(3)]
            for omega in forms + list(projector.trial):
                ints, den = projector._rhs(omega)
                rhs = [Fraction(v, den) for v in ints]
                expected = [sum((a * b for a, b in zip(row, rhs)), Fraction(0))
                            for row in inverse]
                got = projector.coefficients(omega)
                assert got == expected and all(type(c) is Fraction for c in got)


def test_top_degree_is_mean_projection():
    cell = CellBox((0, 0), (1, 2))
    w = PolyForm.covector(2, (1, 2), Polynomial.variable(2, 1, shift=Fraction(1, 2)))
    assert LocalProjector(2, cell).project(w).is_zero()
    c = PolyForm.covector(2, (1, 2), 5)
    assert LocalProjector(2, cell).project(c) == c


@pytest.mark.parametrize("n,k", [(2, 0), (2, 1), (3, 0), (3, 1), (3, 2), (4, 2)])
def test_commuting_on_tensor_basis(n, k):
    cell = CellBox.reference(n)
    for omega in basis(Q1MINUS, k, cell):
        report = check_commuting(omega, k, cell)
        assert report.passed, report.counterexample


# -- projection over a whole mesh, cell by cell


def project_mesh(omega, k, mesh):
    """Cell-wise projection over a mesh.

    ``omega`` may be a single PolyForm (restricted to every cell) or a list
    with one PolyForm per cell.  Returns the list of per-cell results in
    mesh cell order.
    """
    per_cell = []
    for i, cell in enumerate(mesh.cells):
        local = omega[i] if isinstance(omega, (list, tuple)) else omega
        per_cell.append(LocalProjector(k, cell).project(local))
    return per_cell


def test_project_mesh_polynomial_matches_cells():
    mesh = build_grid([[0, 1], [0, 1]], (2, 2))
    w = PolyForm.from_scalar(Polynomial.variable(2, 1))
    per_cell = project_mesh(w, 0, mesh)
    for cell, got in zip(mesh.cells, per_cell):
        assert got == LocalProjector(0, cell).project(w)
    # piecewise constants are reproduced
    c = PolyForm.covector(2, (1,), 7)
    assert all(f == c for f in project_mesh(c, 1, mesh))


def test_quasi_optimality_ratio_bounded():
    """Projection error within a bounded factor of the best Whitney error.

    Measured in the full broken H-norm on a sample of quadratics; the
    constant is recorded, only finiteness/sanity is asserted.
    """
    worst = 0.0
    rng = random.Random(9)
    for n, k in ((1, 0), (2, 0), (2, 1), (3, 1)):
        cell = CellBox.reference(n)
        projector = LocalProjector(k, cell)
        trial = projector.trial

        def h_inner(a, b):
            return (a.inner_product(b, cell)
                    + a.exterior_derivative().inner_product(b.exterior_derivative(), cell))

        inverse = invert([[h_inner(a, b) for b in trial] for a in trial])
        from boxforms.indices import multi_indices
        for _ in range(4):
            parts = {}
            for alpha in multi_indices(k, n):
                parts[alpha] = Polynomial(
                    n, {tuple(rng.randint(0, 2) for _ in range(n)): rng.randint(-2, 2)
                        for _ in range(3)})
            w = PolyForm(n, k, parts)
            rhs = [h_inner(w, b) for b in trial]
            best_coeff = [sum(g * r for g, r in zip(row, rhs)) for row in inverse]
            best = w
            for c, phi in zip(best_coeff, trial):
                best = best - c * phi
            best_err = float(h_inner(best, best))
            diff = w - projector.project(w)
            proj_err = float(h_inner(diff, diff))
            if best_err == 0:
                assert proj_err == 0
            else:
                worst = max(worst, (proj_err / best_err) ** 0.5)
    assert np.isfinite(worst) and worst < 100.0


def test_verify_builds_projectors_and_inverses_once(monkeypatch):
    # verify --dim 3 --grid 2,2,2 --flavor interior builds 25 projectors on
    # the boxes it checks: 6 in the local-space suite (ap identity, 2 boxes,
    # k = 0..2), 16 in the projection suite (one per k = 0..3 and box, 4
    # boxes; the bubble and the commuting check reuse them) and 3 in the
    # mesh suite (P^(k+1) of the commuting squares on the mesh's one cell
    # shape, k = 0..2).  Each inverts one system (``inverse_integers``); the 4
    # further inverses are the face-DOF Vandermonde inverses of the mesh's
    # shape, one per degree.  The shape's projection patterns are scaled from
    # the reference cell's, whose tables are built once per process: on a
    # first run one projector and one Vandermonde inverse per degree more.
    local.reference.cache_clear()
    counts = {"projectors": 0, "invert": 0}
    real_init = projection.LocalProjector.__init__

    def counting(real):
        def counting_invert(*args, **kwargs):
            counts["invert"] += 1
            return real(*args, **kwargs)
        return counting_invert

    def counting_init(self, *args, **kwargs):
        counts["projectors"] += 1
        real_init(self, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("boxforms") and name != "boxforms.exactla":
            if getattr(module, "inverse_integers", None) is exactla.inverse_integers:
                monkeypatch.setattr(module, "inverse_integers", counting(exactla.inverse_integers))
    monkeypatch.setattr(projection.LocalProjector, "__init__", counting_init)
    argv = ["verify", "--dim", "3", "--grid", "2,2,2", "--flavor", "interior"]
    for expected in ({"projectors": 25 + 4, "invert": 29 + 8}, {"projectors": 25, "invert": 29}):
        counts.update(projectors=0, invert=0)
        with redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
        assert counts == expected
        assert local.reference.cache_info().currsize == 4

