"""Structural verification suites: every identity the package rests on.

Each suite returns a list of CheckReport values; everything here is exact
(rational arithmetic, zero tolerance).  The CLI front end aggregates the
reports; the test-suite runs the same functions.
"""

import random
import time
from fractions import Fraction
from functools import cache
from math import prod

import numpy as np

from .forms import CellBox, PolyForm, Polynomial, adjoint_table, boundary_bump
from .global_spaces import check_conforming_complex, check_unisolvence
from .indices import multi_indices
from .mesh import build_grid, face_dofs
from .projection import LocalProjector, commuting_gap
from .reports import CheckReport
from .spaces import (P0, P1MINUS, P1MINUS_STAR, Q1MINUS, Q1MINUS_STAR, basis,
                     check_Q_exactness, check_ap_identity, check_local_couple,
                     check_orthogonality, form_spans_equal)
from .whitney import (FLAVORS, build_constraints, check_commuting_squares,
                      check_crossing_equivalence, check_whitney_complex,
                      interpolated_generating_set)


def stretched_box(n):
    """[0,1] x [0,2] x ... x [0,n]: anisotropic companion to the reference box."""
    return CellBox((0,) * n, tuple(range(1, n + 1)))


def random_polynomial(n, rng, degree=3, terms=4):
    coeffs = {}
    for _ in range(terms):
        e = tuple(rng.randint(0, degree) for _ in range(n))
        if sum(e) > degree:
            e = tuple(min(v, 1) for v in e)
        coeffs[e] = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
    return Polynomial(n, coeffs)


def random_form(n, k, rng, degree=3):
    parts = {}
    for alpha in multi_indices(k, n):
        if rng.random() < 0.7:
            parts[alpha] = random_polynomial(n, rng, degree)
    return PolyForm(n, k, parts)


def random_box(n, rng):
    lo = [Fraction(rng.randint(-4, 2), rng.randint(1, 3)) for _ in range(n)]
    hi = [a + Fraction(rng.randint(1, 5), rng.randint(1, 3)) for a in lo]
    return CellBox(tuple(lo), tuple(hi))


# ---------------------------------------------------------------------------
# operator laws


def operator_law_suite(n, seed=0, samples=4):
    rng = random.Random(seed)
    reports = []

    ok, witness = True, None
    for k in range(n):
        for _ in range(samples):
            f = random_form(n, k, rng)
            if not f.exterior_derivative().exterior_derivative().is_zero():
                ok, witness = False, f"k={k}: {f}"
    reports.append(CheckReport("d_squared_zero", n, None, ok, counterexample=witness))

    ok, witness = True, None
    for k in range(n + 1):
        sign = (-1) ** (k * (n - k))
        for _ in range(samples):
            f = random_form(n, k, rng)
            if f.hodge().hodge() != sign * f:
                ok, witness = False, f"k={k}: {f}"
    reports.append(CheckReport("double_hodge_sign", n, None, ok, counterexample=witness))

    ok, witness = True, None
    for k in range(2, n + 1):
        for _ in range(samples):
            f = random_form(n, k, rng)
            if not f.codifferential().codifferential().is_zero():
                ok, witness = False, f"k={k}: {f}"
    reports.append(CheckReport("delta_squared_zero", n, None, ok, counterexample=witness))

    ok, witness = True, None
    for cell in (CellBox.reference(n), stretched_box(n)):
        bump = boundary_bump(cell)
        for k in range(n):
            for _ in range(samples):
                omega = random_form(n, k, rng, degree=2) * bump
                mu = random_form(n, k + 1, rng, degree=2)
                # <d omega, mu> - <omega, delta mu>, zero as the bump vanishes on the boundary
                if adjoint_table([omega], [mu], cell)[0][0]:
                    ok, witness = False, f"k={k} cell={cell.lo}..{cell.hi}"
    reports.append(CheckReport("integration_by_parts", n, None, ok, counterexample=witness))

    ok, witness = True, None
    for k in range(n + 1):
        for alpha in multi_indices(k, n):
            for r in range(4):
                e = [0] * n
                for _ in range(r):
                    e[rng.randrange(n)] += 1
                form = PolyForm.covector(n, alpha, Polynomial.monomial(n, tuple(e)))
                if k == 0:
                    lhs = form.exterior_derivative().koszul()
                elif k == n:
                    lhs = form.koszul().exterior_derivative()
                else:
                    lhs = (form.koszul().exterior_derivative()
                           + form.exterior_derivative().koszul())
                if lhs != (r + k) * form:
                    ok, witness = False, f"x^{e} dx{alpha}"
    reports.append(CheckReport("homotopy_identity", n, None, ok, counterexample=witness))

    ok, witness = True, None
    for k in range(n + 1):
        for alpha in multi_indices(k, n):
            for m in range(3):
                e = [0] * n
                for _ in range(m):
                    e[rng.randrange(n)] += 1
                form = PolyForm.covector(n, alpha, Polynomial.monomial(n, tuple(e)))
                images = {}
                if k >= 1:
                    images["koszul"] = (form.koszul(), m + 1, k - 1)
                    images["delta"] = (form.codifferential(), m - 1, k - 1)
                if k <= n - 1:
                    images["d"] = (form.exterior_derivative(), m - 1, k + 1)
                    images["koszul_delta"] = (form.koszul_delta(), m + 1, k + 1)
                for name, (img, deg, kk) in images.items():
                    if img.is_zero():
                        continue
                    if img.k != kk or any({sum(powers) for powers in p.terms} != {deg}
                                          for _, p in img.components()):
                        ok, witness = False, f"{name} of x^{e} dx{alpha}"
    reports.append(CheckReport("operator_grading", n, None, ok, counterexample=witness))
    return reports


# ---------------------------------------------------------------------------
# local space structure


def local_space_suite(n, ks=None):
    reports = []
    cells = (CellBox.reference(n), stretched_box(n))
    ks = range(n + 1) if ks is None else ks
    for cell in cells:
        for k in ks:
            for kind in (P0, P1MINUS, P1MINUS_STAR, Q1MINUS, Q1MINUS_STAR):
                basis(kind, k, cell)  # dimension formula asserted inside
            reports.append(check_orthogonality(n, k, cell))
            if k >= 1:
                reports.append(check_Q_exactness(k, n, cell))
            if k <= n - 1:
                reports.append(check_local_couple(k, n, cell))
                reports.append(check_ap_identity(k, n, cell))
            star_span = [f.hodge() for f in basis(Q1MINUS, n - k, cell)]
            reports.append(CheckReport(
                "star_span_identity", n, k,
                form_spans_equal(star_span, list(basis(Q1MINUS_STAR, k, cell)))))
        # edge cases of the Whitney family
        full_p1 = [PolyForm.from_scalar(Polynomial.constant(n, 1))] + [
            PolyForm.from_scalar(Polynomial.variable(n, i)) for i in range(1, n + 1)]
        reports.append(CheckReport(
            "whitney_degree0_is_p1", n, 0,
            form_spans_equal(list(basis(P1MINUS, 0, cell)), full_p1)))
        reports.append(CheckReport(
            "whitney_top_is_p0", n, n,
            form_spans_equal(list(basis(P1MINUS, n, cell)), list(basis(P0, n, cell)))))
    return reports


# ---------------------------------------------------------------------------
# projection


def projection_suite(n, seed=0, ks=None):
    rng = random.Random(seed)
    reports = []
    projector = cache(LocalProjector)  # one per (k, box) for this call
    boxes = [CellBox.reference(n), stretched_box(n)] + [random_box(n, rng) for _ in range(2)]
    ks = range(n + 1) if ks is None else ks
    for k in ks:
        ok, witness = True, None
        for cell in boxes:
            try:
                proj = projector(k, cell)
            except RuntimeError:
                ok, witness = False, f"singular system on {cell.lo}..{cell.hi}"
                continue
            for phi in proj.trial:
                if proj.project(phi) != phi:
                    ok, witness = False, f"not identity on Whitney basis, k={k}"
            for _ in range(2):
                omega = random_form(n, k, rng, degree=2)
                once = proj.project(omega)
                if proj.project(once) != once:
                    ok, witness = False, f"not idempotent on {omega}"
        reports.append(CheckReport("projection_wellposed_idempotent", n, k, ok,
                                   counterexample=witness))
    if 0 in ks and n >= 2:
        cross = PolyForm.from_scalar(Polynomial.variable(n, 1) * Polynomial.variable(n, 2))
        reports.append(CheckReport("projection_kills_bilinear_bubble", n, 0,
                                   projector(0, boxes[0]).project(cross).is_zero()))
    for k in sorted(set(ks) & set(range(n))):
        ok = True
        for cell in (CellBox.reference(n), stretched_box(n)):
            pair = projector(k, cell), projector(k + 1, cell)
            for omega in basis(Q1MINUS, k, cell):
                if commuting_gap(omega, *pair) is not None:
                    ok = False
        reports.append(CheckReport("projection_commutes_with_d", n, k, ok))
    return reports


# ---------------------------------------------------------------------------
# mesh-level structure


def mesh_suite(n, divisions, flavors=FLAVORS):
    mesh = build_grid([[0, 1]] * n, divisions)
    reports = []

    ok = True
    for d in range(n + 1):
        expected = sum(
            prod(mesh.divisions[i - 1] for i in axes)
            * prod(mesh.divisions[i] + 1 for i in range(n) if (i + 1) not in axes)
            for axes in multi_indices(d, n))
        if face_dofs(d, mesh).n_dofs != expected:
            ok = False
    # two cells on each interior facet, one on each boundary facet
    incidence = np.bincount(face_dofs(n - 1, mesh).array.ravel())
    interior = face_dofs(n - 1, mesh, interior=True).keep
    ok = ok and np.array_equal(incidence, np.where(interior, 2, 1))
    reports.append(CheckReport("face_lattice_counts", n, None, ok,
                               details={"cells": mesh.n_cells}))

    for k in range(n + 1):
        reports.append(check_unisolvence(mesh, k))
    reports.append(check_conforming_complex(mesh, with_boundary_conditions=False))
    reports.append(check_conforming_complex(mesh, with_boundary_conditions=True))

    for flavor in flavors:
        reports.append(check_whitney_complex(mesh, flavor))
        reports.append(check_commuting_squares(mesh, flavor))
        for k in range(n + 1):
            constraints = build_constraints(k, mesh, flavor)
            generators = interpolated_generating_set(k, mesh, flavor)
            bad = next((i for i, row in enumerate(generators.integer_rows())
                        if any(constraints.residual(row))), None)
            reports.append(CheckReport(
                "projected_conforming_in_space", n, k, bad is None,
                counterexample=None if bad is None else f"generator {bad} ({flavor})",
                details={"flavor": flavor, "generators": generators.dim,
                         "rows": constraints.n_rows}))
            if flavor == "interior-test":
                ok, witness = True, None
                for sigma in multi_indices(k, n):
                    vec = constraints.pw.constant_form_vector(sigma)
                    if any(constraints.residual(vec)):
                        ok, witness = False, f"dx{sigma}"
                reports.append(CheckReport("constants_in_space", n, k, ok,
                                           counterexample=witness))
    if n == 2:
        reports.append(check_crossing_equivalence(mesh))
    return reports


def run_verify(n, ks=None, divisions=None, seed=0, flavors=FLAVORS, timings=None):
    """The whole exact suite for one ambient dimension; each suite's wall seconds go
    into the dict ``timings``, if given, by suite name."""
    def timed(suite, *args, **kwargs):
        start = time.perf_counter()
        out = suite(*args, **kwargs)
        if timings is not None:
            timings[suite.__name__] = time.perf_counter() - start
        return out

    reports = []
    reports += timed(operator_law_suite, n, seed=seed)
    reports += timed(local_space_suite, n, ks)
    reports += timed(projection_suite, n, seed=seed, ks=ks)
    if divisions:
        reports += timed(mesh_suite, n, divisions, flavors)
    return reports
