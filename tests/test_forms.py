import random
from fractions import Fraction

import pytest
from test_mesh import faces, integrate, integrate_on_face

from boxforms.forms import (CellBox, PolyForm, Polynomial, adjoint_table, Combination,
                            boundary_bump, format_form, ratio)
from boxforms.indices import complement, hodge_sign, multi_indices, wedge_sign
from boxforms.mesh import build_grid
from boxforms.verify import random_box, stretched_box

T2 = CellBox.reference(2)
T3 = CellBox.reference(3)


def x(n, i):
    return Polynomial.variable(n, i)


def substitute(poly, i, value):
    """Freeze x_i at an exact value (1-based); exponent folds into the coefficient."""
    v = ratio(value)
    out = {}
    for e, c in poly.coeffs.items():
        p = e[i - 1]
        c = c * v ** p if p else c
        if c:
            e = e[: i - 1] + (0,) + e[i:]
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return Polynomial(poly.n, out)


def rand_form(n, k, rng, degree=3):
    parts = {}
    for alpha in multi_indices(k, n):
        coeffs = {tuple(rng.randint(0, 1) for _ in range(n)): Fraction(rng.randint(-3, 3))
                  for _ in range(3)}
        coeffs[tuple(min(degree, rng.randint(0, degree)) if j == 0 else 0
                     for j in range(n))] = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
        parts[alpha] = Polynomial(n, coeffs)
    return PolyForm(n, k, parts)


class TestPolynomial:
    def test_zero_coefficients_dropped(self):
        p = Polynomial(2, {(0, 0): 0, (1, 0): 1})
        assert p.coeffs == {(1, 0): Fraction(1)}

    def test_arithmetic_and_partial(self):
        # the partials of a function are the components of its exterior derivative
        p = x(2, 1) * x(2, 2) + Polynomial.constant(2, 3)
        dp = PolyForm(2, 0, {(): p}).exterior_derivative()
        assert dp.parts == {(1,): x(2, 2), (2,): x(2, 1)}
        assert (p - p).is_zero()

    def test_evaluate_substitute_translate(self):
        p = x(2, 1) * x(2, 1) * x(2, 2)
        assert substitute(substitute(p, 1, 2), 2, 3) == Polynomial.constant(2, 12)
        assert substitute(p, 1, 2) == 4 * x(2, 2)
        q = Combination(2, 0, [PolyForm.from_scalar(p)])([1], [-1, 0]).parts[()]  # x -> x + 1
        assert substitute(q, 1, 1) == substitute(p, 1, 2)

    def test_homogeneous_parts(self):
        p = x(2, 1) * x(2, 2) + x(2, 1) + Polynomial.constant(2, 5)
        assert {sum(e) for e in p.coeffs} == {0, 1, 2}
        assert Polynomial(2, {e: c for e, c in p.coeffs.items() if sum(e) == 2}) == \
            x(2, 1) * x(2, 2)


class TestCellBox:
    def test_validation(self):
        with pytest.raises(ValueError):
            CellBox((0, 0), (1, 0))

    def test_geometry(self):
        box = CellBox((0, 0), (1, 3))
        assert box.center == (Fraction(1, 2), Fraction(3, 2))
        assert box.volume == 3
        assert box.widths == (1, 3)

    def test_integration_monomial(self):
        box = CellBox((0,), (2,))
        assert integrate(box, Polynomial.monomial(1, (3,))) == 4  # 2^4/4


class TestExteriorDerivative:
    def test_spec_values(self):
        assert PolyForm.from_scalar(x(2, 1)).exterior_derivative() == PolyForm.covector(2, (1,))
        got = PolyForm.covector(2, (1,), x(2, 2)).exterior_derivative()
        assert got == PolyForm.covector(2, (1, 2), -1)
        got = PolyForm.covector(2, (1,), x(2, 1) * x(2, 2)).exterior_derivative()
        assert got == PolyForm.covector(2, (1, 2), -x(2, 1))

    def test_top_degree_gives_canonical_zero(self):
        top = PolyForm.covector(2, (1, 2), x(2, 1))
        d_top = top.exterior_derivative()
        assert d_top.k == 3 and d_top.is_zero()

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_d_squared_zero(self, n):
        rng = random.Random(7 + n)
        for k in range(n):
            f = rand_form(n, k, rng)
            assert f.exterior_derivative().exterior_derivative().is_zero()


class TestHodge:
    def test_spec_values(self):
        one = PolyForm.from_scalar(Polynomial.constant(2, 1))
        assert one.hodge() == PolyForm.covector(2, (1, 2))
        got = PolyForm.covector(2, (2,), x(2, 1)).hodge()
        assert got == PolyForm.covector(2, (1,), -x(2, 1))
        vol3 = PolyForm.covector(3, (1, 2, 3))
        assert vol3.hodge() == PolyForm.from_scalar(Polynomial.constant(3, 1))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_double_hodge_sign(self, n):
        rng = random.Random(n)
        for k in range(n + 1):
            f = rand_form(n, k, rng)
            assert f.hodge().hodge() == (-1) ** (k * (n - k)) * f


class TestCodifferential:
    def test_constant_coefficient_dies(self):
        assert PolyForm.covector(2, (1,)).codifferential().is_zero()

    def test_divergence_sign_2d(self):
        # adjoint convention: delta on 1-forms in 2d is minus the divergence
        got = PolyForm.covector(2, (1,), x(2, 1)).codifferential()
        assert got == PolyForm.from_scalar(Polynomial.constant(2, -1))

    def test_volume_form_2d(self):
        got = PolyForm.covector(2, (1, 2), x(2, 1)).codifferential()
        assert got == PolyForm.covector(2, (2,), -1)

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            PolyForm.from_scalar(x(2, 1)).codifferential()

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_delta_squared_zero(self, n):
        rng = random.Random(n * 13)
        for k in range(2, n + 1):
            f = rand_form(n, k, rng)
            assert f.codifferential().codifferential().is_zero()

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_formal_adjoint_of_d(self, n):
        """<d w, m> = <w, delta m> whenever w vanishes on the cell boundary.

        This identity pins the hodge and codifferential sign conventions
        jointly; it must hold exactly for every degree and on skewed boxes.
        """
        rng = random.Random(100 + n)
        for cell in (CellBox.reference(n), CellBox((0,) * n, tuple(range(1, n + 1)))):
            bump = boundary_bump(cell)
            for k in range(n):
                omega = rand_form(n, k, rng, degree=2) * bump
                mu = rand_form(n, k + 1, rng, degree=2)
                lhs = omega.exterior_derivative().inner_product(mu, cell)
                rhs = omega.inner_product(mu.codifferential(), cell)
                assert lhs == rhs
                assert adjoint_table([omega], [mu], cell)[0][0] == 0


class TestKoszul:
    def test_spec_values(self):
        assert PolyForm.covector(2, (1,)).koszul() == PolyForm.from_scalar(x(2, 1))
        got = PolyForm.covector(2, (1, 2)).koszul()
        expected = PolyForm.covector(2, (2,), x(2, 1)) + PolyForm.covector(2, (1,), -x(2, 2))
        assert got == expected
        shifted = PolyForm.covector(1, (1,)).koszul(center=(Fraction(1, 2),))
        assert shifted == PolyForm.from_scalar(Polynomial.variable(1, 1, shift=Fraction(1, 2)))

    def test_zero_form_rejected(self):
        with pytest.raises(ValueError):
            PolyForm.from_scalar(x(2, 1)).koszul()

    def test_koszul_squared_zero(self):
        rng = random.Random(3)
        for n in (2, 3):
            for k in range(2, n + 1):
                f = rand_form(n, k, rng)
                assert f.koszul().koszul().is_zero()

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_homotopy_identity_on_homogeneous(self, n):
        rng = random.Random(5 * n)
        for k in range(n + 1):
            for alpha in multi_indices(k, n):
                e = [0] * n
                for _ in range(rng.randint(0, 3)):
                    e[rng.randrange(n)] += 1
                form = PolyForm.covector(n, alpha, Polynomial.monomial(n, tuple(e)))
                r = sum(e)
                if k == 0:
                    got = form.exterior_derivative().koszul()
                elif k == n:
                    got = form.koszul().exterior_derivative()
                else:
                    got = (form.koszul().exterior_derivative()
                           + form.exterior_derivative().koszul())
                assert got == (r + k) * form


class TestKoszulDelta:
    def test_star_composition_value(self):
        got = PolyForm.from_scalar(Polynomial.constant(2, 1)).koszul_delta()
        expected = PolyForm.covector(2, (1,), -x(2, 1)) + PolyForm.covector(2, (2,), -x(2, 2))
        assert got == expected

    def test_top_degree_rejected(self):
        with pytest.raises(ValueError):
            PolyForm.covector(2, (1, 2)).koszul_delta()

    def test_grading(self):
        # constants map into linear coefficients one degree up
        for n in (2, 3):
            for k in range(n):
                for alpha in multi_indices(k, n):
                    img = PolyForm.covector(n, alpha).koszul_delta()
                    assert img.k == k + 1
                    assert all({sum(e) for e in p.coeffs} == {1}
                               for _, p in img.components())


class TestInnerProduct:
    def test_spec_values(self):
        dx1 = PolyForm.covector(2, (1,))
        w = PolyForm.covector(2, (1,), x(2, 2))
        assert dx1.inner_product(dx1, T2) == 4
        assert w.inner_product(dx1, T2) == 0
        assert w.inner_product(w, T2) == Fraction(4, 3)

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            PolyForm.covector(2, (1,)).inner_product(PolyForm.covector(2, (1, 2)), T2)


class TestTextFormat:
    def test_zero(self):
        assert format_form(PolyForm(2, 1)) == "0"


# -- reference arithmetic ---------------------------------------------------
# Plain per-term Fraction routines, independent of the moment-table kernel:
# products formed term by term, each monomial integrated from its corner
# powers, d one axis at a time, and signs applied by multiplying with +-1.
# Every result goes through the public, checking constructors.


def ref_sum(polys, n):
    out = {}
    for poly in polys:
        for e, c in poly.coeffs.items():
            out[e] = out.get(e, 0) + c
    return Polynomial(n, out)


def ref_product(p, q):
    return ref_sum([Polynomial(p.n, {tuple(a + b for a, b in zip(e1, e2)): c1 * c2})
                    for e1, c1 in p.coeffs.items() for e2, c2 in q.coeffs.items()], p.n)


def ref_scale(poly, s):
    return Polynomial(poly.n, {e: s * c for e, c in poly.coeffs.items()})


def ref_integrate(box, poly):
    total = Fraction(0)
    for e, c in poly.coeffs.items():
        term = c
        for a, b, p in zip(box.lo, box.hi, e):
            term *= (b ** (p + 1) - a ** (p + 1)) / Fraction(p + 1)
        total += term
    return total


def ref_inner_product(w, m, box):
    return sum((ref_integrate(box, ref_product(p, m.parts[a]))
                for a, p in w.parts.items() if a in m.parts), Fraction(0))


def ref_partial(poly, i):
    return Polynomial(poly.n, {e[:i - 1] + (e[i - 1] - 1,) + e[i:]: c * e[i - 1]
                               for e, c in poly.coeffs.items() if e[i - 1]})


def ref_d(form):
    n, out = form.n, {}
    for alpha, poly in form.parts.items():
        for i in range(1, n + 1):
            s, gamma = wedge_sign((i,), alpha)
            if s:
                out[gamma] = ref_sum([out.get(gamma, Polynomial(n)),
                                      ref_scale(ref_partial(poly, i), s)], n)
    return PolyForm(n, form.k + 1, out)


def ref_hodge(form):
    n = form.n
    return PolyForm(n, n - form.k, {complement(a, n): ref_scale(p, hodge_sign(a, n))
                                    for a, p in form.parts.items()})


def ref_codifferential(form):
    sign = (-1) ** (form.n * (form.k + 1) + 1)
    out = ref_hodge(ref_d(ref_hodge(form)))
    return PolyForm(out.n, out.k, {a: ref_scale(p, sign) for a, p in out.parts.items()})


def ref_adjoint_pairing(omega, mu, box):
    return (ref_inner_product(ref_d(omega), mu, box)
            - ref_inner_product(omega, ref_codifferential(mu), box))


def wide_polynomial(n, rng, top, terms=4):
    """Seeded polynomial with per-axis exponents up to ``top``; may be zero or cancel."""
    shape = rng.random()
    if shape < 0.1:
        return Polynomial(n)
    coeffs = {tuple(rng.randint(0, top) for _ in range(n)):
              Fraction(rng.randint(-5, 5), rng.randint(1, 7)) for _ in range(terms)}
    poly = Polynomial(n, coeffs)
    if shape < 0.2:
        return poly - poly  # a sum that cancels
    if shape < 0.35:
        # cancels on some terms only
        other = Polynomial(n, {e: -c for e, c in list(coeffs.items())[:2]})
        return poly + other
    return poly


def wide_form(n, k, rng, top):
    return PolyForm(n, k, {alpha: wide_polynomial(n, rng, top)
                           for alpha in multi_indices(k, n) if rng.random() < 0.8})


def oracle_boxes(n, rng):
    return [CellBox.reference(n), stretched_box(n), random_box(n, rng), random_box(n, rng)]


def ref_table(left, right, pair):
    """Entry by entry: ``pair`` summed over the positions of two form tuples."""
    return [[sum((pair(a, b) for a, b in zip(lt, rt)), Fraction(0)) for rt in right]
            for lt in left]


def assert_same_table(got, expected):
    assert [len(row) for row in got] == [len(row) for row in expected]
    for got_row, expected_row in zip(got, expected):
        for value, want in zip(got_row, expected_row):
            assert type(value) is Fraction and value == want


def table_entries(n, degrees, rng, top, count):
    """``count`` form tuples of the given degrees, a zero tuple, and two tuples
    of one-component forms, on the first and on the last index of each
    degree, so that entries of two such lists may share no component."""
    entries = [tuple(wide_form(n, k, rng, top) for k in degrees) for _ in range(count)]
    entries.append(tuple(PolyForm(n, k) for k in degrees))
    for pick in (0, -1):
        entries.append(tuple(PolyForm(n, k, {multi_indices(k, n)[pick]: wide_polynomial(n, rng, top)})
                             for k in degrees))
    return entries


def assert_fraction_coefficients(form):
    assert all(type(c) is Fraction for p in form.parts.values() for c in p.coeffs.values())


class TestKernelAgainstReference:
    # exponents: up to 3 as in verify, then up to 9 per axis on the same
    # boxes, so that products reach 18 and the cached moment tables regrow

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_integrals(self, n):
        rng = random.Random(40 + n)
        rng_tables = random.Random(140 + n)
        boxes = oracle_boxes(n, rng)
        for top in (3, 9):
            for box in boxes:
                for _ in range(6):
                    p, q = wide_polynomial(n, rng, top), wide_polynomial(n, rng, top)
                    got = integrate(box, p)
                    assert type(got) is Fraction and got == ref_integrate(box, p)
                    k = rng.randint(0, n)
                    w, m = wide_form(n, k, rng, top), wide_form(n, k, rng, top)
                    got = w.inner_product(m, box)
                    assert type(got) is Fraction and got == ref_inner_product(w, m, box)
                    got = PolyForm.from_scalar(p).inner_product(PolyForm.from_scalar(q), box)
                    assert got == ref_integrate(box, ref_product(p, q))
                # whole tables of tuple entries: two positions of independent degrees
                degrees = (rng_tables.randint(0, n), rng_tables.randint(0, n))
                left = table_entries(n, degrees, rng_tables, top, 3)
                right = table_entries(n, degrees, rng_tables, top, 2)
                assert_same_table(box.pairing_table(left, right),
                                  ref_table(left, right, lambda a, b: ref_inner_product(a, b, box)))
                assert box.pairing_table([], right) == []
                assert box.pairing_table(left[:1], []) == [[]]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_operators(self, n):
        rng = random.Random(50 + n)
        for top in (3, 9):
            for k in range(n + 1):
                for _ in range(4):
                    w = wide_form(n, k, rng, top)
                    got = w.exterior_derivative()
                    assert got == ref_d(w)
                    assert_fraction_coefficients(got)
                    if k < n:
                        assert got.exterior_derivative() == ref_d(ref_d(w))
                    got = w.hodge()
                    assert got == ref_hodge(w)
                    assert_fraction_coefficients(got)
                    if k:
                        got = w.codifferential()
                        assert got == ref_codifferential(w)
                        assert_fraction_coefficients(got)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_adjoint_pairing(self, n):
        rng = random.Random(60 + n)
        rng_tables = random.Random(160 + n)
        for box in oracle_boxes(n, rng):
            for top in (2, 6):
                for k in range(n):
                    omega, mu = wide_form(n, k, rng, top), wide_form(n, k + 1, rng, top)
                    got = adjoint_table([omega], [mu], box)[0][0]
                    assert type(got) is Fraction and got == ref_adjoint_pairing(omega, mu, box)
                    forms = [f for (f,) in table_entries(n, (k,), rng_tables, top, 3)]
                    tests = [f for (f,) in table_entries(n, (k + 1,), rng_tables, top, 2)]
                    assert_same_table(adjoint_table(forms, tests, box), ref_table(
                        [(f,) for f in forms], [(m,) for m in tests],
                        lambda a, b: ref_adjoint_pairing(a, b, box)))
                    with pytest.raises(ValueError):
                        adjoint_table(forms, [omega], box)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_face_integrals(self, n):
        # the trace integral over every face of a mesh: freeze the normal
        # coordinates by substitution, then integrate monomial by monomial
        rng = random.Random(70 + n)
        box = random_box(n, rng)
        mesh = build_grid(list(zip(box.lo, box.hi)), (2,) * n)
        for d in range(n + 1):
            for face in faces(mesh, d):
                poly = wide_polynomial(n, rng, 5)
                frozen = poly
                for i in range(n):
                    if i + 1 not in face.axes:
                        frozen = substitute(frozen, i + 1, mesh.grid[i][face.pos[i]])
                face_box = CellBox(
                    tuple(mesh.grid[i][face.pos[i]] if i + 1 in face.axes else 0 for i in range(n)),
                    tuple(mesh.grid[i][face.pos[i] + 1] if i + 1 in face.axes else 1
                          for i in range(n)))
                got = integrate_on_face(mesh, face, poly)
                assert type(got) is Fraction and got == ref_integrate(face_box, frozen)
        # whole tables on the box with the normal axes of a few faces of each
        # dimension frozen at the face's plane; the reference substitutes,
        # then integrates
        for face in [face for d in range(n) for face in faces(mesh, d)[:3]]:
            values = {i: mesh.grid[i][face.pos[i]] for i in range(n) if i + 1 not in face.axes}
            face_box = CellBox(tuple(0 if i in values else a for i, a in enumerate(box.lo)),
                               tuple(1 if i in values else b for i, b in enumerate(box.hi)))

            def traced(form):
                out = {}
                for alpha, poly in form.parts.items():
                    for i, value in values.items():
                        poly = substitute(poly, i + 1, value)
                    out[alpha] = poly
                return PolyForm(n, form.k, out)

            degrees = (rng.randint(0, n), rng.randint(0, n))
            left = table_entries(n, degrees, rng, 4, 2)
            right = table_entries(n, degrees, rng, 4, 2)
            assert_same_table(box.pairing_table(left, right, values), ref_table(
                left, right, lambda a, b: ref_inner_product(traced(a), traced(b), face_box)))


def ref_koszul(form, center=None):
    """Term by term through the public constructors, summed one term at a time."""
    n = form.n
    center = center or (0,) * n
    out = PolyForm(n, form.k - 1)
    for alpha, poly in form.parts.items():
        for j, axis in enumerate(alpha):
            xj = Polynomial.variable(n, axis, shift=center[axis - 1])
            rest = alpha[:j] + alpha[j + 1:]
            out = out + PolyForm(n, form.k - 1, {rest: (-1) ** j * ref_product(xj, poly)})
    return out


def assert_same_order(got, expected):
    """Equal, with components and coefficients stored in the same order, so
    that float evaluation sums in the same order too."""
    assert got == expected
    assert list(got.parts) == list(expected.parts)
    assert all(list(p.coeffs) == list(expected.parts[a].coeffs) for a, p in got.parts.items())


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_koszul_and_wedge_match_the_term_by_term_sums(n):
    rng = random.Random(100 + n)
    centers = [None, (0,) * n, random_box(n, rng).center, random_box(n, rng).center]
    for top in (2, 5):
        for k in range(n + 1):
            for _ in range(4):
                w = wide_form(n, k, rng, top)
                if k:
                    for center in centers:
                        got = w.koszul(center)
                        assert_clean(got)
                        assert_same_order(got, ref_koszul(w, center))


def test_koszul_term_sums_that_cancel():
    n = 2
    w = PolyForm(n, 2, {(1, 2): Polynomial(n, {(1, 0): 1, (0, 1): -2})})
    for center in (None, (1, Fraction(1, 2)), (Fraction(-3, 4), 2)):
        assert_same_order(w.koszul(center), ref_koszul(w, center))


def linear_combination(n, k, coeffs, forms, shift=None):
    return Combination(n, k, forms)(coeffs, shift)


def ref_combination(n, k, coeffs, forms):
    return sum((c * f for c, f in zip(coeffs, forms)), PolyForm(n, k))


def ref_moved(form, shift):
    """form(x - shift), expanded with Polynomial products of the factors x_i - shift_i."""
    parts = {}
    for alpha, poly in form.parts.items():
        out = Polynomial(form.n)
        for e, c in poly.coeffs.items():
            term = Polynomial.constant(form.n, c)
            for i, p in enumerate(e, start=1):
                for _ in range(p):
                    term = term * Polynomial.variable(form.n, i, shift=shift[i - 1])
            out = out + term
        parts[alpha] = out
    return PolyForm(form.n, form.k, parts)


def random_coefficient(rng):
    return rng.choice([0, 1, -2, Fraction(rng.randint(-9, 9), rng.randint(1, 9))])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_linear_combination_matches_the_term_by_term_sum(n):
    rng = random.Random(700 + n)
    for k in range(n + 1):
        for size in range(6):
            forms = [wide_form(n, k, rng, 3) for _ in range(size)]
            coeffs = [random_coefficient(rng) for _ in forms]
            expected = ref_combination(n, k, coeffs, forms)
            got = linear_combination(n, k, coeffs, forms)
            assert_clean(got)
            assert got == expected
            shift = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n)]
            moved = linear_combination(n, k, coeffs, forms, shift)
            assert_clean(moved)
            assert moved == ref_moved(expected, shift)
            assert moved == ref_combination(n, k, coeffs, [ref_moved(f, shift) for f in forms])
    assert linear_combination(n, 1, [], []) == PolyForm(n, 1)
    assert linear_combination(n, 0, [0, 0], [wide_form(n, 0, rng, 2)] * 2).is_zero()


def test_linear_combination_drops_what_cancels():
    n = 3
    f = PolyForm(n, 1, {(1,): x(n, 2) + Polynomial.constant(n, Fraction(1, 3)),
                        (2,): x(n, 1) * x(n, 3), (3,): Polynomial.constant(n, 5)})
    g = f - PolyForm(n, 1, {(2,): x(n, 1) * x(n, 3)}) + PolyForm(n, 1, {(1,): x(n, 3)})
    coeffs = [Fraction(2, 7), Fraction(-2, 7)]
    for shift in (None, (1, Fraction(-1, 2), Fraction(3, 5))):
        got = linear_combination(n, 1, coeffs, [f, g], shift)
        assert_clean(got)
        # dx3 cancels, dx1 keeps only x3, dx2 only x1 x3
        assert set(got.parts) == {(1,), (2,)}
        expected = ref_combination(n, 1, coeffs, [f, g])
        assert got == (expected if shift is None else ref_moved(expected, shift))
    assert linear_combination(n, 1, [1, -1], [f, f], (1, 2, 3)).is_zero()


def test_a_combination_is_reused_across_calls_and_shifts():
    # one prepared list serves many coefficient vectors and shifts, as it does
    # for the reference cell's basis moved to every cell of a mesh
    rng = random.Random(77)
    n, k = 3, 1
    forms = [wide_form(n, k, rng, 2) for _ in range(4)]
    combination = Combination(n, k, forms)
    for _ in range(6):
        coeffs = [random_coefficient(rng) for _ in forms]
        shift = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n)]
        expected = ref_combination(n, k, coeffs, forms)
        assert combination(coeffs) == expected
        assert combination(coeffs, shift) == ref_moved(expected, shift)


def test_box_geometry_is_computed_once():
    box = CellBox((0, Fraction(1, 3)), (2, 1))
    assert box.widths == (2, Fraction(2, 3)) and box.widths is box.widths
    assert box.center == (1, Fraction(2, 3)) and box.center is box.center
    assert box.volume == Fraction(4, 3) and box.volume is box.volume
    fresh = CellBox((0, Fraction(1, 3)), (2, 1))
    assert fresh == box and hash(fresh) == hash(box)
    assert fresh != CellBox((0, 0), (2, 1))


def assert_clean(value):
    """Nonzero Fraction coefficients only, and equal (with equal hash) to the
    same data passed through the public constructor."""
    if isinstance(value, PolyForm):
        for alpha, poly in value.parts.items():
            assert isinstance(poly, Polynomial) and poly and poly.n == value.n
            assert_clean(poly)
        rebuilt = PolyForm(value.n, value.k, dict(value.parts))
    else:
        for e, c in value.coeffs.items():
            assert type(c) is Fraction and c != 0
            assert len(e) == value.n and all(type(p) is int and p >= 0 for p in e)
        rebuilt = Polynomial(value.n, dict(value.coeffs))
    assert rebuilt == value and hash(rebuilt) == hash(value)


class TestResultsStayClean:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_polynomial_results(self, n):
        rng = random.Random(80 + n)
        for _ in range(40):
            p, q = wide_polynomial(n, rng, 3), wide_polynomial(n, rng, 3)
            # (p + q) * (p - q): the cross terms cancel inside the product
            results = [p + q, p - q, p - p, p + (-p), -p, p * q, (p + q) * (p - q),
                       p * Polynomial(n),
                       p * 0, 0 * p, p * Fraction(0), p * 1, p * -1, p * Fraction(-2, 3),
                       p * "3/4", 5 * p]
            results += PolyForm(n, 0, {(): p}).exterior_derivative().parts.values()
            for result in results:
                assert_clean(result)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_form_results(self, n):
        rng = random.Random(90 + n)
        for _ in range(12):
            k = rng.randint(0, n)
            w, m = wide_form(n, k, rng, 3), wide_form(n, k, rng, 3)
            poly = wide_polynomial(n, rng, 2)
            results = [w + m, w - m, w - w, -w, w * poly, poly * w, w * Polynomial(n),
                       w * 0, 0 * w, w * 1, w * Fraction(-1), w * "2/5",
                       w.exterior_derivative(), w.hodge()]
            if k < n:
                # d d w = 0: every coefficient of the second d cancels
                results.append(w.exterior_derivative().exterior_derivative())
            if k:
                results.append(w.codifferential())
            for result in results:
                assert_clean(result)

    def test_public_constructors_still_check(self):
        with pytest.raises(ValueError):
            Polynomial(2, {(1,): 1})
        with pytest.raises(ValueError):
            Polynomial(2, {(1, -1): 1})
        with pytest.raises(ValueError):
            PolyForm(2, 1, {(3,): 1})
        with pytest.raises(ValueError):
            PolyForm(3, 2, {(2, 1): 1})
        with pytest.raises(ValueError):
            Polynomial(2, {(1, 0): 1}) + Polynomial(3, {(1, 0, 0): 1})



# -- the canonical form: integers over one denominator, in lowest terms -----
# Each polynomial is stored as {exponents: int} over one positive den with no
# common factor, so equal values built by different routes are equal and
# hash equally.


def assert_same_value(got, expected):
    assert got == expected and hash(got) == hash(expected)


class TestLowestTerms:
    def test_equal_fractions_give_one_polynomial(self):
        half = Polynomial(2, {(1, 0): Fraction(1, 2)})
        for c in (Fraction(2, 4), "2/4", "1/2", Fraction(-3, -6)):
            assert_same_value(Polynomial(2, {(1, 0): c}), half)
        assert half.terms == {(1, 0): 1} and half.den == 2
        assert Polynomial(2, {(0, 0): 4, (1, 0): 0}).den == 1

    def test_a_product_sharing_a_factor_with_its_denominator(self):
        # (2/3 x1) (3/4 x2): integers 2 * 3 over 3 * 4, a common factor 6
        p = Polynomial(2, {(1, 0): Fraction(2, 3)}) * Polynomial(2, {(0, 1): Fraction(3, 4)})
        assert_same_value(p, Polynomial(2, {(1, 1): Fraction(1, 2)}))
        assert (p.terms, p.den) == ({(1, 1): 1}, 2)
        q = Polynomial(2, {(1, 0): Fraction(5, 6), (0, 0): Fraction(1, 6)}) * 6
        assert_same_value(q, Polynomial(2, {(1, 0): 5, (0, 0): 1}))
        assert q.den == 1
        assert_same_value(Polynomial(2, {(1, 0): Fraction(4, 9)}) * Fraction(3, 2),
                          Polynomial(2, {(1, 0): Fraction(2, 3)}))

    def test_a_sum_whose_survivors_share_a_factor_with_the_denominator(self):
        # x/2 + y/6 and x/2 - y/6 over 6: the survivor 6x has content 6
        a = Polynomial(2, {(1, 0): Fraction(1, 2), (0, 1): Fraction(1, 6)})
        b = Polynomial(2, {(1, 0): Fraction(1, 2), (0, 1): Fraction(-1, 6)})
        assert_same_value(a + b, x(2, 1))
        assert (a + b).den == 1
        assert_same_value(a - b, Polynomial(2, {(0, 1): Fraction(1, 3)}))
        assert_same_value(a - a, Polynomial(2))
        assert (a - a).terms == {} and (a - a).den == 1

    def test_combinations_and_koszul_about_a_rational_center(self):
        n = 2
        f = PolyForm(n, 1, {(1,): Polynomial(n, {(1, 0): Fraction(1, 3), (0, 0): 1}),
                            (2,): Polynomial(n, {(0, 1): Fraction(2, 3)})})
        g = PolyForm(n, 1, {(1,): Polynomial(n, {(1, 0): Fraction(2, 3), (0, 0): -1}),
                            (2,): Polynomial(n, {(0, 1): Fraction(1, 3)})})
        # (f + g) / 2 = x1/2 dx1 + x2/2 dx2; 3 (f - g) / 2 = (3 - x1/2) dx1 + x2/2 dx2
        got = linear_combination(n, 1, [Fraction(1, 2), Fraction(1, 2)], [f, g])
        assert_same_value(got, PolyForm(n, 1, {(1,): Polynomial(n, {(1, 0): "1/2"}),
                                               (2,): Polynomial(n, {(0, 1): "1/2"})}))
        got = Combination(n, 1, [f, g])([3, -3], den=2)
        assert_same_value(got, PolyForm(n, 1, {(1,): Polynomial(n, {(1, 0): "-1/2", (0, 0): 3}),
                                               (2,): Polynomial(n, {(0, 1): "1/2"})}))
        moved = Combination(n, 1, [f])([6], (Fraction(3, 2), 0))  # 6 f(x - (3/2, 0))
        assert_same_value(moved, PolyForm(n, 1, {(1,): Polynomial(n, {(1, 0): 2, (0, 0): 3}),
                                                 (2,): Polynomial(n, {(0, 1): 4})}))
        # kappa(2 dx1) about (1/2, 0) is 2 (x1 - 1/2) = 2 x1 - 1, over 1
        got = PolyForm.covector(n, (1,), 2).koszul((Fraction(1, 2), 0))
        assert_same_value(got, PolyForm.from_scalar(Polynomial(n, {(1, 0): 2, (0, 0): -1})))
        assert got.parts[()].den == 1
        # kappa(dx1 ^ dx2 / 4) about (1/2, 1/3): ((x1 - 1/2) dx2 - (x2 - 1/3) dx1) / 4
        got = PolyForm.covector(n, (1, 2), Fraction(1, 4)).koszul((Fraction(1, 2), Fraction(1, 3)))
        assert_same_value(got, PolyForm(n, 1, {
            (1,): Polynomial(n, {(0, 1): "-1/4", (0, 0): "1/12"}),
            (2,): Polynomial(n, {(1, 0): "1/4", (0, 0): "-1/8"})}))


def shared_factor_form(n, k, rng, top):
    """Seeded form whose coefficients have non-unit denominators that share factors
    with each other and with the numerators, so that sums and products cancel them."""
    parts = {}
    for alpha in multi_indices(k, n):
        if rng.random() < 0.8:
            parts[alpha] = Polynomial(n, {
                tuple(rng.randint(0, top) for _ in range(n)):
                    Fraction(rng.choice([1, 2, 3, 4, 6]) * rng.randint(-4, 4), rng.choice([2, 3, 4, 6, 12]))
                for _ in range(4)})
    return PolyForm(n, k, parts)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_non_unit_denominators_match_the_fraction_references(n):
    rng = random.Random(300 + n)
    box = random_box(n, rng)
    centers = [None, box.center, random_box(n, rng).center]
    seen = set()
    for k in range(n + 1):
        for _ in range(3):
            w = shared_factor_form(n, k, rng, 3)
            seen |= {p.den for p in w.parts.values()}
            for got, expected in [(w.exterior_derivative(), ref_d(w)), (w.hodge(), ref_hodge(w))]:
                assert_clean(got)
                assert_same_value(got, expected)
            if k:
                got = w.codifferential()
                assert_clean(got)
                assert_same_value(got, ref_codifferential(w))
                for center in centers:
                    got = w.koszul(center)
                    assert_clean(got)
                    assert_same_order(got, ref_koszul(w, center))
                    assert hash(got) == hash(ref_koszul(w, center))
            m = shared_factor_form(n, k, rng, 3)
            for p, q in zip(w.parts.values(), m.parts.values()):
                for got, expected in [(p * q, ref_product(p, q)), (p + q, ref_sum([p, q], n)),
                                      (p * Fraction(6, 4), ref_scale(p, Fraction(3, 2)))]:
                    assert_clean(got)
                    assert_same_value(got, expected)
            got = w.inner_product(m, box)
            assert type(got) is Fraction and got == ref_inner_product(w, m, box)
            if k < n:
                mu = shared_factor_form(n, k + 1, rng, 3)
                got = adjoint_table([w], [mu], box)[0][0]
                assert got == ref_adjoint_pairing(w, mu, box)
    assert seen - {1}  # the draws did reach non-unit denominators
