import io
import random
from contextlib import redirect_stdout
from fractions import Fraction
from itertools import combinations, product
from math import comb

import pytest
from test_exactla import reference_nullspace, reference_rref
from test_mesh import integrate

from boxforms import cli, spaces
from boxforms.exactla import independent_subset, solve_consistent
from boxforms.forms import CellBox, PolyForm, Polynomial, adjoint_table, format_form
from boxforms.indices import complement, multi_indices
from boxforms.spaces import (KINDS, P0, P1MINUS, P1MINUS_STAR, Q1MINUS, Q1MINUS_STAR,
                             basis, check_Q_exactness, check_ap_identity,
                             check_local_couple, check_orthogonality,
                             dimension, form_rows, form_span_rank, form_spans_equal)
from boxforms.projection import LocalProjector
from boxforms.reports import CheckReport
from boxforms.verify import random_box, stretched_box

T2 = CellBox.reference(2)
STRETCH2 = CellBox((0, 0), (1, 3))
CELLS = {
    1: [CellBox.reference(1), CellBox((0,), (1,))],
    2: [T2, STRETCH2],
    3: [CellBox.reference(3), CellBox((0, 0, 0), (1, 2, 3))],
    4: [CellBox.reference(4)],
}


def test_dimension_formulas():
    for n in (1, 2, 3, 4):
        for k in range(n + 1):
            assert dimension(P0, k, n) == comb(n, k)
            assert dimension(P1MINUS, k, n) == comb(n + 1, k + 1)
            assert dimension(Q1MINUS, k, n) == comb(n, k) * 2 ** (n - k)
            assert dimension(Q1MINUS_STAR, k, n) == comb(n, k) * 2 ** k
            assert dimension(P1MINUS_STAR, k, n) == dimension(P1MINUS, n - k, n)


def test_bad_kind_and_degree():
    with pytest.raises(ValueError):
        dimension("nope", 0, 2)
    with pytest.raises(ValueError):
        basis(Q1MINUS, 3, T2)


def test_reference_bases_match_spec_listing():
    q = basis(Q1MINUS, 1, T2)
    assert [format_form(f) for f in q] == [
        "(1) * dx[1]", "(x2) * dx[1]", "(1) * dx[2]", "(x1) * dx[2]"]
    qs = basis(Q1MINUS_STAR, 1, T2)
    assert [format_form(f) for f in qs] == [
        "(1) * dx[1]", "(x1) * dx[1]", "(1) * dx[2]", "(x2) * dx[2]"]
    p = basis(P1MINUS, 0, T2)
    assert [format_form(f) for f in p] == ["(1) * dx[]", "(x1) * dx[]", "(x2) * dx[]"]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_bases_independent_and_centered(n):
    for cell in CELLS[n]:
        center = cell.center
        for k in range(n + 1):
            for kind in (P0, P1MINUS, P1MINUS_STAR, Q1MINUS, Q1MINUS_STAR):
                sb = basis(kind, k, cell)
                assert form_span_rank(list(sb)) == len(sb) == dimension(kind, k, n)
            # centered coordinates: every non-constant tensor monomial integrates to zero
            for (sigma, tau), form in zip(basis(Q1MINUS, k, cell).labels,
                                          basis(Q1MINUS, k, cell).elements):
                if tau:
                    assert integrate(cell, form.parts[sigma]) == 0


# -- the families moved from the origin, against building them on each box


def per_box_basis(kind, k, cell):
    """(elements, labels) of a family built at the cell's center: products of
    shifted variables, Koszul lifts about the center, and the P1minus
    independence elimination on every box."""
    n, center = cell.n, cell.center

    def centered_monomial(tau):
        poly = Polynomial.constant(n, 1)
        for i in tau:
            poly = poly * Polynomial.variable(n, i, shift=center[i - 1])
        return poly

    def subsets(axes):
        return [c for r in range(len(axes) + 1) for c in combinations(axes, r)]

    if kind in (P0, Q1MINUS, Q1MINUS_STAR):
        labels = [(sigma, tau) for sigma in multi_indices(k, n) for tau in (
            [()] if kind == P0 else subsets(complement(sigma, n) if kind == Q1MINUS else sigma))]
        return [PolyForm.covector(n, s, centered_monomial(tau)) for s, tau in labels], labels
    if kind == P1MINUS:
        generators = [PolyForm.covector(n, sigma) for sigma in multi_indices(k, n)]
        gen_labels = [("const", sigma) for sigma in multi_indices(k, n)]
        if k < n:
            generators += [PolyForm.covector(n, gamma).koszul(center)
                           for gamma in multi_indices(k + 1, n)]
            gen_labels += [("koszul", gamma) for gamma in multi_indices(k + 1, n)]
        keep = independent_subset(form_rows(generators))
        return [generators[i] for i in keep], [gen_labels[i] for i in keep]
    dual, _ = per_box_basis(P1MINUS, n - k, cell)
    return [f.hodge() for f in dual], [None] * len(dual)


def moved_family_boxes(n):
    rng = random.Random(20 + n)
    return [CellBox.reference(n), stretched_box(n), *(random_box(n, rng) for _ in range(3))]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_moved_families_equal_the_per_box_builds(n):
    for cell in moved_family_boxes(n):
        for kind in KINDS:
            for k in range(n + 1):
                got = basis(kind, k, cell)
                elements, labels = per_box_basis(kind, k, cell)
                assert got.cell == cell and got.labels == labels, (kind, k, cell)
                assert len(got) == len(elements)
                for i, (a, b) in enumerate(zip(got.elements, elements)):
                    assert a == b, (kind, k, cell, i)


def test_each_call_gets_its_own_list_of_shared_forms():
    spaces._family.cache_clear()
    cell = CellBox.reference(3)
    first, second = basis(P1MINUS, 1, cell), basis(P1MINUS, 1, cell)
    assert first.elements is not second.elements and first.labels is not second.labels
    # centered at the origin: the family itself, unmoved
    assert all(a is b for a, b in zip(first.elements, second.elements))
    first.elements.pop()
    assert len(basis(P1MINUS, 1, cell)) == dimension(P1MINUS, 1, 3)
    moved = [basis(kind, k, box) for box in moved_family_boxes(3)
             for kind in KINDS for k in range(4)]
    assert len(moved) == 5 * 5 * 4
    # one family per (kind, k, n), whatever the boxes
    assert spaces._family.cache_info().currsize == 5 * 4


def test_one_verify_runs_each_p1minus_elimination_once(monkeypatch):
    spaces._family.cache_clear()
    calls = []

    def counting(vectors):
        calls.append(len(vectors))
        return independent_subset(vectors)

    monkeypatch.setattr(spaces, "independent_subset", counting)
    with redirect_stdout(io.StringIO()):
        assert cli.main(["verify", "--dim", "3", "--grid", "2,2,2"]) == 0
    # one P1minus family per degree 0..3; building each on its box ran 95
    assert len(calls) == 4


def tensor_product_presentation(k, cell):
    """Direct per-axis construction: degree <= 1 off sigma, degree 0 on sigma."""
    n = cell.n
    out = []
    for sigma in multi_indices(k, n):
        axes_degrees = [(0, 1) if (i + 1) not in sigma else (0,) for i in range(n)]
        for expts in product(*axes_degrees):
            out.append(PolyForm.covector(n, sigma, Polynomial.monomial(n, expts)))
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_tensor_span_equals_monomial_presentation(n):
    """The centered monomial basis spans the same space as the per-axis
    tensor-product definition, on the reference and on stretched cells."""
    for cell in CELLS[n]:
        for k in range(n + 1):
            mine = list(basis(Q1MINUS, k, cell))
            direct = tensor_product_presentation(k, cell)
            assert form_spans_equal(mine, direct)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_star_image_spans_dual_family(n):
    for cell in CELLS[n]:
        for k in range(n + 1):
            starred = [f.hodge() for f in basis(Q1MINUS, n - k, cell)]
            assert form_spans_equal(starred, list(basis(Q1MINUS_STAR, k, cell)))
            starred_p = [f.hodge() for f in basis(P1MINUS, n - k, cell)]
            assert form_spans_equal(starred_p, list(basis(P1MINUS_STAR, k, cell)))


def test_whitney_edge_cases():
    for n in (1, 2, 3):
        cell = CELLS[n][0]
        p1 = [PolyForm.from_scalar(Polynomial.constant(n, 1))] + [
            PolyForm.from_scalar(Polynomial.variable(n, i)) for i in range(1, n + 1)]
        assert form_spans_equal(list(basis(P1MINUS, 0, cell)), p1)
        assert form_spans_equal(list(basis(P1MINUS, n, cell)), list(basis(P0, n, cell)))
        # dual family edge cases follow by the star identity
        assert form_spans_equal(list(basis(P1MINUS_STAR, 0, cell)),
                                list(basis(P0, 0, cell)))


def test_whitney_star_alternative_presentation():
    """P1minusStar = P0 + star kappa star (P0 one degree down)."""
    for n in (2, 3):
        for cell in CELLS[n]:
            for k in range(1, n + 1):
                generated = list(basis(P0, k, cell)) + [
                    PolyForm.covector(n, gamma).koszul_delta(cell.center)
                    for gamma in multi_indices(k - 1, n)]
                assert form_spans_equal(generated, list(basis(P1MINUS_STAR, k, cell)))


def test_homogeneous_decomposition_of_tensor_family():
    for n in (2, 3):
        cell = CellBox.reference(n)
        for k in range(n + 1):
            for (sigma, tau), form in zip(basis(Q1MINUS, k, cell).labels,
                                          basis(Q1MINUS, k, cell).elements):
                assert {sum(e) for _, p in form.components() for e in p.coeffs} == {len(tau)}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_local_couple(n):
    for cell in CELLS[n]:
        for k in range(n):
            report = check_local_couple(k, n, cell)
            assert report.passed, report.to_dict()
    with pytest.raises(ValueError):
        check_local_couple(n, n)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_tensor_exactness(n):
    for cell in CELLS[n]:
        for k in range(1, n + 1):
            report = check_Q_exactness(k, n, cell)
            assert report.passed, report.to_dict()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_orthogonality(n):
    for cell in CELLS[n]:
        for k in range(n + 1):
            report = check_orthogonality(n, k, cell)
            assert report.passed, report.to_dict()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_projection_pairing_identity(n):
    for cell in CELLS[n]:
        for k in range(n):
            report = check_ap_identity(k, n, cell)
            assert report.passed, report.to_dict()


def expand_in_span(basis_forms, target):
    """Exact coefficients of target over an independent list of forms, or None when it
    lies outside their span: the oracle of the shared d-matrix, on sparse form rows."""
    columns = {}
    for j, row in enumerate(form_rows(basis_forms)):
        for key, c in row.items():
            columns.setdefault(key, {})[j] = c
    values = form_rows([target])[0]
    keys = sorted(columns.keys() | values.keys())
    try:
        scaled = solve_consistent([columns.get(key, {}) for key in keys],
                                  [values.get(key, 0) for key in keys], len(basis_forms))
    except ValueError:
        return None
    # the rows are the forms times their dens: undo the scales
    return [y * f.den / target.den for y, f in zip(scaled, basis_forms)]


def test_expand_in_span():
    cell = T2
    target = PolyForm.from_scalar(Polynomial.variable(2, 1) + Polynomial.constant(2, 2))
    coeffs = expand_in_span(list(basis(P1MINUS, 0, cell)), target)
    assert coeffs == [Fraction(2), Fraction(1), Fraction(0)]
    outside = PolyForm.from_scalar(Polynomial.variable(2, 1) * Polynomial.variable(2, 2))
    assert expand_in_span(list(basis(P1MINUS, 0, cell)), outside) is None



# -- the dense frame elimination that the sparse form rows replaced


def dense_vectors(*groups):
    """Each group of forms as dense Fraction vectors over the sorted (index, exponents)
    keys that the groups hold."""
    frame = sorted({(alpha, e) for group in groups for f in group
                    for alpha, poly in f.parts.items() for e in poly.coeffs})
    return [[[f.parts[alpha].coeffs.get(e, Fraction(0)) if alpha in f.parts else Fraction(0)
              for alpha, e in frame] for f in group] for group in groups]


def reference_expand(forms, target):
    vectors, (value,) = dense_vectors(forms, [target])
    m = len(forms)
    red, pivots = reference_rref([[v[i] for v in vectors] + [value[i]] for i in range(len(value))])
    if m in pivots:
        return None
    assert pivots == list(range(m))
    return [red[r][m] for r in range(m)]


def reference_kernel(space, op):
    (images,) = dense_vectors([op(f) for f in space])
    system = [list(row) for row in zip(*images)]
    return [space.combination(v) for v in reference_nullspace(system, ncols=len(space))]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_kernels_and_expansions_match_the_dense_frame_reference(n):
    outside = 0
    for cell in (CellBox.reference(n), stretched_box(n), random_box(n, random.Random(40 + n))):
        for k in range(n + 1):
            families = [list(basis(kind, k, cell)) for kind in KINDS]
            targets = [f for family in families for f in family]
            for forms in families:
                for target in targets:
                    expected = reference_expand(forms, target)
                    assert expand_in_span(forms, target) == expected
                    outside += expected is None
            for kind in KINDS:
                space = basis(kind, k, cell)
                ops = [lambda f: f.exterior_derivative()]
                if k:
                    ops.append(lambda f: f.codifferential())
                for op in ops:
                    assert spaces.operator_kernel(space, op) == reference_kernel(space, op)
    assert outside > 0

# -- the per-pair loops that the pairing tables replaced


def reference_orthogonality(n, k, cell):
    primal = spaces.basis(Q1MINUS, k, cell)
    dual = spaces.basis(Q1MINUS_STAR, k, cell)
    for (sigma, tau), omega in zip(primal.labels, primal.elements):
        for (sigma2, tau2), mu in zip(dual.labels, dual.elements):
            value = omega.inner_product(mu, cell)
            diagonal = sigma == sigma2 and tau == tau2 == ()
            if diagonal and value != cell.volume:
                return CheckReport("dual_orthogonality", n, k, False,
                                   counterexample=f"<dx{sigma}, dx{sigma2}> = {value}")
            if not diagonal and value != 0:
                return CheckReport(
                    "dual_orthogonality", n, k, False,
                    counterexample=f"<t{tau} dx{sigma}, t{tau2} dx{sigma2}> = {value}")
    return CheckReport("dual_orthogonality", n, k, True)


def reference_ap_identity(k, n, cell):
    projector = LocalProjector(k, cell)
    trial = spaces.basis(Q1MINUS, k, cell)
    tests = spaces.basis(Q1MINUS_STAR, k + 1, cell)
    for (sig, tau), omega in zip(trial.labels, trial.elements):
        projected = projector.project(omega)
        for (sig2, tau2), mu in zip(tests.labels, tests.elements):
            lhs = adjoint_table([projected], [mu], cell)[0][0]
            rhs = adjoint_table([omega], [mu], cell)[0][0]
            if lhs != rhs:
                return CheckReport(
                    "projection_pairing", n, k, False,
                    counterexample=(f"omega = t{tau} dx{sig}, mu = t{tau2} dx{sig2}: "
                                    f"{lhs} != {rhs}"))
    return CheckReport("projection_pairing", n, k, True)


def report_cells(n):
    cells = [CellBox.reference(n), stretched_box(n), random_box(n, random.Random(90 + n))]
    # at n=4 the per-pair reference loops are slow: the reference cell only
    return cells if n < 4 else cells[:1]


def assert_reports_match_references(n, cell):
    failed = []
    for k in range(n + 1):
        report = check_orthogonality(n, k, cell)
        assert report.to_dict() == reference_orthogonality(n, k, cell).to_dict()
        failed.append(not report.passed)
        if k < n:
            report = check_ap_identity(k, n, cell)
            assert report.to_dict() == reference_ap_identity(k, n, cell).to_dict()
            failed.append(not report.passed)
    return failed


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_table_checks_match_the_per_pair_loops(n):
    for cell in report_cells(n):
        assert not any(assert_reports_match_references(n, cell))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_table_checks_match_the_per_pair_loops_on_perturbed_input(n, monkeypatch):
    real_basis, real_integers = spaces.basis, LocalProjector.integers

    def off_by_one(self, omega):
        # one coefficient of the projection of the last Q1minus form
        ints, den = real_integers(self, omega)
        if omega == real_basis(Q1MINUS, self.k, self.cell).elements[-1]:
            ints[0] += den  # one more, in integers over den
        return ints, den

    def scaled_star(kind, k, cell):
        # the first Q1minusStar element (a constant form) times 3/2
        out = real_basis(kind, k, cell)
        if kind == Q1MINUS_STAR:
            elements = [out.elements[0] * Fraction(3, 2)] + out.elements[1:]
            out = spaces.SpaceBasis(kind, k, cell, elements, out.labels)
        return out

    for perturbed in ("coefficient", "star element"):
        with monkeypatch.context() as patch:
            if perturbed == "coefficient":
                patch.setattr(LocalProjector, "integers", off_by_one)
            else:
                patch.setattr(spaces, "basis", scaled_star)
            for cell in report_cells(n):
                failed = assert_reports_match_references(n, cell)
                # reports alternate orthogonality (even) and ap identity (odd):
                # a coefficient fails every ap identity, a star element every
                # orthogonality check
                assert failed == [(i % 2 == 1) == (perturbed == "coefficient")
                                  for i in range(2 * n + 1)]
