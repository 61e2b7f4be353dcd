"""Canonical bases of the lowest-order local form spaces on a box cell.

Five families, all spanned by centered monomial forms ``t_tau dx^sigma``
where ``t_i = x_i - c_i`` are the cell-centered coordinates and tau is a
squarefree multi-index:

* ``P0``          constant k-forms, one per increasing index sigma;
* ``P1minus``     Whitney forms: constants plus centered-Koszul lifts of
                  constant (k+1)-forms, pruned to independence;
* ``P1minusStar`` Hodge dual of P1minus at complementary degree;
* ``Q1minus``     tensor-product family: tau inside the complement of sigma;
* ``Q1minusStar`` its Hodge dual: tau inside sigma.

A family depends on its cell only through the center: each (kind, k, n)
family is built once per process on the origin-centered [-1, 1]^n (t = x),
P1minus independence elimination included, and :func:`basis` moves it to a
cell's center by its own ``Combination``, the one way a form reaches a box.

Basis order is lexicographic in sigma, then in (|tau|, tau); all matrix
layouts downstream inherit that numbering.  Spans, kernels and expansions
eliminate forms exactly as sparse rows keyed by (index, exponents)
(``form_rows``).  The structural checks at the bottom verify the
kernel/range, orthogonality and projection identities these families
satisfy.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from itertools import combinations
from math import comb
from operator import mul

from .exactla import independent_subset, kernel_vectors, rank, spans_equal
from .forms import CellBox, Combination, PolyForm, Polynomial, scaled_terms
from .indices import complement, multi_indices
from .reports import CheckReport

P0 = "P0"
P1MINUS = "P1minus"
P1MINUS_STAR = "P1minusStar"
Q1MINUS = "Q1minus"
Q1MINUS_STAR = "Q1minusStar"

KINDS = (P0, P1MINUS, P1MINUS_STAR, Q1MINUS, Q1MINUS_STAR)


@dataclass
class SpaceBasis:
    kind: str
    k: int
    cell: CellBox
    elements: list
    labels: list  # (sigma, tau) per element where meaningful, else None

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __getitem__(self, i):
        return self.elements[i]

    @property
    def n(self):
        return self.cell.n

    @cached_property
    def combination(self):
        """Linear combinations of the elements, built on first use."""
        return Combination(self.n, self.k, self.elements)


def dimension(kind, k, n):
    """Dimension of the local space; raises for incompatible (kind, k)."""
    if not 0 <= k <= n:
        raise ValueError(f"no degree-{k} forms in dimension {n}")
    if kind == P0:
        return comb(n, k)
    if kind == P1MINUS:
        return comb(n + 1, k + 1)
    if kind == P1MINUS_STAR:
        return comb(n + 1, n - k + 1)
    if kind == Q1MINUS:
        return comb(n, k) * 2 ** (n - k)
    if kind == Q1MINUS_STAR:
        return comb(n, k) * 2 ** k
    raise ValueError(f"unknown space kind {kind!r}")


def _subsets(axes):
    """All sub-tuples, ordered by (cardinality, lexicographic)."""
    return [s for r in range(len(axes) + 1) for s in combinations(axes, r)]


@cache
def _family(kind, k, n):
    """The (kind, k) family on the origin-centered box [-1, 1]^n, built once per process."""
    dim = dimension(kind, k, n)  # validates (kind, k)
    if kind in (P0, Q1MINUS, Q1MINUS_STAR):
        # x_tau dx^sigma: tau empty, off sigma or inside sigma
        labels = [(sigma, tau) for sigma in multi_indices(k, n) for tau in (
            [()] if kind == P0 else _subsets(complement(sigma, n) if kind == Q1MINUS else sigma))]
        elements = [PolyForm.covector(n, sigma, Polynomial.monomial(
            n, [int(i in tau) for i in range(1, n + 1)])) for sigma, tau in labels]
    elif kind == P1MINUS:
        # constants first (in index order), then Koszul lifts; by the Pascal
        # identity C(n,k) + C(n,k+1) = C(n+1,k+1) nothing is ever pruned,
        # but independence is still verified by elimination.
        generators = [PolyForm.covector(n, sigma) for sigma in multi_indices(k, n)]
        gen_labels = [("const", sigma) for sigma in multi_indices(k, n)]
        if k < n:
            generators += [PolyForm.covector(n, gamma).koszul()
                           for gamma in multi_indices(k + 1, n)]
            gen_labels += [("koszul", gamma) for gamma in multi_indices(k + 1, n)]
        keep = independent_subset(form_rows(generators))
        elements = [generators[i] for i in keep]
        labels = [gen_labels[i] for i in keep]
    else:
        elements = [f.hodge() for f in _family(P1MINUS, n - k, n).elements]
        labels = [None] * len(elements)
    if len(elements) != dim:
        raise AssertionError(
            f"{kind} Lambda^{k} in dim {n}: built {len(elements)} elements, expected {dim}")
    return SpaceBasis(kind, k, CellBox.reference(n), elements, labels)


def basis(kind, k, cell):
    """Canonical basis of the requested space on the given cell: its family, moved
    from the origin to the cell's center."""
    family = _family(kind, k, cell.n)
    combine = family.combination
    elements = ([combine.form(*moved) for moved in combine.moved(cell.center)]
                if any(cell.center) else list(family))
    return SpaceBasis(kind, k, cell, elements, list(family.labels))


# ---------------------------------------------------------------------------
# spans of forms as exact sparse rows


def form_rows(forms):
    """Each form times its ``PolyForm.den`` as a sparse integer row {(alpha, exponents): int},
    which changes no span or rank; the keys sort as the forms' (index, exponent) frame,
    which fixes the elimination's pivots."""
    return [{(alpha, e): c * (den // poly.den) for alpha, poly in f.parts.items()
             for e, c in poly.terms.items()} for f in forms for den in (f.den,)]


def form_spans_equal(group_a, group_b):
    return spans_equal(form_rows(group_a), form_rows(group_b))


def form_span_rank(group):
    return rank(form_rows(group))


def _transposed(rows):
    """{(alpha, e): {j: coefficient}}: the rows' entries by key, j the row's index."""
    out = {}
    for j, row in enumerate(rows):
        for key, c in row.items():
            out.setdefault(key, {})[j] = c
    return out


def operator_kernel(space, op):
    """Forms spanning the kernel of a linear operator restricted to a span."""
    images = [op(f) for f in space]
    system = _transposed(form_rows(images))
    free, vectors = kernel_vectors([system[key] for key in sorted(system)], len(space))
    # column j is image j times its den s_j: undo the scales, keeping the unit at the free column
    scales = [f.den for f in images]
    return [space.combination([vec.get(j, 0) * s for j, s in enumerate(scales)],
                              den=den * scales[c]) for c, (vec, den) in zip(free, vectors)]


# ---------------------------------------------------------------------------
# structural checks (exact, report-valued)


def check_local_couple(k, n, cell=None):
    """Range/kernel couplings between the Whitney family and its dual.

    Verifies, as exact span equalities on the cell:
    range(d, P1minus^k) = P0^(k+1) = kernel(delta, P1minusStar^(k+1)) and
    kernel(d, P1minus^k) = P0^k = range(delta, P1minusStar^(k+1)).
    """
    if not 0 <= k <= n - 1:
        raise ValueError(f"need 0 <= k <= n-1, got k={k}, n={n}")
    cell = cell or CellBox.reference(n)
    whitney = basis(P1MINUS, k, cell)
    dual = basis(P1MINUS_STAR, k + 1, cell)
    const_k = basis(P0, k, cell).elements
    const_k1 = basis(P0, k + 1, cell).elements

    checks = {
        "range_d_eq_const": form_spans_equal(
            [f.exterior_derivative() for f in whitney], const_k1),
        "kernel_delta_eq_const": form_spans_equal(
            operator_kernel(dual, lambda f: f.codifferential()), const_k1),
        "kernel_d_eq_const": form_spans_equal(
            operator_kernel(whitney, lambda f: f.exterior_derivative()), const_k),
        "range_delta_eq_const": form_spans_equal(
            [f.codifferential() for f in dual], const_k),
    }
    bad = [name for name, ok in checks.items() if not ok]
    return CheckReport("local_couple", n, k, not bad,
                       counterexample=", ".join(bad) or None,
                       details={name: bool(ok) for name, ok in checks.items()})


def check_Q_exactness(k, n, cell=None):
    """Kernel = range along the tensor-product family, plus its splitting.

    At degree k (1 <= k <= n): kernel(d, Q1minus^k) = range(d, Q1minus^(k-1)),
    the Hodge-conjugate statement for the star family at degree n-k, and the
    direct sum  Q1minus^k = range(d, Q1minus^(k-1)) (+) kappa(range(d, Q1minus^k)).
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    cell = cell or CellBox.reference(n)
    center = cell.center
    q_k = basis(Q1MINUS, k, cell)
    q_km1 = basis(Q1MINUS, k - 1, cell)

    kernel = operator_kernel(q_k, lambda f: f.exterior_derivative())
    image = [f.exterior_derivative() for f in q_km1]
    checks = {"kernel_eq_range": form_spans_equal(kernel, image)}

    if k <= n - 1:
        qs_j = basis(Q1MINUS_STAR, n - k, cell)
        qs_j1 = basis(Q1MINUS_STAR, n - k + 1, cell)
        kernel_star = operator_kernel(qs_j, lambda f: f.codifferential())
        image_star = [f.codifferential() for f in qs_j1]
        checks["star_kernel_eq_range"] = form_spans_equal(kernel_star, image_star)

    images_k = [f.exterior_derivative() for f in q_k]
    lifted = [df.koszul(center) for df in images_k if not df.is_zero()]
    r_image = form_span_rank(image)
    r_lift = form_span_rank(lifted)
    together = image + lifted
    checks["direct_sum"] = (
        r_image + r_lift == len(q_k)
        and form_span_rank(together) == len(q_k)
        and form_spans_equal(together, list(q_k)))

    bad = [name for name, ok in checks.items() if not ok]
    return CheckReport("tensor_exactness", n, k, not bad,
                       counterexample=", ".join(bad) or None,
                       details={name: bool(ok) for name, ok in checks.items()})


def check_orthogonality(n, k, cell=None):
    """Pairing structure between the tensor family and its Hodge dual.

    Over the cell, <t_tau dx^sigma, t_tau' dx^sigma'> vanishes unless
    tau = tau' = () and sigma = sigma'; the surviving diagonal equals the
    cell volume.
    """
    cell = cell or CellBox.reference(n)
    primal = basis(Q1MINUS, k, cell)
    dual = basis(Q1MINUS_STAR, k, cell)
    table, den = cell.pairing_terms(scaled_terms([(omega,) for omega in primal]),
                                    scaled_terms([(mu,) for mu in dual]))
    for (sigma, tau), row in zip(primal.labels, table):
        for (sigma2, tau2), value in zip(dual.labels, row):
            diagonal = sigma == sigma2 and tau == tau2 == ()
            if value != (cell.volume * den if diagonal else 0):  # in integers over den
                pair = (f"<dx{sigma}, dx{sigma2}>" if diagonal
                        else f"<t{tau} dx{sigma}, t{tau2} dx{sigma2}>")
                return CheckReport("dual_orthogonality", n, k, False,
                                   counterexample=f"{pair} = {Fraction(value, den)}")
    return CheckReport("dual_orthogonality", n, k, True)


def check_ap_identity(k, n, cell=None):
    """The projection pairing identity on the full tensor-product test family.

    For every omega in Q1minus^k and mu in Q1minusStar^(k+1):
    <d P omega, mu> - <P omega, delta mu> = <d omega, mu> - <omega, delta mu>
    where P is the local adjoint projection onto P1minus^k.  As tables: C A == B,
    A and B adjoint tables of P1minus^k and Q1minus^k, C the coefficients of P.
    """
    from .projection import LocalProjector  # deferred: projection builds on bases

    if not 0 <= k <= n - 1:
        raise ValueError(f"need 0 <= k <= n-1, got k={k}, n={n}")
    cell = cell or CellBox.reference(n)
    projector = LocalProjector(k, cell)
    trial = basis(Q1MINUS, k, cell)
    tests = basis(Q1MINUS_STAR, k + 1, cell)
    test_side = scaled_terms([(mu, -mu.codifferential()) for mu in tests])
    a_rows, a_den = cell.pairing_terms(
        scaled_terms([(phi.exterior_derivative(), phi) for phi in projector.trial]), test_side)
    b_rows, b_den = cell.pairing_terms(
        scaled_terms([(omega.exterior_derivative(), omega) for omega in trial]), test_side)
    for (sig, tau), omega, b_row in zip(trial.labels, trial.elements, b_rows):
        c_ints, c_den = projector.integers(omega)
        for (sig2, tau2), a_col, rhs in zip(tests.labels, zip(*a_rows), b_row):
            lhs = sum(map(mul, c_ints, a_col))
            if lhs * b_den != rhs * c_den * a_den:  # lhs / (c_den a_den) against rhs / b_den
                return CheckReport(
                    "projection_pairing", n, k, False,
                    counterexample=(f"omega = t{tau} dx{sig}, mu = t{tau2} dx{sig2}: "
                                    f"{Fraction(lhs, c_den * a_den)} != "
                                    f"{Fraction(rhs, b_den)}"))
    return CheckReport("projection_pairing", n, k, True)
