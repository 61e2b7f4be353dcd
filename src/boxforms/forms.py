"""Differential forms with exact rational polynomial coefficients on boxes.

Conventions, fixed once for the whole package:

* ambient frame ``x_1 .. x_n`` with orientation ``dx^1 ^ ... ^ dx^n``;
  the metric is Euclidean and the basis covectors are orthonormal;
* the Hodge star satisfies ``dx^alpha ^ star dx^alpha = dx^1 ^ ... ^ dx^n``;
* the codifferential on k-forms is ``delta = (-1)^(n(k+1)+1) star d star``,
  the sign being the one that makes delta the formal L2 adjoint of d:
  ``<d w, m>_K = <w, delta m>_K`` whenever w vanishes on the boundary of K;
* the Koszul operator contracts with the position field relative to a
  *center* point, ``kappa(dx^a1^...^dx^ak) = sum_j (-1)^(j+1) (x_aj - c_aj)
  dx^a1^...(omit j)...^dx^ak``, so that on a box centered at c the
  coefficients it produces integrate to zero.

A polynomial holds integer coefficients over one positive denominator, in
lowest terms, and every operation below works on those integers; every
identity checked in the test-suite holds exactly.  ``Polynomial.coeffs`` is
the Fraction view.  Scalars passed to constructors may be ints, Fractions or
strings like ``"3/4"``.

Every exact integral is an entry of one kernel, ``CellBox.pairing_terms``:
L2 pairings of two lists of form tuples, paired position by position and
summed, so ``(d w, w)`` against ``(mu, -delta mu)`` is an adjoint pairing.
Each box caches per-axis moments ``int t^p dt`` as integers over one
denominator; the kernel sums term pairs in integers against them, with no
product polynomial.  Linear combinations of forms go through ``Combination``.

The public constructors check every exponent vector and multi-index;
results of arithmetic, ``d`` and ``hodge`` are built from
clean data and skip the checks.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product
from math import comb, gcd, lcm, prod
from operator import add, getitem, sub

from .indices import complement, hodge_sign, is_multi_index, wedge_sign


def ratio(x):
    """Coerce ints / strings / Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


# ---------------------------------------------------------------------------
# polynomials


def _sum_into(out, items):
    """Add (key, value) pairs into ``out``, dropping every key whose sum is zero."""
    for key, value in items:
        s = out.get(key)
        if s is None:
            out[key] = value
        else:
            s = s + value
            if s:
                out[key] = s
            else:
                del out[key]
    return out


class Polynomial:
    """Multivariate polynomial over the rationals, keyed by exponent tuples.

    Stored as integer coefficients ``terms`` {exponents: int} over one
    positive ``den``, in lowest terms: zero terms are never stored and the
    gcd of ``den`` and every coefficient is 1.  So equality is plain
    structural equality, and the zero polynomial has no terms over 1.
    ``coeffs`` is the Fraction view.
    """

    __slots__ = ("n", "terms", "den")

    def __init__(self, n, coeffs=None):
        self.n = n
        clean = {}
        for expts, c in (coeffs or {}).items():
            if type(c) is not int:
                c = ratio(c)
            if len(expts) != n or any(e < 0 for e in expts):
                raise ValueError(f"bad exponent vector {expts} for n={n}")
            if c:
                clean[tuple(expts)] = c
        # the lcm of reduced denominators leaves no common factor
        self.den = den = lcm(*(c.denominator for c in clean.values()))
        self.terms = {e: c.numerator * (den // c.denominator) for e, c in clean.items()}

    @classmethod
    def _lowest(cls, n, terms, den):
        """Wrap exponent n-tuples to nonzero ints over den > 0, unchecked, divided by
        their common factor with den."""
        g = gcd(den, *terms.values())
        poly = object.__new__(cls)
        poly.n, poly.den = n, den // g
        poly.terms = {e: c // g for e, c in terms.items()} if g != 1 else terms
        return poly

    # -- constructors

    @classmethod
    def constant(cls, n, c):
        return cls(n, {(0,) * n: c})

    @classmethod
    def variable(cls, n, i, shift=0):
        """x_i - shift (axes are 1-based)."""
        e = tuple(1 if j == i else 0 for j in range(1, n + 1))
        coeffs = {e: Fraction(1)}
        s = ratio(shift)
        if s:
            coeffs[(0,) * n] = -s
        return cls(n, coeffs)

    @classmethod
    def monomial(cls, n, expts, c=1):
        return cls(n, {tuple(expts): c})

    # -- queries

    @property
    def coeffs(self):
        """{exponents: Fraction}, built on every read, in the stored order."""
        return {e: Fraction(c, self.den) for e, c in self.terms.items()}

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (isinstance(other, Polynomial) and self.n == other.n and self.den == other.den
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.n, self.den, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    # -- arithmetic

    def _check_dimension(self, other):
        if other.n != self.n:
            raise ValueError(f"polynomials in {self.n} and {other.n} variables")

    def __add__(self, other):
        self._check_dimension(other)
        den = lcm(self.den, other.den)
        terms = dict(_times(self.terms, den // self.den))
        return Polynomial._lowest(
            self.n, _sum_into(terms, _times(other.terms, den // other.den).items()), den)

    def __neg__(self):
        return Polynomial._lowest(self.n, {e: -c for e, c in self.terms.items()}, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            self._check_dimension(other)
            out = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    e = tuple(map(add, e1, e2))
                    s = out.get(e)
                    out[e] = c1 * c2 if s is None else s + c1 * c2
            return Polynomial._lowest(self.n, {e: c for e, c in out.items() if c},
                                      self.den * other.den)
        if not isinstance(other, (int, str, Fraction)):
            return NotImplemented
        c = ratio(other) if isinstance(other, str) else other
        if not c:
            return Polynomial._lowest(self.n, {}, 1)
        return Polynomial._lowest(self.n, _times(self.terms, c.numerator),
                                  self.den * c.denominator)

    __rmul__ = __mul__

    def __repr__(self):
        text = _polynomial_text(_monomials(self.terms), self.den) or "0"
        return f"Polynomial({self.n}, {text!r})"


def _times(terms, m):
    """{exponents: int} times the int m, a new dict unless m is 1."""
    return terms if m == 1 else {e: c * m for e, c in terms.items()}


# ---------------------------------------------------------------------------
# axis-aligned boxes


def scaled_terms(entries):
    """Entries (tuples of forms) as {(position, index): {exponents: int}}, over one denominator."""
    den = lcm(*{poly.den for entry in entries for form in entry for poly in form.parts.values()})
    return [{(p, alpha): _times(poly.terms, den // poly.den)
             for p, form in enumerate(entry) for alpha, poly in form.parts.items()}
            for entry in entries], den


def _moment_table(lo, hi, size):
    """(ints, den) with ``int_lo^hi t^p dt == ints[p] / den`` for p < size, in integers.

    With lo = L/q and hi = H/q the integral is (H^(p+1) - L^(p+1)) / ((p+1) q^(p+1)),
    so den = q^size * lcm(1..size) serves every p.
    """
    q = lcm(lo.denominator, hi.denominator)
    low, high = lo.numerator * (q // lo.denominator), hi.numerator * (q // hi.denominator)
    m = lcm(*range(1, size + 1))
    ints, low_p, high_p = [], low, high
    for p in range(size):
        ints.append((high_p - low_p) * q ** (size - p - 1) * (m // (p + 1)))
        low_p *= low
        high_p *= high
    return ints, q ** size * m


def _power_table(value, size):
    """(ints, den) with ``value^p == ints[p] / den`` for p < size: point evaluation."""
    num, q = value.numerator, value.denominator
    return [num ** p * q ** (size - 1 - p) for p in range(size)], q ** (size - 1)


@dataclass(frozen=True)
class CellBox:
    """Axis-aligned box prod_i [lo_i, hi_i] with exact rational corners."""

    lo: tuple
    hi: tuple

    def __post_init__(self):
        lo = tuple(ratio(v) for v in self.lo)
        hi = tuple(ratio(v) for v in self.hi)
        if len(lo) != len(hi) or not lo:
            raise ValueError("corner tuples must have equal positive length")
        if any(a >= b for a, b in zip(lo, hi)):
            raise ValueError(f"degenerate box {lo} .. {hi}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @classmethod
    def reference(cls, n):
        """[-1, 1]^n."""
        return cls((-1,) * n, (1,) * n)

    @classmethod
    def unit(cls, n):
        return cls((0,) * n, (1,) * n)

    @property
    def n(self):
        return len(self.lo)

    # derived geometry, computed once per box; equality and hashing stay on lo and hi

    @cached_property
    def center(self):
        return tuple((a + b) / 2 for a, b in zip(self.lo, self.hi))

    @cached_property
    def widths(self):
        return tuple(b - a for a, b in zip(self.lo, self.hi))

    @cached_property
    def volume(self):
        return prod(self.widths, start=Fraction(1))

    @cached_property
    def _moments(self):
        return [None] * len(self.lo)

    def moments(self, axis, size):
        """(ints, den) with ``int t^p dt`` over the box's side on ``axis`` equal
        to ``ints[p] / den`` for every p < size.

        The table is cached on the box and rebuilt larger when a call needs
        higher powers than any before it.
        """
        table = self._moments[axis]
        if table is None or len(table[0]) < size:
            table = self._moments[axis] = _moment_table(self.lo[axis], self.hi[axis], size)
        return table

    def pairing_terms(self, left, right, frozen=None):
        """(rows, den): ``pairing_table`` as integers over one denominator, of two lists of
        entries already scaled as ``scaled_terms`` returns them, so a list paired on many
        boxes or many times is scaled once.

        Entries are tuples of forms; forms at one position share a degree.
        Axes in ``frozen`` (0-based axis: value) are evaluated, not
        integrated; a list of such dicts freezes each row by its own, so one
        call serves every face of the box.
        """
        (left, den_left), (right, den_right) = left, right
        top = list(map(add, map(max, zip(*(e for t in left for p in t.values() for e in p))),
                       map(max, zip(*(e for t in right for p in t.values() for e in p)))))
        if not top:
            return [[0] * len(right) for _ in left], 1
        planes = frozen if isinstance(frozen, list) else [frozen] * len(left)
        per_plane = {}  # by id: the planes are alive in ``planes``
        for plane in planes:
            if id(plane) not in per_plane:
                moments, den = [], den_left * den_right
                for axis, a in enumerate(top):
                    if plane and axis in plane:
                        ints, axis_den = _power_table(plane[axis], a + 1)
                    else:
                        ints, axis_den = self.moments(axis, a + 1)
                    moments.append(ints)
                    den *= axis_den
                per_plane[id(plane)] = moments, den
        den = lcm(*[d for _, d in per_plane.values()])
        return [[sum(a * b * prod(map(getitem, moments, map(add, e, f)))
                     for key, q in other.items() if key in terms
                     for e, a in terms[key].items() for f, b in q.items()) * (den // d)
                 for other in right]
                for terms, (moments, d) in zip(left, map(per_plane.get, map(id, planes)))], den

    def pairing_table(self, left, right, frozen=None):
        """Exact ``rows[i][j] = sum_p <left[i][p], right[j][p]>`` over the box, as Fractions."""
        rows, den = self.pairing_terms(scaled_terms(left), scaled_terms(right), frozen)
        return [[Fraction(v, den) for v in row] for row in rows]


# ---------------------------------------------------------------------------
# polynomial differential forms


class PolyForm:
    """Differential k-form whose components are Polynomials.

    ``parts`` maps increasing multi-indices alpha (|alpha| = k) to the
    coefficient of ``dx^alpha``; zero components are never stored.  Degree
    n+1 is allowed only for the canonical zero form, so that ``d`` of a
    top form is representable.
    """

    __slots__ = ("n", "k", "parts")

    def __init__(self, n, k, parts=None):
        if k < 0 or k > n + 1:
            raise ValueError(f"degree k={k} out of range for n={n}")
        self.n = n
        self.k = k
        clean = {}
        for alpha, poly in (parts or {}).items():
            alpha = tuple(alpha)
            if len(alpha) != k or not is_multi_index(alpha, n):
                raise ValueError(f"bad multi-index {alpha} for a {k}-form in dim {n}")
            if not isinstance(poly, Polynomial):
                poly = Polynomial.constant(n, poly)
            if poly:
                clean[alpha] = poly
        if k == n + 1 and clean:
            raise ValueError("only the zero form may carry degree n+1")
        self.parts = clean

    @classmethod
    def _of(cls, n, k, parts):
        """Wrap clean parts: increasing k-indices to nonzero Polynomials, unchecked."""
        form = object.__new__(cls)
        form.n = n
        form.k = k
        form.parts = parts
        return form

    # -- constructors

    @classmethod
    def covector(cls, n, alpha, coeff=1):
        """coeff * dx^alpha with a constant or Polynomial coefficient."""
        return cls(n, len(alpha), {tuple(alpha): coeff})

    @classmethod
    def from_scalar(cls, poly):
        return cls(poly.n, 0, {(): poly})

    # -- queries

    def is_zero(self):
        return not self.parts

    def __eq__(self, other):
        return (isinstance(other, PolyForm) and self.n == other.n
                and self.k == other.k and self.parts == other.parts)

    def __hash__(self):
        return hash((self.n, self.k, frozenset(self.parts.items())))

    def __bool__(self):
        return bool(self.parts)

    def components(self):
        """(alpha, coefficient) pairs in lexicographic index order."""
        return sorted(self.parts.items())

    @property
    def den(self):
        """The lcm of the components' denominators: times it, every coefficient is an int."""
        return lcm(*{poly.den for poly in self.parts.values()})

    # -- linear structure

    def __add__(self, other):
        self._check_compatible(other)
        return PolyForm._of(self.n, self.k, _sum_into(dict(self.parts), other.parts.items()))

    def __neg__(self):
        return PolyForm._of(self.n, self.k, {a: -p for a, p in self.parts.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, scalar):
        if isinstance(scalar, Polynomial):
            if not scalar:
                return PolyForm._of(self.n, self.k, {})
            return PolyForm._of(self.n, self.k, {a: scalar * p for a, p in self.parts.items()})
        if not isinstance(scalar, (int, str, Fraction)):
            return NotImplemented
        c = ratio(scalar) if isinstance(scalar, str) else scalar
        if not c:
            return PolyForm._of(self.n, self.k, {})
        return PolyForm._of(self.n, self.k, {a: p * c for a, p in self.parts.items()})

    __rmul__ = __mul__

    def _check_compatible(self, other):
        if not isinstance(other, PolyForm) or other.n != self.n:
            raise ValueError("forms live in different ambient dimensions")
        if other.k != self.k:
            raise ValueError(f"degree mismatch: {self.k} vs {other.k}")

    # -- exterior calculus

    def exterior_derivative(self):
        """d: k-forms to (k+1)-forms; d of a top form is the zero (n+1)-form."""
        if self.k > self.n:
            raise ValueError("cannot differentiate beyond top degree")
        den, out = self.den, {}
        for alpha, poly in self.parts.items():
            scale = den // poly.den
            for i, sign, gamma in _d_targets(alpha, self.n):
                acc, m = out.setdefault(gamma, {}), sign * scale
                for e, c in poly.terms.items():
                    p = e[i]
                    if p:
                        f = e[:i] + (p - 1,) + e[i + 1:]
                        v = c * m if p == 1 else c * m * p
                        s = acc.get(f)
                        acc[f] = v if s is None else s + v
        parts = {}
        for gamma, acc in out.items():
            terms = {e: c for e, c in acc.items() if c}
            if terms:
                parts[gamma] = Polynomial._lowest(self.n, terms, den)
        return PolyForm._of(self.n, self.k + 1, parts)

    def hodge(self):
        """star: component-wise sign flip onto the complementary index."""
        if self.k > self.n:
            raise ValueError("no Hodge dual above top degree")
        out = {}
        for alpha, poly in self.parts.items():
            sign, beta = _star(alpha, self.n)
            out[beta] = poly if sign > 0 else -poly
        return PolyForm._of(self.n, self.n - self.k, out)

    def codifferential(self):
        """delta = (-1)^(n(k+1)+1) star d star, the formal L2 adjoint of d."""
        if self.k == 0:
            raise ValueError("codifferential undefined on 0-forms")
        out = self.hodge().exterior_derivative().hodge()
        return out if self.n * (self.k + 1) % 2 else -out

    def koszul(self, center=None):
        """Contraction with the position field relative to ``center``."""
        if self.k == 0:
            raise ValueError("Koszul operator undefined on 0-forms")
        if self.k > self.n:
            raise ValueError("no Koszul contraction above top degree")
        # c = steps / q: every term over den * q, (x_i - c_i) * c/den = (q x_i - t_i) c / (den q)
        center = [c if type(c) is int else ratio(c) for c in center or (0,) * self.n]
        q, den = lcm(*(c.denominator for c in center)), self.den
        steps = [c.numerator * (q // c.denominator) for c in center]
        out = {}
        for alpha, poly in self.parts.items():
            terms = _times(poly.terms, den // poly.den)
            lifted = _times(terms, q)
            for j, axis in enumerate(alpha):
                # (x_axis - c_axis) * poly, in the key order of the product
                i, t = axis - 1, steps[axis - 1]
                term = {e[:i] + (e[i] + 1,) + e[i + 1:]: c for e, c in lifted.items()}
                if t:
                    _sum_into(term, ((e, -t * c) for e, c in terms.items()))
                _add_component(out, alpha[:j] + alpha[j + 1:], term, j % 2)
        return PolyForm._of(self.n, self.k - 1,
                            {a: Polynomial._lowest(self.n, c, den * q) for a, c in out.items()})

    def koszul_delta(self, center=None):
        """star kappa star; raises degree by one."""
        if self.k == self.n:
            raise ValueError("star-Koszul undefined on top-degree forms")
        return self.hodge().koszul(center).hodge()

    # -- metric pairings

    def inner_product(self, other, box):
        """Exact L2 inner product over a box (orthonormal covector frame)."""
        self._check_compatible(other)
        return box.pairing_table([(self,)], [(other,)])[0][0]

    def __repr__(self):
        return f"PolyForm({self.n}, {self.k}, {format_form(self)!r})"

    def __str__(self):
        return format_form(self)


def _add_component(out, key, coeffs, negate):
    """Add a term's coefficients (negated if asked) into ``out[key]``, taking ownership.

    Keys and components keep the order that summing term forms one by one
    would give: a component that cancels is dropped, and comes back last.
    """
    if negate:
        coeffs = {e: -c for e, c in coeffs.items()}
    acc = out.get(key)
    if acc is None:
        if coeffs:
            out[key] = coeffs
    elif not _sum_into(acc, coeffs.items()):
        del out[key]


class Combination:
    """Exact linear combinations of one list of k-forms in dimension n: ``self(coeffs)`` is
    ``sum_j coeffs[j] * forms[j]``, ``self(coeffs, shift)`` that of ``forms[j](x - shift)``,
    and ``den`` divides the coefficients.  Forms, coefficients and shift are integers over
    one denominator each, the forms scaled once; zeros are dropped as ``+`` drops them."""

    def __init__(self, n, k, forms):
        self.n, self.k, self.moves = n, k, {}  # moves: x^e to [(x^f, C(e, f), e - f), f <= e]
        self.terms, self.den = scaled_terms([(form,) for form in forms])
        self.top = max([sum(e) for t in self.terms for c in t.values() for e in c], default=0)

    def integers(self, coeffs, shift=None, den=1):
        """(parts, den): ``self(coeffs, shift, den)`` as {alpha: {exponents: int}} over one
        denominator, zero terms and components dropped."""
        c_den = lcm(*[c.denominator for c in coeffs if c])
        parts, d = self._sum([(c.numerator * (c_den // c.denominator), terms)
                              for c, terms in zip(coeffs, self.terms) if c], self._shifted(shift))
        return parts, c_den * den * d

    def __call__(self, coeffs, shift=None, den=1):
        return self.form(*self.integers(coeffs, shift, den))

    def moved(self, shift):
        """Every form moved, ``forms[j](x - shift)``, as ``integers`` gives it (all over one
        den), the shift turned to integers once."""
        shifted = self._shifted(shift)
        return [self._sum([(1, terms)], shifted) for terms in self.terms]

    def form(self, parts, den):
        """The PolyForm of ``integers``' (parts, den)."""
        return PolyForm._of(self.n, self.k, {a: Polynomial._lowest(self.n, p, den)
                                             for a, p in parts.items()})

    def _shifted(self, shift):
        """(q, t, powers): x - shift = (q x + t) / q in integers, and an empty cache of
        t^drop q^(top - |drop|)."""
        shift = shift or (0,) * self.n
        q = lcm(*[s.denominator for s in shift])
        return q, [-s.numerator * (q // s.denominator) for s in shift], {}

    def _sum(self, pairs, shifted):
        """(parts, den): the sum of int c times scaled terms, moved as ``_shifted`` says,
        over this list's den times q^top."""
        # q^top (x - s)^e is the sum over f <= e of C(e, f) t^(e - f) q^(top - |e - f|) x^f
        (q, steps, scale), acc = shifted, {}
        for c, terms in pairs:
            for (_, alpha), part in terms.items():
                out = acc.setdefault(alpha, {})
                for e, v in part.items():
                    if e not in self.moves:
                        self.moves[e] = [(f, prod(map(comb, e, f)), tuple(map(sub, e, f)))
                                         for f in product(*(range(p + 1) for p in e))]
                    for f, m, drop in self.moves[e]:
                        if drop not in scale:
                            scale[drop] = prod(map(pow, steps, drop)) * q ** (self.top - sum(drop))
                        if scale[drop]:
                            out[f] = out.get(f, 0) + c * v * m * scale[drop]
        parts = ((a, {e: v for e, v in out.items() if v}) for a, out in acc.items())
        return {a: p for a, p in parts if p}, self.den * q ** self.top


@lru_cache(maxsize=None)
def _d_targets(alpha, n):
    """(axis position, sign, gamma) with ``dx^i ^ dx^alpha = sign dx^gamma``, i not in alpha."""
    out = []
    for i in range(1, n + 1):
        sign, gamma = wedge_sign((i,), alpha)
        if sign:
            out.append((i - 1, sign, gamma))
    return tuple(out)


@lru_cache(maxsize=None)
def _star(alpha, n):
    """(sign, complement) with ``star dx^alpha = sign dx^complement``."""
    return hodge_sign(alpha, n), complement(alpha, n)


def adjoint_table(forms, tests, box):
    """``rows[i][j] = <d forms[i], tests[j]>_box - <forms[i], delta tests[j]>_box``
    for k-forms and (k+1)-forms; d and delta are taken once per form, not once per pair.

    Each entry is a pure boundary functional: it vanishes whenever either
    argument has vanishing trace on the box boundary.
    """
    bad = [mu.k for mu in tests if forms and mu.k != forms[0].k + 1]
    if bad:
        raise ValueError(f"expected a ({forms[0].k + 1})-form test, got degree {bad[0]}")
    return box.pairing_table([(omega.exterior_derivative(), omega) for omega in forms],
                             [(mu, -mu.codifferential()) for mu in tests])


def boundary_bump(box):
    """prod_i ((x_i - c_i)^2 - (w_i/2)^2): negative inside, zero on the boundary."""
    n = box.n
    out = Polynomial.constant(n, 1)
    for i, (c, w) in enumerate(zip(box.center, box.widths), start=1):
        xi = Polynomial.variable(n, i, shift=c)
        out = out * (xi * xi - Polynomial.constant(n, (w / 2) ** 2))
    return out


# ---------------------------------------------------------------------------
# text output:  (poly) * dx[i,j,...]  joined by " + "


def print_order(parts):
    """{alpha: {exponents: value}} in printed order as [(dx text, [(monomial text, value)])]."""
    return [(f"dx[{','.join(map(str, alpha))}]", _monomials(parts[alpha]))
            for alpha in sorted(parts)]


def _monomials(coeffs):
    """[(monomial text, value)] of {exponents: value} by degree, then exponents; the
    constant's text is ""."""
    return [("*".join(f"x{i}" + (f"^{p}" if p > 1 else "") for i, p in enumerate(e, start=1) if p),
             coeffs[e]) for e in sorted(coeffs, key=lambda e: (sum(e), e))]


def ordered_text(components, den):
    """The text of a form in ``print_order`` with int values over ``den`` > 0, zeros skipped."""
    texts = []
    for dx, terms in components:
        text = _polynomial_text(terms, den)
        if text:
            texts.append(f"({text}) * {dx}")
    return " + ".join(texts) or "0"


def _polynomial_text(monomials, den):
    """The text of (monomial text, int) pairs over ``den`` > 0 in lowest terms, zeros skipped."""
    pieces = []
    for monomial, c in monomials:
        if c:
            g = gcd(c, den)
            num, d = c // g, den // g
            body = (monomial if monomial and abs(num) == d == 1 else str(abs(num))
                    + (f"/{d}" if d > 1 else "") + ("*" + monomial if monomial else ""))
            pieces.append((("- " if num < 0 else "+ ") if pieces else ("-" if num < 0 else ""))
                          + body)
    return " ".join(pieces)


def format_form(form):
    (terms,), den = scaled_terms([(form,)])
    return ordered_text(print_order({alpha: t for (_, alpha), t in terms.items()}), den)
