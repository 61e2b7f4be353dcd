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

All coefficients are ``fractions.Fraction``; every identity checked in the
test-suite holds exactly.  Scalars passed to constructors may be ints,
Fractions or strings like ``"3/4"``.
"""

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .indices import complement, hodge_sign, is_multi_index, multi_indices, wedge_sign


def ratio(x):
    """Coerce ints / strings / Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


# ---------------------------------------------------------------------------
# polynomials


class Polynomial:
    """Multivariate polynomial over Fraction, keyed by exponent tuples.

    Zero coefficients are never stored, so equality is plain structural
    equality and the zero polynomial has an empty coefficient map.
    """

    __slots__ = ("n", "coeffs")

    def __init__(self, n, coeffs=None):
        self.n = n
        clean = {}
        for expts, c in (coeffs or {}).items():
            c = ratio(c)
            if len(expts) != n or any(e < 0 for e in expts):
                raise ValueError(f"bad exponent vector {expts} for n={n}")
            if c:
                clean[tuple(expts)] = c
        self.coeffs = clean

    # -- constructors

    @classmethod
    def zero(cls, n):
        return cls(n, {})

    @classmethod
    def constant(cls, n, c):
        return cls(n, {(0,) * n: ratio(c)})

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
        return cls(n, {tuple(expts): ratio(c)})

    # -- queries

    def is_zero(self):
        return not self.coeffs

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.coeffs), default=-1)

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.n == other.n and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.n, frozenset(self.coeffs.items())))

    def __bool__(self):
        return bool(self.coeffs)

    # -- arithmetic

    def __add__(self, other):
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return Polynomial(self.n, out)

    def __neg__(self):
        return Polynomial(self.n, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            out = {}
            for e1, c1 in self.coeffs.items():
                for e2, c2 in other.coeffs.items():
                    e = tuple(a + b for a, b in zip(e1, e2))
                    s = out.get(e, 0) + c1 * c2
                    if s:
                        out[e] = s
                    else:
                        out.pop(e, None)
            return Polynomial(self.n, out)
        if not isinstance(other, (int, str, Fraction)):
            return NotImplemented
        c = ratio(other)
        return Polynomial(self.n, {e: c * v for e, v in self.coeffs.items()})

    __rmul__ = __mul__

    # -- calculus and substitution

    def partial(self, i):
        """Derivative with respect to x_i (1-based)."""
        out = {}
        for e, c in self.coeffs.items():
            p = e[i - 1]
            if p:
                out[e[: i - 1] + (p - 1,) + e[i:]] = c * p
        return Polynomial(self.n, out)

    def evaluate(self, point):
        total = Fraction(0) if all(isinstance(v, (int, Fraction)) for v in point) else 0.0
        for e, c in self.coeffs.items():
            term = c
            for v, p in zip(point, e):
                if p:
                    term = term * v ** p
            total = total + term
        return total

    def substitute(self, i, value):
        """Freeze x_i at an exact value (1-based); exponent folds into the coefficient."""
        v = ratio(value)
        out = {}
        for e, c in self.coeffs.items():
            p = e[i - 1]
            c = c * v ** p if p else c
            if c:
                e = e[: i - 1] + (0,) + e[i:]
                s = out.get(e, 0) + c
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return Polynomial(self.n, out)

    def translate(self, shift):
        """Substitute x_i -> x_i + shift_i for all axes."""
        out = self
        for i, t in enumerate(shift, start=1):
            t = ratio(t)
            if t:
                xi = Polynomial.variable(self.n, i, shift=-t)
                new = Polynomial.zero(self.n)
                for e, c in out.coeffs.items():
                    term = Polynomial.monomial(self.n, e[: i - 1] + (0,) + e[i:], c)
                    p = e[i - 1]
                    for _ in range(p):
                        term = term * xi
                    new = new + term
                out = new
        return out

    def homogeneous_parts(self):
        """Split into {degree: homogeneous polynomial}."""
        parts = {}
        for e, c in self.coeffs.items():
            parts.setdefault(sum(e), {})[e] = c
        return {r: Polynomial(self.n, cs) for r, cs in sorted(parts.items())}

    def __repr__(self):
        return f"Polynomial({self.n}, {format_polynomial(self)!r})"


# ---------------------------------------------------------------------------
# axis-aligned boxes


@lru_cache(maxsize=None)
def _power_integral(lo, hi, p):
    # int_lo^hi t^p dt, exact
    return (hi ** (p + 1) - lo ** (p + 1)) / Fraction(p + 1)


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

    @property
    def center(self):
        return tuple((a + b) / 2 for a, b in zip(self.lo, self.hi))

    @property
    def widths(self):
        return tuple(b - a for a, b in zip(self.lo, self.hi))

    @property
    def volume(self):
        v = Fraction(1)
        for w in self.widths:
            v *= w
        return v

    def integrate(self, poly):
        """Exact integral of a polynomial over the box."""
        total = Fraction(0)
        for e, c in poly.coeffs.items():
            term = c
            for a, b, p in zip(self.lo, self.hi, e):
                term *= _power_integral(a, b, p)
            total += term
        return total


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

    # -- constructors

    @classmethod
    def zero(cls, n, k):
        return cls(n, k, {})

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

    # -- linear structure

    def __add__(self, other):
        self._check_compatible(other)
        out = dict(self.parts)
        for a, p in other.parts.items():
            s = out.get(a, Polynomial.zero(self.n)) + p
            if s:
                out[a] = s
            else:
                out.pop(a, None)
        return PolyForm(self.n, self.k, out)

    def __neg__(self):
        return PolyForm(self.n, self.k, {a: -p for a, p in self.parts.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, scalar):
        if isinstance(scalar, Polynomial):
            return PolyForm(self.n, self.k, {a: scalar * p for a, p in self.parts.items()})
        if not isinstance(scalar, (int, str, Fraction)):
            return NotImplemented
        c = ratio(scalar)
        return PolyForm(self.n, self.k, {a: p * c for a, p in self.parts.items()})

    __rmul__ = __mul__

    def _check_compatible(self, other, same_degree=True):
        if not isinstance(other, PolyForm) or other.n != self.n:
            raise ValueError("forms live in different ambient dimensions")
        if same_degree and other.k != self.k:
            raise ValueError(f"degree mismatch: {self.k} vs {other.k}")

    # -- exterior calculus

    def exterior_derivative(self):
        """d: k-forms to (k+1)-forms; d of a top form is the zero (n+1)-form."""
        if self.k > self.n:
            raise ValueError("cannot differentiate beyond top degree")
        out = {}
        for alpha, poly in self.parts.items():
            for i in range(1, self.n + 1):
                dp = poly.partial(i)
                if not dp:
                    continue
                s, gamma = wedge_sign((i,), alpha)
                if s == 0:
                    continue
                acc = out.get(gamma, Polynomial.zero(self.n)) + s * dp
                if acc:
                    out[gamma] = acc
                else:
                    out.pop(gamma, None)
        return PolyForm(self.n, self.k + 1, out)

    d = exterior_derivative

    def hodge(self):
        """star: component-wise sign flip onto the complementary index."""
        if self.k > self.n:
            raise ValueError("no Hodge dual above top degree")
        out = {}
        for alpha, poly in self.parts.items():
            out[complement(alpha, self.n)] = hodge_sign(alpha, self.n) * poly
        return PolyForm(self.n, self.n - self.k, out)

    star = hodge

    def codifferential(self):
        """delta = (-1)^(n(k+1)+1) star d star, the formal L2 adjoint of d."""
        if self.k == 0:
            raise ValueError("codifferential undefined on 0-forms")
        sign = (-1) ** (self.n * (self.k + 1) + 1)
        return sign * self.hodge().exterior_derivative().hodge()

    delta = codifferential

    def koszul(self, center=None):
        """Contraction with the position field relative to ``center``."""
        if self.k == 0:
            raise ValueError("Koszul operator undefined on 0-forms")
        if self.k > self.n:
            raise ValueError("no Koszul contraction above top degree")
        center = center or (0,) * self.n
        out = PolyForm.zero(self.n, self.k - 1)
        for alpha, poly in self.parts.items():
            for j, axis in enumerate(alpha):
                xj = Polynomial.variable(self.n, axis, shift=center[axis - 1])
                rest = alpha[:j] + alpha[j + 1:]
                term = PolyForm(self.n, self.k - 1, {rest: (-1) ** j * (xj * poly)})
                out = out + term
        return out

    def koszul_delta(self, center=None):
        """star kappa star; raises degree by one."""
        if self.k == self.n:
            raise ValueError("star-Koszul undefined on top-degree forms")
        return self.hodge().koszul(center).hodge()

    def wedge(self, other):
        self._check_compatible(other, same_degree=False)
        if self.k + other.k > self.n:
            raise ValueError(f"wedge degree {self.k}+{other.k} exceeds n={self.n}")
        out = PolyForm.zero(self.n, self.k + other.k)
        for a, p in self.parts.items():
            for b, q in other.parts.items():
                s, gamma = wedge_sign(a, b)
                if s:
                    out = out + PolyForm(self.n, self.k + other.k, {gamma: s * (p * q)})
        return out

    # -- metric pairings and evaluation

    def inner_product(self, other, box):
        """Exact L2 inner product over a box (orthonormal covector frame)."""
        self._check_compatible(other)
        total = Fraction(0)
        for alpha, p in self.parts.items():
            q = other.parts.get(alpha)
            if q is not None:
                total += box.integrate(p * q)
        return total

    def evaluate(self, point):
        """Component values at a point: {alpha: scalar}, zeros omitted."""
        out = {}
        for alpha, poly in self.parts.items():
            v = poly.evaluate(point)
            if v:
                out[alpha] = v
        return out

    def translate(self, shift):
        """Shift every coefficient polynomial by x -> x + shift."""
        return PolyForm(self.n, self.k, {a: p.translate(shift) for a, p in self.parts.items()})

    def homogeneous_parts(self):
        """Split by coefficient degree: {r: k-form with degree-r coefficients}."""
        out = {}
        for alpha, poly in self.parts.items():
            for r, hom in poly.homogeneous_parts().items():
                out.setdefault(r, {})[alpha] = hom
        return {r: PolyForm(self.n, self.k, parts) for r, parts in sorted(out.items())}

    def __repr__(self):
        return f"PolyForm({self.n}, {self.k}, {format_form(self)!r})"

    def __str__(self):
        return format_form(self)


def adjoint_pairing(omega, mu, box):
    """``<d omega, mu>_box - <omega, delta mu>_box`` for a k-form and a (k+1)-form.

    This combination is a pure boundary functional: it vanishes whenever
    either argument has vanishing trace on the box boundary.
    """
    if mu.k != omega.k + 1:
        raise ValueError(f"expected a ({omega.k + 1})-form test, got degree {mu.k}")
    return (omega.exterior_derivative().inner_product(mu, box)
            - omega.inner_product(mu.codifferential(), box))


def boundary_bump(box):
    """prod_i ((x_i - c_i)^2 - (w_i/2)^2): negative inside, zero on the boundary."""
    n = box.n
    out = Polynomial.constant(n, 1)
    for i, (c, w) in enumerate(zip(box.center, box.widths), start=1):
        xi = Polynomial.variable(n, i, shift=c)
        out = out * (xi * xi - Polynomial.constant(n, (w / 2) ** 2))
    return out


# ---------------------------------------------------------------------------
# textual round-trip format:  (poly) * dx[i,j,...]  joined by " + "


def format_polynomial(poly):
    if not poly.coeffs:
        return "0"
    pieces = []
    for e, c in sorted(poly.coeffs.items(), key=lambda item: (sum(item[0]), item[0])):
        factors = [f"x{i}" + (f"^{p}" if p > 1 else "")
                   for i, p in enumerate(e, start=1) if p]
        if not factors:
            body = str(abs(c))
        elif abs(c) == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(abs(c))] + factors)
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(pieces)


def format_form(form):
    if form.is_zero():
        return "0"
    terms = []
    for alpha, poly in form.components():
        idx = ",".join(str(i) for i in alpha)
        terms.append(f"({format_polynomial(poly)}) * dx[{idx}]")
    return " + ".join(terms)


_TERM_RE = re.compile(r"\(([^()]*)\)\s*\*\s*dx\[([0-9,\s]*)\]")
_MONO_RE = re.compile(r"^(?:(\d+(?:/\d+)?)(?:\*)?)?((?:x\d+(?:\^\d+)?(?:\*x\d+(?:\^\d+)?)*)?)$")


def _parse_polynomial(text, n):
    text = text.replace(" ", "")
    if text in ("", "0"):
        return Polynomial.zero(n)
    chunks = re.findall(r"[+-]?[^+-]+", text)
    poly = Polynomial.zero(n)
    for chunk in chunks:
        sign = 1
        if chunk[0] in "+-":
            sign = -1 if chunk[0] == "-" else 1
            chunk = chunk[1:]
        m = _MONO_RE.match(chunk)
        if not m:
            raise ValueError(f"cannot parse monomial {chunk!r}")
        coeff = Fraction(m.group(1)) if m.group(1) else Fraction(1)
        expts = [0] * n
        if m.group(2):
            for factor in m.group(2).split("*"):
                var, _, power = factor.partition("^")
                i = int(var[1:])
                if not 1 <= i <= n:
                    raise ValueError(f"variable {var} out of range for n={n}")
                expts[i - 1] += int(power) if power else 1
        poly = poly + Polynomial.monomial(n, tuple(expts), sign * coeff)
    return poly


def parse_form(text, n, k=None):
    """Inverse of :func:`format_form`; ``k`` is required for the zero form."""
    text = text.strip()
    if text == "0":
        if k is None:
            raise ValueError("parsing the zero form requires an explicit degree")
        return PolyForm.zero(n, k)
    parts = {}
    covered = 0
    for m in _TERM_RE.finditer(text):
        alpha = tuple(int(s) for s in m.group(2).replace(" ", "").split(",") if s)
        poly = _parse_polynomial(m.group(1), n)
        parts[alpha] = parts.get(alpha, Polynomial.zero(n)) + poly
        covered += 1
    stripped = _TERM_RE.sub("", text).replace("+", "").strip()
    if not covered or stripped:
        raise ValueError(f"cannot parse form text {text!r}")
    degrees = {len(a) for a in parts}
    if len(degrees) != 1:
        raise ValueError("mixed-degree terms in form text")
    kk = degrees.pop()
    if k is not None and k != kk:
        raise ValueError(f"expected a {k}-form, text encodes a {kk}-form")
    return PolyForm(n, kk, parts)
