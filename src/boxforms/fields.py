"""Smooth k-form fields and the catalog of manufactured solutions.

A :class:`FormField` evaluates components (and, when supplied, components
of its exterior derivative) at arrays of points; it is what the solver
and error norms consume for non-polynomial data.  On a tensor grid of
per-axis coordinates (``FormField.on_axes``: the Gauss points of a mesh,
as ``CubicalMesh.gauss_axes`` gives them per slot) a catalog component is
evaluated separably: every term is a product of per-axis factors, so
each sin/cos is taken on one axis's (slot, node) coordinates only, and
the term is one broadcast product over the grid, whose layout divisions
+ (order,)*n reshapes to (cell id, reference point).  The values are the
doubles that pointwise evaluation gives.  Any other component callable is
called once on the grid's points, flattened in the same order.

``CATALOG`` names each manufactured solution and gives its dimension,
degree, boundary compatibility and the components of omega as text, each
a signed product of ``sin(pi*xI)`` and ``cos(pi*xI)`` factors.  That
family is closed under partial derivatives, so :func:`manufactured`
derives d(omega), delta(d(omega)) and the load ``f = delta(d(omega)) +
omega`` exactly, on term dictionaries with the sign algebra of the exact
kernel, on an entry's first lookup; later lookups return the same object.
Each entry solves the reaction-diffusion model problem exactly: nothing
is differentiated numerically, and no computer algebra system is loaded.

Boundary compatibility tags:

* ``essential``: the trace of omega vanishes on the domain boundary; use
  with the full-test space flavor;
* ``natural``: the trace of star(d omega) vanishes instead; use with the
  interior-test flavor.
"""

import functools
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .forms import CellBox
from .indices import complement, hodge_sign, multi_indices, wedge_sign


class FormField:
    """k-form with vectorized component evaluators."""

    def __init__(self, n, k, components, d_components=None):
        self.n = n
        self.k = k
        self.components = dict(components)
        self.d_components = dict(d_components) if d_components is not None else None

    def at(self, points):
        return {alpha: np.asarray(fn(points), dtype=float)
                for alpha, fn in self.components.items()}

    def d_at(self, points):
        if self.d_components is None:
            raise ValueError("field carries no analytic exterior derivative")
        return {alpha: np.asarray(fn(points), dtype=float)
                for alpha, fn in self.d_components.items()}

    def on_axes(self, axes):
        """Components on the tensor grid of per-axis (slot, node) coordinates, as (cell, point)."""
        return _on_axes(self.components, axes)

    def d_on_axes(self, axes):
        if self.d_components is None:
            raise ValueError("field carries no analytic exterior derivative")
        return _on_axes(self.d_components, axes)


# ---------------------------------------------------------------------------
# exact exterior calculus on term dictionaries: {(p, factors): c} stands for
# c * pi**p * prod_i factors[i](pi * x_i), each factor "1", "sin" or "cos"

_PARTIAL = {"sin": (1, "cos"), "cos": (-1, "sin")}


def _add(terms, key, c):
    """Add c to one term, which is dropped when its coefficient becomes 0."""
    c += terms.get(key, 0)
    if c:
        terms[key] = c
    else:
        terms.pop(key, None)


def symbolic_d(parts, n):
    out = {}
    for alpha, terms in parts.items():
        for (p, factors), c in terms.items():
            for i, f in enumerate(factors):
                s, gamma = wedge_sign((i + 1,), alpha)
                if f != "1" and s != 0:
                    sf, g = _PARTIAL[f]
                    key = (p + 1, factors[:i] + (g,) + factors[i + 1:])
                    _add(out.setdefault(gamma, {}), key, s * sf * c)
    return {a: t for a, t in out.items() if t}


def symbolic_hodge(parts, n):
    return {complement(a, n): {key: hodge_sign(a, n) * c for key, c in t.items()}
            for a, t in parts.items()}


def symbolic_codifferential(parts, n, k):
    sign = (-1) ** (n * (k + 1) + 1)
    inner = symbolic_d(symbolic_hodge(parts, n), n)
    return {a: {key: sign * c for key, c in t.items()}
            for a, t in symbolic_hodge(inner, n).items()}


def _sum_terms(terms, coords):
    """Sum of the terms on per-axis coordinate arrays that broadcast together.

    Each sin/cos(pi*x_i) factor is computed once, on axis i's array, and
    the factors of a term multiply in axis order.
    """
    columns = {}
    out = np.zeros(np.broadcast_shapes(*(x.shape for x in coords)))
    for (p, factors), c in terms.items():
        trig = 1.0
        for i, f in enumerate(factors):
            if f != "1":
                if (i, f) not in columns:
                    columns[i, f] = getattr(np, f)(np.pi * coords[i])
                trig = trig * columns[i, f]
        out += float(c) * np.pi ** p * trig
    return out


def _evaluate(terms, points):
    """Sum of the terms at points, as (point, axis)."""
    return _sum_terms(terms, list(points.T))


def _on_axes(components, axes):
    """Components on the tensor grid of per-axis (slot, node) coordinates, each as (cell, point).

    The grid is laid out as divisions + (order,)*n, which reshapes to
    (cell id, reference point): axis i's coordinates vary along dimensions
    i and n + i.  Catalog components are summed on these per-axis views,
    so each sin/cos is taken on one axis's coordinates only; any other
    callable is called on the grid's points, flattened in the same order.
    """
    n = len(axes)
    coords = []
    for i, x in enumerate(axes):
        shape = [1] * (2 * n)
        shape[i], shape[n + i] = x.shape
        coords.append(x.reshape(shape))
    cells = np.prod([len(x) for x in axes], dtype=int)
    out = {}
    for alpha, fn in components.items():
        if isinstance(fn, functools.partial) and fn.func is _evaluate:
            values = _sum_terms(fn.args[0], coords)
        else:
            values = fn(np.stack(np.broadcast_arrays(*coords), axis=-1).reshape(-1, n))
        out[alpha] = np.asarray(values, dtype=float).reshape(cells, -1)
    return out


def _evaluators(parts):
    return {alpha: functools.partial(_evaluate, terms) for alpha, terms in parts.items()}


_FACTOR = r"(sin|cos)\(pi\*x([1-9][0-9]*)\)"
_PRODUCT = re.compile(rf"-?{_FACTOR}(?:\*{_FACTOR})*")


def parse_component(name, n, text):
    """The term dictionary of a catalog text, a signed product of sin/cos(pi*xI)."""
    pieces = re.findall(_FACTOR, text) if _PRODUCT.fullmatch(text) else []
    factors = {int(axis): f for f, axis in pieces}
    if not pieces or len(factors) < len(pieces) or max(factors) > n:
        raise ValueError(f"catalog entry {name!r}: {text!r} is not a signed product of "
                         f"sin(pi*xI) and cos(pi*xI), each axis 1 <= I <= {n} at most once")
    key = (0, tuple(factors.get(i, "1") for i in range(1, n + 1)))
    return {key: Fraction(-1 if text[0] == "-" else 1)}


@dataclass(frozen=True)
class ManufacturedSolution:
    """Closed-form solution with analytic derivative data and load.

    A catalog load's terms per component are delta(d(omega))'s followed by
    omega's single term, with no key in common (they carry pi^2 and pi^0),
    so its values on any points are, bit for bit, delta_d's plus omega's:
    the solver evaluates the two and adds them instead of the load.
    """

    name: str
    n: int
    k: int
    domain: CellBox
    compatibility: str       # "essential" | "natural"
    omega: FormField         # solution, with d components attached
    delta_d: FormField       # delta(d omega), degree k
    load: FormField          # f = delta(d omega) + omega


_S2 = "sin(pi*x1)*sin(pi*x2)"
_S3 = "sin(pi*x1)*sin(pi*x2)*sin(pi*x3)"

#: name -> (n, k, boundary compatibility, {multi-index: component of omega})
CATALOG = {
    "sin1d_k0": (1, 0, "essential", {(): "sin(pi*x1)"}),
    "sin2d_k0": (2, 0, "essential", {(): _S2}),
    "cos2d_k0": (2, 0, "natural", {(): "cos(pi*x1)*cos(pi*x2)"}),
    "sin2d_k1": (2, 1, "essential", {(1,): _S2, (2,): _S2}),
    "cos2d_k1": (2, 1, "natural",
                 {(1,): "sin(pi*x1)*cos(pi*x2)", (2,): "-cos(pi*x1)*sin(pi*x2)"}),
    "sin2d_k2": (2, 2, "essential", {(1, 2): _S2}),
    "sin3d_k1": (3, 1, "essential", {(1,): _S3, (2,): _S3, (3,): _S3}),
    "sin3d_k2": (3, 2, "essential", {(1, 2): _S3, (1, 3): _S3, (2, 3): _S3}),
}


@functools.cache
def manufactured(name):
    """The catalog entry ``name``, derived on its first lookup and cached."""
    if name not in CATALOG:
        known = ", ".join(sorted(CATALOG))
        raise KeyError(f"unknown manufactured solution {name!r}; available: {known}")
    n, k, compatibility, text = CATALOG[name]
    parts = {a: parse_component(name, n, e) for a, e in text.items()}
    d_parts = symbolic_d(parts, n)
    dd_parts = symbolic_codifferential(d_parts, n, k + 1)
    load_parts = {a: dict(t) for a, t in dd_parts.items()}
    for a, t in parts.items():
        for key, c in t.items():
            _add(load_parts.setdefault(a, {}), key, c)
    omega = FormField(n, k, _evaluators(parts), _evaluators(d_parts))
    delta_d = FormField(n, k, _evaluators(dd_parts))
    load = FormField(n, k, _evaluators(load_parts))
    return ManufacturedSolution(name, n, k, CellBox.unit(n), compatibility,
                                omega, delta_d, load)


def constant_solution(n, k, sigma, scale=1.0):
    """The constant form scale*dx^sigma as a ManufacturedSolution.

    Its load equals itself (d of a constant vanishes), and it satisfies
    the natural boundary conditions, so the discrete solution must
    reproduce it exactly.
    """
    sigma = tuple(sigma)
    if sigma not in multi_indices(k, n):
        raise ValueError(f"{sigma} is not an increasing {k}-index for n={n}")

    def const(points, value=float(scale)):
        return np.full(len(points), value)

    omega = FormField(n, k, {sigma: const}, {})
    zero = FormField(n, k, {})
    return ManufacturedSolution(f"const_{n}d_k{k}", n, k, CellBox.unit(n),
                                "natural", omega, zero, omega)
