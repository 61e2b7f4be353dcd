"""Smooth k-form fields and the catalog of manufactured solutions.

A :class:`FormField` evaluates components (and, when supplied, components
of its exterior derivative) at arrays of points; it is what the solver
and error norms consume for non-polynomial data.

``CATALOG`` names each manufactured solution and gives its dimension,
degree, boundary compatibility and the components of omega as sympy
text.  :func:`manufactured` derives an entry on its first lookup and
returns the same object on every later one: the exterior derivative and
the codifferential of omega are computed with sympy, using the same sign
algebra as the exact kernel, and lambdified without simplification.  The
load is ``f = delta(d(omega)) + omega``, so each entry solves the
reaction-diffusion model problem exactly; nothing is ever differentiated
numerically.  sympy is imported only by these derivations, so ``import
boxforms`` does not load it.

Boundary compatibility tags:

* ``essential``: the trace of omega vanishes on the domain boundary; use
  with the full-test space flavor;
* ``natural``: the trace of star(d omega) vanishes instead; use with the
  interior-test flavor.
"""

import functools
from dataclasses import dataclass

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

    def d_field(self):
        if self.d_components is None:
            raise ValueError("field carries no analytic exterior derivative")
        # d of d vanishes identically
        return FormField(self.n, self.k + 1, self.d_components, {})


# ---------------------------------------------------------------------------
# symbolic exterior calculus on component dictionaries of sympy expressions


def symbolic_d(parts, n, xs):
    out = {}
    for alpha, expr in parts.items():
        for i in range(1, n + 1):
            dd = expr.diff(xs[i - 1])
            if dd == 0:
                continue
            s, gamma = wedge_sign((i,), alpha)
            if s == 0:
                continue
            out[gamma] = out.get(gamma, 0) + s * dd
    return {a: e for a, e in out.items() if e != 0}


def symbolic_hodge(parts, n):
    return {complement(a, n): hodge_sign(a, n) * e for a, e in parts.items()}


def symbolic_codifferential(parts, n, k, xs):
    sign = (-1) ** (n * (k + 1) + 1)
    inner = symbolic_d(symbolic_hodge(parts, n), n, xs)
    return {a: sign * e for a, e in symbolic_hodge(inner, n).items()}


def _lambdify(parts, n, xs):
    import sympy as sp

    out = {}
    for alpha, expr in parts.items():
        fn = sp.lambdify(xs, expr, "numpy")

        def wrapper(points, fn=fn):
            vals = fn(*[points[:, i] for i in range(points.shape[1])])
            return np.broadcast_to(np.asarray(vals, dtype=float), (len(points),)).copy()

        out[alpha] = wrapper
    return out


@dataclass(frozen=True)
class ManufacturedSolution:
    """Closed-form solution with analytic derivative data and load."""

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
    import sympy as sp

    n, k, compatibility, text = CATALOG[name]
    xs = sp.symbols(f"x1:{n + 1}")
    parts = {a: sp.sympify(e) for a, e in text.items()}
    d_parts = symbolic_d(parts, n, xs)
    dd_parts = symbolic_codifferential(d_parts, n, k + 1, xs) if d_parts else {}
    load_parts = dict(dd_parts)
    for a, e in parts.items():
        load_parts[a] = load_parts.get(a, 0) + e
    omega = FormField(n, k, _lambdify(parts, n, xs), _lambdify(d_parts, n, xs))
    delta_d = FormField(n, k, _lambdify(dd_parts, n, xs))
    load = FormField(n, k, _lambdify(load_parts, n, xs))
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
