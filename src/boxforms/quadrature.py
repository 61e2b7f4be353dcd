"""Tensor-product Gauss-Legendre quadrature on axis-aligned boxes."""

from functools import lru_cache
from itertools import product

import numpy as np

from .indices import multi_indices


@lru_cache(maxsize=None)
def _reference_rule(n, order):
    nodes, weights = np.polynomial.legendre.leggauss(order)
    pts = np.array(list(product(nodes, repeat=n)), dtype=float)
    wts = np.array([np.prod(w) for w in product(weights, repeat=n)], dtype=float)
    return pts, wts


def gauss_nodes(order):
    """The Gauss-Legendre nodes of the given order on [-1, 1], each axis's nodes in every rule."""
    if order < 1:
        raise ValueError("quadrature order must be >= 1")
    return _reference_rule(1, order)[0][:, 0]


def centered_rule(widths, order):
    """Offsets from the center (m, n) and weights (m,) on a box of these widths."""
    if order < 1:
        raise ValueError("quadrature order must be >= 1")
    ref_pts, ref_wts = _reference_rule(len(widths), order)
    half = np.array([float(w) / 2.0 for w in widths])
    return ref_pts * half, ref_wts * np.prod(half)


def box_rule(box, order):
    """Points (m, n) and weights (m,) integrating degree <= 2*order-1 per axis."""
    offsets, weights = centered_rule(box.widths, order)
    return np.array([float(c) for c in box.center]) + offsets, weights


def polyform_values(form, points):
    """Component arrays {alpha: values} of a PolyForm at an (m, n) point set."""
    out = {}
    for alpha, poly in form.parts.items():
        acc, den = np.zeros(len(points)), poly.den
        for e, c in poly.terms.items():
            term = np.full(len(points), c / den)  # int / int rounds once, as float(Fraction)
            for axis, p in enumerate(e):
                if p:
                    term *= points[:, axis] ** p
            acc += term
        out[alpha] = acc
    return out


def component_array(values, k, n, shape):
    """Components {alpha: values} of a k-form as one (component, *shape) array.

    Rows follow the lexicographic multi-index order and absent components
    read zero; a degree-(n+1) form (d of a top form) has no rows.
    """
    alphas = multi_indices(k, n) if k <= n else []
    out = np.zeros((len(alphas), *shape))
    for i, alpha in enumerate(alphas):
        if alpha in values:
            out[i] = np.reshape(values[alpha], shape)
    return out


def form_array(forms, points):
    """Values of same-degree PolyForms as one (form, component, point) array."""
    return np.stack([component_array(polyform_values(f, points), f.k, f.n, (len(points),))
                     for f in forms])
