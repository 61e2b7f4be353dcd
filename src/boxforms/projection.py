"""Cell-local adjoint projection onto Whitney forms.

The projector P maps a k-form w to the unique element of P1minus^k(K)
that reproduces the boundary pairing ``<d., mu> - <., delta mu>`` against
every test form mu in P1minusStar^(k+1)(K).  The two spaces have equal
dimension and the resulting square system is nonsingular on every box, so
P is well defined; on top degree (k = n) it degenerates to the plain L2
projection onto constant volume forms.  P commutes with d cell by cell.
"""

from fractions import Fraction
from functools import cached_property
from operator import mul

import numpy as np

from . import spaces
from .exactla import SingularMatrixError, integer_scaled, invert
from .forms import PolyForm
from .quadrature import box_rule, component_array, form_array
from .reports import CheckReport


class LocalProjector:
    """Factorized adjoint-projection system on one cell."""

    def __init__(self, k, cell):
        n = cell.n
        if not 0 <= k <= n:
            raise ValueError(f"no degree-{k} projector in dimension {n}")
        self.k = k
        self.cell = cell
        self.trial = spaces.basis(spaces.P1MINUS, k, cell)
        if k == n:
            self.tests = None
            self._test_side = [(self.trial[0],)]
        else:
            self.tests = spaces.basis(spaces.P1MINUS_STAR, k + 1, cell)
            self.test_codiffs = [mu.codifferential() for mu in self.tests]
            self._test_side = [(mu, -dmu) for mu, dmu in zip(self.tests, self.test_codiffs)]
        self.matrix = cell.pairing_table(self._test_side, [self._left(phi) for phi in self.trial])
        try:
            self.inverse = invert(self.matrix)
        except SingularMatrixError as err:
            raise RuntimeError(
                f"adjoint projection system singular for k={k} on {cell}") from err
        # the inverse as integers over one denominator, for the exact product
        ints, self._inverse_den = integer_scaled([v for row in self.inverse for v in row])
        size = len(self.inverse)
        self._inverse_ints = [ints[i * size:(i + 1) * size] for i in range(size)]

    @cached_property
    def inverse_float(self):
        return np.array(self.inverse, dtype=float)

    def _left(self, omega):
        """omega's entry: ``(d omega, omega)``; on top degree ``(omega,)``, for the volume form."""
        return (omega,) if self.k == self.cell.n else (omega.exterior_derivative(), omega)

    def _rhs(self, omega):
        """(ints, den): the adjoint pairings of omega with every test form."""
        (ints,), den = self.cell.pairing_integers([self._left(omega)], self._test_side)
        return ints, den

    def coefficients(self, omega):
        """Exact coefficients of the projection in the trial basis."""
        if omega.k != self.k or omega.n != self.cell.n:
            raise ValueError("form degree/dimension does not match the projector")
        rhs, den = self._rhs(omega)
        den *= self._inverse_den
        return [Fraction(sum(map(mul, row, rhs)), den) for row in self._inverse_ints]

    def project(self, omega):
        return self.trial.combination(self.coefficients(omega))

    def coefficients_from_field(self, field, order=5):
        """Float trial coefficients for a sampled (non-polynomial) k-form."""
        points, weights = box_rule(self.cell, order)
        n = self.cell.n
        omega = component_array(field.at(points), self.k, n, weights.shape) * weights
        if self.k == n:
            rhs = np.einsum("tap,ap->t", form_array([self.trial[0]], points), omega)
        else:
            d_omega = component_array(field.d_at(points), self.k + 1, n, weights.shape) * weights
            rhs = (np.einsum("tap,ap->t", form_array(self.tests, points), d_omega)
                   - np.einsum("tap,ap->t", form_array(self.test_codiffs, points), omega))
        return self.inverse_float @ rhs


def project_cell(omega, k, cell, order=5):
    """One-shot adjoint projection of a PolyForm or sampled field."""
    projector = LocalProjector(k, cell)
    if isinstance(omega, PolyForm):
        return projector.project(omega)
    coeffs = projector.coefficients_from_field(omega, order=order)
    return coeffs, projector.trial


def commuting_gap(omega, proj, target, order=5, tol=1e-9):
    """None when ``target.project(d omega) == d proj.project(omega)``, else a witness.

    ``proj`` and ``target`` are the degree-k and degree-(k+1) projectors of
    one cell, so a caller checking many forms builds them once.  Exact for
    polynomial input; within ``tol`` in the max coefficient norm for
    sampled fields.
    """
    cell = proj.cell
    if isinstance(omega, PolyForm):
        left = target.project(omega.exterior_derivative())
        right = proj.project(omega).exterior_derivative()
        if left != right:
            return f"cell {cell.lo}..{cell.hi}: {left} != {right}"
        return None
    left = target.coefficients_from_field(omega.d_field(), order=order)
    coeffs = proj.coefficients_from_field(omega, order=order)
    # d of the projected form, expanded in the degree-(k+1) trial basis
    d_cols = [target.coefficients(phi.exterior_derivative()) for phi in proj.trial]
    right = np.array(d_cols, dtype=float).T @ coeffs
    gap = np.max(np.abs(left - right))
    if gap > tol:
        return f"cell {cell.lo}..{cell.hi}: max coefficient gap {gap:.3e}"
    return None


def check_commuting(omega, k, cell, order=5, tol=1e-9):
    """Projection commutes with d on ``cell``: P^(k+1)(d w) = d(P^k w).

    Exact for polynomial input; quadrature-consistent (within ``tol`` in
    the max coefficient norm) for sampled fields.
    """
    witness = commuting_gap(omega, LocalProjector(k, cell), LocalProjector(k + 1, cell),
                            order=order, tol=tol)
    return CheckReport("projection_commutes_with_d", cell.n, k, witness is None,
                       counterexample=witness)
