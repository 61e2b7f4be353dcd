"""Cell-local adjoint projection onto Whitney forms, and its mesh version.

The projector P maps a k-form w to the unique element of P1minus^k(K)
that reproduces the boundary pairing ``<d., mu> - <., delta mu>`` against
every test form mu in P1minusStar^(k+1)(K).  The two spaces have equal
dimension and the resulting square system is nonsingular on every box, so
P is well defined; on top degree (k = n) it degenerates to the plain L2
projection onto constant volume forms.  P commutes with d cell by cell.
"""

import numpy as np

from . import spaces
from .exactla import SingularMatrixError, invert, mat_vec
from .forms import PolyForm, adjoint_pairing
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
            self.matrix = [[cell.volume]]
        else:
            self.tests = spaces.basis(spaces.P1MINUS_STAR, k + 1, cell)
            self.matrix = [[adjoint_pairing(phi, mu, cell) for phi in self.trial]
                           for mu in self.tests]
        try:
            self.inverse = invert(self.matrix)
        except SingularMatrixError as err:
            raise RuntimeError(
                f"adjoint projection system singular for k={k} on {cell}") from err

    def _rhs(self, omega):
        if self.k == self.cell.n:
            return [omega.inner_product(self.trial[0], self.cell)]
        return [adjoint_pairing(omega, mu, self.cell) for mu in self.tests]

    def coefficients(self, omega):
        """Exact coefficients of the projection in the trial basis."""
        if omega.k != self.k or omega.n != self.cell.n:
            raise ValueError("form degree/dimension does not match the projector")
        return mat_vec(self.inverse, self._rhs(omega))

    def project(self, omega):
        out = PolyForm.zero(self.cell.n, self.k)
        for c, phi in zip(self.coefficients(omega), self.trial):
            if c:
                out = out + c * phi
        return out

    def coefficients_from_field(self, field, order=5):
        """Float trial coefficients for a sampled (non-polynomial) k-form."""
        points, weights = box_rule(self.cell, order)
        n = self.cell.n
        omega = component_array(field.at(points), self.k, n, weights.shape) * weights
        if self.k == n:
            rhs = np.einsum("tap,ap->t", form_array([self.trial[0]], points), omega)
        else:
            d_omega = component_array(field.d_at(points), self.k + 1, n, weights.shape) * weights
            codiffs = [mu.codifferential() for mu in self.tests]
            rhs = (np.einsum("tap,ap->t", form_array(self.tests, points), d_omega)
                   - np.einsum("tap,ap->t", form_array(codiffs, points), omega))
        return np.array(self.inverse, dtype=float) @ rhs


def project_cell(omega, k, cell, order=5):
    """One-shot adjoint projection of a PolyForm or sampled field."""
    projector = LocalProjector(k, cell)
    if isinstance(omega, PolyForm):
        return projector.project(omega)
    coeffs = projector.coefficients_from_field(omega, order=order)
    return coeffs, projector.trial


def project_mesh(omega, k, mesh, order=5):
    """Cell-wise projection over a mesh.

    ``omega`` may be a single PolyForm (restricted to every cell), a list
    with one PolyForm per cell, or a sampled field.  Returns the list of
    per-cell results in mesh cell order.
    """
    per_cell = []
    for i, cell in enumerate(mesh.cells):
        local = omega[i] if isinstance(omega, (list, tuple)) else omega
        per_cell.append(project_cell(local, k, cell, order=order))
    return per_cell


def check_commuting(omega, k, cell_or_mesh, order=5, tol=1e-9):
    """Projection commutes with d: P^(k+1)(d w) = d(P^k w).

    Exact for polynomial input; quadrature-consistent (within ``tol`` in
    the max coefficient norm) for sampled fields.
    """
    cells = getattr(cell_or_mesh, "cells", [cell_or_mesh])
    for cell in cells:
        if isinstance(omega, PolyForm):
            left = LocalProjector(k + 1, cell).project(omega.exterior_derivative())
            right = LocalProjector(k, cell).project(omega).exterior_derivative()
            if left != right:
                return CheckReport(
                    "projection_commutes_with_d", cell.n, k, False,
                    counterexample=f"cell {cell.lo}..{cell.hi}: {left} != {right}")
        else:
            proj, target = LocalProjector(k, cell), LocalProjector(k + 1, cell)
            left = target.coefficients_from_field(omega.d_field(), order=order)
            coeffs = proj.coefficients_from_field(omega, order=order)
            # d of the projected form, expanded in the degree-(k+1) trial basis
            d_cols = [target.coefficients(phi.exterior_derivative()) for phi in proj.trial]
            right = np.array(d_cols, dtype=float).T @ coeffs
            if np.max(np.abs(left - right)) > tol:
                return CheckReport(
                    "projection_commutes_with_d", cell.n, k, False,
                    counterexample=f"cell {cell.lo}..{cell.hi}: max coefficient "
                                   f"gap {np.max(np.abs(left - right)):.3e}")
    n = cells[0].n
    return CheckReport("projection_commutes_with_d", n, k, True)
