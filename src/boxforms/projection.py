"""Cell-local adjoint projection onto Whitney forms.

The projector P maps a k-form w to the unique element of P1minus^k(K)
that reproduces the boundary pairing ``<d., mu> - <., delta mu>`` against
every test form mu in P1minusStar^(k+1)(K).  The two spaces have equal
dimension and the resulting square system is nonsingular on every box, so
P is well defined; on top degree (k = n) it degenerates to the plain L2
projection onto constant volume forms.  P commutes with d cell by cell.
"""

from fractions import Fraction
from operator import mul

from . import spaces
from .exactla import SingularMatrixError, inverse_integers
from .forms import scaled_terms
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
            test_side = [(self.trial[0],)]
        else:
            self.tests = spaces.basis(spaces.P1MINUS_STAR, k + 1, cell)
            test_side = [(mu, -mu.codifferential()) for mu in self.tests]
        self._test_terms = scaled_terms(test_side)  # fixed: scaled once, paired per projection
        rows, den = cell.pairing_terms(self._test_terms,
                                       scaled_terms([self._left(phi) for phi in self.trial]))
        try:
            self._inverse_ints, self._inverse_den = inverse_integers(rows, den)
        except SingularMatrixError as err:
            raise RuntimeError(
                f"adjoint projection system singular for k={k} on {cell}") from err

    def _left(self, omega):
        """omega's entry: ``(d omega, omega)``; on top degree ``(omega,)``, for the volume form."""
        return (omega,) if self.k == self.cell.n else (omega.exterior_derivative(), omega)

    def _rhs(self, omega):
        """(ints, den): the adjoint pairings of omega with every test form."""
        (ints,), den = self.cell.pairing_terms(scaled_terms([self._left(omega)]),
                                               self._test_terms)
        return ints, den

    def integers(self, omega):
        """(ints, den): the projection's coefficients in the trial basis, over one den."""
        if omega.k != self.k or omega.n != self.cell.n:
            raise ValueError("form degree/dimension does not match the projector")
        rhs, den = self._rhs(omega)
        return [sum(map(mul, row, rhs)) for row in self._inverse_ints], den * self._inverse_den

    def coefficients(self, omega):
        """Exact coefficients of the projection in the trial basis."""
        ints, den = self.integers(omega)
        return [Fraction(v, den) for v in ints]

    def project(self, omega):
        ints, den = self.integers(omega)
        return self.trial.combination(ints, den=den)


def commuting_gap(omega, proj, target):
    """None when ``target.project(d omega) == d proj.project(omega)``, else a witness.

    ``proj`` and ``target`` are the degree-k and degree-(k+1) projectors of
    one cell, so a caller checking many forms builds them once.  Exact.
    """
    left = target.project(omega.exterior_derivative())
    right = proj.project(omega).exterior_derivative()
    if left != right:
        return f"cell {proj.cell.lo}..{proj.cell.hi}: {left} != {right}"
    return None


def check_commuting(omega, k, cell):
    """Projection commutes with d on ``cell``, exactly: P^(k+1)(d w) = d(P^k w)."""
    witness = commuting_gap(omega, LocalProjector(k, cell), LocalProjector(k + 1, cell))
    return CheckReport("projection_commutes_with_d", cell.n, k, witness is None,
                       counterexample=witness)
