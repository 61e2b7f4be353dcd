"""Lowest-order differential-form finite elements on cubical meshes.

Exact rational exterior calculus on boxes, the lowest-order local form
families and their structural identities, an adjoint-projection
interpolator, conforming tensor-product spaces, nonconforming glued
Whitney spaces, and a compatible Galerkin solver with convergence
diagnostics.
"""

from .exactla import rank, spans_equal
from .fields import CATALOG, FormField, ManufacturedSolution, constant_solution, manufactured
from .forms import CellBox, PolyForm, Polynomial, boundary_bump, format_form
from .global_spaces import VQ, VQ0, VQSTAR, VQSTAR0, check_conforming_complex
from .indices import complement, hodge_sign, multi_indices, wedge_sign
from .mesh import CubicalMesh, build_grid, face_dofs
from .projection import LocalProjector, check_commuting
from .reports import CheckReport
from .spaces import (P0, P1MINUS, P1MINUS_STAR, Q1MINUS, Q1MINUS_STAR, SpaceBasis,
                     basis, check_Q_exactness, check_ap_identity, check_local_couple,
                     check_orthogonality, dimension)
from .whitney import (FULL_TEST, INTERIOR_TEST, ConstraintSystem, PiecewiseWhitney,
                      WhitneySpace, build_constraints, check_commuting_squares,
                      check_crossing_equivalence, check_whitney_complex,
                      interpolated_generating_set, kernel_space, prune_vectors,
                      space_summary)

__version__ = "0.1.0"


def __getattr__(name):
    """Solver names load on first use: only solving needs scipy."""
    if name in ("assemble", "broken_error", "build_solver_space", "consistency_with_floor",
                "convergence_sweep", "solve"):
        from . import solver
        return getattr(solver, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
