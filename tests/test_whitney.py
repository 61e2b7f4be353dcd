from fractions import Fraction
from math import comb

import pytest

from boxforms.exactla import rank, spans_equal
from boxforms.mesh import build_grid
from boxforms.whitney import (FULL_TEST, INTERIOR_TEST, PiecewiseWhitney,
                              apply_broken_d, build_constraints,
                              check_commuting_squares, check_crossing_equivalence,
                              check_whitney_complex, interpolated_generating_set,
                              kernel_space, local_d_matrix, mean_jump_rows,
                              prune_vectors, space_summary)

MESH2 = build_grid([[0, 1], [0, 1]], (2, 2))
MESH3 = build_grid([[0, 1]] * 3, (2, 2, 2))
SINGLE = build_grid([[0, 1], [0, 1]], (1, 1))


def test_constraint_shapes_match_spec_examples():
    cs = build_constraints(0, MESH2, INTERIOR_TEST)
    assert (cs.n_rows, cs.ncols) == (4, 12)
    assert rank(cs.rows) == 4
    cs1 = build_constraints(1, MESH2, INTERIOR_TEST)
    assert (cs1.n_rows, cs1.ncols) == (1, 12)


def test_single_cell_has_no_constraints():
    for k in (0, 1, 2):
        cs = build_constraints(k, SINGLE, INTERIOR_TEST)
        assert cs.n_rows == 0
        assert kernel_space(cs).dim == comb(3, k + 1)


def test_top_degree_space_is_piecewise_constants():
    cs = build_constraints(2, MESH2, INTERIOR_TEST)
    assert cs.n_rows == 0
    assert kernel_space(cs).dim == MESH2.n_cells


def test_kernel_dimension_2x2():
    cs = build_constraints(0, MESH2, INTERIOR_TEST)
    assert kernel_space(cs).dim == 12 - 4


def test_constants_satisfy_constraints():
    from boxforms.indices import multi_indices
    for mesh in (MESH2, MESH3):
        for k in range(mesh.n + 1):
            cs = build_constraints(k, mesh, INTERIOR_TEST)
            for sigma in multi_indices(k, mesh.n):
                vec = cs.pw.constant_form_vector(sigma, 7)
                assert not any(cs.residual(vec))


@pytest.mark.parametrize("mesh", [MESH2, MESH3])
@pytest.mark.parametrize("flavor", [INTERIOR_TEST, FULL_TEST])
def test_projected_conforming_functions_satisfy_constraints(mesh, flavor):
    for k in range(mesh.n + 1):
        cs = build_constraints(k, mesh, flavor)
        gens = interpolated_generating_set(k, mesh, flavor, pw=cs.pw)
        for vec in gens.vectors:
            assert not any(cs.residual(vec))


@pytest.mark.parametrize("mesh", [MESH2, MESH3])
def test_generator_span_inside_kernel(mesh):
    for k in range(mesh.n):
        cs = build_constraints(k, mesh, INTERIOR_TEST)
        kernel = kernel_space(cs)
        gens = interpolated_generating_set(k, mesh, INTERIOR_TEST, pw=cs.pw)
        dk = kernel.dense_matrix()
        dg = gens.dense_matrix()
        assert rank(dk) == rank(dk + dg)      # containment
        assert rank(dg) <= kernel.dim         # dimension monotonicity


def test_generating_set_can_be_dependent_and_prunes():
    cs = build_constraints(0, MESH2, INTERIOR_TEST)
    gens = interpolated_generating_set(0, MESH2, INTERIOR_TEST, pw=cs.pw)
    assert gens.dim == 9          # one per vertex
    pruned, kept = prune_vectors(gens)
    assert pruned.dim == rank(gens.dense_matrix()) == 8
    assert kept == sorted(kept)
    # float pruning agrees on the count
    pruned_f, _ = prune_vectors(gens, force_float=True)
    assert pruned_f.dim == 8


def test_summary_fields():
    summary = space_summary(0, MESH2, INTERIOR_TEST)
    assert summary == {
        "k": 0, "flavor": INTERIOR_TEST, "n_cells": 4, "dim_piecewise": 12,
        "rank_B": 4, "dim_kernel": 8, "dim_generators_span": 8,
    }


@pytest.mark.parametrize("mesh", [SINGLE, MESH2, MESH3])
@pytest.mark.parametrize("flavor", [INTERIOR_TEST, FULL_TEST])
def test_whitney_complex(mesh, flavor):
    report = check_whitney_complex(mesh, flavor)
    assert report.passed, report.to_dict()


@pytest.mark.parametrize("mesh", [MESH2, MESH3])
@pytest.mark.parametrize("flavor", [INTERIOR_TEST, FULL_TEST])
def test_commuting_squares(mesh, flavor):
    report = check_commuting_squares(mesh, flavor)
    assert report.passed, report.to_dict()


def test_broken_d_map():
    pw0 = PiecewiseWhitney(0, MESH2)
    pw1 = PiecewiseWhitney(1, MESH2)
    cols = local_d_matrix(pw0, pw1, 0)
    assert len(cols) == pw0.dim_local and len(cols[0]) == pw1.dim_local
    # derivative of a piecewise linear: check on one cell explicitly
    vec = {pw0.col(0, 1): Fraction(2)}  # 2*(x1 - c1) on cell 0
    dvec = apply_broken_d(vec, pw0, pw1)
    form = pw1.form_on_cell(dvec, 0)
    from boxforms.forms import PolyForm
    assert form == PolyForm.covector(2, (1,), 2)


@pytest.mark.parametrize("divisions", [(2, 2), (3, 3)])
def test_mean_jump_equivalence(divisions):
    mesh = build_grid([[0, 1], [0, 1]], divisions)
    report = check_crossing_equivalence(mesh)
    assert report.passed, report.to_dict()


def test_mean_jump_equivalence_1d():
    # the same gluing pattern holds on intervals
    mesh = build_grid([[0, 1]], (4,))
    pw = PiecewiseWhitney(0, mesh)
    cs = build_constraints(0, mesh, INTERIOR_TEST)
    from boxforms.exactla import nullspace
    kernel_a = nullspace(cs.rows, ncols=pw.ncols)
    kernel_b = nullspace(mean_jump_rows(mesh, pw), ncols=pw.ncols)
    assert spans_equal(kernel_a, kernel_b)


def test_full_test_flavor_is_smaller():
    for k in (0, 1):
        interior = kernel_space(build_constraints(k, MESH2, INTERIOR_TEST))
        full = kernel_space(build_constraints(k, MESH2, FULL_TEST))
        assert full.dim < interior.dim
        # essential space is contained in the natural one
        di = interior.dense_matrix()
        df = full.dense_matrix()
        assert rank(di) == rank(di + df)


@pytest.mark.parametrize("mesh", [build_grid([[0, 1], [0, 1]], (3, 3)),
                                  build_grid([[0, 1], [0, 1]], (4, 2)),
                                  MESH3], ids=["3x3", "4x2", "2x2x2"])
@pytest.mark.parametrize("flavor", [INTERIOR_TEST, FULL_TEST])
def test_generators_span_the_kernel(mesh, flavor):
    for k in range(mesh.n + 1):
        summary = space_summary(k, mesh, flavor)
        assert summary["dim_generators_span"] == summary["dim_kernel"]
        if flavor == FULL_TEST:
            gens = interpolated_generating_set(k, mesh, flavor)
            assert gens.dim == summary["dim_generators_span"]
