import dataclasses
import functools
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse

import boxforms
from boxforms import exactla, fields, local, projection, solver, whitney
from boxforms.fields import FormField, constant_solution, manufactured
from boxforms.forms import CellBox, PolyForm, Polynomial
from boxforms.mesh import CubicalMesh, build_grid
from boxforms.solver import (Solution, assemble, broken_energy, broken_error,
                             build_solver_space, conjugate_gradient, consistency_with_floor,
                             convergence_sweep, flavor_for, solve)
from boxforms.spaces import P1MINUS, basis
from boxforms.whitney import FULL_TEST, INTERIOR_TEST, prune_vectors, interpolated_generating_set, PiecewiseWhitney
from boxforms.whitney import WhitneySpace, build_constraints, kernel_space
from test_global_spaces import CHECK_MESHES
from test_exactla import invert
from test_local import cell_bases, local_energy_matrix
from test_mesh import GRADED, graded_mesh


def energy_norm(problem, coeffs):
    """sqrt(x^T G x) of a coefficient vector in the problem's float Gram matrix."""
    v = np.asarray(coeffs, dtype=float)
    return math.sqrt(max(float(v @ (problem.G @ v)), 0.0))


def test_local_energy_matrix_interval_oracle():
    """Single cell [0,1], scalar case: hand-integrated stiffness + mass."""
    cell = CellBox((0,), (1,))
    rows = local_energy_matrix(basis(P1MINUS, 0, cell), cell)
    assert rows == [[Fraction(1), Fraction(0)],
                    [Fraction(0), Fraction(13, 12)]]


def test_top_degree_gram_is_cell_volumes():
    mesh = build_grid([[0, 1], [0, 2]], (2, 2))
    space = kernel_space(build_constraints(2, mesh, INTERIOR_TEST))
    problem = assemble(space, PolyForm.covector(2, (1, 2), 1))
    # kernel basis of the unconstrained top space is one indicator per cell
    volumes = sorted(float(c.volume) for c in mesh.cells)
    gram = problem.G.toarray()
    diag = sorted(np.diag(gram))
    assert np.allclose(diag, volumes)
    assert np.allclose(gram, np.diag(np.diag(gram)))


def test_gram_symmetry():
    mesh = build_grid([[0, 1], [0, 1]], (3, 3))
    space = build_solver_space(0, mesh, INTERIOR_TEST)
    problem = assemble(space, PolyForm.from_scalar(
        Polynomial.constant(2, 1)))
    asym = np.max(np.abs(problem.G - problem.G.T))
    assert asym == 0.0
    for i in range(len(problem.F)):
        for j in range(len(problem.F)):
            assert problem.G_exact[i][j] == problem.G_exact[j][i]


def test_dependent_basis_rejected():
    mesh = build_grid([[0, 1], [0, 1]], (2, 2))
    gens = interpolated_generating_set(0, mesh, INTERIOR_TEST)
    with pytest.raises(ValueError, match="prune"):
        assemble(gens, PolyForm.from_scalar(
            Polynomial.constant(2, 1)))


def test_zero_load_gives_zero_solution():
    mesh = build_grid([[0, 1]], (4,))
    space = build_solver_space(0, mesh, INTERIOR_TEST)
    problem = assemble(space, PolyForm(1, 0))
    sol = solve(problem)
    assert np.allclose(sol.x, 0)


def test_exact_solution_satisfies_galerkin_orthogonality():
    mesh = build_grid([[0, 1], [0, 1]], (2, 2))
    space = build_solver_space(1, mesh, INTERIOR_TEST)
    load = PolyForm.covector(2, (1,), 2)
    problem = assemble(space, load)
    sol = solve(problem, method="exact")
    residual = [sum(g * x for g, x in zip(row, sol.x_exact)) - f
                for row, f in zip(problem.G_exact, problem.F_exact)]
    assert all(r == 0 for r in residual)


def test_energy_minimality_of_exact_solution():
    import random
    rng = random.Random(5)
    mesh = build_grid([[0, 1], [0, 1]], (2, 2))
    space = build_solver_space(0, mesh, INTERIOR_TEST)
    load = PolyForm.from_scalar(
        Polynomial.constant(2, 1))
    problem = assemble(space, load)
    sol = solve(problem, method="exact")

    def energy(vec):
        quad = sum(vec[i] * sum(problem.G_exact[i][j] * vec[j] for j in range(len(vec)))
                   for i in range(len(vec)))
        lin = sum(f * v for f, v in zip(problem.F_exact, vec))
        return Fraction(1, 2) * quad - lin

    base = energy(sol.x_exact)
    for _ in range(5):
        perturbation = [Fraction(rng.randint(-2, 2), rng.randint(1, 3))
                        for _ in sol.x_exact]
        shifted = [a + b for a, b in zip(sol.x_exact, perturbation)]
        assert energy(shifted) >= base


def test_cg_matches_exact_solve():
    mesh = build_grid([[0, 1], [0, 1]], (3, 3))
    space = build_solver_space(0, mesh, INTERIOR_TEST)
    load = PolyForm.from_scalar(
        Polynomial.constant(2, 2))
    problem = assemble(space, load)
    exact = solve(problem, method="exact")
    iterative = solve(problem, method="cg")
    diff = exact.x - iterative.x
    rel = energy_norm(problem, diff) / energy_norm(problem, exact.x)
    assert rel < 1e-9
    assert iterative.history[-1] <= 1e-12


def test_default_solve_is_cg_even_for_rational_data():
    mesh = build_grid([[0, 1], [0, 1]], (3, 3))
    space = kernel_space(build_constraints(1, mesh, INTERIOR_TEST))
    load = PolyForm(2, 1, {
        (1,): Polynomial(2, {(0, 0): Fraction(1, 2), (1, 0): Fraction(-3, 4)}),
        (2,): Polynomial(2, {(0, 0): Fraction(-2, 3), (0, 1): Fraction(5, 7)})})
    problem = assemble(space, load)
    default = solve(problem)
    exact = solve(problem, method="exact")
    assert default.x_exact is None
    assert len(default.history) > 1
    gap = energy_norm(problem, default.x - exact.x)
    assert gap <= 1e-10 * energy_norm(problem, exact.x)


def test_cg_failure_reports_history():
    gram = np.array([[2.0, 0.3], [0.3, 0.5]])
    with pytest.raises(RuntimeError, match="residual"):
        conjugate_gradient(gram, np.array([1.0, 1.0]), rtol=1e-14, maxiter=1)


def test_constant_reproduction_small():
    mesh = build_grid([[0, 1], [0, 1]], (4, 4))
    entry = constant_solution(2, 1, (2,), 5.0)
    space = build_solver_space(1, mesh, INTERIOR_TEST)
    problem = assemble(space, entry.load)
    sol = solve(problem)
    _, err = broken_error(entry.omega, sol)
    assert err < 1e-10


def test_error_norm_scaling():
    mesh = build_grid([[0, 1], [0, 1]], (2, 2))
    space = build_solver_space(0, mesh, INTERIOR_TEST)
    problem = assemble(space, manufactured("sin2d_k0").load)
    zero = Solution(space, problem, np.zeros(space.dim))
    entry = manufactured("sin2d_k0")
    scaled = constant_solution(2, 0, (), 1.0)  # reuse the container shape

    e1_l2, e1_hd = broken_error(entry.omega, zero)

    import boxforms.fields as fields
    doubled = fields.FormField(
        2, 0,
        {a: (lambda pts, fn=fn: 2 * fn(pts)) for a, fn in entry.omega.components.items()},
        {a: (lambda pts, fn=fn: 2 * fn(pts)) for a, fn in entry.omega.d_components.items()})
    e2_l2, e2_hd = broken_error(doubled, zero)
    assert e2_l2 == pytest.approx(2 * e1_l2, rel=1e-12)
    assert e2_hd == pytest.approx(2 * e1_hd, rel=1e-12)


def test_error_quadrature_self_consistency():
    mesh = build_grid([[0, 1], [0, 1]], (4, 4))
    entry = manufactured("sin2d_k0")
    space = build_solver_space(0, mesh, FULL_TEST)
    problem = assemble(space, entry.load)
    sol = solve(problem)
    e5 = broken_error(entry.omega, sol, quad_order=5)
    e10 = broken_error(entry.omega, sol, quad_order=10)
    assert e5[0] == pytest.approx(e10[0], rel=1e-8)
    assert e5[1] == pytest.approx(e10[1], rel=1e-8)


def test_consistency_residual_zero_for_constants():
    mesh = build_grid([[0, 1], [0, 1]], (3, 3))
    entry = constant_solution(2, 0, (), 4.0)
    space = build_solver_space(0, mesh, INTERIOR_TEST)
    problem = assemble(space, entry.load)
    assert consistency_with_floor(entry, problem)[0] == 0.0


def test_consistency_residual_zero_when_scheme_is_conforming():
    # at top-minus-one degree in 2d with full tests the glued space is
    # trace-continuous, so the nonconformity functional vanishes
    entry = manufactured("sin2d_k1")
    mesh = build_grid(entry.domain, (4, 4))
    space = build_solver_space(1, mesh, FULL_TEST)
    problem = assemble(space, entry.load)
    assert consistency_with_floor(entry, problem)[0] < 1e-9


def test_sweep_structure_and_rates():
    rows = convergence_sweep("sin1d_k0", [4, 8, 16])
    assert [r["level"] for r in rows] == [0, 1, 2]
    assert rows[0]["order_Hd"] is None
    assert rows[-1]["order_Hd"] > 0.8
    assert rows[-1]["err_Hd"] < rows[0]["err_Hd"]


def test_single_level_sweep_has_no_orders():
    rows = convergence_sweep("sin1d_k0", [4])
    assert len(rows) == 1 and rows[0]["order_L2"] is None


def test_top_degree_sweep_mass_only():
    rows = convergence_sweep("sin2d_k2", [2, 4])
    # L2-projection problem: first-order L2 convergence of piecewise constants
    assert rows[-1]["order_L2"] > 0.8


# ---------------------------------------------------------------------------
# exact independence, the lazy factorization and the consistency floor


@pytest.mark.parametrize("k", [0, 1])
def test_generating_set_independence_is_decided_exactly(k):
    mesh = build_grid([[0, 1], [0, 1]], (3, 3))
    load = PolyForm.covector(2, (1,) if k else (), 1)
    interior = interpolated_generating_set(k, mesh, INTERIOR_TEST)
    assert not interior.independent
    with pytest.raises(ValueError, match="prune"):
        assemble(interior, load)
    full = interpolated_generating_set(k, mesh, FULL_TEST)
    assert not full.independent
    problem = assemble(full, load)
    assert len(problem.F) == full.dim
    assert problem.dual_norm(problem.F) > 0


def test_roundoff_level_consistency_is_flagged():
    rows = convergence_sweep("sin2d_k1", [8, 16])
    assert all(row["consistency_at_floor"] for row in rows)
    assert all(row["order_consistency"] is None for row in rows)


@pytest.mark.parametrize("name, levels", [("cos2d_k0", [4, 8, 16]), ("sin3d_k1", [4, 8])])
def test_converging_consistency_is_above_the_floor(name, levels):
    rows = convergence_sweep(name, levels)
    assert not any(row["consistency_at_floor"] for row in rows)
    assert rows[-1]["order_consistency"] >= 1.9


def test_floor_does_not_hide_a_1e_9_inconsistency():
    entry = manufactured("sin2d_k1")
    mesh = build_grid(entry.domain, (8, 8))
    problem = assemble(build_solver_space(1, mesh, FULL_TEST), entry.load)
    shifted = FormField(2, 1, {alpha: (lambda pts, fn=fn: fn(pts) + 1e-9)
                               for alpha, fn in entry.delta_d.components.items()})
    residual, floor = consistency_with_floor(
        dataclasses.replace(entry, delta_d=shifted), problem)
    assert residual > 1e-10
    assert residual > floor


_LAZY_SPLU = """
import sys
import boxforms
assert "scipy" not in sys.modules, "import boxforms loaded scipy"
from boxforms import cli, local
assert local.reference.cache_info().currsize == 0, "import boxforms built a reference table"
assert "scipy.sparse.linalg" not in sys.modules, "import boxforms loaded scipy.sparse.linalg"
assert cli.main(["verify", "--dim", "1"]) == 0
assert "scipy.sparse.linalg" not in sys.modules, "verify loaded scipy.sparse.linalg"
assert "scipy" not in sys.modules, "verify loaded scipy"
assert cli.main(["basis", "--dim", "2", "--grid", "2,2"]) == 0
assert "scipy" not in sys.modules, "basis loaded scipy"
entry = boxforms.manufactured("cos2d_k0")
mesh = boxforms.build_grid(entry.domain, (2, 2))
problem = boxforms.assemble(boxforms.build_solver_space(0, mesh), entry.load)
assert boxforms.consistency_with_floor(entry, problem)[0] > 0
assert "scipy.sparse.linalg" in sys.modules, "the consistency residual made no factorization"
"""


def test_factorization_module_loads_only_on_demand():
    src = Path(boxforms.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run([sys.executable, "-c", _LAZY_SPLU], env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr


# -- the O(N^2) pair loop that cell-by-cell exact assembly replaced


def reference_exact_assembly(space, load):
    """(G, F) over the space's vectors: one sum over shared cells per pair."""
    pw = space.pw
    mesh = pw.mesh
    slices = []
    for vec in space.vectors:
        per_cell = {}
        for col, val in vec.items():
            ci, j = divmod(col, pw.dim_local)
            per_cell.setdefault(ci, [0] * pw.dim_local)[j] = val
        slices.append(per_cell)
    bases = cell_bases(pw)
    lmats = [local_energy_matrix(bases[ci], cell) for ci, cell in enumerate(mesh.cells)]
    pairs = [[load.inner_product(phi, cell) for phi in bases[ci]]
             for ci, cell in enumerate(mesh.cells)]
    size = space.dim
    g = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            acc = 0
            for ci in slices[i].keys() & slices[j].keys():
                li, lj, lmat = slices[i][ci], slices[j][ci], lmats[ci]
                acc += sum(li[a] * lmat[a][b] * lj[b]
                           for a in range(len(li)) for b in range(len(lj)) if li[a] and lj[b])
            g[i][j] = g[j][i] = acc
    f = [sum(c * pairs[ci][a] for ci, loc in slices[i].items() for a, c in enumerate(loc) if c)
         for i in range(size)]
    return g, f


def seeded_rational_load(n, k, seed):
    """A degree-1 polynomial k-form with seeded rational coefficients."""
    import random
    from boxforms.indices import multi_indices
    rng = random.Random(seed)

    def coefficient():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))

    parts = {}
    for alpha in multi_indices(k, n):
        coeffs = {(0,) * n: coefficient()}
        for axis in range(n):
            coeffs[tuple(int(i == axis) for i in range(n))] = coefficient()
        parts[alpha] = Polynomial(n, coeffs)
    return PolyForm(n, k, parts)


@pytest.mark.parametrize("n, k, m", [(2, 0, 6), (2, 1, 4), (3, 1, 2),
                                     (2, 0, "graded"), (2, 1, "graded"), (3, 1, "graded")])
def test_exact_assembly_matches_the_pair_loop(n, k, m):
    # on the graded meshes cells differ in width, so per-cell load pairings
    # come over different denominators
    mesh = graded_mesh(GRADED[f"{n}d"]) if m == "graded" else build_grid([[0, 1]] * n, (m,) * n)
    space = kernel_space(build_constraints(k, mesh, INTERIOR_TEST))
    load = seeded_rational_load(n, k, seed=10 * n + k)
    problem = assemble(space, load)
    g, f = reference_exact_assembly(space, load)
    assert problem.G_exact == g
    assert problem.F_exact == f


# -- the exact solve by condensation onto the gluing multipliers, against the dense path


def reference_exact_solve(problem):
    """The dense reference for the condensed solve: the exact inverse of the Gram
    matrix over the basis, applied to the load."""
    return [sum(g * f for g, f in zip(row, problem.F_exact))
            for row in invert(problem.G_exact)]


def exact_space(k, mesh, flavor, representation):
    """(constraints, canonical kernel basis or pruned generating set) of one glued space."""
    constraints = build_constraints(k, mesh, flavor)
    if representation == "kernel":
        return constraints, kernel_space(constraints)
    return constraints, prune_vectors(interpolated_generating_set(k, mesh, flavor))[0]


@pytest.mark.parametrize("name", sorted(CHECK_MESHES))
@pytest.mark.parametrize("flavor", [INTERIOR_TEST, FULL_TEST])
@pytest.mark.parametrize("representation", ["kernel", "generators"])
def test_condensed_exact_solve_matches_the_dense_path(name, flavor, representation):
    mesh = CHECK_MESHES[name]()
    for k in range(mesh.n + 1):
        constraints, space = exact_space(k, mesh, flavor, representation)
        problem = assemble(space, seeded_rational_load(mesh.n, k, seed=100 + 10 * mesh.n + k))
        sol = solve(problem, method="exact")
        assert "G_exact" not in problem.__dict__
        assert sol.x_exact == reference_exact_solve(problem), k
        assert not any(constraints.residual(sol.w_exact)), k
        assert np.array_equal(sol.x, [float(v) for v in sol.x_exact])


@pytest.mark.parametrize("keep_free_columns", [True, False])
def test_exact_solve_rejects_a_basis_short_of_the_glued_space(keep_free_columns):
    mesh = build_grid([[0, 1], [0, 1]], (3, 3))
    space = kernel_space(build_constraints(0, mesh, INTERIOR_TEST))
    short = WhitneySpace(0, mesh, INTERIOR_TEST, space.integer_vectors[1:], space.pw,
                         free_columns=space.free_columns[1:] if keep_free_columns else None)
    problem = assemble(short, seeded_rational_load(2, 0, seed=3))
    with pytest.raises(ValueError, match="span"):
        solve(problem, method="exact")


@pytest.mark.parametrize("representation", ["kernel", "generators"])
@pytest.mark.parametrize("name, k", [("graded-2d", 1), ("graded-3d", 1), ("uniform-1d-3", 0)])
def test_solution_form_on_cell_combines_the_basis_forms(name, k, representation):
    mesh = CHECK_MESHES[name]()
    _, space = exact_space(k, mesh, INTERIOR_TEST, representation)
    sol = solve(assemble(space, seeded_rational_load(mesh.n, k, seed=7)), method="exact")
    for ci in range(mesh.n_cells):
        expected = sum((xi * space.form_on_cell(i, ci) for i, xi in enumerate(sol.x_exact) if xi),
                       PolyForm(mesh.n, k))
        assert sol.form_on_cell(ci) == expected, ci
    with pytest.raises(ValueError, match="exact solve path"):
        solve(sol.problem, method="cg").form_on_cell(0)


def test_exact_solve_inverts_once_per_shape_and_builds_no_gram(monkeypatch):
    # the dense Gram costs O(N^2) to assemble: no exact solve may read it
    mesh = graded_mesh(GRADED["2d"])
    space = kernel_space(build_constraints(1, mesh, INTERIOR_TEST))
    problem = assemble(space, seeded_rational_load(2, 1, seed=5))
    calls = []

    def counting(matrix, den=1):
        calls.append(matrix)
        return exactla.inverse_integers(matrix, den)

    def energy_inversions():
        energies = [table.energy_integers[0] for table in local.shapes(mesh, 1)[1]]
        return sum(any(m is e for e in energies) for m in calls)

    monkeypatch.setattr(local, "inverse_integers", counting)
    solve(problem, method="exact")
    assert energy_inversions() == len(local.shapes(mesh, 1)[1]) > 1
    solve(problem, method="exact")
    assert energy_inversions() == len(local.shapes(mesh, 1)[1])
    assert "G_exact" not in problem.__dict__


@pytest.mark.parametrize("k", [0, 1, 2])
def test_the_exact_solve_reads_the_gluing_table_and_builds_no_constraint_row(monkeypatch, k):
    # the multipliers are the gluing table's test DOFs; k = 2 has none
    mesh = graded_mesh(GRADED["2d"])
    space = build_solver_space(k, mesh, FULL_TEST)
    problem = assemble(space, seeded_rational_load(2, k, seed=3))
    with monkeypatch.context() as patch:
        patch.setattr(whitney, "_scatter", lambda *args: pytest.fail("rows built"))
        sol = solve(problem, method="exact")
    assert not any(build_constraints(k, mesh, FULL_TEST).residual(sol.w_exact))


# -- the modular solve of the exact path against the fraction-free elimination


def fraction_free_solve(monkeypatch, problem):
    """The exact solve with the modular solve taken away from ``solve_consistent``."""
    with monkeypatch.context() as patch:
        patch.setattr(exactla, "_solve_modular", lambda rows, rhs: None)
        return solve(problem, method="exact")


def recording_modular_solves(monkeypatch):
    """A list that receives (rows, result) of every modular solve from now on."""
    calls, solve_modular = [], exactla._solve_modular

    def recording(rows, rhs):
        calls.append((rows, solve_modular(rows, rhs)))
        return calls[-1][1]

    monkeypatch.setattr(exactla, "_solve_modular", recording)
    return calls


def assert_same_exact_solution(sol, reference):
    assert sol.x_exact == reference.x_exact
    assert sol.w_exact == reference.w_exact


@pytest.mark.parametrize("name", sorted(CHECK_MESHES))
@pytest.mark.parametrize("flavor", [INTERIOR_TEST, FULL_TEST])
@pytest.mark.parametrize("representation", ["kernel", "generators"])
def test_modular_exact_solve_matches_the_fraction_free_path(monkeypatch, name, flavor,
                                                            representation):
    # the generators' coordinates take a second solve_consistent, on the basis rows
    mesh = CHECK_MESHES[name]()
    for k in range(mesh.n + 1):
        _, space = exact_space(k, mesh, flavor, representation)
        problem = assemble(space, seeded_rational_load(mesh.n, k, seed=200 + 10 * mesh.n + k))
        reference = fraction_free_solve(monkeypatch, problem)
        calls = recording_modular_solves(monkeypatch)
        assert_same_exact_solution(solve(problem, method="exact"), reference)
        assert len(calls) == (1 if representation == "kernel" else 2), k
        assert all(found is not None for _, found in calls), k
        monkeypatch.undo()


@pytest.mark.parametrize("n, k, m", [(2, 0, 6), (3, 1, 2)])
def test_modular_exact_solve_of_a_singular_multiplier_system(monkeypatch, n, k, m):
    # full-test constraints are dependent, so S is singular: 2D k=0 6^2 has rank 83
    # of 84, 3D k=1 2^3 rank 42 of 54
    mesh = build_grid([[0, 1]] * n, (m,) * n)
    problem = assemble(kernel_space(build_constraints(k, mesh, FULL_TEST)),
                       seeded_rational_load(n, k, seed=17))
    reference = fraction_free_solve(monkeypatch, problem)
    calls = recording_modular_solves(monkeypatch)
    lifts, lift = [], exactla._lift
    monkeypatch.setattr(exactla, "_lift", lambda *args: lifts.append(1) or lift(*args))
    assert_same_exact_solution(solve(problem, method="exact"), reference)
    [(rows, found)] = calls
    assert found is not None
    assert exactla.rank(rows) < len(rows)
    assert len(lifts) == 1  # one lift of the right side


def test_a_corrupted_lift_is_refused_and_the_solve_falls_back(monkeypatch):
    mesh = build_grid([[0, 1]] * 2, (4, 4))
    problem = assemble(kernel_space(build_constraints(0, mesh, INTERIOR_TEST)),
                       seeded_rational_load(2, 0, seed=11))
    reference = fraction_free_solve(monkeypatch, problem)
    lifts, solve_mod = [], exactla._solve_mod

    def corrupted(pivots, steps, rhs):
        # the first residual update is off by one in its first row: the lifts then
        # converge to the solution of another right-hand side
        lifts.append(rhs)
        return solve_mod(pivots, steps, [rhs[0] + 1, *rhs[1:]] if len(lifts) == 2 else rhs)

    monkeypatch.setattr(exactla, "_solve_mod", corrupted)
    calls = recording_modular_solves(monkeypatch)
    assert_same_exact_solution(solve(problem, method="exact"), reference)
    assert [found for _, found in calls] == [None]
    assert len(lifts) > 3


def test_modular_exact_solve_over_several_lifts(monkeypatch):
    # 2D k=0 12^2: S has 264 rows and takes four lifts
    mesh = build_grid([[0, 1]] * 2, (12, 12))
    problem = assemble(kernel_space(build_constraints(0, mesh, INTERIOR_TEST)),
                       seeded_rational_load(2, 0, seed=12))
    reference = fraction_free_solve(monkeypatch, problem)
    lifts, solve_mod = [], exactla._solve_mod
    monkeypatch.setattr(exactla, "_solve_mod", lambda *args: lifts.append(1) or solve_mod(*args))
    assert_same_exact_solution(solve(problem, method="exact"), reference)
    assert len(lifts) >= 3


# -- the per-entry float builds that the lattice and per-shape scatter replaced


def reference_basis_matrix(space):
    """One float(Fraction) per entry, through COO triplets."""
    data, rows, cols = [], [], []
    for i, vec in enumerate(space.vectors):
        for c, val in vec.items():
            rows.append(c)
            cols.append(i)
            data.append(float(val))
    return scipy.sparse.csc_matrix((data, (rows, cols)), shape=(space.pw.ncols, space.dim))


def reference_broken_energy(pw):
    """One dense block per cell, joined by block_diag."""
    shape_ids, tables = local.shapes(pw.mesh, pw.k)
    blocks = [tables[s].energy_float for s in shape_ids]
    return scipy.sparse.block_diag(blocks, format="csc")


def assert_same_sparse(a, b):
    assert a.format == b.format and a.shape == b.shape
    assert (a != b).nnz == 0
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(a, part), getattr(b, part)), part


def geometric_breakpoints(m, ratio=Fraction(11, 10)):
    """0 and the partial sums of ratio^j for j < m: m slots of geometrically growing width."""
    points = [Fraction(0)]
    for j in range(m):
        points.append(points[-1] + ratio ** j)
    return points


SCALED_MESHES = {**{f"graded-{name}": bp for name, bp in GRADED.items()},
                 "geometric-2d": (geometric_breakpoints(8),) * 2}


def integer_table(matrix):
    """(rows, den): a Fraction matrix as integer rows over the lcm of its denominators."""
    ints, den = exactla.integer_scaled([v for row in matrix for v in row])
    width = len(matrix[0])
    return [ints[i:i + width] for i in range(0, len(ints), width)], den


@pytest.mark.parametrize("name", sorted(SCALED_MESHES))
def test_float_path_from_scaled_tables_matches_direct_tables(monkeypatch, name):
    # V and G with every shape's patterns and energy scaled from the reference
    # cell, against the same with each shape's built on its own cell
    def operators():
        mesh = graded_mesh(SCALED_MESHES[name])
        out = []
        for k in range(mesh.n + 1):
            for flavor in (INTERIOR_TEST, FULL_TEST):
                space = build_solver_space(k, mesh, flavor)
                if space.dim:
                    problem = assemble(space, constant_solution(mesh.n, k, range(1, k + 1)).load)
                    out += [problem.V, problem.G]
        return out

    scaled = operators()
    # patterns projected and energy paired on each shape's own cell
    monkeypatch.setattr(local.LocalTables, "patterns", property(lambda table: integer_table(
        [table.projector.coefficients(f) for f in table.face_functions])))
    monkeypatch.setattr(local.LocalTables, "energy_integers", property(
        lambda table: integer_table(local_energy_matrix(table.basis, table.cell))))
    direct = operators()
    assert len(scaled) == len(direct) > 0
    for a, b in zip(scaled, direct):
        assert_same_sparse(a, b)
        for part in ("indptr", "indices", "data"):
            assert getattr(a, part).dtype == getattr(b, part).dtype
            assert getattr(a, part).tobytes() == getattr(b, part).tobytes()


@pytest.mark.parametrize("name", sorted(CHECK_MESHES))
@pytest.mark.parametrize("representation", ["kernel", "generators"])
def test_float_assembly_matches_the_per_entry_builds(name, representation):
    mesh = CHECK_MESHES[name]()
    for k in range(mesh.n + 1):
        for flavor in (INTERIOR_TEST, FULL_TEST):
            _, space = exact_space(k, mesh, flavor, representation)
            if not space.dim:
                continue
            problem = assemble(space, PolyForm.covector(mesh.n, tuple(range(1, k + 1)), 1))
            v_mat, energy = reference_basis_matrix(space), reference_broken_energy(space.pw)
            assert_same_sparse(problem.V, v_mat)
            assert_same_sparse(broken_energy(space.pw), energy)
            gram = v_mat.T @ (energy @ v_mat)
            assert_same_sparse(problem.G, ((gram + gram.T) / 2.0).tocsr())


@pytest.mark.parametrize("name", sorted(CHECK_MESHES))
@pytest.mark.parametrize("representation", ["kernel", "generators"])
def test_float_columns_give_each_columns_rows_ascending(name, representation):
    # basis_matrix builds its CSC matrix from them as given, with no sorted copy
    mesh = CHECK_MESHES[name]()
    for k in range(mesh.n + 1):
        for flavor in (INTERIOR_TEST, FULL_TEST):
            built = [exact_space(k, mesh, flavor, representation)[1]]
            if representation == "generators":
                built.append(interpolated_generating_set(k, mesh, flavor))
            for space in built:
                _, rows, starts = space.float_columns()
                rows = np.asarray(rows)
                for a, b in zip(starts[:-1], starts[1:]):
                    assert (np.diff(rows[a:b]) > 0).all(), (k, flavor)
                assert solver.basis_matrix(space).has_sorted_indices


def test_a_sweep_builds_no_per_cell_objects(monkeypatch):
    # the float path numbers faces and shapes by arithmetic on the grid: no
    # cell boxes, one local table per level and degree, and face integrals
    # only on the reference cell, whose tables every level's are scaled from
    local.reference.cache_clear()
    real_cells = CubicalMesh.cells.func
    real_face_plane = local.face_plane
    faces, boxes, made = [], [], []

    def cells(mesh):
        boxes.append(mesh.divisions)
        return real_cells(mesh)

    counting = functools.cached_property(cells)
    counting.__set_name__(CubicalMesh, "cells")
    monkeypatch.setattr(CubicalMesh, "cells", counting)

    def face_plane(cell, axes, shift):
        faces.append(cell.widths)
        return real_face_plane(cell, axes, shift)

    monkeypatch.setattr(local, "face_plane", face_plane)
    real_init = local.LocalTables.__init__

    def init(table, k, cell):
        made.append((k, cell.widths))
        real_init(table, k, cell)

    monkeypatch.setattr(local.LocalTables, "__init__", init)

    def no_rows(space):
        raise AssertionError("a full-test generating set built its integer rows")

    # the generators of a full-test space are independent by their leading columns
    monkeypatch.setattr(whitney.GeneratorSpace, "_scattered_rows", no_rows)
    rows = convergence_sweep("sin2d_k1", [4, 8])
    assert [row["n_cells"] for row in rows] == [16, 64]
    # every row of the reference's one Vandermonde: four edges in 2D
    assert faces == [(2, 2)] * 4
    assert boxes == []
    assert made == [(1, (Fraction(1, 4),) * 2), (1, (2, 2)), (1, (Fraction(1, 8),) * 2)]


@pytest.mark.parametrize("name, levels", [("sin2d_k1", [2, 4, 8]), ("cos2d_k0", [2, 4, 8]),
                                          ("sin3d_k1", [1, 2, 3])])
def test_a_sweep_builds_its_reference_once(monkeypatch, name, levels):
    # one reference table and one exact projector for the whole sweep: no
    # level projects on its own cell
    local.reference.cache_clear()
    projectors = []
    real_init = projection.LocalProjector.__init__

    def init(projector, k, cell):
        projectors.append((k, cell))
        real_init(projector, k, cell)

    monkeypatch.setattr(projection.LocalProjector, "__init__", init)
    entry = manufactured(name)
    convergence_sweep(entry, levels)
    assert local.reference.cache_info().currsize == 1
    assert projectors == [(entry.k, CellBox.reference(entry.n))]
    convergence_sweep(entry, levels)
    assert len(projectors) == 1


class CountingTrig:
    """numpy for ``fields``, recording the argument size of every sin and cos call."""

    def __init__(self):
        self.sizes = []

    def __getattr__(self, name):
        return getattr(np, name)

    def sin(self, x):
        self.sizes.append(np.size(x))
        return np.sin(x)

    def cos(self, x):
        self.sizes.append(np.size(x))
        return np.cos(x)


@pytest.mark.parametrize("name", ["sin2d_k1", "cos2d_k0", "sin3d_k1"])
def test_a_sweep_evaluates_d_omega_once_per_level(monkeypatch, name):
    # the energy error and the consistency residual read one evaluation, and
    # give what each gives on its own; so do omega and delta d omega, and the
    # load's values are their sum, with no evaluation of its own
    entry, levels = manufactured(name), [2, 3]
    names = {id(entry.omega): "omega", id(entry.delta_d): "delta_d", id(entry.load): "load"}
    calls = []
    for method in ("on_axes", "d_on_axes"):
        def counted(field, axes, real=getattr(FormField, method), method=method):
            calls.append((method, names[id(field)]))
            return real(field, axes)

        monkeypatch.setattr(FormField, method, counted)
    rows = convergence_sweep(entry, levels)
    assert sorted(calls) == sorted([("d_on_axes", "omega"), ("on_axes", "delta_d"),
                                    ("on_axes", "omega")] * len(levels))
    for row, m in zip(rows, levels):
        space = build_solver_space(entry.k, build_grid(entry.domain, (m,) * entry.n),
                                   flavor_for(entry))
        problem = assemble(space, entry.load)
        assert (row["err_L2"], row["err_Hd"]) == broken_error(entry.omega, solve(problem))
        cons, floor = consistency_with_floor(entry, problem)
        assert (row["consistency"], row["consistency_at_floor"]) == (cons, cons <= floor)


def copying_gauss_grid(pw, quad_order, *arrays):
    """``solver._gauss_grid`` with a contiguous copy of each array per shape, one shape too."""
    shape_ids, tables = local.shapes(pw.mesh, pw.k)
    for shape, table in enumerate(tables):
        ids = np.flatnonzero(shape_ids == shape)
        yield (ids, table.tabulation(quad_order),
               *(np.ascontiguousarray(values[:, ids]) for values in arrays))


@pytest.mark.parametrize("name", sorted(fields.CATALOG))
def test_solve_level_equals_the_pipeline_that_evaluates_the_load(monkeypatch, name):
    # the reference evaluates the load on its own, each pass its own fields,
    # and slices every array by shape: the same rows, exactly
    entry = manufactured(name)
    flavor = flavor_for(entry)
    cases = [(mesh, order) for order in (2, 5)
             for mesh in (lambda: build_grid(entry.domain, (3,) * entry.n),
                          lambda: graded_mesh(GRADED[f"{entry.n}d"]))]
    rows = [solver.solve_level(entry, mesh(), flavor, order) for mesh, order in cases]
    monkeypatch.setattr(solver, "_gauss_grid", copying_gauss_grid)
    for row, (mesh, order) in zip(rows, cases):
        space = build_solver_space(entry.k, mesh(), flavor)
        problem = assemble(space, entry.load, order)
        sol = solve(problem)
        err_l2, err_hd = broken_error(entry.omega, sol, order)
        cons, floor = consistency_with_floor(entry, problem)
        assert row == {"dim_space": space.dim, "err_L2": err_l2, "err_Hd": err_hd,
                       "consistency": cons, "consistency_at_floor": cons <= floor,
                       "cg_iterations": sol.cg_iterations, "cg_residual": sol.cg_residual}


def test_the_gauss_grid_reads_a_one_shape_mesh_in_place():
    # and copies each shape's cells of a graded one
    omega = manufactured("sin2d_k1").omega
    shapes = []
    for mesh in (build_grid([[0, 1], [0, 3]], (3, 2)), graded_mesh(GRADED["2d"])):
        arrays = (solver.gauss_values(mesh, 3, 1, omega.on_axes),
                  solver.gauss_values(mesh, 3, 2, omega.d_on_axes))
        pieces = list(solver._gauss_grid(PiecewiseWhitney(1, mesh), 3, *arrays))
        shapes.append(len(pieces))
        if len(pieces) == 1:
            assert pieces[0][2] is arrays[0] and pieces[0][3] is arrays[1]
            continue
        for ids, _, *slices in pieces:
            for got, values in zip(slices, arrays):
                assert got.flags.c_contiguous and np.array_equal(got, values[:, ids])
                assert not np.shares_memory(got, values)
    assert shapes[0] == 1 < shapes[1]


@pytest.mark.parametrize("name, levels", [("sin2d_k1", (2, 4, 8)), ("cos2d_k0", (2, 4, 8)),
                                          ("sin3d_k1", (2, 4))])
def test_a_sweep_evaluates_its_fields_per_axis(monkeypatch, name, levels):
    # pointwise evaluation takes sin/cos of n_cells * 5^n coordinates per
    # factor; per axis it takes them of the m * 5 Gauss coordinates of one axis
    trig = CountingTrig()
    monkeypatch.setattr(fields, "np", trig)
    calls = []
    for m in levels:
        trig.sizes.clear()
        convergence_sweep(name, [m])
        assert trig.sizes and set(trig.sizes) == {m * 5}, trig.sizes
        calls.append(len(trig.sizes))
    # the same calls at every level: trig work in proportion to sum(divisions)
    assert len(set(calls)) == 1
