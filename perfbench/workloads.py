"""The benchmark's workloads: operations on boxforms' public entry points.

``verify``, ``convergence`` and ``basis`` go through ``boxforms.cli.main``;
the exact solve goes through the public ``whitney`` and ``solver``
functions, because no command reaches it.  Program functions are looked
up on their modules at call time, so a tracer installed later sees them.

Each operation returns the program's output and is checked by a function
of ``checks``; the time of the check is not part of the operation.
"""

import contextlib
import io
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from boxforms import cli, forms, indices, mesh, solver, whitney

import checks


@dataclass
class Operation:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list]


def cli_call(argv):
    """(exit status, stdout, stderr) of one in-process ``boxforms`` command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def _cli_operation(argv, check):
    return Operation(" ".join(argv), lambda: cli_call(argv),
                     lambda result: check(result[0], result[1]))


# ---------------------------------------------------------------------------
# verify_exact


#: (arguments, suites expected to report)
VERIFY_CASES = (
    (["--dim", "4", "--k", "3"],
     ("operator_law_suite", "local_space_suite", "projection_suite")),
    (["--dim", "3", "--grid", "2,2,2", "--flavor", "interior"],
     ("operator_law_suite", "local_space_suite", "projection_suite", "mesh_suite")),
    (["--dim", "2", "--grid", "3,3"],
     ("operator_law_suite", "local_space_suite", "projection_suite", "mesh_suite")),
)


def verify_exact(seed):
    ops = []
    for args, suites in VERIFY_CASES:
        argv = ["verify", *args, "--seed", str(seed)]
        ops.append(_cli_operation(
            argv, lambda rc, out, suites=suites: checks.verify_problems(rc, out, suites)))
    return ops


# ---------------------------------------------------------------------------
# float_solve


#: (dimension, k, catalog entry, coarsest divisions, levels, dimension formula)
SWEEPS = (
    (2, 1, "sin2d_k1", 6, 3, checks.full_test_k1_2d),
    (3, 1, "sin3d_k1", 3, 2, checks.full_test_k1_3d),
    (2, 0, "cos2d_k0", 4, 3, checks.interior_test_k0_2d),
)

CATALOG_ENTRIES = {
    "verify_exact": (),
    "float_solve": tuple(entry for _, _, entry, _, _, _ in SWEEPS),
    "exact_oracle": (),
}


def float_solve(seed):
    # the catalog solutions are fixed fields: the seed has nothing to draw
    ops = []
    for n, k, entry, base, levels, dim_of in SWEEPS:
        argv = ["convergence", "--dim", str(n), "--k", str(k), "--solution", entry,
                "--levels", str(levels), "--base", str(base), "--format", "json",
                "--seed", str(seed)]
        divisions = [base * 2 ** i for i in range(levels)]
        ops.append(_cli_operation(
            argv, lambda rc, out, n=n, divisions=divisions, dim_of=dim_of:
            checks.convergence_problems(rc, out, n, divisions, dim_of)))
    return ops


# ---------------------------------------------------------------------------
# exact_oracle


BASIS_GRID = (4, 3, 3)

#: (dimension, k, divisions per axis) of the interior-test exact solves
EXACT_SOLVES = ((2, 0, 6), (3, 1, 2))


def _rational(rng):
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))


def rational_load(n, k, rng):
    """A degree-1 polynomial k-form with small random rational coefficients."""
    parts = {}
    for alpha in indices.multi_indices(k, n):
        coeffs = {(0,) * n: _rational(rng)}
        for axis in range(n):
            coeffs[tuple(int(i == axis) for i in range(n))] = _rational(rng)
        parts[alpha] = forms.Polynomial(n, coeffs)
    return forms.PolyForm(n, k, parts)


def exact_solve_case(n, k, m, load):
    """Kernel space, exact assembly, exact and CG solves of one problem."""
    grid = mesh.build_grid([[0, 1]] * n, (m,) * n)
    constraints = whitney.build_constraints(k, grid, whitney.INTERIOR_TEST)
    space = whitney.kernel_space(constraints)
    problem = solver.assemble(space, load)
    exact = solver.solve(problem, method="exact")
    cg = solver.solve(problem, method="cg")
    return constraints, space, problem, exact, cg


def check_exact_solve(result):
    constraints, space, problem, exact, cg = result
    ncols = constraints.ncols
    b_float = np.array([[float(v) for v in row] for row in constraints.rows]).reshape(-1, ncols)
    kernel = np.zeros((space.dim, ncols))
    for i, vec in enumerate(space.vectors):
        for c, val in vec.items():
            kernel[i, c] = float(val)
    problems = checks.kernel_problems(b_float, kernel)
    problems += checks.exact_solution_problems(problem.G_exact, problem.F_exact, exact.x_exact)
    problems += checks.cg_problems(problem.G, exact.x_exact, cg.x)
    return problems


def exact_oracle(seed):
    argv = ["basis", "--dim", "3", "--k", "0", "--grid", ",".join(map(str, BASIS_GRID)),
            "--dump-limit", "256", "--seed", str(seed)]
    ops = [_cli_operation(argv, lambda rc, out: checks.basis_problems(rc, out, BASIS_GRID))]
    rng = random.Random(seed)
    for n, k, m in EXACT_SOLVES:
        load = rational_load(n, k, rng)
        ops.append(Operation(
            f"exact solve n={n} k={k} grid {m}^{n} interior-test",
            lambda n=n, k=k, m=m, load=load: exact_solve_case(n, k, m, load),
            check_exact_solve))
    return ops


WORKLOADS = {
    "verify_exact": verify_exact,
    "float_solve": float_solve,
    "exact_oracle": exact_oracle,
}
