"""Each output check accepts a sound output and rejects a perturbed one.

    python3 -m pytest perfbench/test_checks.py

The outputs are built here from the properties the checks test, so the
tests need neither boxforms nor its import time.
"""

import json
import math
from fractions import Fraction

import numpy as np

import checks


def _convergence_stdout(n, divisions, dim_of, order=1.0):
    rows = []
    for level, m in enumerate(divisions):
        h = 1.0 / m
        rows.append({"level": level, "h": h, "n_cells": m ** n, "dim_space": dim_of(m),
                     "err_L2": 0.3 * h ** 2, "err_Hd": 2.0 * h ** order,
                     "consistency": 0.5 * h ** 2, "order_Hd": None})
    for prev, row in zip(rows, rows[1:]):
        row["order_Hd"] = math.log(prev["err_Hd"] / row["err_Hd"]) / math.log(prev["h"] / row["h"])
    return json.dumps({"rows": rows})


def test_convergence_accepts_first_order():
    out = _convergence_stdout(2, [6, 12, 24], checks.full_test_k1_2d)
    assert checks.convergence_problems(0, out, 2, [6, 12, 24], checks.full_test_k1_2d) == []


def test_convergence_rejects_order_one_half():
    out = _convergence_stdout(2, [6, 12, 24], checks.full_test_k1_2d, order=0.5)
    problems = checks.convergence_problems(0, out, 2, [6, 12, 24], checks.full_test_k1_2d)
    assert any("order" in p for p in problems)


def test_convergence_rejects_misreported_order():
    payload = json.loads(_convergence_stdout(2, [4, 8, 16], checks.interior_test_k0_2d))
    payload["rows"][-1]["order_Hd"] = 0.5
    problems = checks.convergence_problems(0, json.dumps(payload), 2, [4, 8, 16],
                                           checks.interior_test_k0_2d)
    assert any("reported" in p for p in problems)


def test_convergence_rejects_dim_space_off_by_one():
    payload = json.loads(_convergence_stdout(3, [3, 6], checks.full_test_k1_3d))
    payload["rows"][1]["dim_space"] += 1
    problems = checks.convergence_problems(0, json.dumps(payload), 3, [3, 6],
                                           checks.full_test_k1_3d)
    assert any("dim_space" in p for p in problems)


def test_convergence_rejects_nonzero_exit():
    out = _convergence_stdout(2, [4, 8, 16], checks.interior_test_k0_2d)
    assert checks.convergence_problems(1, out, 2, [4, 8, 16], checks.interior_test_k0_2d)


def test_structural_counts():
    assert [checks.full_test_k1_2d(m) for m in (1, 2, 4)] == [0, 4, 24]
    assert [checks.full_test_k1_3d(m) for m in (2, 4)] == [6, 108]
    assert [checks.interior_test_k0_2d(m) for m in (4, 8, 16)] == [24, 80, 288]
    m = 4
    assert checks.k0_kernel_dim((m, m, m)) == 4 * m ** 3 - 3 * m ** 2 * (m - 1)


def _verify_stdout():
    reports = [{"lemma": lemma, "pass": True} for lemma in checks.SUITE_LEMMAS.values()]
    return json.dumps({"pass": True, "reports": reports})


def test_verify_accepts_and_rejects():
    suites = tuple(checks.SUITE_LEMMAS)
    assert checks.verify_problems(0, _verify_stdout(), suites) == []
    payload = json.loads(_verify_stdout())
    payload["reports"][1]["pass"] = False
    assert checks.verify_problems(0, json.dumps(payload), suites)
    payload = json.loads(_verify_stdout())
    del payload["reports"][-1]
    assert any("mesh_suite" in p for p in checks.verify_problems(0, json.dumps(payload), suites))


def _basis_stdout(grid, dim_kernel):
    rows = checks.interior_facets(grid)
    summary = {"dim_kernel": dim_kernel, "rank_B": rows, "dim_piecewise": dim_kernel + rows}
    lines = [f"summary: {json.dumps(summary)}", "", f"kernel basis ({dim_kernel} elements):"]
    lines += [f"  v{i} | cell 0: 1" for i in range(dim_kernel)]
    return "\n".join(lines) + "\n"


def test_basis_accepts_and_rejects():
    grid = (4, 3, 3)
    dim = checks.k0_kernel_dim(grid)
    assert checks.basis_problems(0, _basis_stdout(grid, dim), grid) == []
    assert checks.basis_problems(0, _basis_stdout(grid, dim + 1), grid)
    short = _basis_stdout(grid, dim).replace(f"  v{dim - 1} | cell 0: 1\n", "")
    assert any("lists" in p for p in checks.basis_problems(0, short, grid))


def _constraints_and_kernel():
    rng = np.random.default_rng(0)
    b = rng.integers(-3, 4, size=(4, 9)).astype(float)
    _, _, vt = np.linalg.svd(b)
    return b, vt[4:]


def test_kernel_accepts_null_space():
    b, kernel = _constraints_and_kernel()
    assert checks.kernel_problems(b, kernel) == []


def test_kernel_rejects_vector_with_residual():
    b, kernel = _constraints_and_kernel()
    bad = kernel.copy()
    bad[2] += 1e-6 * np.linalg.pinv(b)[:, 0]
    assert any("B v" in p for p in checks.kernel_problems(b, bad))


def test_kernel_rejects_missing_vector():
    b, kernel = _constraints_and_kernel()
    assert checks.kernel_problems(b, kernel[1:])


def test_exact_solution_checked_exactly():
    g = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(3)]]
    f = [Fraction(1), Fraction(2, 3)]
    x = [Fraction(7, 15), Fraction(1, 15)]
    assert checks.exact_solution_problems(g, f, x) == []
    assert checks.exact_solution_problems(g, f, [x[0], x[1] + Fraction(1, 10 ** 30)])


def test_cg_rejects_solution_off_by_1e_6():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((6, 6))
    gram = a @ a.T + 6 * np.eye(6)
    x = rng.standard_normal(6)
    assert checks.cg_problems(gram, x, x + 1e-13 * x) == []
    off = x.copy()
    off[3] += 1e-6 * np.linalg.norm(x)
    assert checks.cg_problems(gram, x, off)
