"""Output checks for the benchmark workloads.

Every checker returns a list of problems; an empty list means the output
passed.  The checks use properties the method must have and counts the
benchmark derives itself from the mesh, never a stored copy of earlier
output.  This module does not import boxforms, so the checks can be
tested on perturbed outputs without paying the package's import.
"""

import json
import math
import re
from fractions import Fraction

import numpy as np

#: one lemma each suite always reports, used to see that the suite ran
SUITE_LEMMAS = {
    "operator_law_suite": "d_squared_zero",
    "local_space_suite": "dual_orthogonality",
    "projection_suite": "projection_wellposed_idempotent",
    "mesh_suite": "face_lattice_counts",
}

MIN_ORDER = 0.9
CONSISTENCY_FLOOR = 1e-9
CG_AGREEMENT = 1e-9
#: float residual of B v allowed per unit of |B| |v| (entries are O(h^n))
KERNEL_RESIDUAL = 1e-10


# ---------------------------------------------------------------------------
# structural counts


def full_test_k1_2d(m):
    """Interior edges of an m x m grid: the 2D k=1 full-test dimension."""
    return 2 * m * (m - 1)


def full_test_k1_3d(m):
    """Interior edges of an m^3 grid: the 3D k=1 full-test dimension."""
    return 3 * m * (m - 1) ** 2


def interior_test_k0_2d(m):
    """3m^2 broken P1 coordinates minus 2m(m-1) interior-edge mean jumps."""
    return 3 * m * m - 2 * m * (m - 1)


def interior_facets(grid):
    """Number of interior (n-1)-faces of a tensor grid with these divisions."""
    total = 0
    for axis, d in enumerate(grid):
        others = math.prod(g for j, g in enumerate(grid) if j != axis)
        total += (d - 1) * others
    return total


def k0_kernel_dim(grid):
    """Broken P1 coordinates, (n+1) per cell, minus one mean jump per facet."""
    return (len(grid) + 1) * math.prod(grid) - interior_facets(grid)


# ---------------------------------------------------------------------------
# command-line outputs


def verify_problems(rc, stdout, suites):
    """`boxforms verify`: exit 0, pass true, every report passed, every suite ran."""
    problems = [] if rc == 0 else [f"exit status {rc}"]
    try:
        payload = json.loads(stdout)
    except ValueError as err:
        return problems + [f"output is not JSON: {err}"]
    if payload.get("pass") is not True:
        problems.append("pass is not true")
    reports = payload.get("reports") or []
    failed = [r.get("lemma") for r in reports if r.get("pass") is not True]
    if failed:
        problems.append(f"failed reports: {failed}")
    lemmas = {r.get("lemma") for r in reports}
    for suite in suites:
        if SUITE_LEMMAS[suite] not in lemmas:
            problems.append(f"{suite} produced no report")
    return problems


def observed_orders(hs, errors):
    """Orders log(e_prev / e) / log(h_prev / h) between consecutive levels."""
    out = []
    for (h0, e0), (h1, e1) in zip(zip(hs, errors), zip(hs[1:], errors[1:])):
        out.append(math.log(e0 / e1) / math.log(h0 / h1) if e0 > 0 and e1 > 0 else None)
    return out


def convergence_problems(rc, stdout, n, divisions, dim_of):
    """`boxforms convergence --format json` on the given per-axis divisions.

    Orders are recomputed here from h and the errors; the program's own
    finest ``order_Hd`` must agree with the recomputed one.
    """
    problems = [] if rc == 0 else [f"exit status {rc}"]
    try:
        rows = json.loads(stdout)["rows"]
    except (ValueError, KeyError, TypeError) as err:
        return problems + [f"no convergence rows: {err}"]
    if len(rows) != len(divisions):
        return problems + [f"{len(rows)} rows for {len(divisions)} levels"]
    for row, m in zip(rows, divisions):
        if row["n_cells"] != m ** n:
            problems.append(f"m={m}: n_cells {row['n_cells']} != {m ** n}")
        if row["dim_space"] != dim_of(m):
            problems.append(f"m={m}: dim_space {row['dim_space']} != {dim_of(m)}")
    hs = [row["h"] for row in rows]
    for key in ("err_L2", "err_Hd"):
        values = [row[key] for row in rows]
        if any(not b < a for a, b in zip(values, values[1:])):
            problems.append(f"{key} does not decrease: {values}")
    orders = observed_orders(hs, [row["err_Hd"] for row in rows])
    if not orders or orders[-1] is None or orders[-1] < MIN_ORDER:
        problems.append(f"finest Hd order {orders[-1] if orders else None} < {MIN_ORDER}")
    reported = rows[-1].get("order_Hd")
    if orders and orders[-1] is not None and (
            reported is None or not math.isclose(reported, orders[-1], rel_tol=1e-9)):
        problems.append(f"reported finest order_Hd {reported} != recomputed {orders[-1]}")
    consistency = [row["consistency"] for row in rows]
    if any(c > CONSISTENCY_FLOOR for c in consistency):
        c_orders = observed_orders(hs, consistency)
        if not c_orders or c_orders[-1] is None or c_orders[-1] < MIN_ORDER:
            problems.append(f"consistency {consistency} neither at the 1e-9 floor "
                            f"nor of order >= {MIN_ORDER}")
    return problems


_KERNEL_HEADER = re.compile(r"^kernel basis \((\d+) elements\):$", re.M)
_KERNEL_LINE = re.compile(r"^  v(\d+) \| cell \d+: ", re.M)


def basis_problems(rc, stdout, grid):
    """`boxforms basis` at k=0, interior-test, on the given divisions."""
    problems = [] if rc == 0 else [f"exit status {rc}"]
    first = stdout.split("\n", 1)[0]
    if not first.startswith("summary: "):
        return problems + ["no summary line"]
    try:
        summary = json.loads(first[len("summary: "):])
    except ValueError as err:
        return problems + [f"summary is not JSON: {err}"]
    dim_kernel = summary.get("dim_kernel")
    if dim_kernel is None or dim_kernel + summary.get("rank_B", 0) != summary.get("dim_piecewise"):
        problems.append(f"dim_kernel + rank_B != dim_piecewise in {summary}")
    expected = k0_kernel_dim(grid)
    if dim_kernel != expected:
        problems.append(f"dim_kernel {dim_kernel} != {expected} (coordinates minus facets)")
    header = _KERNEL_HEADER.search(stdout)
    if header is None or int(header.group(1)) != dim_kernel:
        problems.append("kernel header does not announce dim_kernel elements")
    listed = {int(i) for i in _KERNEL_LINE.findall(stdout)}
    if listed != set(range(dim_kernel or 0)):
        problems.append(f"dump lists {len(listed)} kernel elements, expected {dim_kernel}")
    return problems


# ---------------------------------------------------------------------------
# exact kernel, exact solve and CG


def kernel_problems(b_float, kernel_float):
    """Rows of ``kernel_float`` are a basis of the null space of ``b_float``.

    Checked in floating point, apart from the exact elimination that made
    the kernel: ncols - rank(B) equals the kernel dimension, the kernel
    vectors are independent, and B v vanishes to roundoff for each v.
    """
    problems = []
    ncols = b_float.shape[1]
    dim = kernel_float.shape[0]
    rank_b = int(np.linalg.matrix_rank(b_float)) if b_float.size else 0
    if ncols - rank_b != dim:
        problems.append(f"ncols {ncols} - rank(B) {rank_b} != kernel dimension {dim}")
    if dim and int(np.linalg.matrix_rank(kernel_float)) != dim:
        problems.append("kernel vectors are linearly dependent")
    if b_float.size and dim:
        residual = np.abs(b_float @ kernel_float.T).max(axis=0)
        scale = np.abs(b_float).max() * np.abs(kernel_float).max(axis=1)
        bad = np.flatnonzero(residual > KERNEL_RESIDUAL * scale)
        if bad.size:
            problems.append(f"B v does not vanish for kernel vectors {bad[:5].tolist()}: "
                            f"max residual {residual[bad].max():.3e}")
    return problems


def exact_solution_problems(g_exact, f_exact, x_exact):
    """G x = F holds exactly, by a rational mat-vec made here."""
    if len(x_exact) != len(f_exact):
        return [f"solution has {len(x_exact)} entries, load {len(f_exact)}"]
    bad = [i for i, (row, f) in enumerate(zip(g_exact, f_exact))
           if sum((Fraction(g) * x for g, x in zip(row, x_exact) if g), Fraction(0)) != f]
    return [f"G x != F exactly in rows {bad[:5]}"] if bad else []


def cg_problems(gram, x_exact, x_cg, rtol=CG_AGREEMENT):
    """CG agrees with the exact solution to ``rtol`` relative in the energy norm."""
    x_exact = np.asarray(x_exact, dtype=float)
    diff = np.asarray(x_cg, dtype=float) - x_exact
    gap = math.sqrt(max(float(diff @ (gram @ diff)), 0.0))
    norm = math.sqrt(max(float(x_exact @ (gram @ x_exact)), 0.0)) or 1.0
    if not gap <= rtol * norm:
        return [f"CG differs from the exact solution by {gap / norm:.3e} > {rtol:g} "
                f"(relative energy norm)"]
    return []
