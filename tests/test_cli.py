import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from test_mesh import GRADED, graded_mesh

import boxforms
from boxforms import cli, solver, spaces
from boxforms.cli import CSV_COLUMNS, main
from boxforms.fields import FormField, manufactured
from boxforms.forms import PolyForm
from boxforms.mesh import build_grid
from boxforms.whitney import (FULL_TEST, INTERIOR_TEST, build_constraints,
                              interpolated_generating_set, kernel_space, summarize)


def run_cli(args):
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(args)
    except SystemExit as stop:
        code = stop.code if isinstance(stop.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def test_verify_passes_and_reports_json():
    code, out, _ = run_cli(["verify", "--dim", "1", "--grid", "3"])
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert all(set(r) >= {"lemma", "n", "k", "pass"} for r in payload["reports"])


@pytest.mark.parametrize("args", [["verify", "--dim", "1"], ["verify", "--dim", "9"]])
def test_python_dash_m_matches_main(args):
    # the package runs as a module from the source tree, without an install
    src = str(Path(boxforms.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "boxforms", *args], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, check=False)
    code, out, _ = run_cli(args)
    assert (proc.returncode, proc.stdout) == (code, out)


def test_verify_is_deterministic():
    _, first, _ = run_cli(["verify", "--dim", "2"])
    _, second, _ = run_cli(["verify", "--dim", "2"])
    assert first == second


#: sha256 of the stdout of deterministic commands, recorded before the form spans
#: went onto sparse rows; a refactor that keeps the results keeps these bytes
STDOUT_SHA256 = {
    "verify --dim 4 --k 3 --seed 1":
        "a15cae5b7baf6fb14d5f098aca96bd78b3b40f813b2937d52a20001394a2731a",
    "verify --dim 3 --grid 2,2,2 --flavor interior --seed 1":
        "19d37d3be5e6b600b18546901ec5614b17defc09bfafc92c06250964903ab10a",
    "verify --dim 2 --grid 3,3 --seed 1":
        "02f21689e576a45ded8287f776797c363c97b89a3914d8cf844081dd190fceab",
    "verify --dim 2 --grid 2,3 --flavor full":
        "254e85b043b76bfe76442558790457f05a95901cc4007383a9b7c6ee936d1e07",
    "basis --dim 2 --k 1 --grid 3,3":
        "89ea9cee80a90fab920a36665ac64d4b9d2298371cf0ef736605eab10dab8632",
    "basis --dim 3 --k 0 --grid 4,3,3 --dump-limit 256":
        "107eeaea57397d7d15323cd358c1ca578e81efaad4379864e3fbe0e41498cf04",
}


@pytest.mark.parametrize("command", sorted(STDOUT_SHA256))
def test_deterministic_stdout_is_byte_identical_to_the_recorded_hash(command):
    code, out, _ = run_cli(command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA256[command]


def test_verify_timings_go_to_stderr_only():
    command = "verify --dim 2 --grid 3,3 --seed 1"
    code, out, err = run_cli([*command.split(), "--timings"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA256[command]
    lines = err.splitlines()
    suites = ["operator_law_suite", "local_space_suite", "projection_suite", "mesh_suite"]
    assert [line.split(":")[0] for line in lines] == suites
    assert all(float(line.split()[1]) >= 0 and line.endswith(" s") for line in lines)
    _, _, quiet = run_cli(command.split())
    assert quiet == ""


def test_dimension_bound_rejected():
    code, _, err = run_cli(["verify", "--dim", "9"])
    assert code == 2
    assert "1..6" in err


def test_bad_grid_rejected():
    code, _, _ = run_cli(["verify", "--dim", "2", "--grid", "2"])
    assert code == 2


def test_convergence_csv_columns():
    code, out, _ = run_cli(["convergence", "--dim", "1", "--k", "0",
                            "--levels", "2", "--base", "4"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert list(rows[0]) == CSV_COLUMNS
    assert len(rows) == 2
    assert rows[0]["order_Hd"] == ""
    assert float(rows[1]["order_Hd"]) > 0.5


@pytest.mark.parametrize("command, flag", [
    pytest.param("convergence", "--levels", id="--levels"),
    pytest.param("convergence", "--base", id="--base"),
    pytest.param("convergence", "--quad", id="--quad"),
    pytest.param("solve", "--quad", id="solve--quad")])
def test_nonpositive_sweep_size_rejected(command, flag):
    sizes = {"--levels": "1", "--base": "4"} if command == "convergence" else {}
    argv = [command, "--dim", "1", "--k", "0"]
    for name, value in {**sizes, flag: "0"}.items():
        argv += [name, value]
    code, _, err = run_cli(argv)
    assert code == 2
    assert flag in err


@pytest.mark.parametrize("grid", [(4, 4), (12, 12)])
def test_solve_reports_the_shared_level_row(monkeypatch, grid):
    # `solve` reports what solver.solve_level gives for its mesh, flavor and order
    levels = []
    real = solver.solve_level

    def solve_level(entry, mesh, flavor, quad_order):
        levels.append((mesh.divisions, flavor, quad_order))
        return real(entry, mesh, flavor, quad_order)

    monkeypatch.setattr(solver, "solve_level", solve_level)
    code, out, _ = run_cli(["solve", "--dim", "2", "--k", "1", "--solution", "sin2d_k1",
                            "--grid", ",".join(map(str, grid))])
    assert code == 0
    assert levels == [(grid, FULL_TEST, 5)]
    entry = manufactured("sin2d_k1")
    row = real(entry, build_grid(entry.domain, grid), FULL_TEST, 5)
    payload = json.loads(out)
    assert set(payload) == {"command", "solution", "n", "k", "grid", "flavor", *row}
    assert {key: payload[key] for key in row} == row


@pytest.mark.parametrize("name, k", [("sin2d_k1", 1), ("cos2d_k0", 0)])
def test_solve_agrees_with_the_convergence_level_on_its_mesh(name, k):
    # one pipeline on one basis: `solve --grid 8,8` is level m = 8 of a sweep
    code, out, _ = run_cli(["solve", "--dim", "2", "--k", str(k), "--solution", name,
                            "--grid", "8,8"])
    assert code == 0
    code, sweep, _ = run_cli(["convergence", "--dim", "2", "--k", str(k), "--solution", name,
                              "--levels", "2", "--base", "4", "--format", "json"])
    assert code == 0
    sweep = json.loads(sweep)
    row = sweep["rows"][sweep["config"]["levels"].index(8)]
    keys = ["dim_space", "err_L2", "err_Hd", "consistency", "consistency_at_floor",
            "cg_iterations", "cg_residual"]
    solved = json.loads(out)
    assert {key: solved[key] for key in keys} == {key: row[key] for key in keys}


def test_solve_evaluates_d_omega_once(monkeypatch):
    calls = []
    real = FormField.d_on_axes

    def d_on_axes(field, axes):
        calls.append(field)
        return real(field, axes)

    monkeypatch.setattr(FormField, "d_on_axes", d_on_axes)
    code, _, _ = run_cli(["solve", "--dim", "2", "--k", "0", "--solution", "cos2d_k0"])
    assert code == 0
    assert calls == [manufactured("cos2d_k0").omega]


def test_solve_consistency_is_the_problem_order():
    # the consistency residual integrates at the order the load was assembled at
    entry = manufactured("cos2d_k0")
    space = solver.build_solver_space(entry.k, build_grid(entry.domain, (4, 4)),
                                      solver.flavor_for(entry))
    consistency, _ = solver.consistency_with_floor(entry, solver.assemble(space, entry.load, 3))
    code, out, _ = run_cli(["solve", "--dim", "2", "--k", "0", "--solution", "cos2d_k0",
                            "--grid", "4,4", "--quad", "3"])
    assert code == 0
    assert json.loads(out)["consistency"] == consistency


def test_convergence_single_level():
    code, out, _ = run_cli(["convergence", "--dim", "1", "--k", "0", "--levels", "1"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1 and rows[0]["order_L2"] == ""


def test_convergence_top_degree_mass_problem():
    code, out, _ = run_cli(["convergence", "--dim", "2", "--k", "2",
                            "--levels", "2", "--base", "2"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert float(rows[-1]["order_L2"]) > 0.8


def test_convergence_json_manifest(tmp_path):
    target = tmp_path / "run.json"
    code, _, _ = run_cli(["convergence", "--dim", "1", "--k", "0", "--levels", "2",
                          "--format", "json", "--output", str(target)])
    assert code == 0
    payload = json.loads(target.read_text())
    assert payload["config"]["solution"] == "sin1d_k0"
    assert "versions" in payload and len(payload["rows"]) == 2


@pytest.mark.parametrize("argv", [
    ["convergence", "--dim", "2", "--k", "1", "--levels", "2", "--base", "8",
     "--format", "json"],
    ["solve", "--dim", "2", "--k", "1", "--solution", "sin2d_k1", "--grid", "8,8"],
], ids=["convergence", "solve"])
def test_json_reports_floor_flag_and_cg_counters(argv):
    code, out, _ = run_cli(argv)
    assert code == 0
    payload = json.loads(out)
    for row in payload.get("rows", [payload]):
        assert row["consistency_at_floor"] is True
        assert row["cg_iterations"] > 1
        assert 0 < row["cg_residual"] <= 1e-12


@pytest.mark.parametrize("argv", [
    ["convergence", "--dim", "2", "--k", "1", "--grid", "8,8"],
    ["verify", "--dim", "1", "--quad", "3"],
    ["basis", "--dim", "1", "--quad", "3"],
    ["verify", "--dim", "1", "--format", "json"],
    ["solve", "--dim", "1", "--k", "0", "--format", "json"],
    ["basis", "--dim", "1", "--format", "json"],
], ids=["convergence-grid", "verify-quad", "basis-quad", "verify-format", "solve-format",
        "basis-format"])
def test_flag_the_command_does_not_read_is_a_usage_error(argv):
    code, out, err = run_cli(argv)
    assert code == 2 and out == ""
    assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in err


@pytest.mark.parametrize("argv", [
    ["verify", "--dim", "1", "--k", "0", "--grid", "2"],
    ["convergence", "--dim", "1", "--k", "0", "--levels", "1"],
    ["solve", "--dim", "1", "--k", "0", "--grid", "2"],
    ["basis", "--dim", "1", "--grid", "2"],
], ids=["verify", "convergence", "solve", "basis"])
def test_every_command_accepts_a_seed(argv):
    code, _, _ = run_cli(argv + ["--seed", "7"])
    assert code == 0


def test_unknown_solution_lists_catalog():
    code, _, err = run_cli(["convergence", "--dim", "2", "--k", "0",
                            "--solution", "nope"])
    assert code == 2
    assert "available" in err


def test_solve_constant_json():
    code, out, _ = run_cli(["solve", "--dim", "2", "--k", "0", "--grid", "3,3"])
    assert code == 0
    payload = json.loads(out)
    assert payload["err_Hd"] < 1e-10


def test_basis_dump_round_trips():
    code, out, _ = run_cli(["basis", "--dim", "2", "--k", "0", "--grid", "1,1"])
    assert code == 0
    header = json.loads(out.splitlines()[0].split("summary: ", 1)[1])
    assert header["dim_kernel"] == 3
    forms = [line.split(": ", 1)[1] for line in out.splitlines() if "| cell" in line]
    assert len(forms) >= 3 and all(text.endswith("* dx[]") for text in forms)


def test_basis_dump_limit():
    code, _, err = run_cli(["basis", "--dim", "2", "--k", "0", "--grid", "6,6",
                            "--dump-limit", "10"])
    assert code == 2
    assert "dump-limit" in err


def test_basis_dump_limit_is_checked_before_the_constraints(monkeypatch):
    # 14^3 cells: the dense constraint matrix alone would take hundreds of MB
    from boxforms import cli

    def refuse(*args, **kwargs):
        raise AssertionError("build_constraints called")

    monkeypatch.setattr(cli, "build_constraints", refuse)
    code, out, err = run_cli(["basis", "--dim", "3", "--grid", "14,14,14"])
    assert code == 2 and out == ""
    assert "broken space has 10976 coordinates > --dump-limit" in err


@pytest.mark.parametrize("argv", [["verify", "--dim", "1"], ["basis", "--dim", "1"]])
def test_unwritable_output_is_a_usage_error(tmp_path, argv):
    path = tmp_path / "missing" / "out.json"
    code, out, err = run_cli([*argv, "--output", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and str(path) in err and "Traceback" not in err


@pytest.mark.parametrize("argv, module, name", [
    (["verify", "--dim", "1"], cli, "run_verify"),
    (["convergence", "--dim", "1", "--k", "0", "--levels", "2"], solver, "convergence_sweep"),
], ids=["verify", "convergence"])
def test_unwritable_output_fails_before_the_work(monkeypatch, tmp_path, argv, module, name):
    calls = []
    real = getattr(module, name)

    def recording(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, recording)
    path = tmp_path / "missing" / "out.json"
    code, out, err = run_cli([*argv, "--output", str(path)])
    assert (code, out, calls) == (2, "", [])
    assert err.startswith("error: ") and str(path) in err


def test_a_failed_run_keeps_an_existing_output_file(tmp_path):
    # the output probe appends nothing and truncates nothing
    path = tmp_path / "out.json"
    path.write_text("earlier report\n")
    code, _, err = run_cli(["basis", "--dim", "2", "--grid", "6,6", "--dump-limit", "10",
                            "--output", str(path)])
    assert code == 2 and "dump-limit" in err
    assert path.read_text() == "earlier report\n"


@pytest.mark.parametrize("limit", ["0", "-1"])
def test_basis_rejects_a_dump_limit_below_one(monkeypatch, limit):
    # a usage error at parse time, like --levels 0: no constraint is built
    from boxforms import cli
    monkeypatch.setattr(cli, "build_constraints", lambda *args: pytest.fail("built"))
    code, out, err = run_cli(["basis", "--dim", "2", "--grid", "2,2", "--dump-limit", limit])
    assert code == 2 and out == ""
    assert f"--dump-limit must be >= 1, got {limit}" in err


def test_config_file_defaults_and_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dim = 1\nlevels = 2\nk = 0\n")
    code, out, _ = run_cli(["convergence", "--config", str(cfg)])
    assert code == 0
    assert len(list(csv.DictReader(io.StringIO(out)))) == 2
    # explicit flag wins over the file
    code, out, _ = run_cli(["convergence", "--config", str(cfg), "--levels", "1"])
    assert code == 0
    assert len(list(csv.DictReader(io.StringIO(out)))) == 1


def test_config_files_do_not_leak_between_calls(tmp_path):
    # one parser serves every call in the process; each call's flags stay its own
    full, degree = tmp_path / "full.cfg", tmp_path / "degree.cfg"
    full.write_text("flavor = full\n")
    degree.write_text("k = 1\n")
    base = ["basis", "--dim", "2", "--grid", "2,2"]
    runs = [run_cli([*base, "--config", str(full)]), run_cli([*base, "--config", str(degree)]),
            run_cli(base)]
    assert runs == [run_cli([*base, "--flavor", "full"]), run_cli([*base, "--k", "1"]),
                    run_cli(base)]
    assert len({out for _, out, _ in runs}) == 3
    assert cli._build_parser() is cli._build_parser()


def test_basis_builds_constraints_and_kernel_once(monkeypatch):
    from boxforms import cli, whitney
    calls = []

    def counting(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("build_constraints", "kernel_space", "interpolated_generating_set"):
        wrapped = counting(getattr(whitney, name))
        monkeypatch.setattr(whitney, name, wrapped)
        monkeypatch.setattr(cli, name, wrapped)
    code, _, _ = run_cli(["basis", "--dim", "2", "--k", "1", "--grid", "2,2"])
    assert code == 0
    assert sorted(calls) == ["build_constraints", "interpolated_generating_set",
                             "kernel_space"]


def test_basis_dump_reconstructs_only_the_cells_a_vector_names(monkeypatch):
    from boxforms import whitney
    cells = []
    cell_terms = whitney.PiecewiseWhitney.cell_terms

    def counting(self, row, den, cell_id):
        cells.append(cell_id)
        return cell_terms(self, row, den, cell_id)

    monkeypatch.setattr(whitney.PiecewiseWhitney, "cell_terms", counting)
    code, out, _ = run_cli(["basis", "--dim", "2", "--k", "0", "--grid", "3,3"])
    assert code == 0
    dumped = [int(line.split("| cell ")[1].split(":")[0])
              for line in out.splitlines() if "| cell" in line]
    assert cells == dumped


# -- the basis dump as it was built cell by cell, kept as the oracle


def reference_format_polynomial(poly):
    """The text of a polynomial, with signs and magnitudes from Fraction comparisons."""
    if not poly.coeffs:
        return "0"
    pieces = []
    for e, c in sorted(poly.coeffs.items(), key=lambda item: (sum(item[0]), item[0])):
        factors = [f"x{i}" + (f"^{p}" if p > 1 else "") for i, p in enumerate(e, start=1) if p]
        if not factors:
            body = str(abs(c))
        elif abs(c) == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(abs(c))] + factors)
        sign = ("" if c > 0 else "-") if not pieces else ("+ " if c > 0 else "- ")
        pieces.append(sign + body)
    return " ".join(pieces)


def reference_dump_lines(tag, space):
    """Each (vector, cell) pair summed with ``+`` over the cell's own P1minus basis."""
    pw = space.pw
    bases = [spaces.basis(spaces.P1MINUS, pw.k, cell) for cell in pw.mesh.cells]
    lines = []
    for i, vector in enumerate(space.vectors):
        for ci in sorted({col // pw.dim_local for col in vector}):
            form = PolyForm(pw.mesh.n, pw.k)
            for j, phi in enumerate(bases[ci]):
                if vector.get(pw.col(ci, j)):
                    form = form + vector[pw.col(ci, j)] * phi
            text = " + ".join(f"({reference_format_polynomial(poly)}) * dx[{','.join(map(str, a))}]"
                              for a, poly in form.components()) or "0"
            lines.append(f"  {tag}{i} | cell {ci}: {text}")
    return lines


def basis_dump(mesh, k, flavor, dump_lines):
    """The text of ``boxforms basis`` on the mesh, with the given per-space line builder."""
    constraints = build_constraints(k, mesh, flavor)
    kernel = kernel_space(constraints)
    generators = interpolated_generating_set(k, mesh, flavor)
    summary = summarize(constraints, kernel, generators)
    lines = [f"summary: {json.dumps(summary, sort_keys=True)}", "",
             f"kernel basis ({kernel.dim} elements):", *dump_lines("v", kernel), "",
             f"projected conforming generators ({generators.dim}):", *dump_lines("g", generators)]
    return "\n".join(lines) + "\n"


BASIS_CASES = [(n, k, flavor) for n in (1, 2, 3) for k in range(n)
               for flavor in ("interior", "full")]
BASIS_GRIDS = {1: (3,), 2: (3, 2), 3: (3, 2, 2)}


@pytest.mark.parametrize("n, k, flavor", BASIS_CASES)
def test_basis_dump_matches_the_per_cell_bases(n, k, flavor):
    grid = BASIS_GRIDS[n]
    code, out, _ = run_cli(["basis", "--dim", str(n), "--k", str(k), "--flavor", flavor,
                            "--grid", ",".join(map(str, grid))])
    assert code == 0
    expected = basis_dump(build_grid([[0, 1]] * n, grid), k,
                          {"interior": INTERIOR_TEST, "full": FULL_TEST}[flavor],
                          reference_dump_lines)
    assert out == expected


@pytest.mark.parametrize("n, k, flavor", BASIS_CASES)
def test_basis_dump_matches_the_per_cell_bases_on_a_graded_mesh(n, k, flavor):
    # cells of several shapes, centers that are not dyadic
    flavor = {"interior": INTERIOR_TEST, "full": FULL_TEST}[flavor]
    mesh = graded_mesh(GRADED[f"{n}d"])
    expected = basis_dump(graded_mesh(GRADED[f"{n}d"]), k, flavor, reference_dump_lines)
    assert basis_dump(mesh, k, flavor, cli._dump_lines) == expected
