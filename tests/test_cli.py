import csv
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

from boxforms.cli import CSV_COLUMNS, main
from boxforms.forms import parse_form


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


def test_verify_is_deterministic():
    _, first, _ = run_cli(["verify", "--dim", "2"])
    _, second, _ = run_cli(["verify", "--dim", "2"])
    assert first == second


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


@pytest.mark.parametrize("flag", ["--levels", "--base"])
def test_nonpositive_sweep_size_rejected(flag):
    sizes = {"--levels": "1", "--base": "4", flag: "0"}
    argv = ["convergence", "--dim", "1", "--k", "0"]
    for name, value in sizes.items():
        argv += [name, value]
    code, _, err = run_cli(argv)
    assert code == 2
    assert flag in err


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
    forms = 0
    for line in out.splitlines():
        if "| cell" in line:
            text = line.split(": ", 1)[1]
            parse_form(text, 2)  # must be parseable exactly
            forms += 1
    assert forms >= 3


def test_basis_dump_limit():
    code, _, err = run_cli(["basis", "--dim", "2", "--k", "0", "--grid", "6,6",
                            "--dump-limit", "10"])
    assert code == 2
    assert "dump-limit" in err


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

