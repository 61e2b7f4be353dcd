"""Command-line front end: verification suites, convergence runs, dumps.

Exit status contract: 0 all checks passed, 1 a mathematical check failed,
2 configuration or usage error.  Flags may also be supplied through an
optional ``key = value`` config file; explicit flags win.
"""

import argparse
import csv
import io
import json
import platform
import sys
import time

from . import __version__
from .fields import CATALOG, constant_solution, manufactured
from .forms import format_form
from .indices import MAX_DIM, multi_indices
from .mesh import build_grid
from .reports import first_failure
from .solver import (assemble, broken_error, build_solver_space, consistency_residual,
                     convergence_sweep, flavor_for, solve)
from .verify import run_verify
from .whitney import (FLAVORS, FULL_TEST, INTERIOR_TEST, build_constraints,
                      interpolated_generating_set, kernel_space, space_summary)

_FLAVOR_NAMES = {"interior": INTERIOR_TEST, "full": FULL_TEST}

CSV_COLUMNS = ["level", "h", "n_cells", "dim_space", "err_L2", "err_Hd",
               "consistency", "order_L2", "order_Hd"]


def _parse_grid(text):
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad grid spec {text!r}; expected e.g. 2,2,3")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="boxforms",
        description="Whitney-form elements on cubical meshes: verify, converge, solve, dump.")
    parser.add_argument("--config", help="key = value file with flag defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    def shared(p):
        p.add_argument("--config", help="key = value file with flag defaults")
        p.add_argument("--dim", type=int, required=True, help="ambient dimension n")
        p.add_argument("--k", type=int, default=None, help="form degree (default: all)")
        p.add_argument("--grid", type=_parse_grid, default=None,
                       help="divisions per axis, e.g. 2,2")
        p.add_argument("--flavor", choices=sorted(_FLAVOR_NAMES), default=None,
                       help="constraint flavor: interior (natural bc) or full (essential)")
        p.add_argument("--quad", type=int, default=5, help="Gauss points per axis")
        p.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
        p.add_argument("--output", default=None, help="write the report here instead of stdout")
        p.add_argument("--format", choices=["json", "csv"], default=None)

    p_verify = sub.add_parser("verify", help="run the exact structural suites")
    shared(p_verify)

    p_conv = sub.add_parser("convergence", help="manufactured-solution convergence study")
    shared(p_conv)
    p_conv.add_argument("--levels", type=int, default=3, help="number of refinements")
    p_conv.add_argument("--solution", default=None, help="catalog entry name")
    p_conv.add_argument("--base", type=int, default=None,
                        help="divisions on the coarsest level (default 4 in 2d, 2 in 3d)")

    p_solve = sub.add_parser("solve", help="solve one discrete problem and report errors")
    shared(p_solve)
    p_solve.add_argument("--solution", default="constant",
                         help="catalog entry, or 'constant' for a constant form")

    p_basis = sub.add_parser("basis", help="dump kernel basis and generating set")
    shared(p_basis)
    p_basis.add_argument("--dump-limit", type=int, default=200,
                         help="refuse when the broken space exceeds this many coordinates")
    return parser


_COMMANDS = ("verify", "convergence", "solve", "basis")


def _apply_config_file(parser, argv):
    """Expand ``--config FILE`` into flags placed before the explicit ones.

    Explicit flags come later on the command line, so they win.
    """
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--config")
    known, _ = probe.parse_known_args(argv)
    if not known.config:
        return argv
    injected = []
    try:
        with open(known.config) as fh:
            for line in fh:
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                key, sep, value = line.partition("=")
                if not sep:
                    parser.error(f"bad config line {line!r}; expected key = value")
                injected += [f"--{key.strip().replace('_', '-')}", value.strip()]
    except OSError as err:
        parser.error(f"cannot read config file: {err}")
    at = next((i for i, tok in enumerate(argv) if tok in _COMMANDS), None)
    if at is None:
        return argv
    return argv[:at + 1] + injected + argv[at + 1:]


def _emit(text, path):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _validate_dim(args):
    if not 1 <= args.dim <= MAX_DIM:
        raise SystemExit(_usage_error(f"--dim must be in 1..{MAX_DIM}, got {args.dim}"))
    if args.k is not None and not 0 <= args.k <= args.dim:
        raise SystemExit(_usage_error(f"--k must be in 0..{args.dim}"))
    if args.grid is not None and len(args.grid) != args.dim:
        raise SystemExit(_usage_error("--grid must list one division count per axis"))
    for flag in ("levels", "base"):
        value = getattr(args, flag, None)
        if value is not None and value < 1:
            raise SystemExit(_usage_error(f"--{flag} must be >= 1, got {value}"))


def _usage_error(message):
    print(f"error: {message}", file=sys.stderr)
    return 2


def cmd_verify(args):
    flavors = (_FLAVOR_NAMES[args.flavor],) if args.flavor else FLAVORS
    ks = None if args.k is None else [args.k]
    reports = run_verify(args.dim, ks=ks, divisions=args.grid,
                         seed=args.seed, flavors=flavors)
    payload = {
        "command": "verify",
        "n": args.dim,
        "grid": list(args.grid) if args.grid else None,
        "pass": all(r.passed for r in reports),
        "reports": [r.to_dict() for r in reports],
    }
    _emit(json.dumps(payload, sort_keys=True, indent=2, default=str), args.output)
    failed = first_failure(reports)
    if failed is not None:
        print(f"FAILED: {failed.lemma} (n={failed.n}, k={failed.k}): "
              f"{failed.counterexample}", file=sys.stderr)
        return 1
    return 0


_DEFAULT_SOLUTIONS = {
    (1, 0): "sin1d_k0",
    (2, 0): "sin2d_k0",
    (2, 1): "sin2d_k1",
    (2, 2): "sin2d_k2",
    (3, 1): "sin3d_k1",
    (3, 2): "sin3d_k2",
}


def _pick_solution(args, allow_constant=False):
    name = getattr(args, "solution", None)
    k = args.k if args.k is not None else 0
    if name in (None, ""):
        name = _DEFAULT_SOLUTIONS.get((args.dim, k))
        if name is None:
            raise SystemExit(_usage_error(
                f"no default manufactured solution for n={args.dim}, k={k}; "
                f"available: {', '.join(sorted(CATALOG))}"))
    if allow_constant and name == "constant":
        sigma = multi_indices(k, args.dim)[0]
        return constant_solution(args.dim, k, sigma, 3.0)
    try:
        entry = manufactured(name)
    except KeyError as err:
        raise SystemExit(_usage_error(str(err)))
    if entry.n != args.dim or (args.k is not None and entry.k != args.k):
        raise SystemExit(_usage_error(
            f"{name} is an n={entry.n}, k={entry.k} entry"))
    return entry


def cmd_convergence(args):
    entry = _pick_solution(args)
    base = args.base if args.base is not None else (2 if args.dim >= 3 else 4)
    levels = [base * 2 ** i for i in range(args.levels)]
    flavor = _FLAVOR_NAMES[args.flavor] if args.flavor else None
    t0 = time.time()
    rows = convergence_sweep(entry, levels, flavor=flavor, quad_order=args.quad)
    elapsed = time.time() - t0
    if args.format == "json":
        payload = {
            "command": "convergence",
            "config": {"n": args.dim, "k": entry.k, "solution": entry.name,
                       "levels": levels, "flavor": flavor, "quad": args.quad},
            "versions": {"boxforms": __version__, "python": platform.python_version()},
            "elapsed_seconds": elapsed,
            "rows": rows,
        }
        _emit(json.dumps(payload, sort_keys=True, indent=2), args.output)
    else:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            writer.writerow({key: ("" if row.get(key) is None else row[key])
                             for key in CSV_COLUMNS})
        _emit(buf.getvalue(), args.output)
    finest = rows[-1]
    ok = True
    if len(rows) >= 2 and finest["order_Hd"] is not None:
        ok = finest["order_Hd"] >= 0.9
        print(f"order check: broken-Hd order {finest['order_Hd']:.3f} "
              f"{'>= 0.9 PASS' if ok else '< 0.9 FAIL'}", file=sys.stderr)
    return 0 if ok else 1


def cmd_solve(args):
    entry = _pick_solution(args, allow_constant=True)
    divisions = args.grid or (4,) * args.dim
    mesh = build_grid(entry.domain, divisions)
    flavor = _FLAVOR_NAMES[args.flavor] if args.flavor else flavor_for(entry)
    space = build_solver_space(entry.k, mesh, flavor)
    problem = assemble(space, entry.load, args.quad)
    solution = solve(problem)
    err_l2, err_hd = broken_error(entry.omega, solution, args.quad)
    payload = {
        "command": "solve",
        "solution": entry.name,
        "n": args.dim, "k": entry.k, "grid": list(divisions), "flavor": flavor,
        "representation": space.representation,
        "dim_space": space.dim,
        "err_L2": err_l2,
        "err_Hd": err_hd,
        "consistency": consistency_residual(entry, problem, args.quad),
    }
    _emit(json.dumps(payload, sort_keys=True, indent=2), args.output)
    return 0


def cmd_basis(args):
    divisions = args.grid or (1,) * args.dim
    mesh = build_grid([[0, 1]] * args.dim, divisions)
    k = args.k if args.k is not None else 0
    flavor = _FLAVOR_NAMES[args.flavor] if args.flavor else INTERIOR_TEST
    constraints = build_constraints(k, mesh, flavor)
    if constraints.ncols > args.dump_limit:
        raise SystemExit(_usage_error(
            f"broken space has {constraints.ncols} coordinates > --dump-limit "
            f"{args.dump_limit}; pick a smaller grid or raise the limit"))
    kernel = kernel_space(constraints)
    generators = interpolated_generating_set(k, mesh, flavor, pw=constraints.pw)
    lines = [f"summary: {json.dumps(space_summary(k, mesh, flavor), sort_keys=True)}", ""]
    lines.append(f"kernel basis ({kernel.dim} elements):")
    for i in range(kernel.dim):
        for ci in range(mesh.n_cells):
            form = kernel.form_on_cell(i, ci)
            if not form.is_zero():
                lines.append(f"  v{i} | cell {ci}: {format_form(form)}")
    lines.append("")
    lines.append(f"projected conforming generators ({generators.dim}):")
    for i in range(generators.dim):
        for ci in range(mesh.n_cells):
            form = generators.form_on_cell(i, ci)
            if not form.is_zero():
                lines.append(f"  g{i} | cell {ci}: {format_form(form)}")
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    argv = _apply_config_file(parser, argv)
    args = parser.parse_args(argv)
    _validate_dim(args)
    handlers = {"verify": cmd_verify, "convergence": cmd_convergence,
                "solve": cmd_solve, "basis": cmd_basis}
    try:
        return handlers[args.command](args)
    except SystemExit:
        raise
    except (ValueError, KeyError, RuntimeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
