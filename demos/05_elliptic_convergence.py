"""Compatible discretization of <d w, d m> + <w, m> = <f, m>: convergence.

Solves the reaction-diffusion model problem for manufactured solutions
on refined grids and prints errors, the nonconformity (consistency)
residual, and observed orders.  Whitney forms are first-order: the broken
energy error decays like h.  A consistency residual marked ``*`` is at
its roundoff floor: rounding in its quadrature could account for all of it.
"""

from boxforms import (assemble, broken_error, build_grid, build_solver_space,
                      constant_solution, convergence_sweep, solve)
from boxforms.forms import PolyForm
from boxforms.whitney import INTERIOR_TEST


def show(rows, title):
    print(f"== {title} ==")
    header = f"{'h':>10} {'cells':>6} {'dim':>6} {'err_L2':>10} {'err_Hd':>10} " \
             f"{'consist':>10}  {'ord_L2':>7} {'ord_Hd':>7}"
    print(header)
    for r in rows:
        o2 = f"{r['order_L2']:.2f}" if r["order_L2"] is not None else "  -"
        oh = f"{r['order_Hd']:.2f}" if r["order_Hd"] is not None else "  -"
        print(f"{r['h']:10.4f} {r['n_cells']:6d} {r['dim_space']:6d} "
              f"{r['err_L2']:10.3e} {r['err_Hd']:10.3e} {r['consistency']:10.3e}"
              f"{'*' if r['consistency_at_floor'] else ' '} "
              f"{o2:>7} {oh:>7}")
    print()


# scalar problem (k = 0) and an edge-element-style problem (k = 1) in 2d
show(convergence_sweep("sin2d_k0", [4, 8, 16]), "n=2, k=0, sin-based solution")
show(convergence_sweep("sin2d_k1", [4, 8]), "n=2, k=1, sin-based solution")

# constants sit inside the glued space, so they are reproduced exactly
mesh = build_grid([[0, 1], [0, 1]], (5, 5))
entry = constant_solution(2, 1, (1,), 3.0)
space = build_solver_space(1, mesh, INTERIOR_TEST)
problem = assemble(space, entry.load)
solution = solve(problem)
err_l2, err_hd = broken_error(entry.omega, solution)
print(f"constant-form reproduction on a 5x5 grid: broken-energy error = {err_hd:.2e}")
