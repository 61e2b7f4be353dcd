"""Nonconforming Whitney spaces on a mesh: kernel and generating set.

Piecewise Whitney forms are glued by requiring the pairing
sum_K <d w, mu>_K - <w, delta mu>_K to vanish for conforming dual test
functions mu.  This script builds the constraint system on a small grid,
computes its exact kernel, projects the conforming basis into the space,
and shows the classical mean-jump description at degree zero.
"""

from boxforms import (build_constraints, build_grid, check_commuting_squares,
                      check_crossing_equivalence, check_whitney_complex,
                      format_form, interpolated_generating_set, kernel_space,
                      space_summary)
from boxforms.whitney import INTERIOR_TEST

mesh = build_grid([[0, 1], [0, 1]], (2, 2))

print("== constraint systems on a 2x2 grid ==")
for k in (0, 1, 2):
    cs = build_constraints(k, mesh, INTERIOR_TEST)
    print(f"k={k}: B is {cs.n_rows} x {cs.ncols}")

print()
print("== space bookkeeping ==")
for k in (0, 1, 2):
    print(space_summary(k, mesh, INTERIOR_TEST))

cs = build_constraints(0, mesh, INTERIOR_TEST)
kernel = kernel_space(cs)
gens = interpolated_generating_set(0, mesh, INTERIOR_TEST)
print()
print("== one kernel basis element (k=0), cell by cell ==")
for ci in range(mesh.n_cells):
    print(f"  cell {ci}:", format_form(kernel.form_on_cell(0, ci)))

print()
print("== every projected conforming hat satisfies the constraints ==")
print(all(not any(cs.residual(v)) for v in gens.vectors))

print()
print("== complex property and commuting squares (exact) ==")
print("glued d-complex:", check_whitney_complex(mesh, INTERIOR_TEST).passed)
print("commuting squares:", check_commuting_squares(mesh, INTERIOR_TEST).passed)

print()
print("== degree 0 = piecewise linears with zero-mean jumps ==")
report = check_crossing_equivalence(mesh)
print("kernel == mean-jump space:", report.passed, report.details)
