import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, product
from math import lcm, prod

import numpy as np
import pytest

from boxforms.forms import CellBox, PolyForm, Polynomial
from boxforms.indices import multi_indices
from boxforms.mesh import build_grid, face_dofs
from boxforms.quadrature import centered_rule, gauss_nodes
from boxforms.spaces import Q1MINUS, basis


# -- the face object model: faces as (axes, position) objects with per-face
# lookups, the reference the face lattice of face_dofs is tested against


@dataclass(frozen=True)
class Face:
    axes: tuple  # tangential axes, ascending, 1-based
    pos: tuple   # length n lattice position


def faces(mesh, d):
    """All d-faces, lexicographic by (axes, position)."""
    return [Face(axes, pos) for axes in multi_indices(d, mesh.n)
            for pos in product(*(range(m) if i + 1 in axes else range(m + 1)
                                 for i, m in enumerate(mesh.divisions)))]


def is_boundary(mesh, face):
    """True when the face lies in the boundary of the domain."""
    return any(i + 1 not in face.axes and p in (0, m)
               for i, (p, m) in enumerate(zip(face.pos, mesh.divisions)))


def interior_faces(mesh, d):
    return [f for f in faces(mesh, d) if not is_boundary(mesh, f)]


def cell_faces(mesh, cell_tuple, d):
    """The d-faces of one cell, lexicographic by (axes, corner offsets)."""
    local = []
    for axes in multi_indices(d, mesh.n):
        normal = [i for i in range(mesh.n) if i + 1 not in axes]
        for offsets in product((0, 1), repeat=len(normal)):
            pos = list(cell_tuple)
            for i, off in zip(normal, offsets):
                pos[i] += off
            local.append(Face(axes, tuple(pos)))
    return local


def cells_of_face(mesh, face):
    """Ids of the cells incident to a face."""
    choices = [(p,) if i + 1 in face.axes else [t for t in (p - 1, p) if 0 <= t < m]
               for i, (p, m) in enumerate(zip(face.pos, mesh.divisions))]
    return [mesh.cell_tuples.index(t) for t in product(*choices)]


def integrate(box, poly, frozen=None):
    """Exact integral of a polynomial over the box: its pairing with 1.

    With ``frozen``, the coordinates on those axes are fixed at the given
    values: on a face of the box, that is the integral of the trace.
    """
    one = PolyForm.from_scalar(Polynomial.constant(box.n, 1))
    return box.pairing_table([(PolyForm.from_scalar(poly),)], [(one,)], frozen)[0][0]


def integrate_on_face(mesh, face, poly):
    """Exact integral of a polynomial over the face (trace measure).

    Normal coordinates are frozen at the face plane; a 0-face integral is
    point evaluation.  An incident cell's box serves the tangential axes.
    """
    slots = tuple(min(p, m - 1) for p, m in zip(face.pos, mesh.divisions))
    frozen = {i: mesh.grid[i][face.pos[i]] for i in range(mesh.n) if i + 1 not in face.axes}
    return integrate(mesh.cells[mesh.cell_tuples.index(slots)], poly, frozen)


def face_dof(mesh, face, omega):
    """Integral of the trace of a k-form over a k-face (ascending orientation)."""
    if omega.k != len(face.axes):
        raise ValueError("form degree must match face dimension")
    poly = omega.parts.get(face.axes)
    return Fraction(0) if poly is None else integrate_on_face(mesh, face, poly)


def dof_faces(k, mesh, interior=False):
    """The faces of the mesh's face-DOF table in DOF order: DOF i integrates over face i."""
    return list(compress(faces(mesh, k), face_dofs(k, mesh, interior).keep.tolist()))


def aspect_ratio(mesh):
    return max(max(c.widths) / min(c.widths) for c in mesh.cells)


def face_measure(mesh, face):
    m = Fraction(1)
    for axis in face.axes:
        i = axis - 1
        m *= mesh.grid[i][face.pos[i] + 1] - mesh.grid[i][face.pos[i]]
    return m


def graded_mesh(breakpoints):
    """Tensor mesh with the given breakpoints per axis, so its cells have several shapes.

    ``CubicalMesh`` spaces its grid planes evenly; this sets each axis's
    integer ``planes`` after construction, before anything is cached on the mesh.
    """
    grid = [[Fraction(x) for x in axis] for axis in breakpoints]
    mesh = build_grid([[axis[0], axis[-1]] for axis in grid], [len(axis) - 1 for axis in grid])
    dens = [lcm(*(x.denominator for x in axis)) for axis in grid]
    mesh.planes = [([int(x * den) for x in axis], den) for axis, den in zip(grid, dens)]
    return mesh


#: graded meshes: several cell shapes, each of the shared ones at several positions
GRADED = {
    "1d": ([0, "1/4", 1, "5/4"],),
    "2d": ([0, "1/3", 1, "4/3"], [0, "1/2", 2]),
    "3d": ([0, "1/3", 1], [0, "1/2", 1], [0, 1, "3/2"]),
}


def expected_face_count(divisions, d):
    n = len(divisions)
    total = 0
    for axes in multi_indices(d, n):
        total += prod(divisions[i - 1] for i in axes) * \
            prod(divisions[i] + 1 for i in range(n) if (i + 1) not in axes)
    return total


def test_spec_counts_2d():
    mesh = build_grid([[0, 1], [0, 1]], (2, 2))
    assert mesh.n_cells == 4
    assert len(faces(mesh, 1)) == 12
    assert len(faces(mesh, 0)) == 9
    assert len(interior_faces(mesh, 1)) == 4
    assert len(interior_faces(mesh, 0)) == 1


def test_spec_counts_3d():
    mesh = build_grid([[0, 1]] * 3, (2, 2, 2))
    assert mesh.n_cells == 8
    assert len(faces(mesh, 2)) == 36
    assert len(interior_faces(mesh, 2)) == 12
    assert len(faces(mesh, 1)) == 54
    assert len(faces(mesh, 0)) == 27


def test_spec_counts_1d():
    mesh = build_grid([[0, 1]], (4,))
    assert mesh.n_cells == 4
    assert len(faces(mesh, 0)) == 5
    assert len(interior_faces(mesh, 0)) == 3


def test_bad_divisions():
    with pytest.raises(ValueError):
        build_grid([[0, 1]], (0,))
    with pytest.raises(ValueError):
        build_grid([[0, 1], [0, 1]], (2,))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_face_count_formula_random_divisions(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    divisions = tuple(rng.randint(1, 4) for _ in range(n))
    mesh = build_grid([[0, rng.randint(1, 3)] for _ in range(n)], divisions)
    for d in range(n + 1):
        assert len(faces(mesh, d)) == expected_face_count(divisions, d)
    assert mesh.n_cells == prod(divisions)


def test_facet_incidence():
    mesh = build_grid([[0, 1], [0, 2], [0, 1]], (2, 3, 2))
    n = mesh.n
    for face in faces(mesh, n - 1):
        owners = cells_of_face(mesh, face)
        assert len(owners) == (1 if is_boundary(mesh, face) else 2)
    # every cell's facet list is consistent with cells_of_face
    for ci, tup in enumerate(mesh.cell_tuples):
        for face in cell_faces(mesh, tup, n - 1):
            assert ci in cells_of_face(mesh, face)


def test_cells_congruent_for_uniform_divisions():
    mesh = build_grid([[0, 1], [0, 3]], (2, 2))
    keys = {cell.widths for cell in mesh.cells}
    assert len(keys) == 1
    assert aspect_ratio(mesh) == 3


def test_face_integration_and_dof():
    mesh = build_grid([[0, 2], [0, 2]], (2, 2))
    # vertical edge x=1, y in [1,2]
    edge = Face((2,), (1, 1))
    assert face_measure(mesh, edge) == 1
    poly = Polynomial.variable(2, 1) * Polynomial.variable(2, 2)
    # trace at x=1: integral of y over [1,2] = 3/2
    assert integrate_on_face(mesh, edge, poly) == Fraction(3, 2)
    # 0-face integral is point evaluation
    vertex = Face((), (1, 1))
    assert integrate_on_face(mesh, vertex, poly) == 1


@pytest.mark.parametrize("n,k,divisions", [
    (1, 0, (3,)), (2, 0, (2, 2)), (2, 1, (2, 2)),
    (3, 1, (2, 2, 2)), (3, 2, (2, 2, 2)),
])
def test_face_dof_tables(n, k, divisions):
    mesh = build_grid([[0, 1]] * n, divisions)
    table = face_dofs(k, mesh)
    assert table.n_dofs == len(faces(mesh, k))
    per_cell = len(cell_faces(mesh, mesh.cell_tuples[0], k))
    assert all(len(dofs) == per_cell for dofs in table.cell_dofs)


def test_face_dof_tables_are_built_once_per_mesh():
    mesh = build_grid([[0, 1], [0, 1]], (2, 3))
    for interior in (False, True):
        assert face_dofs(1, mesh, interior) is face_dofs(1, mesh, interior)
    assert face_dofs(1, mesh) is not face_dofs(1, mesh, interior=True)


def test_spec_dof_counts():
    mesh2 = build_grid([[0, 1], [0, 1]], (2, 2))
    assert face_dofs(0, mesh2).n_dofs == 9
    assert face_dofs(0, mesh2, interior=True).n_dofs == 1
    assert face_dofs(1, mesh2).n_dofs == 12
    assert face_dofs(1, mesh2, interior=True).n_dofs == 4
    mesh3 = build_grid([[0, 1]] * 3, (2, 2, 2))
    assert face_dofs(2, mesh3).n_dofs == 36
    assert face_dofs(2, mesh3, interior=True).n_dofs == 12


def test_conforming_traces_match_across_shared_faces():
    """Cell-local tensor forms sharing face DOFs have equal traces."""
    from test_forms import substitute
    from test_global_spaces import build_space

    from boxforms.global_spaces import VQ
    for n, divisions, k in ((2, (2, 2), 0), (2, (2, 2), 1), (3, (2, 2, 2), 1)):
        mesh = build_grid([[0, 1]] * n, divisions)
        space = build_space(VQ, k, mesh)
        for face in interior_faces(mesh, n - 1):
            c1, c2 = cells_of_face(mesh, face)
            tangential = set(face.axes)
            for dof in range(space.ndof):
                f1 = space.cell_expansions[c1].get(dof)
                f2 = space.cell_expansions[c2].get(dof)
                if f1 is None and f2 is None:
                    continue
                f1 = f1 if f1 is not None else f2 * 0
                f2 = f2 if f2 is not None else f1 * 0
                for alpha in multi_indices(k, n):
                    if not set(alpha) <= tangential:
                        continue
                    p1 = f1.parts.get(alpha, Polynomial(n))
                    p2 = f2.parts.get(alpha, Polynomial(n))
                    for i in range(n):
                        if (i + 1) not in face.axes:
                            value = mesh.grid[i][face.pos[i]]
                            p1 = substitute(p1, i + 1, value)
                            p2 = substitute(p2, i + 1, value)
                    assert p1 == p2


def test_gauss_axes_are_the_cells_gauss_points():
    # per axis and slot, the coordinates of the cells' Gauss points: bit for
    # bit the cell's center plus the offsets of its own centered rule
    meshes = [build_grid([[0, 1], [Fraction(1, 3), 3]], (3, 2))]
    meshes += [graded_mesh(GRADED[name]) for name in sorted(GRADED)]
    for mesh in meshes:
        centers = [[float(c) for c in cell.center] for cell in mesh.cells]
        assert [list(c) for c in product(*(mids for mids, _ in mesh.float_slots))] == centers
        assert mesh.float_slots is mesh.float_slots
        for order in (1, 2, 5):
            axes = mesh.gauss_axes(order)
            assert [a.shape for a in axes] == [(m, order) for m in mesh.divisions]
            for slots, center, cell in zip(mesh.cell_tuples, centers, mesh.cells):
                got = [[axes[i][s, q] for i, (s, q) in enumerate(zip(slots, nodes))]
                       for nodes in product(range(order), repeat=mesh.n)]
                expected = np.array(center) + centered_rule(cell.widths, order)[0]
                assert np.array_equal(got, expected)


#: uniform meshes of rational, non-unit domains: (domain, divisions)
RATIONAL_DOMAINS = {
    "1d": ([["-7/6", "3/4"]], (7,)),
    "2d": ([["-1/3", "5/7"], [2, "9/4"]], (3, 5)),
    "3d": ([[0, "2/9"], ["1/2", 3], [-2, "-1/5"]], (2, 3, 4)),
}


def fraction_grid(name):
    """(mesh, its grid planes as Fractions, computed here from the domain or breakpoints)."""
    kind, key = name.split("-")
    if kind == "graded":
        return graded_mesh(GRADED[key]), [[Fraction(x) for x in axis] for axis in GRADED[key]]
    domain, divisions = RATIONAL_DOMAINS[key]
    return build_grid(domain, divisions), [
        [Fraction(lo) + Fraction(j, m) * (Fraction(hi) - Fraction(lo)) for j in range(m + 1)]
        for (lo, hi), m in zip(domain, divisions)]


@pytest.mark.parametrize("name", [f"uniform-{key}" for key in sorted(RATIONAL_DOMAINS)]
                         + [f"graded-{key}" for key in sorted(GRADED)])
def test_plane_integers_give_what_the_fraction_grid_gives(name):
    # every table the mesh reads off its integer planes, against the same
    # table read off the Fraction planes: equal, and bit for bit as floats
    mesh, grid = fraction_grid(name)
    widths = [[b - a for a, b in zip(axis, axis[1:])] for axis in grid]
    slots = [(np.array([float((a + b) / 2) for a, b in zip(axis, axis[1:])]),
              np.array([float(b - a) / 2.0 for a, b in zip(axis, axis[1:])])) for axis in grid]
    for got, (mids, halves) in zip(mesh.float_slots, slots):
        assert (got[0].tobytes(), got[1].tobytes()) == (mids.tobytes(), halves.tobytes())
    for order in (1, 2, 5):
        for got, (mids, halves) in zip(mesh.gauss_axes(order), slots):
            expected = mids[:, None] + gauss_nodes(order) * halves[:, None]
            assert got.tobytes() == expected.tobytes()
    assert mesh.h_max == max(map(max, widths))
    # a cell's shape: its per-axis width classes, numbered in first-appearance order
    classes = [[list(dict.fromkeys(axis)).index(w) for w in axis] for axis in widths]
    shape_of = [tuple(c[j] for c, j in zip(classes, t))
                for t in product(*map(range, mesh.divisions))]
    shapes = list(dict.fromkeys(shape_of))
    ids, first = mesh.cell_shapes
    assert (ids.tolist(), first) == ([shapes.index(s) for s in shape_of],
                                     [shape_of.index(s) for s in shapes])
    assert mesh.grid == grid and mesh.grid is mesh.grid
    assert mesh.cells == [CellBox(tuple(axis[j] for axis, j in zip(grid, t)),
                                  tuple(axis[j + 1] for axis, j in zip(grid, t)))
                          for t in product(*map(range, mesh.divisions))]


@pytest.mark.parametrize("name", sorted(GRADED))
def test_graded_mesh_tiles_its_domain_with_several_shapes(name):
    mesh = graded_mesh(GRADED[name])
    assert sum(cell.volume for cell in mesh.cells) == mesh.domain.volume
    assert 1 < len({cell.widths for cell in mesh.cells}) < mesh.n_cells
    one = Polynomial.constant(mesh.n, 1)
    for d in range(mesh.n + 1):
        for face in faces(mesh, d):
            assert integrate_on_face(mesh, face, one) == face_measure(mesh, face)
            for ci in cells_of_face(mesh, face):
                cell = mesh.cells[ci]
                assert all(cell.lo[i] <= mesh.grid[i][face.pos[i]] <= cell.hi[i]
                           for i in range(mesh.n))


# -- the face-DOF table built from Face objects, which the lattice arithmetic replaced


def reference_face_dofs(k, mesh, interior=False):
    """(faces, cell_dofs, n_dofs) from the face objects of the mesh and of each cell."""
    kept = interior_faces(mesh, k) if interior else faces(mesh, k)
    dof = {f: i for i, f in enumerate(kept)}
    cell_dofs = [[(a, dof[f]) for a, f in enumerate(cell_faces(mesh, t, k)) if f in dof]
                 for t in mesh.cell_tuples]
    return kept, cell_dofs, len(kept)


#: uniform grids in 1D to 4D, a rational box and a single cell; GRADED meshes besides
LATTICE_MESHES = {
    "1d-4": ([[0, 1]], (4,)),
    "2d-3x2": ([[0, 1], [0, 3]], (3, 2)),
    "3d-2x3x2": ([[0, 1]] * 3, (2, 3, 2)),
    "4d-2x1x3x2": ([[0, 1]] * 4, (2, 1, 3, 2)),
    "rational-3d": ([["-1/2", "1/3"], ["1/4", "2"], ["0", "5/3"]], (2, 1, 3)),
    "one-cell-3d": ([[0, 1]] * 3, (1, 1, 1)),
}


@pytest.mark.parametrize("name", sorted(LATTICE_MESHES) + [f"graded-{g}" for g in sorted(GRADED)])
@pytest.mark.parametrize("interior", [False, True])
def test_face_dof_tables_match_the_face_object_build(name, interior):
    if name.startswith("graded-"):
        mesh = graded_mesh(GRADED[name[len("graded-"):]])
    else:
        mesh = build_grid(*LATTICE_MESHES[name])
    for k in range(mesh.n + 1):
        table = face_dofs(k, mesh, interior)
        kept, cell_dofs, n_dofs = reference_face_dofs(k, mesh, interior)
        assert table.n_dofs == n_dofs, k
        assert table.cell_dofs == cell_dofs, k
        assert dof_faces(k, mesh, interior) == kept, k
        assert table.array.shape == (mesh.n_cells, len(cell_faces(mesh, mesh.cell_tuples[0], k)))


def test_face_dof_table_builds_no_face_objects_until_read():
    mesh = build_grid([[0, 1]] * 2, (3, 2))
    table = face_dofs(1, mesh, interior=True)
    assert "cell_dofs" not in table.__dict__
    assert table.n_dofs == 7
    assert table.cell_dofs is table.cell_dofs
