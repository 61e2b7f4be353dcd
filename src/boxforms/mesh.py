"""Tensor-product meshes of a box: cells, the face lattice, and face DOFs.

A d-face is identified by its tuple of tangential axes (ascending) and a
lattice position: cell slots along tangential axes, grid planes along the
others.  Faces are numbered lexicographically by (axes, position), cells
row-major by slot tuple, so both numberings are index arithmetic on
``divisions``, and a cell's faces are offsets in the lattice: the rows
of a face-DOF table.  Every face carries the ascending-axes orientation,
so a cell and a face never disagree on it; the face functional is the
(unnormalized) integral of the trace over the face, taken on a cell's own
box (``local.face_dof_matrix``).  ``cells`` is built only for the exact
callers that read it.  Each axis's grid planes are integers over one
denominator (``planes``; ``grid`` is their Fraction view, built once).  A
cell's shape is its tuple of per-axis width classes, read off them, and
so are the sizes and float slots (``int / int`` rounds once, as
``float(Fraction)`` does).  Face-DOF tables hold no reference to the mesh.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product
from math import lcm, prod

import numpy as np

from .forms import CellBox
from .indices import complement, multi_indices
from .quadrature import gauss_nodes


@lru_cache(maxsize=None)
def local_faces(n, d):
    """(axes, corner offsets) of a cell's d-faces, in local order: lexicographic by
    (axes, offsets), an offset 0 or 1 on each normal axis and 0 on the others."""
    return [(axes, tuple(dict(zip(complement(axes, n), offsets)).get(i, 0)
                         for i in range(1, n + 1)))
            for axes in multi_indices(d, n) for offsets in product((0, 1), repeat=n - d)]


class CubicalMesh:
    """Axis-aligned box split into a tensor grid of cells."""

    def __init__(self, domain, divisions):
        if not isinstance(domain, CellBox):
            domain = CellBox(tuple(p[0] for p in domain), tuple(p[1] for p in domain))
        divisions = tuple(int(m) for m in divisions)
        if len(divisions) != domain.n:
            raise ValueError("one division count per axis required")
        if any(m < 1 for m in divisions):
            raise ValueError(f"divisions must be >= 1, got {divisions}")
        self.domain = domain
        self.divisions = divisions
        self.n = domain.n
        self.planes = []  # per axis (ints, den): plane j, lo + j (hi - lo) / m, is ints[j] / den
        for lo, hi, m in zip(domain.lo, domain.hi, divisions):
            den = lcm(lo.denominator, hi.denominator)
            a, b = int(lo * den), int(hi * den)
            self.planes.append(([a * m + j * (b - a) for j in range(m + 1)], den * m))
        self.dof_tables = {}    # (k, interior) -> DofTable, filled by face_dofs
        self.local_tables = {}  # k -> LocalTables per shape, filled by local.shapes
        self.moved_bases = {}   # (k, cell id) -> P1minus basis in print order, whitney.cell_terms
        self.gauss_coordinates = {}  # order -> gauss_axes(order), read-only arrays

    # -- cells, numbered row-major by slot tuple

    @cached_property
    def cell_tuples(self):
        return list(product(*map(range, self.divisions)))

    @cached_property
    def grid(self):
        """Per axis, the grid planes as Fractions."""
        return [[Fraction(v, den) for v in ints] for ints, den in self.planes]

    def cell(self, cell_id):
        """The box of one cell, from the grid."""
        slots = self.cell_tuples[cell_id]
        return CellBox(tuple(axis[j] for axis, j in zip(self.grid, slots)),
                       tuple(axis[j + 1] for axis, j in zip(self.grid, slots)))

    @cached_property
    def cells(self):
        return [self.cell(ci) for ci in range(self.n_cells)]

    @cached_property
    def cell_shapes(self):
        """(shape id per cell id, first cell id per shape), shapes in first-cell order.

        Each axis numbers its distinct slot widths in first-appearance
        order; a cell's shape is its tuple of per-axis classes, so two cells
        share a shape exactly when their widths are equal.
        """
        classes = []
        for ints, _ in self.planes:
            seen = {}
            classes.append([seen.setdefault(b - a, len(seen)) for a, b in zip(ints, ints[1:])])
        codes = np.ravel_multi_index(np.ix_(*classes), [max(c) + 1 for c in classes]).ravel()
        # classes in first-appearance order put the shapes' first cells in code order
        _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
        return inverse.ravel(), first.tolist()

    # -- size measures

    @property
    def n_cells(self):
        return prod(self.divisions)

    @property
    def h_max(self):
        return max(Fraction(max(b - a for a, b in zip(ints, ints[1:])), den)
                   for ints, den in self.planes)

    @cached_property
    def float_slots(self):
        """Per axis: (slot centers, slot half widths) as float arrays, rounded from the planes."""
        return [(np.array([(a + b) / (2 * den) for a, b in zip(ints, ints[1:])]),
                 np.array([(b - a) / den / 2.0 for a, b in zip(ints, ints[1:])]))
                for ints, den in self.planes]

    def gauss_axes(self, order):
        """Per axis, the order-``order`` Gauss coordinates of every slot as a (slot, node) array.

        A coordinate is the slot's center plus the node times its half
        width: a cell's Gauss point is its center plus the offset that
        ``quadrature.centered_rule`` gives its widths, bit for bit.  Built once per order.
        """
        if order not in self.gauss_coordinates:
            nodes = gauss_nodes(order)
            axes = [mids[:, None] + nodes * halves[:, None] for mids, halves in self.float_slots]
            for values in axes:
                values.flags.writeable = False
            self.gauss_coordinates[order] = axes
        return self.gauss_coordinates[order]


def build_grid(domain, divisions):
    """Mesh of ``domain`` (a CellBox or [[lo, hi], ...] spec) with the given divisions."""
    return CubicalMesh(domain, divisions)


@dataclass(frozen=True, eq=False)
class DofTable:
    """Face DOFs of degree k on a mesh (all k-faces, or the interior ones only)."""

    keep: np.ndarray    # per k-face in face order: True where it carries a DOF
    array: np.ndarray   # (cell, local face): the face's DOF id, -1 where it has none

    @property
    def n_dofs(self):
        return int(np.count_nonzero(self.keep))

    @cached_property
    def cell_dofs(self):
        """Per cell: (local face number, DOF id) of its kept faces, as mutable lists."""
        return [[(a, dof) for a, dof in enumerate(row) if dof >= 0]
                for row in self.array.tolist()]


def face_dofs(k, mesh, interior=False):
    """The mesh's table of k-face DOFs, built on first use and cached on the mesh.

    ``interior`` keeps only the faces off the domain boundary; DOFs are
    numbered in face order either way: a face's id is its row-major offset
    in its axes block of the lattice, its DOF id a cumulative sum of kept faces.
    """
    key = (k, interior)
    if key not in mesh.dof_tables:
        n, divisions = mesh.n, mesh.divisions
        if not 0 <= k <= n:
            raise ValueError(f"no {k}-faces in dimension {n}")
        slots = np.indices(divisions).reshape(n, -1, 1)
        keep, ids = [], []
        for axes in multi_indices(k, n):
            # face positions with these tangential axes: slots along them, planes across
            mask = np.ones([m + (i + 1 not in axes) for i, m in enumerate(divisions)], dtype=bool)
            for i in range(n) if interior else ():
                if i + 1 not in axes:
                    mask[(slice(None),) * i + ([0, divisions[i]],)] = False
            shifts = np.array([shift for a, shift in local_faces(n, k) if a == axes]).T
            start = sum(map(len, keep))
            ids.append(start + np.ravel_multi_index(slots + shifts[:, None], mask.shape))
            keep.append(mask.ravel())
        keep = np.concatenate(keep)
        number = np.where(keep, np.cumsum(keep) - 1, -1)
        mesh.dof_tables[key] = DofTable(keep, number[np.concatenate(ids, axis=1)])
    return mesh.dof_tables[key]
