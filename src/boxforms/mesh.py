"""Tensor-product meshes of a box: cells, the face lattice, and face DOFs.

A d-face is identified by its tuple of tangential axes (ascending) and a
lattice position: cell slots along tangential axes, grid planes along the
others.  Faces are numbered lexicographically by (axes, position).  Every
face carries the ascending-axes orientation, so a cell and a face never
disagree on it; the face functional used for the tensor-product spaces is
the (unnormalized) integral of the trace over the face.

:func:`face_dofs` is the one place that numbers these functionals: all
k-faces, or the interior ones only, in face order.  Its tables, like the
per-shape ``local.LocalTables``, are cached on the mesh and hold no
reference back to it, so a mesh nobody uses is freed at once.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product

import numpy as np

from .forms import CellBox, ratio
from .indices import complement, multi_indices


@dataclass(frozen=True)
class Face:
    axes: tuple  # tangential axes, ascending, 1-based
    pos: tuple   # length n lattice position


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
        self.grid = [[domain.lo[i] + Fraction(j, m) * (domain.hi[i] - domain.lo[i])
                      for j in range(m + 1)]
                     for i, m in enumerate(divisions)]
        self.cell_tuples = list(product(*[range(m) for m in divisions]))
        self.cells = [CellBox(tuple(self.grid[i][t[i]] for i in range(self.n)),
                              tuple(self.grid[i][t[i] + 1] for i in range(self.n)))
                      for t in self.cell_tuples]
        self._cell_id = {t: i for i, t in enumerate(self.cell_tuples)}
        self._faces = {}
        self.dof_tables = {}    # (k, interior) -> DofTable, filled by face_dofs
        self.local_tables = {}  # k -> LocalTables per cell id, filled by local.tables

    # -- face lattice

    def faces(self, d):
        """All d-faces, lexicographic by (axes, position)."""
        if not 0 <= d <= self.n:
            raise ValueError(f"no {d}-faces in dimension {self.n}")
        if d not in self._faces:
            out = []
            for axes in multi_indices(d, self.n):
                tangential = set(axes)
                ranges = [range(m) if (i + 1) in tangential else range(m + 1)
                          for i, m in enumerate(self.divisions)]
                out.extend(Face(axes, pos) for pos in product(*ranges))
            self._faces[d] = out
        return self._faces[d]

    def is_boundary(self, face):
        """True when the face lies in the boundary of the domain."""
        for i, m in enumerate(self.divisions):
            if (i + 1) not in face.axes and face.pos[i] in (0, m):
                return True
        return False

    def interior_faces(self, d):
        return [f for f in self.faces(d) if not self.is_boundary(f)]

    def cell_faces(self, cell_tuple, d):
        """The d-faces of one cell, lexicographic by (axes, corner offsets)."""
        out = []
        for axes in multi_indices(d, self.n):
            normal = complement(axes, self.n)
            for offsets in product((0, 1), repeat=len(normal)):
                pos = list(cell_tuple)
                for axis, off in zip(normal, offsets):
                    pos[axis - 1] = cell_tuple[axis - 1] + off
                out.append(Face(axes, tuple(pos)))
        return out

    def cells_of_face(self, face):
        """Ids of the cells incident to a face."""
        n = self.n
        choices = []
        for i in range(n):
            if (i + 1) in face.axes:
                choices.append((face.pos[i],))
            else:
                lo = face.pos[i] - 1
                hi = face.pos[i]
                choices.append(tuple(t for t in (lo, hi) if 0 <= t < self.divisions[i]))
        return [self._cell_id[t] for t in product(*choices)]

    # -- geometry and integration on faces

    def integrate_on_face(self, face, poly):
        """Exact integral of a polynomial over the face (trace measure).

        Normal coordinates are frozen at the face plane; a 0-face integral
        is point evaluation.  The face is one of the faces of a cell, whose
        moment tables serve the tangential axes.
        """
        cell = self.cells[self._cell_id[tuple(min(p, m - 1)
                                              for p, m in zip(face.pos, self.divisions))]]
        frozen = {i: self.grid[i][face.pos[i]] for i in range(self.n) if (i + 1) not in face.axes}
        return cell.integrate(poly, frozen)

    def face_dof(self, face, omega):
        """Integral of the trace of a k-form over a k-face (ascending orientation)."""
        if omega.k != len(face.axes):
            raise ValueError("form degree must match face dimension")
        poly = omega.parts.get(face.axes)
        if poly is None:
            return Fraction(0)
        return self.integrate_on_face(face, poly)

    # -- size measures

    @property
    def n_cells(self):
        return len(self.cells)

    @property
    def h_max(self):
        return max(max(c.widths) for c in self.cells)

    @cached_property
    def float_centers(self):
        """Cell centers as a (cells, n) float array, indexed by cell id."""
        mids = [[float((a + b) / 2) for a, b in zip(axis, axis[1:])] for axis in self.grid]
        return np.array(list(product(*mids)))


def build_grid(domain, divisions):
    """Mesh of ``domain`` (a CellBox or [[lo, hi], ...] spec) with the given divisions."""
    if not isinstance(domain, CellBox):
        pairs = [(ratio(p[0]), ratio(p[1])) for p in domain]
        domain = CellBox(tuple(p[0] for p in pairs), tuple(p[1] for p in pairs))
    return CubicalMesh(domain, divisions)


@dataclass(frozen=True)
class DofTable:
    """Face DOFs of degree k on a mesh: all k-faces, or the interior ones only."""

    k: int
    faces: list       # the kept k-faces; DOF i is the integral over faces[i]
    cell_dofs: list   # per cell: (local face number, DOF id) of its kept faces

    @property
    def n_dofs(self):
        return len(self.faces)


def face_dofs(k, mesh, interior=False):
    """The mesh's table of k-face DOFs, built on first use and cached on the mesh.

    ``interior`` keeps only the faces off the domain boundary; DOFs are
    numbered in face order either way.
    """
    key = (k, interior)
    if key not in mesh.dof_tables:
        faces = [f for f in mesh.faces(k) if not (interior and mesh.is_boundary(f))]
        dof = {f: i for i, f in enumerate(faces)}
        cell_dofs = [[(a, dof[f]) for a, f in enumerate(mesh.cell_faces(t, k)) if f in dof]
                     for t in mesh.cell_tuples]
        mesh.dof_tables[key] = DofTable(k, faces, cell_dofs)
    return mesh.dof_tables[key]
