"""Tensor-product meshes of a box: cells, the face lattice, and face DOFs.

A d-face is identified by its tuple of tangential axes (ascending) and a
lattice position: cell slots along tangential axes, grid planes along the
others.  Faces are numbered lexicographically by (axes, position).  Every
face carries the ascending-axes orientation, which makes all cell-to-face
incidence signs +1; the face functional used for the tensor-product
spaces is the (unnormalized) integral of the trace over the face.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

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
        self._face_id = {}
        self.local_tables = {}  # (k, widths) -> LocalTables, filled by local.tables

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
            self._face_id[d] = {f: i for i, f in enumerate(out)}
        return self._faces[d]

    def face_id(self, face):
        self.faces(len(face.axes))
        return self._face_id[len(face.axes)][face]

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

    def cell_id(self, cell_tuple):
        return self._cell_id[tuple(cell_tuple)]

    # -- geometry and integration on faces

    def face_measure(self, face):
        m = Fraction(1)
        for axis in face.axes:
            i = axis - 1
            m *= self.grid[i][face.pos[i] + 1] - self.grid[i][face.pos[i]]
        return m

    def integrate_on_face(self, face, poly):
        """Exact integral of a polynomial over the face (trace measure).

        Normal coordinates are frozen at the face plane; a 0-face integral
        is point evaluation.
        """
        work = poly
        for i in range(self.n):
            if (i + 1) not in face.axes:
                work = work.substitute(i + 1, self.grid[i][face.pos[i]])
        total = Fraction(0)
        for e, c in work.coeffs.items():
            term = c
            for axis in face.axes:
                i = axis - 1
                a, b = self.grid[i][face.pos[i]], self.grid[i][face.pos[i] + 1]
                p = e[i]
                term *= (b ** (p + 1) - a ** (p + 1)) / Fraction(p + 1)
            total += term
        return total

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

    @property
    def aspect_ratio(self):
        return max(max(c.widths) / min(c.widths) for c in self.cells)

    def congruence_key(self, cell_id):
        return self.cells[cell_id].widths


def build_grid(domain, divisions):
    """Mesh of ``domain`` (a CellBox or [[lo, hi], ...] spec) with the given divisions."""
    if not isinstance(domain, CellBox):
        pairs = [(ratio(p[0]), ratio(p[1])) for p in domain]
        domain = CellBox(tuple(p[0] for p in pairs), tuple(p[1] for p in pairs))
    return CubicalMesh(domain, divisions)


@dataclass
class DofTable:
    """Face DOFs of the degree-k tensor-product space on a mesh."""

    k: int
    mesh: CubicalMesh
    faces: list
    boundary: list      # bool per dof
    cell_dofs: list     # per cell: list of (global dof id, sign) in local face order

    @property
    def n_dofs(self):
        return len(self.faces)

    @property
    def interior_ids(self):
        return [i for i, b in enumerate(self.boundary) if not b]


def face_dofs(k, mesh):
    """One DOF per k-face; all incidence signs are +1 (global orientation)."""
    faces = mesh.faces(k)
    boundary = [mesh.is_boundary(f) for f in faces]
    cell_dofs = []
    for t in mesh.cell_tuples:
        cell_dofs.append([(mesh.face_id(f), 1) for f in mesh.cell_faces(t, k)])
    return DofTable(k, mesh, faces, boundary, cell_dofs)
