"""Exact Gaussian elimination over Fraction: rank, kernels, solves, spans.

One sparse routine, ``_eliminate``, backs ``rref``, ``rank``, ``nullspace``,
``solve``, ``invert`` and ``independent_subset``.  Rows are held as
``{column: nonzero Fraction}`` and enter one at a time, in the order given:
each is reduced by the pivot rows kept so far, leftmost column first, and
what remains becomes a new pivot row with a unit leading entry.
Back-substitution then clears each pivot column outside its own row.  The
reduced form is unique for a fixed column order, so kernels come out
canonical (one basis vector per free column, unit entry there).
"""

from fractions import Fraction


class SingularMatrixError(ValueError):
    pass


def _add_multiple(row, f, other):
    """row += f * other in place, dropping the entries that cancel."""
    for c, v in other.items():
        new = row[c] + f * v if c in row else f * v
        if new:
            row[c] = new
        else:
            del row[c]


def _eliminate(rows, reduce=True):
    """Sparse elimination of rows given as dense lists or {column: value} dicts.

    Returns (pivot rows keyed by leading column, indices of the rows that
    gained a pivot); the pivot rows are those of the reduced row echelon
    form when ``reduce`` is set.
    """
    pivots = {}
    kept = []
    for index, row in enumerate(rows):
        work = {c: v for c, v in (row.items() if isinstance(row, dict) else enumerate(row)) if v}
        while work:
            c = min(work)
            if c not in pivots:
                break
            _add_multiple(work, -work[c], pivots[c])
        else:
            continue
        lead = work[c]
        pivots[c] = {j: v / lead for j, v in work.items()} if lead != 1 else work
        kept.append(index)
    if reduce:
        for c in sorted(pivots, reverse=True):
            row = pivots[c]
            for j in [j for j in row if j != c and j in pivots]:
                _add_multiple(row, -row[j], pivots[j])
    return pivots, kept


def rref(matrix):
    """Reduced row echelon form.  Returns (rows, pivot_columns)."""
    if not matrix:
        return [], []
    pivots, _ = _eliminate(matrix)
    order = sorted(pivots)
    rows = [[Fraction(0)] * len(matrix[0]) for _ in matrix]
    for row, c in zip(rows, order):
        for j, v in pivots[c].items():
            row[j] = v
    return rows, order


def rank(matrix):
    return len(_eliminate(matrix, reduce=False)[0])


def nullspace(matrix, ncols=None):
    """Canonical kernel basis, one vector per free column."""
    if not matrix:
        if ncols is None:
            raise ValueError("nullspace of an empty matrix needs ncols")
        return [[Fraction(i == j) for i in range(ncols)] for j in range(ncols)]
    ncols = len(matrix[0])
    pivots, _ = _eliminate(matrix)
    free = {fc: i for i, fc in enumerate(c for c in range(ncols) if c not in pivots)}
    basis = [[Fraction(0)] * ncols for _ in free]
    for fc, i in free.items():
        basis[i][fc] = Fraction(1)
    for pc, row in pivots.items():
        for c, v in row.items():
            if c != pc:
                basis[free[c]][pc] = -v
    return basis


def solve(matrix, rhs):
    """Unique solution of a square nonsingular system; exact."""
    n = len(matrix)
    if n == 0:
        return []
    if any(len(row) != n for row in matrix):
        raise ValueError("solve expects a square matrix")
    pivots, _ = _eliminate([list(row) + [b] for row, b in zip(matrix, rhs)])
    if sorted(pivots) != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    return [pivots[i].get(n, Fraction(0)) for i in range(n)]


def invert(matrix):
    """Exact inverse of a square nonsingular matrix."""
    n = len(matrix)
    pivots, _ = _eliminate([list(row) + [Fraction(i == j) for j in range(n)]
                            for i, row in enumerate(matrix)])
    if sorted(pivots) != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    return [[pivots[i].get(n + j, Fraction(0)) for j in range(n)] for i in range(n)]


def mat_vec(matrix, vec):
    return [sum((a * b for a, b in zip(row, vec)), Fraction(0)) for row in matrix]


def determinant(matrix):
    """Exact determinant via fraction-free style elimination on a copy."""
    m = [list(row) for row in matrix]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        pv = m[c][c]
        for i in range(c + 1, n):
            if m[i][c]:
                f = m[i][c] / pv
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return det


# -- span utilities (rows are coefficient vectors)


def in_span(vectors, candidate):
    """True if candidate is a linear combination of the given vectors."""
    if not any(candidate):
        return True
    if not vectors:
        return False
    return rank(vectors) == rank(vectors + [candidate])


def spans_equal(vecs_a, vecs_b):
    """Mutual containment by three rank computations."""
    ra = rank(vecs_a)
    if ra != rank(vecs_b):
        return False
    return rank(vecs_a + vecs_b) == ra


def independent_subset(vectors):
    """Indices of a maximal independent subset, scanning in the order given.

    Vectors may be dense lists or sparse dicts of column -> value.
    """
    return _eliminate(vectors, reduce=False)[1]
