"""Exact Gaussian elimination over the rationals: rank, kernels, solves, spans.

One sparse routine, ``_eliminate``, backs ``rank``, ``kernel_vectors``,
``inverse_integers``, ``independent_subset`` and ``independent_rows``, and
``solve_consistent`` when its modular solve proves nothing.  Rows are
dense lists or sparse ``{column: value}`` dicts; ``rank`` and the span
utilities take any sortable column keys, such as the ``(index,
exponents)`` keys of forms.  It is fraction-free
(Bareiss, Math. Comp. 22, 1968, with content division for his exact
quotients): each input row is scaled by the lcm of its denominators and
divided by the gcd of its entries, giving a primitive ``{column: int}``
row (``independent_rows`` takes such rows as they are, from a caller
that knows them).  Rows enter one at a time, in the order given: each is
reduced by the pivot rows kept so far, leftmost column first, as
``b*row - a*pivot`` with a/b the ratio of the two pivot-column entries in
lowest terms, then made primitive again; what remains becomes a new pivot
row.  Back-substitution clears each pivot column outside its own row the
same way, and the pivot rows stay integers: each caller divides by a
row's leading entry only where it needs a Fraction, ``kernel_vectors``
not at all.  The reduced form is unique for a fixed column order, so
kernels come out canonical (one basis vector per free column, unit entry
there).

Fraction-free entries swell to thousands of bits on large systems with
small solutions.  So ``solve_consistent`` first eliminates mod a prime,
lifts p-adically (Dixon, Numer. Math. 40, 1982) and reconstructs fractions
(Wang, SYMSAC 1981), and keeps the answer only once proven in integers.
It promises one exact solution, not a canonical one: where a prime divides
a pivot, the two paths may answer a singular system differently.
"""

from fractions import Fraction
from math import gcd, isqrt, lcm


class SingularMatrixError(ValueError):
    pass


def _primitive(row):
    """An integer row {column: int} divided by the gcd of its entries."""
    g = gcd(*row.values())
    return {c: v // g for c, v in row.items()} if g != 1 else row


def integer_scaled(values):
    """(ints, d) with values[i] == ints[i] / d, d the lcm of the denominators."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def common_denominator(tables):
    """(integer matrices, den): (rows, den) integer tables over the lcm of their entries'
    reduced denominators; one table comes back in lowest terms."""
    den = lcm(*(d // gcd(d, *(v for row in rows for v in row)) for rows, d in tables))
    return [[[v * den // d for v in row] for row in rows] for rows, d in tables], den


def _integer_row(row):
    """The primitive integer multiple of a dense or {column: value} row of ints and Fractions."""
    row = {c: v for c, v in (row.items() if isinstance(row, dict) else enumerate(row)) if v}
    if any(type(v) is not int for v in row.values()):
        row = dict(zip(row, integer_scaled(row.values())[0]))
    return _primitive(row) if row else row


def _cancel(row, pivot, c):
    """b*row - a*pivot, made primitive, with a/b = row[c]/pivot[c] in lowest terms.

    Column c drops out.
    """
    a, b = row[c], pivot[c]
    g = gcd(a, b)
    a, b = a // g, b // g
    if b != 1:
        row = {j: b * v for j, v in row.items()}
    for j, v in pivot.items():
        new = row.get(j, 0) - a * v
        if new:
            row[j] = new
        else:
            del row[j]
    return _primitive(row)


def _eliminate(rows, reduce=True, primitive=False):
    """Sparse elimination of rows given as dense lists or {column: value} dicts.

    Returns (pivot rows keyed by leading column, indices of the rows that
    gained a pivot).  The pivot rows are primitive integer rows: with
    ``reduce``, each is its leading entry times a row of the reduced row
    echelon form; otherwise they are rows of an echelon form.  With
    ``primitive`` the rows are already primitive integer dicts and are
    eliminated in place.
    """
    pivots = {}
    kept = []
    for index, row in enumerate(rows):
        work = row if primitive else _integer_row(row)
        while work:
            c = min(work)
            if c not in pivots:
                break
            work = _cancel(work, pivots[c], c)
        else:
            continue
        pivots[c] = work
        kept.append(index)
    if reduce:
        for c in sorted(pivots, reverse=True):
            row = pivots[c]
            for j in [j for j in row if j != c and j in pivots]:
                row = _cancel(row, pivots[j], j)
            pivots[c] = row
    return pivots, kept


def rank(matrix):
    return len(_eliminate(matrix, reduce=False)[0])


def kernel_vectors(matrix, ncols):
    """Canonical kernel basis as (free columns, vectors), one per free column.

    Vector i is (row, den): an integer ``{column: int}`` row over den > 0,
    the lcm of the leading entries it divides by, equal to den at free
    column i and zero at every other free column; entries in column order.
    """
    pivots = _eliminate(matrix)[0] if matrix else {}
    free = [c for c in range(ncols) if c not in pivots]
    entries = {fc: [] for fc in free}
    for pc, row in pivots.items():
        for c, v in row.items():
            if c != pc:
                entries[c].append((pc, -v, row[pc]))
    dens = [lcm(*(lead for _, _, lead in entries[fc])) for fc in free]
    return free, [(dict(sorted([(fc, den)] + [(pc, v * (den // lead)) for pc, v, lead in
                                             entries[fc]])), den) for fc, den in zip(free, dens)]


def inverse_integers(matrix, den=1):
    """(rows, d): the exact inverse of a square nonsingular matrix over ``den`` as integer
    rows over one denominator, in lowest terms."""
    n = len(matrix)
    pivots, _ = _eliminate([list(row) + [int(i == j) for j in range(n)]
                            for i, row in enumerate(matrix)])
    if sorted(pivots) != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    d = lcm(*(pivots[i][i] for i in range(n)))  # (matrix / den)^-1 is den times matrix^-1
    (rows,), d = common_denominator([([[pivots[i].get(n + j, 0) * (d // pivots[i][i]) * den
                                        for j in range(n)] for i in range(n)], d)])
    return rows, d


def solve_consistent(rows, rhs, ncols):
    """One exact solution of a sparse system that may be singular.

    ``rows`` are ``{column: value}`` dicts over ``ncols`` columns.  Raises
    ValueError when ``rhs`` is not in the span of the columns.  The
    fraction-free elimination answers where the modular solve proves nothing.
    Which solution of a singular system comes back is not promised.
    """
    found = _solve_modular(rows, rhs)
    if found:
        return [Fraction(found[0].get(c, 0), found[1]) for c in range(ncols)]
    pivots, _ = _eliminate([{**row, ncols: b} if b else row for row, b in zip(rows, rhs)])
    if ncols in pivots:
        raise ValueError("the system has no solution")
    x = [Fraction(0)] * ncols
    for c, row in pivots.items():
        x[c] = Fraction(row.get(ncols, 0), row[c])
    return x


# -- the modular solve

#: the prime of the modular solve, a Mersenne prime
PRIME = 2 ** 61 - 1


def _eliminate_mod(rows):
    """(pivot rows, steps): ``_eliminate``'s echelon form of integer rows, mod PRIME.

    Pivot rows omit their unit leading entry.  A row's step replays its
    reduction on a right side: its (pivot column, multiplier) pairs, then
    (its pivot column, inverse leading entry), or None if it reduced to zero.
    """
    pivots, steps = {}, []
    for row in rows:
        work, ops, lead = dict(row), [], None
        while work:
            c = min(work)
            m = work.pop(c) % PRIME  # entries are reduced only when they lead
            if m and c not in pivots:
                lead = c, pow(m, -1, PRIME)
                pivots[c] = {j: v * lead[1] % PRIME for j, v in work.items() if v % PRIME}
                break
            if m:
                ops.append((c, m))
                for j, v in pivots[c].items():
                    work[j] = work.get(j, 0) - m * v
        steps.append((ops, lead))
    return pivots, steps


def _solve_mod(pivots, steps, rhs):
    """The solution mod PRIME, zero at the free columns; None if a zero row's side is not."""
    reduced = {}
    for (ops, lead), b in zip(steps, rhs):
        b = (b - sum(m * reduced[c] for c, m in ops)) % PRIME
        if lead:
            reduced[lead[0]] = b * lead[1] % PRIME
        elif b:
            return None
    x = {}
    for c in sorted(reduced, reverse=True):
        x[c] = (reduced[c] - sum(v * x.get(j, 0) for j, v in pivots[c].items())) % PRIME
    return x


def _reconstruct(digits, modulus):
    """(num, den), zeros dropped, with ``num[c] == den * digits[c]`` mod ``modulus`` and all
    of them at most sqrt(modulus / 2) in size, or None; the denominator runs over entries."""
    bound, den, half = isqrt(modulus // 2), 1, modulus // 2
    for v in digits.values():
        r0, r1, t0, t1 = modulus, v * den % modulus, 0, 1
        while r1 > bound:
            q = r0 // r1
            r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
        den *= abs(t1)
        if den > bound:
            return None
    num = {c: (v * den + half) % modulus - half for c, v in digits.items()}
    if any(abs(v) > bound for v in num.values()):
        return None
    return {c: v for c, v in num.items() if v}, den


def _lift(rows, pivots, steps, rhs):
    """(num, den) with ``rows num == den rhs`` exactly, num zero at the free columns mod
    PRIME; None if a zero row is inconsistent mod PRIME, or if PRIME^K passes twice the
    squared Hadamard bound of the pivot rows on the pivot columns, where reconstruction
    must have succeeded, with no exact solution found.  The bound is compared by bit
    lengths, which overstate it: it gives up no earlier."""
    bound_bits = sum((sum(v * v for j, v in row.items() if j in pivots) + b * b).bit_length()
                     for row, b, (_, lead) in zip(rows, rhs, steps) if lead)
    digits, modulus, residual = {}, 1, rhs
    while True:
        x = _solve_mod(pivots, steps, residual)
        if x is None:
            return None
        for c, v in x.items():
            digits[c] = digits.get(c, 0) + v * modulus
        modulus *= PRIME
        residual = [(r - sum(v * x.get(j, 0) for j, v in row.items())) // PRIME
                    for row, r in zip(rows, residual)]
        found = _reconstruct(digits, modulus)
        if found and all(sum(v * found[0].get(j, 0) for j, v in row.items()) == found[1] * b
                         for row, b in zip(rows, rhs)):
            return found
        if modulus.bit_length() > bound_bits + 1:
            return None


def _solve_modular(rows, rhs):
    """One exact solution of ``rows x = rhs`` as (integers {column: int}, den), or None."""
    scaled = [integer_scaled([*row.values(), b])[0] for row, b in zip(rows, rhs)]
    rows = [dict(zip(row, ints)) for row, ints in zip(rows, scaled)]
    return _lift(rows, *_eliminate_mod(rows), [ints[-1] for ints in scaled])


# -- span utilities (rows are coefficient vectors)


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


def independent_rows(rows):
    """``independent_subset`` of primitive integer rows {column: int}, which it modifies:
    pass rows that nothing else holds."""
    return _eliminate(rows, reduce=False, primitive=True)[1]
