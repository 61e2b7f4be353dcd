import math
import random
from fractions import Fraction

import pytest

from boxforms import exactla
from boxforms.exactla import (SingularMatrixError, common_denominator, independent_subset,
                              inverse_integers, kernel_vectors, rank, solve_consistent,
                              spans_equal)


def F(a, b=1):
    return Fraction(a, b)


def mat_vec(matrix, vec):
    return [sum((a * b for a, b in zip(row, vec)), Fraction(0)) for row in matrix]


def determinant(matrix):
    """Exact determinant by elimination on a copy."""
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


def in_span(vectors, candidate):
    """True if candidate is a linear combination of the given vectors."""
    if not any(candidate):
        return True
    if not vectors:
        return False
    return rank(vectors) == rank(vectors + [candidate])


def rand_matrix(rows, cols, rng, density=0.8):
    return [[F(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < density else F(0)
             for _ in range(cols)] for _ in range(rows)]


def kernel_view(matrix, ncols=None):
    """``kernel_vectors`` as dense Fraction vectors, one per free column."""
    ncols = len(matrix[0]) if ncols is None else ncols
    return [[F(vec.get(c, 0), den) for c in range(ncols)]
            for vec, den in kernel_vectors(matrix, ncols)[1]]


def reduced_view(matrix):
    """(rows, pivot columns): the reduced row echelon form that ``kernel_vectors``
    implies, one row per input row; the kernel vector of free column f holds
    -rref[r][f] at the pivot column of row r."""
    if not matrix:
        return [], []
    ncols = len(matrix[0])
    free, pairs = kernel_vectors(matrix, ncols)
    pivots = [c for c in range(ncols) if c not in free]
    rows = [[F(0)] * ncols for _ in matrix]
    for row, pc in zip(rows, pivots):
        row[pc] = F(1)
        for fc, (vec, den) in zip(free, pairs):
            row[fc] = -F(vec.get(pc, 0), den)
    return rows, pivots


def test_reduced_view_identity_pivots():
    m = [[F(2), F(0)], [F(0), F(3)]]
    red, pivots = reduced_view(m)
    assert red == [[F(1), F(0)], [F(0), F(1)]]
    assert pivots == [0, 1]


def test_rank_and_kernel_vectors_consistency():
    rng = random.Random(0)
    for _ in range(20):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = rand_matrix(rows, cols, rng)
        r = rank(m)
        kernel = kernel_view(m)
        assert r + len(kernel) == cols
        for v in kernel:
            assert all(x == 0 for x in mat_vec(m, v))


def test_kernel_vectors_of_zero_rows():
    basis = kernel_view([], ncols=3)
    assert len(basis) == 3


def test_solve_and_invert():
    rng = random.Random(1)
    for _ in range(10):
        n = rng.randint(1, 5)
        while True:
            m = rand_matrix(n, n, rng, density=1.0)
            if determinant(m) != 0:
                break
        b = [F(rng.randint(-3, 3)) for _ in range(n)]
        rows, den = inverse_integers(m)
        assert den > 0 and all(type(v) is int for row in rows for v in row)
        inv = [[F(v, den) for v in row] for row in rows]
        assert mat_vec(m, mat_vec(inv, b)) == b
        assert mat_vec(inv, mat_vec(m, b)) == b


def test_singular_raises():
    m = [[F(1), F(2)], [F(2), F(4)]]
    with pytest.raises(SingularMatrixError):
        inverse_integers(m)


def test_determinant_matches_cofactor_expansion():
    def cofactor_det(m):
        if len(m) == 1:
            return m[0][0]
        total = F(0)
        for j in range(len(m)):
            minor = [row[:j] + row[j + 1:] for row in m[1:]]
            total += (-1) ** j * m[0][j] * cofactor_det(minor)
        return total

    rng = random.Random(2)
    for _ in range(10):
        n = rng.randint(1, 4)
        m = rand_matrix(n, n, rng, density=1.0)
        assert determinant(m) == cofactor_det(m)


def test_span_utilities():
    a = [[F(1), F(0), F(1)], [F(0), F(1), F(1)]]
    b = [[F(1), F(1), F(2)], [F(1), F(-1), F(0)]]
    assert spans_equal(a, b)
    assert in_span(a, [F(2), F(3), F(5)])
    assert not in_span(a, [F(0), F(0), F(1)])


def test_independent_subset_scans_in_order():
    vectors = [
        [F(1), F(0)],
        [F(2), F(0)],   # dependent on the first
        [F(0), F(1)],
    ]
    assert independent_subset(vectors) == [0, 2]
    assert independent_subset([[F(0), F(0)]]) == []


def test_kernel_vectors_are_canonical():
    # one vector per free column with a unit entry there
    m = [[F(1), F(2), F(0), F(3)],
         [F(0), F(0), F(1), F(4)]]
    kernel = kernel_view(m)
    assert len(kernel) == 2
    assert kernel[0][1] == 1 and kernel[0][3] == 0
    assert kernel[1][3] == 1 and kernel[1][1] == 0


# -- the dense elimination the sparse one replaced, kept as the oracle


def invert(matrix):
    """The exact inverse as Fractions: ``inverse_integers`` over its denominator."""
    rows, den = inverse_integers(matrix)
    return [[F(v, den) for v in row] for row in rows]


def reference_rref(matrix):
    m = [list(row) for row in matrix]
    if not m:
        return m, []
    rows, cols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        if pv != 1:
            m[r] = [v / pv for v in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def reference_independent_subset(vectors):
    if not vectors:
        return []
    ncols = len(vectors[0])
    kept = []
    rows = []
    for idx, v in enumerate(vectors):
        work = list(v)
        for pivot_col, row in rows:
            if work[pivot_col]:
                f = work[pivot_col]
                work = [a - f * b for a, b in zip(work, row)]
        pc = next((c for c in range(ncols) if work[c]), None)
        if pc is None:
            continue
        pv = work[pc]
        work = [a / pv for a in work]
        rows.append((pc, work))
        rows.sort(key=lambda pr: pr[0])
        kept.append(idx)
    return kept


def reference_nullspace(matrix, ncols=None):
    red, pivots = reference_rref(matrix)
    ncols = len(matrix[0]) if ncols is None else ncols
    basis = []
    for fc in [c for c in range(ncols) if c not in pivots]:
        v = [F(0)] * ncols
        v[fc] = F(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def random_cases(count, seed):
    """Seeded rational matrices: tall, wide, square, low rank, zero rows and columns."""
    rng = random.Random(seed)
    for case in range(count):
        rows, cols = rng.randint(1, 9), rng.randint(1, 9)
        shape = case % 5
        if shape == 0:
            rows = 1
        elif shape == 1:
            rows, cols = max(rows, cols) + 2, min(rows, cols)      # tall
        elif shape == 2:
            rows, cols = min(rows, cols), max(rows, cols) + 2      # wide
        elif shape == 3:
            cols = rows                                            # square
        m = rand_matrix(rows, cols, rng, density=rng.choice([0.2, 0.5, 0.9]))
        if case % 3 == 0 and rows > 1:
            # rank-deficient: later rows combine earlier ones
            a, b = rng.sample(range(rows), 2)
            scale = F(rng.randint(-2, 2), 3)
            m[b] = [x + scale * y for x, y in zip(m[b], m[a])]
            m.append([F(2) * x - y for x, y in zip(m[0], m[-1])])
        if case % 4 == 1:
            z = rng.randrange(len(m))
            m[z] = [F(0)] * cols                                   # zero row
        if case % 4 == 2:
            z = rng.randrange(cols)
            for row in m:
                row[z] = F(0)                                      # zero column
        yield m


def test_reduced_view_matches_dense_reference():
    for m in random_cases(300, seed=3):
        assert reduced_view(m) == reference_rref(m)


def test_kernel_vectors_and_rank_match_dense_reference():
    for m in random_cases(300, seed=4):
        red, pivots = reference_rref(m)
        assert rank(m) == len(pivots)
        assert kernel_view(m) == reference_nullspace(m)


def test_independent_subset_matches_reference_dense_and_sparse():
    for m in random_cases(300, seed=5):
        expected = reference_independent_subset(m)
        assert independent_subset(m) == expected
        assert independent_subset([{c: v for c, v in enumerate(row) if v} for row in m]) == expected


def test_elimination_edge_shapes():
    assert reduced_view([]) == ([], [])
    assert reduced_view([[F(0), F(0)]]) == ([[F(0), F(0)]], [])
    assert reduced_view([[F(0), F(3), F(6)]]) == ([[F(0), F(1), F(2)]], [1])
    zeros = [[F(0)] * 3 for _ in range(4)]
    assert reduced_view(zeros) == (zeros, [])
    assert kernel_view(zeros) == reference_nullspace(zeros)
    assert independent_subset([]) == []
    assert independent_subset([{}, {2: F(1)}, {2: F(-2)}]) == [1]


# -- integer rows: wide entries, ints, mixed ints and Fractions, dict rows


def wide_cases(count, seed):
    """Seeded rows of the kinds elimination sees, with entries up to 1e12 over 1e12.

    Each case is (kind, dense rows); a later row may combine two earlier ones.
    """
    rng = random.Random(seed)
    big = 10 ** 12

    def entry(kind):
        if rng.random() < 0.3:
            return 0
        sign = rng.choice((-1, 1))
        if kind == "int" or (kind == "mixed" and rng.random() < 0.5):
            return sign * rng.randint(1, big)
        return F(sign * rng.randint(1, big), rng.randint(1, big))

    for case in range(count):
        kind = ("fraction", "int", "mixed")[case % 3]
        rows, cols = rng.randint(1, 6), rng.randint(1, 7)
        m = [[entry(kind) for _ in range(cols)] for _ in range(rows)]
        if rows > 2 and case % 2:
            a, b = rng.sample(range(rows - 1), 2)
            p, q = rng.randint(-3, 3), rng.randint(-3, 3)
            m[-1] = [p * x + q * y for x, y in zip(m[a], m[b])]
        yield kind, m


def as_fractions(m):
    return [[F(v) for v in row] for row in m]


def test_the_seeded_cases_are_rank_deficient_where_they_claim():
    # a combined or appended row makes its case rank-deficient
    def deficient(m):
        return len(reference_rref(as_fractions(m))[1]) < len(m)

    claimed = [deficient(m) for case, m in enumerate(random_cases(300, seed=5))
               if case % 3 == 0 and len(m) > 2]
    assert len(claimed) > 60 and all(claimed)
    claimed = [deficient(m) for case, (_, m) in enumerate(wide_cases(300, seed=5))
               if case % 2 and len(m) > 2]
    assert len(claimed) > 60 and all(claimed)


def test_wide_rows_match_dense_reference():
    for kind, m in wide_cases(240, seed=6):
        exact = as_fractions(m)
        assert reduced_view(m) == reference_rref(exact), kind
        assert kernel_view(m) == reference_nullspace(exact), kind
        expected = reference_independent_subset(exact)
        assert independent_subset(m) == expected, kind
        dict_rows = [{c: v for c, v in enumerate(row) if v} for row in m]
        assert independent_subset(dict_rows) == expected, kind
        assert rank(dict_rows) == len(reference_rref(exact)[1]), kind


def test_wide_square_systems_match_dense_reference():
    solved = 0
    for kind, m in wide_cases(240, seed=7):
        n = len(m)
        if len(m[0]) < n:
            continue
        a = [row[:n] for row in m]
        exact = as_fractions(a)
        if len(reference_rref(exact)[1]) < n:
            with pytest.raises(SingularMatrixError):
                inverse_integers(a)
            continue
        identity = [[F(i == j) for j in range(n)] for i in range(n)]
        both, _ = reference_rref([row + e for row, e in zip(exact, identity)])
        assert invert(a) == [row[n:] for row in both], kind
        solved += 1
    assert solved > 50


def test_common_denominator_is_the_lcm_of_the_reduced_denominators():
    # tables of integers over dens that share factors with their entries, against
    # the Fractions they stand for
    rng = random.Random(47)
    for _ in range(40):
        tables = []
        for _ in range(rng.randint(1, 3)):
            g = rng.choice([1, 2, 6, 35])
            rows = [[g * rng.randint(-9, 9) for _ in range(3)] for _ in range(rng.randint(1, 3))]
            tables.append((rows, g * rng.randint(1, 12)))
        matrices, den = common_denominator(tables)
        exact = [[[F(v, d) for v in row] for row in rows] for rows, d in tables]
        assert den == math.lcm(*(v.denominator for m in exact for row in m for v in row))
        assert [[[F(v, den) for v in row] for row in m] for m in matrices] == exact
        assert all(type(v) is int for m in matrices for row in m for v in row)
    assert common_denominator([([[0, 0]], 6)]) == ([[[0, 0]]], 1)
    assert common_denominator([([[2, 4]], 6), ([[1]], 4)]) == ([[[4, 8]], [[3]]], 12)


def test_mixed_int_and_fraction_row():
    # an int beside a Fraction must be scaled by the row's common denominator
    assert reduced_view([[2, F(1, 3), 5], [F(1, 2), 0, 1]]) == reference_rref(
        [[F(2), F(1, 3), F(5)], [F(1, 2), F(0), F(1)]])
    assert kernel_view([[1, F(1, 2)]]) == [[F(-1, 2), F(1)]]


def test_kernel_vectors_are_the_sparse_nullspace():
    rng = random.Random(41)
    for rows, cols in [(3, 6), (5, 5), (6, 4), (2, 7)]:
        m = rand_matrix(rows, cols, rng, density=0.5)
        free, pairs = kernel_vectors(m, cols)
        assert all(den > 0 and vec[fc] == den for (vec, den), fc in zip(pairs, free))
        vectors = [{c: F(v, den) for c, v in vec.items()} for vec, den in pairs]
        assert [[vec.get(c, F(0)) for c in range(cols)] for vec in vectors] == \
            reference_nullspace(m)
        assert all(list(vec) == sorted(vec) and all(vec.values()) for vec in vectors)
        for i, fc in enumerate(free):
            assert [vec.get(fc, 0) for vec in vectors] == [int(i == j) for j in range(len(free))]
    assert kernel_vectors([], 2) == ([0, 1], [({0: 1}, 1), ({1: 1}, 1)])


def test_solve_consistent_solves_exactly_and_rejects_inconsistency():
    # rank 2 in 3 columns, the third row the sum of the first two
    rows = [{0: F(1), 1: F(2)}, {1: F(1), 2: F(-1)}, {0: F(1), 1: F(3), 2: F(-1)}]
    x = solve_consistent(rows, [F(3), F(1, 2), F(7, 2)], 3)
    assert [sum(v * x[c] for c, v in row.items()) for row in rows] == [3, F(1, 2), F(7, 2)]
    assert x == [F(2), F(1, 2), F(0)]
    with pytest.raises(ValueError, match="no solution"):
        solve_consistent(rows, [F(3), F(1, 2), F(3)], 3)
    with pytest.raises(ValueError, match="no solution"):
        solve_consistent([{}], [F(1)], 2)
    assert solve_consistent([], [], 0) == []
    # against the inverse on random nonsingular systems
    rng = random.Random(43)
    for n in (1, 3, 6):
        while True:
            m = rand_matrix(n, n, rng, density=0.6)
            if rank(m) == n:
                break
        b = [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
        sparse = [{c: v for c, v in enumerate(row) if v} for row in m]
        assert solve_consistent(sparse, b, n) == mat_vec(invert(m), b)


# -- the modular solve against the fraction-free elimination


def fraction_free(monkeypatch, rows, rhs, ncols):
    """``solve_consistent`` with the modular solve taken away, or the ValueError it raises."""
    with monkeypatch.context() as patch:
        patch.setattr(exactla, "_solve_modular", lambda rows, rhs: None)
        try:
            return solve_consistent(rows, rhs, ncols)
        except ValueError as err:
            return err


def sparse_system(kind, rng):
    """(rows, rhs, ncols): a seeded sparse system of ints and Fractions, some above the prime.

    ``square`` is nonsingular; ``rectangular`` has more rows than columns
    and full column rank; ``singular`` has dependent rows and dependent
    columns between independent ones; the three are consistent.
    ``inconsistent`` is a singular one with a dependent row's right side moved.
    """
    def entry():
        if rng.random() < 0.5:
            return 0
        value = rng.choice((-1, 1)) * rng.choice((rng.randint(1, 9), rng.randint(1, 2 ** 80)))
        return F(value, rng.randint(1, 7)) if rng.random() < 0.5 else value

    def draw(nrows, ncols):
        return [[entry() for _ in range(ncols)] for _ in range(nrows)]

    ncols = rng.randint(1, 8)
    if kind == "square":
        while rank(m := draw(ncols, ncols)) < ncols:
            pass
    elif kind == "rectangular":
        while rank(m := draw(ncols + rng.randint(1, 4), ncols)) < ncols:
            pass
    else:
        ncols += 2
        m = draw(rng.randint(2, ncols), ncols)
        for _ in range(2):  # two columns, then a row, that combine two others
            (a, b, c), s = rng.sample(range(ncols), 3), rng.randint(-3, 3)
            t = F(rng.randint(-3, 3), 2)
            for row in m:
                row[c] = row[a] * s + row[b] * t
        (a, b), s = rng.sample(range(len(m)), 2), rng.randint(-3, 3)
        m.append([x * s + y for x, y in zip(m[a], m[b])])
    x = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(ncols)]
    rhs = [sum((a * b for a, b in zip(row, x)), F(0)) for row in m]
    if kind == "inconsistent":
        rhs[-1] += 1
    return [{c: v for c, v in enumerate(row) if v} for row in m], rhs, ncols


@pytest.mark.parametrize("kind", ["square", "rectangular", "singular", "inconsistent"])
def test_modular_solve_matches_the_fraction_free_elimination(monkeypatch, kind):
    rng = random.Random(70 + len(kind))
    for _ in range(60):
        rows, rhs, ncols = sparse_system(kind, rng)
        expected = fraction_free(monkeypatch, rows, rhs, ncols)
        if kind == "inconsistent":
            assert isinstance(expected, ValueError)
            assert exactla._solve_modular(rows, rhs) is None
            with pytest.raises(ValueError, match="no solution"):
                solve_consistent(rows, rhs, ncols)
        else:
            assert exactla._solve_modular(rows, rhs) is not None  # no fallback
            assert solve_consistent(rows, rhs, ncols) == expected


def test_a_prime_dividing_a_pivot_changes_no_answer(monkeypatch):
    p = exactla.PRIME
    # mod p the first column vanishes, so the second takes its pivot: the modular solve
    # answers x = (0, 1), exact, where the fraction-free elimination answers (1/p, 0)
    rows, rhs = [{0: p, 1: 1}], [1]
    assert exactla._solve_modular(rows, rhs) == ({1: 1}, 1)
    x = solve_consistent(rows, rhs, 2)
    assert [sum(v * x[c] for c, v in row.items()) for row in rows] == rhs
    assert x == [0, 1] and fraction_free(monkeypatch, rows, rhs, 2) == [F(1, p), 0]
    # nonsingular, but of rank 1 mod p, where the right side is inconsistent
    rows, rhs = [{0: p, 1: 1}, {1: F(1, 2)}], [2, F(1, 2)]
    assert exactla._solve_modular(rows, rhs) is None
    assert solve_consistent(rows, rhs, 2) == [F(1, p), 1]
    # a multiple of p on a pivot of the rational elimination, a unit mod p after a swap
    rows = [{0: 2 * p, 1: 3}, {0: 1, 1: p + 1}]
    x = solve_consistent(rows, [5, 7], 2)
    assert exactla._solve_modular(rows, [5, 7]) is not None
    assert x == fraction_free(monkeypatch, rows, [5, 7], 2)
    assert [sum(v * x[c] for c, v in row.items()) for row in rows] == [5, 7]
