"""linalg over QQ (fraction-free elimination) against a Fraction Gauss-Jordan."""

import random
import time
from fractions import Fraction

from dcoh import linalg


def reference_rref(matrix):
    """Reduced echelon form with pivots 1, by Gauss-Jordan over Fractions."""
    rows = [list(r) for r in matrix]
    pivots = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        p = rows[r][col]
        rows[r] = [a / p for a in rows[r]]
        for i in range(len(rows)):
            c = rows[i][col]
            if i != r and c != 0:
                rows[i] = [a - c * b for a, b in zip(rows[i], rows[r])]
        pivots.append((r, col))
        r += 1
    return rows, pivots


def reference_kernel(matrix, ncols):
    rows, pivots = reference_rref(matrix)
    pivot_of_col = {c: r for r, c in pivots}
    basis = []
    for free in range(ncols):
        if free in pivot_of_col:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for col, r in pivot_of_col.items():
            vec[col] = -rows[r][free]
        basis.append(vec)
    return basis


def reference_solve(matrix, rhs):
    ncols = len(matrix[0])
    rows, pivots = reference_rref([list(row) + [b] for row, b in zip(matrix, rhs)])
    if any(c == ncols for _, c in pivots):
        return None
    x = [Fraction(0)] * ncols
    for r, c in pivots:
        x[c] = rows[r][ncols]
    return x


def random_entry(rng, rational):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 6) if rational else 1)


def random_matrix(rng, nrows, ncols, rank, rational):
    """An nrows x ncols matrix of rank at most `rank`: a product of two
    random factors, with a few zero columns and duplicated rows."""
    left = [[random_entry(rng, rational) for _ in range(rank)] for _ in range(nrows)]
    right = [[random_entry(rng, rational) for _ in range(ncols)] for _ in range(rank)]
    for c in rng.sample(range(ncols), min(ncols, rng.randint(0, 2))):
        for row in right:
            row[c] = Fraction(0)
    m = [[sum((left[i][k] * right[k][j] for k in range(rank)), Fraction(0))
          for j in range(ncols)] for i in range(nrows)]
    if nrows > 1 and rng.random() < 0.3:
        m[-1] = list(m[0])
    return m


def cases():
    rng = random.Random(24)
    for _ in range(60):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        rank = rng.randint(0, min(nrows, ncols))
        yield random_matrix(rng, nrows, ncols, rank, rng.random() < 0.5), rng


def values(rows):
    return [[x.value for x in row] for row in rows]


def test_row_echelon_is_the_reduced_echelon_form(QQ):
    for m, _ in cases():
        rows, pivots = linalg.row_echelon([[QQ.element(x) for x in row] for row in m], QQ)
        assert (values(rows), pivots) == reference_rref(m)
        assert linalg.rank([[QQ.element(x) for x in row] for row in m], QQ) == len(pivots)


def test_kernel_basis_matches_reference(QQ):
    for m, _ in cases():
        ncols = len(m[0])
        ker = linalg.kernel_basis([[QQ.element(x) for x in row] for row in m], QQ)
        assert [[c.value for c in vec] for vec in ker] == reference_kernel(m, ncols)
        for vec in ker:
            for row in m:
                assert sum((a * c.value for a, c in zip(row, vec)), Fraction(0)) == 0


def test_solve_matches_reference_on_consistent_and_inconsistent_systems(QQ):
    for m, rng in cases():
        ncols = len(m[0])
        x0 = [random_entry(rng, True) for _ in range(ncols)]
        consistent = [sum((a * x for a, x in zip(row, x0)), Fraction(0)) for row in m]
        # a right side off the column span, when the span is not everything
        off = [random_entry(rng, True) for _ in m]
        for rhs in (consistent, off):
            got = linalg.solve([[QQ.element(x) for x in row] for row in m],
                               [QQ.element(b) for b in rhs], QQ)
            want = reference_solve(m, rhs)
            assert (None if got is None else [c.value for c in got]) == want
            if got is not None:
                for row, b in zip(m, rhs):
                    assert sum((a * c.value for a, c in zip(row, got)), Fraction(0)) == b
        assert linalg.solve([[QQ.element(x) for x in row] for row in m],
                            [QQ.element(b) for b in consistent], QQ) is not None


def test_invert_matrix_matches_reference(QQ):
    rng = random.Random(5)
    for n in range(1, 7):
        m = random_matrix(rng, n, n, n, True)
        inv = linalg.invert_matrix([[QQ.element(x) for x in row] for row in m], QQ)
        ident = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        rows, _ = reference_rref([row + e for row, e in zip(m, ident)])
        if [r[:n] for r in rows] != ident:
            assert inv is None
        else:
            assert values(inv) == [r[n:] for r in rows]


def test_dense_24_by_24_solve_is_fast(QQ):
    rng = random.Random(1)
    n = 24
    m = [[QQ.element(rng.randint(-99, 99)) for _ in range(n)] for _ in range(n)]
    x0 = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
    rhs = [QQ.element(sum((a.value * x for a, x in zip(row, x0)), Fraction(0))) for row in m]
    t0 = time.perf_counter()
    x = linalg.solve(m, rhs, QQ)
    elapsed = time.perf_counter() - t0
    assert [c.value for c in x] == x0
    assert elapsed < 1.0, f"dense {n}x{n} QQ solve took {elapsed:.2f} s"
