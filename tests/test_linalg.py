"""linalg against Gauss-Jordan references: Fractions over QQ (fraction-free
elimination), FieldElements over GF(9) and QQ(t);shift."""

import random
import time
from fractions import Fraction

import pytest

from conftest import assert_qq_normal_form

from dcoh import linalg
from dcoh.algebras import make_split_algebra
from dcoh.fields import FiniteField, make_field


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


# --------------------------------------------------------------------------
# every other field: GF(9) and QQ(t);shift against a FieldElement Gauss-Jordan

OTHER_FIELDS = ["GF(9);frob^1", "QQ(t);shift"]


def element_rref(matrix):
    """Reduced echelon form with pivots one(), by Gauss-Jordan on FieldElements."""
    rows = [list(r) for r in matrix]
    pivots = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(rows)) if not rows[i][col].is_zero()), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        p = rows[r][col]
        rows[r] = [a / p for a in rows[r]]
        for i in range(len(rows)):
            c = rows[i][col]
            if i != r and not c.is_zero():
                rows[i] = [a - c * b for a, b in zip(rows[i], rows[r])]
        pivots.append((r, col))
        r += 1
    return rows, pivots


def element_kernel(matrix, field, ncols):
    rows, pivots = element_rref(matrix)
    pivot_of_col = {c: r for r, c in pivots}
    basis = []
    for free in range(ncols):
        if free in pivot_of_col:
            continue
        vec = [field.zero()] * ncols
        vec[free] = field.one()
        for col, r in pivot_of_col.items():
            vec[col] = -rows[r][free]
        basis.append(vec)
    return basis


def element_solve(matrix, rhs, field):
    ncols = len(matrix[0])
    rows, pivots = element_rref([list(row) + [b] for row, b in zip(matrix, rhs)])
    if any(c == ncols for _, c in pivots):
        return None
    x = [field.zero()] * ncols
    for r, c in pivots:
        x[c] = rows[r][ncols]
    return x


def random_element_entry(field, rng, rational):
    """A random entry; over QQ(t) a linear polynomial, over (t + c) if rational."""
    if not field.descriptor.startswith("QQ(t)"):
        return field.random_element(rng)
    t = field.element("t")
    x = rng.randint(-3, 3) * t + rng.randint(-3, 3)
    return x / (t + rng.randint(1, 3)) if rational else x


def random_element_matrix(field, rng, nrows, ncols, rank, rational):
    """random_matrix over any field: rank at most `rank`, a few zero columns
    and duplicated rows."""
    zero = field.zero()
    left = [[random_element_entry(field, rng, rational) for _ in range(rank)]
            for _ in range(nrows)]
    right = [[random_element_entry(field, rng, rational) for _ in range(ncols)]
             for _ in range(rank)]
    for c in rng.sample(range(ncols), min(ncols, rng.randint(0, 2))):
        for row in right:
            row[c] = zero
    m = [[sum((left[i][k] * right[k][j] for k in range(rank)), zero)
          for j in range(ncols)] for i in range(nrows)]
    if nrows > 1 and rng.random() < 0.3:
        m[-1] = list(m[0])
    return m


def element_cases(field, seed=9, count=30, size=5):
    rng = random.Random(seed)
    for _ in range(count):
        nrows, ncols = rng.randint(1, size), rng.randint(1, size)
        rank = rng.randint(0, min(nrows, ncols))
        yield random_element_matrix(field, rng, nrows, ncols, rank,
                                    rng.random() < 0.5), rng


def dot(row, x, field):
    return sum((a * b for a, b in zip(row, x)), field.zero())


@pytest.mark.parametrize("descriptor", OTHER_FIELDS)
def test_kernel_basis_and_rank_match_element_reference(descriptor):
    field = make_field(descriptor)
    for m, _ in element_cases(field):
        ncols = len(m[0])
        ker = linalg.kernel_basis(m, field)
        assert ker == element_kernel(m, field, ncols)
        raw = linalg.kernel_basis_raw([[x.value for x in row] for row in m], field, ncols)
        assert raw == [[x.value for x in vec] for vec in ker]
        for vec in ker:
            assert all(dot(row, vec, field).is_zero() for row in m)
        assert linalg.rank(m, field) == len(element_rref(m)[1])


@pytest.mark.parametrize("descriptor", OTHER_FIELDS)
def test_solve_matches_element_reference_on_consistent_and_inconsistent_systems(descriptor):
    field = make_field(descriptor)
    for m, rng in element_cases(field):
        ncols = len(m[0])
        x0 = [random_element_entry(field, rng, True) for _ in range(ncols)]
        consistent = [dot(row, x0, field) for row in m]
        off = [random_element_entry(field, rng, True) for _ in m]
        for rhs in (consistent, off):
            got = linalg.solve(m, rhs, field)
            assert got == element_solve(m, rhs, field)
            if got is not None:
                assert [dot(row, got, field) for row in m] == rhs
        assert linalg.solve(m, consistent, field) is not None


@pytest.mark.parametrize("descriptor", OTHER_FIELDS)
def test_invert_matrix_matches_element_reference(descriptor):
    field = make_field(descriptor)
    rng = random.Random(5)
    zero, one = field.zero(), field.one()
    for n in range(1, 5):
        for _ in range(3):
            m = random_element_matrix(field, rng, n, n, n, rng.random() < 0.5)
            inv = linalg.invert_matrix(m, field)
            ident = [[one if i == j else zero for j in range(n)] for i in range(n)]
            rows, _ = element_rref([row + e for row, e in zip(m, ident)])
            if [r[:n] for r in rows] != ident:
                assert inv is None
            else:
                assert inv == [r[n:] for r in rows]


@pytest.mark.parametrize("descriptor", ["QQ"] + OTHER_FIELDS)
def test_row_echelon_pivot_entries_are_one(descriptor):
    field = make_field(descriptor)
    for m, _ in element_cases(field):
        rows, pivots = linalg.row_echelon(m, field)
        assert all(rows[r][c] == field.one() for r, c in pivots)
        assert (rows, pivots) == element_rref(m)


# --------------------------------------------------------------------------
# fields above FiniteField.TABLE_LIMIT invert by a^(q-2), with no table

LARGE_FIELDS = ["GF(2^10);frob^1", "GF(1031^1);frob^1"]


@pytest.mark.parametrize("descriptor", LARGE_FIELDS)
def test_inverse_above_the_table_limit(descriptor):
    field = make_field(descriptor)
    assert field.size > FiniteField.TABLE_LIMIT
    rng = random.Random(3)
    for _ in range(50):
        x = field.random_element(rng)
        if not x.is_zero():
            assert x * x.inv() == field.one()


@pytest.mark.parametrize("descriptor", LARGE_FIELDS)
def test_solve_above_the_table_limit(descriptor):
    field = make_field(descriptor)
    rng = random.Random(4)
    for n in range(1, 6):
        m = [[field.random_element(rng) for _ in range(n)] for _ in range(n)]
        x0 = [field.random_element(rng) for _ in range(n)]
        rhs = [dot(row, x0, field) for row in m]
        x = linalg.solve(m, rhs, field)
        assert [dot(row, x, field) for row in m] == rhs


@pytest.mark.parametrize("descriptor", LARGE_FIELDS)
def test_unit_inverse_in_a_split_algebra_above_the_table_limit(descriptor):
    field = make_field(descriptor)
    rng = random.Random(6)
    A = make_split_algebra(field, 3, [1, 2, 0])
    for _ in range(5):
        coords = [field.random_element(rng) for _ in range(3)]
        x = A.element({i: c for i, c in zip(A.index_list(), coords) if not c.is_zero()})
        if any(c.is_zero() for c in coords):
            assert x.maybe_inverse() is None
        else:
            assert x * x.inverse() == A.one()


def test_integer_echelon_equals_row_echelon_over_QQ(QQ):
    """row_echelon_int on integer matrices, zero rows and zero columns
    included: pivot row i divided by its pivot entry is row i of
    row_echelon over QQ and of the Fraction reference, the rows past the
    rank are zero, and rows scaled by positive integers give the same
    pivots and rows."""
    rng = random.Random(23)
    shapes = 0
    for _ in range(150):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        m = [[rng.randint(-9, 9) if rng.random() < 0.7 else 0 for _ in range(ncols)]
             for _ in range(nrows)]
        if rng.random() < 0.4:
            m[rng.randrange(nrows)] = [0] * ncols
        if rng.random() < 0.4:
            zero_col = rng.randrange(ncols)
            for row in m:
                row[zero_col] = 0
        if rng.random() < 0.3:
            m.append(list(m[0]))                       # a dependent row
        shapes += any(not any(row) for row in m) and any(
            not any(row[c] for row in m) for c in range(ncols))
        rows, pivots = linalg.row_echelon_int([list(row) for row in m])
        rank = len(pivots)
        reduced = [[Fraction(a, row[c]) for a in row] for row, (_, c) in zip(rows, pivots)]
        over_qq, qq_pivots = linalg.row_echelon([[QQ.element(x) for x in row] for row in m], QQ)
        assert pivots == qq_pivots
        assert reduced == values(over_qq)[:rank]
        assert (values(over_qq), pivots) == reference_rref(
            [[Fraction(x) for x in row] for row in m])
        assert all(not any(row) for row in rows[rank:])
        scaled = [[x * s for x in row] for row, s in zip(m, [rng.randint(1, 50) for _ in m])]
        assert linalg.row_echelon_int(scaled) == (rows, pivots)
    assert shapes > 0


def test_qq_outputs_are_in_normal_form(QQ):
    """row_echelon, kernel_basis, solve, invert_matrix and solve_square_raw
    over QQ return raw values in normal form, on integral and rational
    systems alike."""
    inverted = 0
    for m, rng in cases():
        M = [[QQ.element(x) for x in row] for row in m]
        ncols = len(m[0])
        rows, _ = linalg.row_echelon(M, QQ)
        out = values(rows) + values(linalg.kernel_basis(M, QQ, ncols=ncols))
        x = linalg.solve(M, [QQ.element(random_entry(rng, True)) for _ in m], QQ)
        if x is not None:
            out.append([c.value for c in x])
        if len(m) == ncols:
            inv = linalg.invert_matrix(M, QQ)
            if inv is not None:
                inverted += 1
                out += values(inv)
                rhs = [QQ.element(random_entry(rng, rng.random() < 0.5)).value for _ in m]
                sol = linalg.solve_square_raw(values(M), rhs, QQ)
                assert [QQ.wrap(c) for c in sol] == linalg.solve(
                    M, [QQ.wrap(c) for c in rhs], QQ)
                out.append(sol)
        for row in out:
            for value in row:
                assert_qq_normal_form(value)
    assert inverted > 0
