"""Exact linear algebra over the sigma-fields.

Matrices are lists of rows of FieldElements, or of their raw values
(FieldElement.value) for the *_raw functions.  Every field, QQ included, is
eliminated by one Gauss-Jordan with pivot division on raw values,
_gauss_jordan_raw; every read-off below (echelon form, rank, kernel basis,
solution, inverse) takes its pivots.  GF(q) entries cannot swell, QQ's
_add and _mul return ints for integral results, and every QQ(t) operation
returns a reduced result, so the systems that reach linalg (algebra
kernels, inverses and ranks) stay small.

row_echelon_int is the one fraction-free elimination (Bareiss 1968), on
rows of Python ints: every update p * a - c * b is divided exactly by the
previous pivot, so entries stay minors of the matrix and no gcd is paid per
operation.  The Abramov ansatz, the QQ(t) deciders' hot path, builds dense
systems in Z[t] whose entries would swell under pivot division, and calls it
directly.
"""

from __future__ import annotations

import math


def row_echelon(matrix, field):
    """Reduced echelon form with every pivot entry one().

    Returns (rows, pivots) where pivots is a list of (row, col) pairs.
    """
    rows, pivots = _gauss_jordan_raw(_values(matrix), field)
    wrap = field.wrap
    return [list(map(wrap, row)) for row in rows], pivots


def _values(matrix):
    return [[x.value for x in row] for row in matrix]


def _gauss_jordan_raw(rows, field):
    """(rows, pivots) of row_echelon for rows of raw field values.

    Gauss-Jordan with pivot division, through the field's _mul/_add/_neg/
    _inv/_is_zero; the rows are reduced in place.
    """
    mul, add, neg, inv, is_zero = field._mul, field._add, field._neg, field._inv, field._is_zero
    pivots = []
    r = 0
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = None
        for i in range(r, nrows):
            if not is_zero(rows[i][col]):
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        s = inv(rows[r][col])
        prow = rows[r] = [a if is_zero(a) else mul(s, a) for a in rows[r]]
        for i in range(nrows):
            c = rows[i][col]
            if i == r or is_zero(c):
                continue
            nc = neg(c)
            row = rows[i]
            for k in range(col, ncols):
                b = prow[k]
                if not is_zero(b):
                    row[k] = add(row[k], mul(nc, b))
        pivots.append((r, col))
        r += 1
        if r == nrows:
            break
    return rows, pivots


def row_echelon_int(rows):
    """Fraction-free reduced echelon form of a matrix of Python ints.

    Returns (rows, pivots) with the pivots of row_echelon over QQ: pivot
    row i divided by its pivot entry rows[i][c] is row i of the reduced
    echelon form, and the rows past the rank are zero.  The rows are
    reduced in place by Gauss-Jordan elimination in which every update
    p * a - c * b is divided exactly by the previous pivot (Bareiss 1968).

    Each row is first divided by its content, so rows scaled by positive
    integers give the same result: a system over QQ cleared row by row or
    by one common denominator reduces to the same primitive rows, pivots
    and reduced echelon form.
    """
    for i, row in enumerate(rows):
        g = math.gcd(*row)
        if g > 1:
            rows[i] = [c // g for c in row]
    pivots = []
    prev = 1
    r = 0
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = None
        for i in range(r, nrows):
            if rows[i][col]:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        ref = rows[r]
        pv = ref[col]
        for i in range(nrows):
            if i == r:
                continue
            c = rows[i][col]
            if c:
                rows[i] = [(pv * a - c * b) // prev for a, b in zip(rows[i], ref)]
            elif pv != prev:
                # a row with nothing to eliminate is still rescaled, so that
                # every entry stays a minor and the next division is exact
                rows[i] = [pv * a // prev for a in rows[i]]
        prev = pv
        pivots.append((r, col))
        r += 1
        if r == nrows:
            break
    return rows, pivots


def rank(matrix, field) -> int:
    return len(_gauss_jordan_raw(_values(matrix), field)[1])


def nonsingular_raw(matrix, field) -> bool:
    """Whether a square matrix of raw field values is invertible: its rank
    is its size.  The rows are reduced in place."""
    return len(_gauss_jordan_raw(matrix, field)[1]) == len(matrix)


def kernel_basis(matrix, field, ncols=None):
    """Basis of {x : M x = 0}; rows of the matrix are the equations.  Vector
    i is one at the i-th free (non-pivot) column of the reduced echelon
    form, zero at the other free columns and zero past its own."""
    if ncols is None:
        ncols = len(matrix[0]) if matrix else 0
    wrap = field.wrap
    return [list(map(wrap, vec)) for vec in kernel_basis_raw(_values(matrix), field, ncols)]


def kernel_basis_raw(matrix, field, ncols: int):
    """kernel_basis for a matrix of raw field values; the vectors are raw
    values too.  The rows are reduced in place."""
    rows, pivots = _gauss_jordan_raw(matrix, field)
    zero, one, neg = field.zero().value, field.one().value, field._neg
    pivot_of_col = {c: r for r, c in pivots}
    basis = []
    for free in range(ncols):
        if free in pivot_of_col:
            continue
        vec = [zero] * ncols
        vec[free] = one
        for col, r in pivot_of_col.items():
            vec[col] = neg(rows[r][free])
        basis.append(vec)
    return basis


def _solve_raw(rows, n, field, unique):
    """X with M X = B for the augmented raw rows [M | B], M with n columns:
    row c of X is the right-hand block of the pivot row of column c, zero
    at a free column.  None when a pivot lies in the right-hand block (no
    solution) or, if unique, when M has a free column.  The rows are
    reduced in place."""
    rows, pivots = _gauss_jordan_raw(rows, field)
    if any(c >= n for _, c in pivots) or unique and len(pivots) < n:
        return None
    zero = [field.zero().value] * (len(rows[0]) - n if rows else 0)
    x = [zero] * n
    for r, c in pivots:
        x[c] = rows[r][n:]
    return x


def solve(matrix, rhs, field):
    """One solution x of M x = rhs, or None if inconsistent."""
    if not matrix:
        return [] if all(b.is_zero() for b in rhs) else None
    x = _solve_raw([[a.value for a in row] + [b.value] for row, b in zip(matrix, rhs)],
                   len(matrix[0]), field, False)
    return None if x is None else [field.wrap(v) for v, in x]


def in_span(vectors, target, field):
    """Coefficients expressing target in the span of vectors, or None."""
    if not vectors:
        return [] if all(t.is_zero() for t in target) else None
    matrix = [[vec[i] for vec in vectors] for i in range(len(target))]
    return solve(matrix, target, field)


def invert_matrix(matrix, field):
    """Inverse of a square matrix of field elements, or None if singular."""
    n = len(matrix)
    zero, one = field.zero().value, field.one().value
    x = _solve_raw([[a.value for a in row] + [one if i == j else zero for j in range(n)]
                    for i, row in enumerate(matrix)], n, field, True)
    wrap = field.wrap
    return None if x is None else [list(map(wrap, row)) for row in x]


def solve_square_raw(matrix, rhs, field):
    """x with M x = rhs for a square M of raw field values; None if M is singular."""
    x = _solve_raw([list(row) + [b] for row, b in zip(matrix, rhs)], len(matrix), field, True)
    return None if x is None else [v for v, in x]
