"""Exact linear algebra over the sigma-fields.

Matrices are lists of rows of FieldElements.  row_echelon brings a matrix
to its reduced echelon form, pivot entries one(), by one of two
eliminations, chosen by field.integer_elimination:

  * over QQ each row is cleared to primitive integers and reduced by
    fraction-free Gauss-Jordan elimination (Bareiss 1968): every update
    p * a - c * b is divided exactly by the previous pivot, so entries stay
    minors of the cleared matrix, and only the final rows are divided by
    their pivots, each entry becoming a QQ raw value in normal form (an int
    when the division is exact, else a Fraction).  Pivot division on
    Fractions would pay a gcd per operation.  row_echelon_int runs the
    same elimination on a matrix of ints; the Abramov ansatz, the QQ(t)
    deciders' hot path, builds its system in Z[t] and calls it directly;
  * over every other field by Gauss-Jordan with pivot division on raw
    values (FieldElement.value).  GF(q) entries cannot swell, and the QQ(t)
    systems that reach linalg (algebra kernels and inverses) stay small
    because every QQ(t) operation returns a reduced result (by cancelling
    across or by the denominator gcd, not by a gcd of the products).

solve_square_raw runs the second elimination on the raw values of a square
system over any field, QQ included; the finite-dimensional algebras use it
to invert units, and nonsingular_raw, its rank alone, to test them;
kernel_basis_raw reads a kernel basis off it for callers that hold raw
values (the point enumeration of groups, over GF(p)).  Over QQ, integral
systems stay on ints there, since QQ's _add and _mul return ints for
integral results.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction


def row_echelon(matrix, field):
    """Reduced echelon form with every pivot entry one().

    Returns (rows, pivots) where pivots is a list of (row, col) pairs.
    """
    if field.integer_elimination:
        return _row_echelon_integer(matrix, field)
    rows, pivots = _gauss_jordan_raw([[x.value for x in row] for row in matrix], field)
    wrap = field.wrap
    return [list(map(wrap, row)) for row in rows], pivots


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


def _row_echelon_integer(matrix, field):
    """row_echelon over QQ by fraction-free Gauss-Jordan on integer rows."""
    rows = []
    for row in matrix:
        vals = [x.value for x in row]
        den = math.lcm(*[v.denominator for v in vals])
        rows.append([v.numerator * (den // v.denominator) for v in vals])
    rows, pivots = row_echelon_int(rows)
    wrap = field.wrap
    zero = field.zero()
    out = []
    for i, row in enumerate(rows):
        # rows past the rank are zero; each pivot row is divided by its pivot
        pv = row[pivots[i][1]] if i < len(pivots) else 1
        out.append([wrap(Fraction(a, pv)) if a else zero for a in row])
    return out, pivots


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
    return len(row_echelon(matrix, field)[1])


def kernel_basis(matrix, field, ncols=None):
    """Basis of {x : M x = 0}; rows of the matrix are the equations.  Vector
    i is one at the i-th free (non-pivot) column of the reduced echelon
    form, zero at the other free columns and zero past its own."""
    if ncols is None:
        ncols = len(matrix[0]) if matrix else 0
    rows, pivots = row_echelon(matrix, field)
    return _kernel_vectors(rows, pivots, ncols, field.zero(), field.one(), operator.neg)


def kernel_basis_raw(matrix, field, ncols: int):
    """kernel_basis for a matrix of raw field values, by solve_square_raw's
    elimination; the vectors are raw values too.  The rows are reduced in
    place."""
    rows, pivots = _gauss_jordan_raw(matrix, field)
    return _kernel_vectors(rows, pivots, ncols, field.zero().value, field.one().value,
                           field._neg)


def _kernel_vectors(rows, pivots, ncols, zero, one, neg):
    """The kernel basis of kernel_basis, read off a reduced echelon form."""
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


def solve(matrix, rhs, field):
    """One solution x of M x = rhs, or None if inconsistent."""
    if not matrix:
        return [] if all(b.is_zero() for b in rhs) else None
    aug = [list(row) + [b] for row, b in zip(matrix, rhs)]
    rows, pivots = row_echelon(aug, field)
    ncols = len(matrix[0])
    for r, c in pivots:
        if c == ncols:
            return None
    zero = field.zero()
    x = [zero] * ncols
    for r, c in pivots:
        x[c] = rows[r][ncols]
    return x


def in_span(vectors, target, field):
    """Coefficients expressing target in the span of vectors, or None."""
    if not vectors:
        return [] if all(t.is_zero() for t in target) else None
    matrix = [[vec[i] for vec in vectors] for i in range(len(target))]
    return solve(matrix, target, field)


def invert_matrix(matrix, field):
    """Inverse of a square matrix of field elements, or None if singular."""
    n = len(matrix)
    zero = field.zero()
    one = field.one()
    aug = [list(row) + [one if i == j else zero for j in range(n)]
           for i, row in enumerate(matrix)]
    rows, pivots = row_echelon(aug, field)
    if len(pivots) < n or any(c >= n for _, c in pivots):
        return None
    # n pivots in the first n columns: row i is e_i followed by row i of the inverse
    return [row[n:] for row in rows]


def nonsingular_raw(matrix, field) -> bool:
    """Whether a square matrix of raw field values is invertible: its rank
    by solve_square_raw's elimination, without a right-hand side.  The rows
    are reduced in place."""
    return len(_gauss_jordan_raw(matrix, field)[1]) == len(matrix)


def solve_square_raw(matrix, rhs, field):
    """x with M x = rhs for a square M of raw field values; None if M is singular."""
    n = len(matrix)
    rows, pivots = _gauss_jordan_raw([list(row) + [b] for row, b in zip(matrix, rhs)], field)
    if len(pivots) < n or any(c >= n for _, c in pivots):
        return None
    return [row[n] for row in rows]
