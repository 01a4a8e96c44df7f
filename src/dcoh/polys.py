"""Dense univariate polynomial arithmetic over exact rationals.

A polynomial a_0 + a_1 t + ... + a_n t^n is represented as the tuple
(a_0, a_1, ..., a_n) of Fractions with a_n != 0; the zero polynomial is
the empty tuple.  All operations return normalized tuples, so equality
of polynomials is tuple equality.

The inner loops run over Python ints.  Products (`pmul`), shifts by an
integer (`shift`) and division with remainder (`pdivmod`, `pdiv_exact`)
clear each operand to integer coefficients over one common denominator,
form the integer result, and only then divide back into canonical
Fractions; division is pseudo-division that scales the dividend only by
the part of the leading coefficient a step needs.  A product with a
constant only scales the other operand, and a sum only trims the zeros
its top may cancel to.  `pgcd` works on primitive integer parts
(Collins 1967; Brown 1971): a prefilter modulo the prime 2^61 - 1
certifies a trivial gcd whenever the gcd of the reductions is constant
and the prime divides neither leading coefficient, which is the common
case; otherwise the primitive remainder sequence over the integers gives
the gcd exactly.  Every result is the tuple the Fraction formulas give.
The integer kernels of `pmul` and `shift` (`_mul_ints`, `_taylor_shift`)
and the modular gcd degree also serve the shift-window scans and the
Abramov ansatz of `operators`, which stay on integers throughout.

This module also provides the number-theoretic helpers the difference
solvers need: exact square roots, resultants, integer root isolation and
Lagrange interpolation.
"""

from __future__ import annotations

import math
from fractions import Fraction

ZERO: tuple = ()
ONE = (Fraction(1),)
T = (Fraction(0), Fraction(1))


def poly(coeffs) -> tuple:
    """Normalize a coefficient sequence into canonical tuple form."""
    cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def deg(p) -> int:
    """Degree; -1 for the zero polynomial."""
    return len(p) - 1


def lc(p) -> Fraction:
    if not p:
        raise ValueError("zero polynomial has no leading coefficient")
    return p[-1]


def constant(c) -> tuple:
    c = c if isinstance(c, Fraction) else Fraction(c)
    return (c,) if c != 0 else ()


def padd(a, b) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return a
    cs = list(a)
    for i, c in enumerate(b):
        cs[i] += c
    # only equal lengths can cancel the top; the sums are Fractions already
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def pneg(a) -> tuple:
    return tuple(-c for c in a)


def psub(a, b) -> tuple:
    return padd(a, pneg(b))


def _cleared(p) -> tuple[list, int]:
    """(ints, den) with p == [c / den for c in ints] and den > 0."""
    den = math.lcm(*[c.denominator for c in p])
    if den == 1:
        return [c.numerator for c in p], 1
    return [c.numerator * (den // c.denominator) for c in p], den


def _from_cleared(cs: list, den: int) -> tuple:
    """The canonical tuple of the polynomial with coefficients cs / den."""
    while cs and cs[-1] == 0:
        cs.pop()
    if den == 1:
        return tuple([Fraction(c) for c in cs])
    return tuple([Fraction(c, den) for c in cs])


def pmul(a, b) -> tuple:
    if not a or not b:
        return ZERO
    # a constant operand scales the other one: nothing to clear
    if len(a) == 1:
        a, b = b, a
    if len(b) == 1:
        cn, cd = b[0].numerator, b[0].denominator
        if cn == cd:
            return a
        return tuple([Fraction(x.numerator * cn, x.denominator * cd) for x in a])
    ia, da = _cleared(a)
    ib, db = _cleared(b)
    return _from_cleared(_mul_ints(ia, ib), da * db)


def _mul_ints(ia: list, ib: list) -> list:
    """The product of two nonempty integer coefficient lists."""
    cs = [0] * (len(ia) + len(ib) - 1)
    for i, ai in enumerate(ia):
        if ai:
            for j, bj in enumerate(ib, i):
                cs[j] += ai * bj
    return cs


def pscale(a, c) -> tuple:
    c = c if isinstance(c, Fraction) else Fraction(c)
    if c == 0:
        return ZERO
    return tuple(x * c for x in a)


def _integer_divmod(A: list, B: list) -> tuple[list, list, int]:
    """(Q, R, m) with m * A == Q * B + R, deg R < deg B and m > 0.

    Pseudo-division of integer coefficient lists (B[-1] != 0).  A step
    whose leading term the leading coefficient of B does not divide
    scales the dividend by the missing factor only, so m stays 1 when
    every quotient coefficient is an integer.
    """
    n = len(B) - 1
    lb = B[-1]
    r = list(A)
    q = [0] * max(len(A) - n, 0)
    m = 1
    for i in range(len(A) - len(B), -1, -1):
        c = r[i + n]
        if not c:
            continue
        s = abs(lb) // math.gcd(c, lb)
        if s != 1:
            m *= s
            r = [x * s for x in r]
            q = [x * s for x in q]
            c *= s
        c //= lb
        q[i] = c
        r[i + n] = 0
        for j in range(n):
            r[i + j] -= c * B[j]
    del r[n:]
    return q, r, m


def pdivmod(a, b) -> tuple[tuple, tuple]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if len(a) < len(b):
        return ZERO, poly(a)
    ia, da = _cleared(a)
    ib, db = _cleared(b)
    # a = ia / da and b = ib / db, so m * a = (iq * db / da) * b + ir / da
    iq, ir, m = _integer_divmod(ia, ib)
    return _from_cleared([c * db for c in iq], m * da), _from_cleared(ir, m * da)


def pdiv_exact(a, b) -> tuple:
    q, r = pdivmod(a, b)
    if r:
        raise ValueError("inexact polynomial division")
    return q


def monic(p) -> tuple:
    if not p:
        return ZERO
    return pscale(p, 1 / p[-1])


# the modular gcd prefilter's prime, the Mersenne prime 2^61 - 1
PRIME = (1 << 61) - 1


def _primitive(cs: list) -> list:
    """cs divided by its content, with a positive leading coefficient."""
    g = math.gcd(*cs)
    if cs[-1] < 0:
        g = -g
    return cs if g == 1 else [c // g for c in cs]


def _trim(cs: list) -> list:
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _gcd_degree_mod(A: list, B: list, p: int) -> int:
    """Degree of gcd(A mod p, B mod p); p divides neither leading coefficient."""
    a = [c % p for c in A]
    b = [c % p for c in B]
    while b:
        inv = pow(b[-1], -1, p)
        nb = len(b) - 1
        while len(a) > nb:
            c = a[-1] * inv % p
            if c:
                off = len(a) - 1 - nb
                for j in range(nb):
                    a[off + j] = (a[off + j] - c * b[j]) % p
            a.pop()
            _trim(a)
        a, b = b, a
    return len(a) - 1


def pgcd(a, b) -> tuple:
    """Monic gcd."""
    if not a or not b:
        return monic(a or b)
    if len(a) == 1 or len(b) == 1:
        return ONE
    A = _primitive(_cleared(a)[0])
    B = _primitive(_cleared(b)[0])
    # reduction mod p keeps both degrees, so deg gcd mod p >= deg gcd over QQ
    if A[-1] % PRIME and B[-1] % PRIME and _gcd_degree_mod(A, B, PRIME) == 0:
        return ONE
    if len(A) < len(B):
        A, B = B, A
    while True:
        R = _trim(_integer_divmod(A, B)[1])
        if not R:
            break
        if len(R) == 1:
            return ONE
        A, B = B, _primitive(R)
    return tuple([Fraction(c, B[-1]) for c in B])


def plcm(a, b) -> tuple:
    if not a or not b:
        return ZERO
    g = pgcd(a, b)
    return monic(pmul(pdiv_exact(a, g), b))


def peval(p, x: Fraction) -> Fraction:
    r = Fraction(0)
    for c in reversed(p):
        r = r * x + c
    return r


def compose_linear(p, a, b) -> tuple:
    """p(a*t + b) by Horner on the argument polynomial."""
    arg = poly([b, a])
    r = ZERO
    for c in reversed(p):
        r = padd(pmul(r, arg), constant(c))
    return r


def compose_square(p) -> tuple:
    """p(t^2): spread coefficients to even degrees."""
    if not p:
        return ZERO
    cs = [Fraction(0)] * (2 * len(p) - 1)
    for i, c in enumerate(p):
        cs[2 * i] = c
    return poly(cs)


def shift(p, h=1) -> tuple:
    """p(t + h).  An integer h takes the in-place Taylor shift over ints."""
    h = Fraction(h)
    if h.denominator != 1:
        return compose_linear(p, Fraction(1), h)
    h = h.numerator
    if not p:
        return ZERO
    cs, den = _cleared(p)
    _taylor_shift(cs, h)
    return _from_cleared(cs, den)


def _taylor_shift(cs: list, h: int) -> None:
    """Replace the integer coefficients cs of c(t) by those of c(t + h), in place."""
    if h:
        n = len(cs)
        for i in range(n - 1):
            for j in range(n - 2, i - 1, -1):
                cs[j] += h * cs[j + 1]


def frac_sqrt(x: Fraction):
    """Exact square root of a rational, or None."""
    if x < 0:
        return None
    if x == 0:
        return Fraction(0)
    rn = math.isqrt(x.numerator)
    rd = math.isqrt(x.denominator)
    if rn * rn != x.numerator or rd * rd != x.denominator:
        return None
    return Fraction(rn, rd)


def poly_sqrt(p):
    """Exact polynomial square root, or None.  Characteristic zero only.

    Determines candidate coefficients top-down from (h^2 = p) and then
    verifies the square exactly, so no squarefree factorization is needed.
    """
    if not p:
        return ZERO
    n = deg(p)
    if n % 2:
        return None
    top = frac_sqrt(p[-1])
    if top is None or top == 0:
        return None
    m = n // 2
    h = [Fraction(0)] * (m + 1)
    h[m] = top
    for k in range(m - 1, -1, -1):
        # coefficient of t^(m+k) in h^2 must match p
        s = Fraction(0)
        for i in range(k + 1, m):
            j = m + k - i
            if k < j < m:
                s += h[i] * h[j]
        pk = p[m + k] if m + k < len(p) else Fraction(0)
        h[k] = (pk - s) / (2 * top)
    cand = poly(h)
    if pmul(cand, cand) != poly(p):
        return None
    return cand


def resultant(a, b) -> Fraction:
    """Res_t(a, b) with the convention Res(a,b) = lc(a)^deg(b) * prod b(roots of a)."""
    a = poly(a)
    b = poly(b)
    if not a or not b:
        return Fraction(0)
    if deg(a) == 0:
        return a[0] ** deg(b)
    if deg(b) == 0:
        return b[0] ** deg(a)
    r = pdivmod(a, b)[1]
    sign = -1 if (deg(a) * deg(b)) % 2 else 1
    if not r:
        return Fraction(0)
    return sign * lc(b) ** (deg(a) - deg(r)) * resultant(b, r)


def _divisors(n: int):
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def integer_roots(p) -> list:
    """Sorted integer roots of a rational-coefficient polynomial."""
    p = poly(p)
    if not p:
        raise ValueError("zero polynomial has every root")
    ics, _ = _cleared(p)
    roots = []
    # strip powers of t
    v = 0
    while ics[v] == 0:
        v += 1
    if v:
        roots.append(0)
        ics = ics[v:]
    if len(ics) > 1:
        for d in _divisors(ics[0]):
            for r in (d, -d):
                if peval(p, Fraction(r)) == 0 and r not in roots:
                    roots.append(r)
    return sorted(roots)


def cauchy_root_bound(p) -> Fraction:
    """Bound B with every complex root z of p satisfying |z| <= B."""
    p = poly(p)
    if deg(p) <= 0:
        return Fraction(0)
    m = max(abs(c) for c in p[:-1])
    return 1 + m / abs(p[-1])


def lagrange_interpolate(xs, ys) -> tuple:
    if len(xs) != len(ys):
        raise ValueError("interpolation needs one value per node")
    total = ZERO
    for i, xi in enumerate(xs):
        num = ONE
        den = Fraction(1)
        for j, xj in enumerate(xs):
            if i == j:
                continue
            num = pmul(num, poly([-Fraction(xj), Fraction(1)]))
            den *= Fraction(xi) - Fraction(xj)
        total = padd(total, pscale(num, Fraction(ys[i]) / den))
    return total


def poly_str(p, var: str = "t") -> str:
    if not p:
        return "0"
    parts = []
    for i in range(deg(p), -1, -1):
        c = p[i]
        if c == 0:
            continue
        if i == 0:
            term = str(c)
        else:
            tv = var if i == 1 else f"{var}^{i}"
            if c == 1:
                term = tv
            elif c == -1:
                term = f"-{tv}"
            else:
                term = f"{c}*{tv}"
        parts.append(term)
    s = parts[0]
    for term in parts[1:]:
        s += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
    return s
