"""polys.pmul, shift, pdivmod and pgcd against the plain Fraction formulas."""

import math
import random
from fractions import Fraction

import pytest

from dcoh import polys


def schoolbook_mul(a, b):
    cs = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            cs[i + j] += ai * bj
    return polys.poly(cs)


def binomial_shift(p, h):
    """p(t + h) = sum_i a_i sum_k C(i, k) h^(i-k) t^k."""
    h = Fraction(h)
    cs = [Fraction(0)] * len(p)
    for i, a in enumerate(p):
        for k in range(i + 1):
            cs[k] += a * math.comb(i, k) * h ** (i - k)
    return polys.poly(cs)


def random_poly(rng, degree, rational):
    cs = [Fraction(rng.randint(-9, 9), rng.randint(1, 7) if rational else 1)
          for _ in range(degree)]
    return polys.poly(cs + [Fraction(rng.choice([-3, -1, 1, 2, 5]),
                                     rng.randint(1, 7) if rational else 1)])


def assert_canonical(p):
    assert all(type(c) is Fraction for c in p)
    assert not p or p[-1] != 0


CASES = [(d, rational) for d in range(17) for rational in (False, True)]


@pytest.mark.parametrize("degree,rational", CASES)
def test_pmul_matches_schoolbook(degree, rational):
    rng = random.Random(degree * 2 + rational)
    for _ in range(5):
        a = random_poly(rng, degree, rational)
        b = random_poly(rng, rng.randint(0, 16), rng.random() < 0.5)
        for x, y in ((a, b), (b, a), (a, a), (a, polys.ZERO), (polys.ZERO, a)):
            got = polys.pmul(x, y)
            assert got == schoolbook_mul(x, y)
            assert_canonical(got)


@pytest.mark.parametrize("degree,rational", CASES)
def test_shift_matches_binomial_expansion(degree, rational):
    rng = random.Random(100 + degree * 2 + rational)
    for _ in range(3):
        p = random_poly(rng, degree, rational)
        for h in (-3, -1, 0, 1, 2, Fraction(-2, 3)):
            got = polys.shift(p, h)
            assert got == binomial_shift(p, h)
            assert_canonical(got)
        assert polys.shift(polys.shift(p, 2), -2) == p


def test_zero_polynomial():
    assert polys.pmul(polys.ZERO, polys.ZERO) == polys.ZERO
    for h in (-3, -1, 0, 1, 2, Fraction(-2, 3)):
        assert polys.shift(polys.ZERO, h) == polys.ZERO


# ---------------------------------------------------------------------------
# division and gcd: the integer kernel against Fraction long division and
# the Euclidean algorithm over Fractions


def fraction_divmod(a, b):
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    r = list(a)
    for i in range(len(a) - len(b), -1, -1):
        c = r[i + len(b) - 1] / b[-1]
        q[i] = c
        for j, bj in enumerate(b):
            r[i + j] -= c * bj
    return polys.poly(q), polys.poly(r)


def fraction_gcd(a, b):
    while b:
        a, b = b, fraction_divmod(a, b)[1]
    return tuple(c / a[-1] for c in a) if a else polys.ZERO


def gcd_cases(rng):
    """Pairs with a planted common factor, coprime pairs, constants and zero."""
    for _ in range(40):
        g = random_poly(rng, rng.randint(0, 4), rng.random() < 0.5)
        a = polys.pmul(g, random_poly(rng, rng.randint(0, 6), rng.random() < 0.5))
        b = polys.pmul(g, random_poly(rng, rng.randint(0, 6), rng.random() < 0.5))
        yield a, b
        yield random_poly(rng, rng.randint(0, 8), True), random_poly(rng, rng.randint(0, 8), False)
    x = random_poly(rng, 3, True)
    for a, b in ((x, polys.ZERO), (polys.ZERO, x), (polys.ZERO, polys.ZERO),
                 (x, polys.ONE), (polys.constant(Fraction(-2, 3)), x), (x, x)):
        yield a, b


# p * t + 1 has a leading coefficient the prefilter's prime divides
P_LEADING = polys.poly([1, polys.PRIME])


def prime_cases(rng):
    """Pairs where the prefilter's prime divides a leading coefficient, and
    t, t - p: coprime over QQ with a nontrivial gcd mod p."""
    for _ in range(10):
        g = random_poly(rng, rng.randint(1, 3), True)
        other = random_poly(rng, rng.randint(0, 4), False)
        yield polys.pmul(g, P_LEADING), polys.pmul(g, other)
        yield polys.pscale(P_LEADING, Fraction(2, 7)), other
    yield polys.T, polys.poly([-polys.PRIME, 1])
    yield polys.poly([-1, 0, 2 * polys.PRIME]), polys.poly([polys.PRIME, -3])


def test_pdivmod_matches_fraction_long_division():
    rng = random.Random(7)
    for a, b in gcd_cases(rng):
        for x, y in ((a, b), (b, a)):
            if not y:
                with pytest.raises(ZeroDivisionError):
                    polys.pdivmod(x, y)
                continue
            q, r = polys.pdivmod(x, y)
            assert (q, r) == fraction_divmod(x, y)
            assert_canonical(q)
            assert_canonical(r)
            assert polys.padd(polys.pmul(q, y), r) == x


def test_pdiv_exact_recovers_factors_and_refuses_remainders():
    rng = random.Random(8)
    for a, b in gcd_cases(rng):
        if not b:
            continue
        ab = polys.pmul(a, b)
        assert polys.pdiv_exact(ab, b) == a
        if polys.deg(b) > 0:
            with pytest.raises(ValueError):
                polys.pdiv_exact(polys.padd(ab, polys.ONE), b)


@pytest.mark.parametrize("cases", [gcd_cases, prime_cases])
def test_pgcd_matches_fraction_euclid(cases):
    rng = random.Random(9)
    for a, b in cases(rng):
        g = polys.pgcd(a, b)
        assert g == fraction_gcd(a, b)
        assert g == polys.pgcd(b, a)
        assert_canonical(g)


def test_pgcd_skips_the_prefilter_when_the_prime_divides_a_leading_coefficient(monkeypatch):
    def refuse(*args):
        raise AssertionError("prefilter ran modulo a prime dividing a leading coefficient")

    monkeypatch.setattr(polys, "_gcd_degree_mod", refuse)
    rng = random.Random(10)
    for a, b in prime_cases(rng):
        if polys.lc(a).numerator % polys.PRIME or polys.deg(b) < 1:
            continue
        assert polys.pgcd(a, b) == fraction_gcd(a, b)


def test_pgcd_and_pdivmod_match_sympy():
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")

    def to_sympy(p):
        return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(p)]
                          or [0], t, domain="QQ")

    def from_sympy(f):
        return polys.poly([Fraction(int(c.p), int(c.q)) for c in reversed(f.all_coeffs())])

    rng = random.Random(11)
    for a, b in list(gcd_cases(rng)) + list(prime_cases(rng)):
        assert polys.pgcd(a, b) == from_sympy(sympy.gcd(to_sympy(a), to_sympy(b)))
        if b:
            q, r = sympy.div(to_sympy(a), to_sympy(b))
            assert polys.pdivmod(a, b) == (from_sympy(q), from_sympy(r))


# ---------------------------------------------------------------------------
# the short paths: a constant factor scales, a sum trims what cancels


@pytest.mark.parametrize("c", [Fraction(1), Fraction(-1), Fraction(-7, 3), Fraction(2)])
def test_pmul_by_a_constant_scales_the_other_operand(c):
    rng = random.Random(12)
    k = (c,)
    for degree in range(6):
        p = random_poly(rng, degree, degree % 2 == 1)
        for x, y in ((k, p), (p, k)):
            got = polys.pmul(x, y)
            assert got == schoolbook_mul(x, y) == tuple(a * c for a in p)
            assert_canonical(got)
        if c == 1 and degree:
            assert polys.pmul(k, p) is p and polys.pmul(p, k) is p
    assert polys.pmul(k, k) == (c * c,)
    assert polys.pmul(k, polys.ZERO) == polys.pmul(polys.ZERO, k) == polys.ZERO


def test_padd_trims_what_cancels():
    rng = random.Random(13)
    for degree in range(6):
        p = random_poly(rng, degree, True)
        q = random_poly(rng, rng.randint(0, degree), False) if degree else polys.ONE
        # same top coefficient with opposite signs: the sum drops in degree
        low = polys.padd(p, polys.pneg(polys.padd(p, q)))
        assert low == polys.pneg(q)
        assert_canonical(low)
        assert polys.padd(p, polys.pneg(p)) == polys.ZERO
        assert polys.psub(p, p) == polys.ZERO
        for x, y in ((p, q), (q, p), (p, polys.ZERO), (polys.ZERO, p)):
            got = polys.padd(x, y)
            assert got == polys.poly([a + b for a, b in zip(
                x + (Fraction(0),) * (len(y) - len(x)), y + (Fraction(0),) * (len(x) - len(y)))])
            assert_canonical(got)
    # cancellation below the top term too: t^3 + t^2 + 1 - (t^3 + t^2) = 1
    a = polys.poly([1, 0, 1, 1])
    b = polys.poly([0, 0, -1, -1])
    assert polys.padd(a, b) == polys.ONE
    assert_canonical(polys.padd(a, b))
