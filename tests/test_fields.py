"""Field layer: exact arithmetic, sigma, squares, sigma-image membership."""

import random
import tracemalloc
from fractions import Fraction

import pytest

from conftest import assert_qq_normal_form

from dcoh import fields, polys
from dcoh.fields import (FieldElement, FieldError, FieldParseError, FiniteField,
                         field_arith, in_sigma_image, is_square, make_field,
                         sigma_apply)

ALL_DESCRIPTORS = ["QQ", "QQ(t);shift", "QQ(t);dilate:3/2", "QQ(t);subst:t^2",
                   "GF(4);frob^1", "GF(9);frob^1", "GF(25);frob^1"]


def test_make_field_flags():
    shift = make_field("QQ(t);shift")
    assert shift.inversive and not shift.finite and shift.characteristic == 0
    t = shift.element("t")
    assert t.sigma() == t + 1

    g4 = make_field("GF(4);frob^1")
    assert g4.inversive and g4.finite and g4.characteristic == 2
    w = g4.element("w")
    assert w.sigma() == w * w

    subst = make_field("QQ(t);subst:t^2")
    assert not subst.inversive
    # derived: sigma(k) = QQ(t^2) is proper, checked by the in_sigma_image oracle
    assert in_sigma_image(subst.element("t")) is None
    assert in_sigma_image(subst.element("t^2")) == subst.element("t")


def test_make_field_shorthands_and_errors():
    assert make_field("GF(9)") == make_field("GF(3^2);frob^1")
    assert make_field("GF(4);frob^1").descriptor == "GF(2^2);frob^1"
    with pytest.raises(FieldParseError):
        make_field("GF(6)")
    with pytest.raises(FieldParseError):
        make_field("QQ(t);dilate:0")
    with pytest.raises(FieldParseError):
        make_field("QQ(t);mahler")
    with pytest.raises(FieldParseError):
        make_field("ZZ")


def test_field_arith_examples():
    k = make_field("QQ(t);shift")
    x = k.element("1/t")
    y = k.element("-1/(t+1)")
    s = field_arith(x, y, "add")
    # derived oracle: common-denominator arithmetic, s * t * (t+1) == 1
    assert s * k.element("t") * k.element("t+1") == k.one()
    assert s == k.element("1/(t*(t+1))")

    rng = random.Random(1)
    for _ in range(20):
        a = k.random_element(rng)
        assert field_arith(a, k.one(), "mul") == a

    g4 = make_field("GF(4);frob^1")
    w = g4.element("w")
    assert field_arith(w, w, "add") == g4.zero()
    assert field_arith(w, w, "eq") is True
    with pytest.raises(ZeroDivisionError):
        field_arith(w, g4.zero(), "div")
    with pytest.raises(FieldError):
        field_arith(w, make_field("QQ").one(), "add")


def test_sigma_apply_examples():
    k = make_field("QQ(t);shift")
    assert sigma_apply(k.element("1/t"), 1) == k.element("1/(t+1)")
    assert sigma_apply(k.element("1/t"), 0) == k.element("1/t")
    g4 = make_field("GF(4);frob^1")
    w = g4.element("w")
    assert sigma_apply(w, 2) == w
    subst = make_field("QQ(t);subst:t^2")
    assert sigma_apply(subst.element("t"), 2) == subst.element("t^4")


@pytest.mark.parametrize("descriptor", ALL_DESCRIPTORS)
def test_sigma_is_ring_homomorphism(descriptor):
    field = make_field(descriptor)
    rng = random.Random(descriptor)
    one = field.one()
    assert one.sigma() == one
    for _ in range(1000):
        x = field.random_element(rng)
        y = field.random_element(rng)
        assert (x + y).sigma() == x.sigma() + y.sigma()
        assert (x * y).sigma() == x.sigma() * y.sigma()


def test_is_square_rational_functions():
    k = make_field("QQ(t);shift")
    x = k.element("t^2/(t+1)^2")
    root = is_square(x)
    assert root == k.element("t/(t+1)")
    assert root * root == x
    assert is_square(k.element("t")) is None
    assert is_square(k.element("-t^2")) is None
    assert is_square(k.element("4*t^2")) == k.element("2*t")
    # tie-break: leading numerator coefficient positive
    assert is_square(k.element("9")) == k.element("3")

    QQ = make_field("QQ")
    assert is_square(QQ.element("4/9")) == QQ.element("2/3")
    assert is_square(QQ.element("2")) is None
    assert is_square(QQ.element("-4")) is None


@pytest.mark.parametrize("q", ["GF(9);frob^1", "GF(25);frob^1", "GF(49);frob^1",
                               "GF(81);frob^1"])
def test_is_square_finite_exhaustive(q):
    field = make_field(q)
    squares = {(c * c).value for c in field.elements()}
    for x in field.elements():
        root = is_square(x)
        assert (root is not None) == (x.value in squares)
        if root is not None:
            assert root * root == x
        if not x.is_zero():
            euler = x ** ((field.size - 1) // 2)
            assert (root is not None) == (euler == field.one())


def test_is_square_char2_rejected():
    g4 = make_field("GF(4);frob^1")
    with pytest.raises(FieldError):
        is_square(g4.one())


@pytest.mark.parametrize("descriptor", ["QQ", "QQ(t);shift", "QQ(t);dilate:3/2",
                                        "GF(4);frob^1", "GF(9);frob^1",
                                        "GF(2^4);frob^2", "GF(3^2);frob^2"])
def test_in_sigma_image_inversive(descriptor):
    field = make_field(descriptor)
    rng = random.Random(7)
    for _ in range(50):
        x = field.random_element(rng)
        y = in_sigma_image(x)
        assert y is not None
        assert sigma_apply(y, 1) == x


def test_in_sigma_image_shift_formula():
    k = make_field("QQ(t);shift")
    x = k.element("t^2+1")
    assert in_sigma_image(x) == k.element("(t-1)^2+1")


def test_in_sigma_image_subst_parity():
    k = make_field("QQ(t);subst:t^2")
    assert in_sigma_image(k.element("t^2")) == k.element("t")
    assert in_sigma_image(k.element("t")) is None
    assert in_sigma_image(k.element("(t^2+1)/(t^4+2)")) is not None
    assert in_sigma_image(k.element("t^3")) is None
    rng = random.Random(3)
    # oracle: sigma lands on even functions only, so any sigma image must
    # be fixed by t -> -t; cross-check preimages by substitution
    for _ in range(40):
        y = k.random_element(rng)
        x = y.sigma()
        back = in_sigma_image(x)
        assert back is not None and back.sigma() == x


def test_element_parsing_round_trip():
    for desc in ALL_DESCRIPTORS:
        field = make_field(desc)
        rng = random.Random(11)
        for _ in range(40):
            x = field.random_element(rng)
            assert field.element(str(x)) == x


def test_gf4_modulus_is_documented_one():
    g4 = make_field("GF(4);frob^1")
    w = g4.element("w")
    assert w * w == w + 1  # modulus x^2 + x + 1


@pytest.mark.parametrize("descriptor,modulus", [
    ("GF(2^2)", (1, 1, 1)),
    ("GF(2^3)", (1, 1, 0, 1)),
    ("GF(2^4)", (1, 1, 0, 0, 1)),
    ("GF(3^2)", (1, 0, 1)),
    ("GF(3^3)", (1, 2, 0, 1)),
    ("GF(5^2)", (2, 0, 1)),
    ("GF(7^2)", (1, 0, 1)),
    ("GF(2^10)", (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1)),
])
def test_modulus_is_the_smallest_monic_irreducible(descriptor, modulus):
    # ascending coefficients; element values and output text depend on them
    assert make_field(descriptor + ";frob^1").modulus == modulus


def test_first_operations_of_a_tabled_field_fill_only_what_they_use():
    # built directly, so no cached field has filled its tables already
    F = FiniteField(2, 9)
    assert F.size <= FiniteField.TABLE_LIMIT
    w = F.element("w")
    tracemalloc.start()
    try:
        u = w * w + w
        x = u.inv()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
    assert x * u == F.one()


@pytest.mark.parametrize("descriptor", ["GF(2^8);frob^1", "GF(509);frob^1"])
def test_tabled_arithmetic_keeps_the_field_axioms(descriptor):
    F = make_field(descriptor)
    zero, one = F.zero(), F.one()
    with pytest.raises(ZeroDivisionError):
        F._inv(zero.value)
    rng = random.Random(descriptor)
    for _ in range(300):
        x, y, z = (F.random_element(rng) for _ in range(3))
        assert x + y == y + x and (x + y) + z == x + (y + z)
        assert x * y == y * x and (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + zero == x and x * one == x and x - x == zero
        assert x.is_zero() or x * x.inv() == one
        assert (x * y).sigma() == x.sigma() * y.sigma()


def test_small_finite_fields_hand_out_canonical_elements():
    # kept answers share their coefficients: one object per value of GF(q)
    for desc in ("GF(3);frob^1", "GF(4);frob^1", "GF(9);frob^1"):
        F = make_field(desc)
        assert F.element(2) is F.element(2)
        elems = list(F.elements())
        assert [F.wrap(x.value) for x in elems] == elems
        assert all(F.wrap(x.value) is x for x in elems)
        assert all(x * y is F.wrap(F._mul(x.value, y.value)) for x in elems for y in elems)
        assert all((x + y) is F.wrap((x + y).value) for x in elems for y in elems)
        w = elems[-1]
        assert w.inv() is F.wrap(w.inv().value) and w.sigma() is F.wrap(w.sigma().value)


@pytest.mark.parametrize("descriptor", ["QQ", "QQ(t);shift", "GF(9);frob^1"])
def test_power_is_the_repeated_product(descriptor):
    F = make_field(descriptor)
    x = F.element({"QQ": "-2/3", "QQ(t);shift": "(t+1)/(t^2-2)", "GF(9);frob^1": "w + 2"}[descriptor])
    for n in range(-3, 10):
        base = x if n >= 0 else x.inv()
        want = F.one()
        for _ in range(abs(n)):
            want = want * base
        assert x ** n == want, n


def test_finite_field_element_of_a_fraction():
    """A Fraction maps to numerator * denominator^-1 mod p, and a
    denominator divisible by p has no image."""
    from fractions import Fraction
    for descriptor, half in (("GF(5);frob^1", "3"), ("GF(9);frob^1", "2"), ("GF(7);frob^1", "4")):
        F = make_field(descriptor)
        assert F.element(Fraction(1, 2)) == F.element(half)
        assert F.element(Fraction(-3, 4)) * F.element(4) == F.element(-3)
    for descriptor, bad in (("GF(4);frob^1", Fraction(1, 2)), ("GF(9);frob^1", Fraction(5, 6))):
        with pytest.raises(ZeroDivisionError):
            make_field(descriptor).element(bad)


# ---------------------------------------------------------------------------
# QQ(t) arithmetic against the gcd-of-the-products formulas: each op must
# give the same canonical pair as reducing the full result by one gcd

QQT_DESCRIPTORS = ["QQ(t);shift", "QQ(t);dilate:3/2", "QQ(t);dilate:-2", "QQ(t);subst:t^2"]


def oracle_reduce(num, den):
    if not den:
        raise ZeroDivisionError("zero denominator")
    if not num:
        return polys.ZERO, polys.ONE
    g = polys.pgcd(num, den)
    if polys.deg(g) > 0:
        num = polys.pdiv_exact(num, g)
        den = polys.pdiv_exact(den, g)
    c = den[-1]
    if c != 1:
        num = tuple(x / c for x in num)
        den = tuple(x / c for x in den)
    return num, den


def oracle_add(a, b):
    if a[1] == polys.ONE and b[1] == polys.ONE:
        return (polys.padd(a[0], b[0]), polys.ONE)
    n = polys.padd(polys.pmul(a[0], b[1]), polys.pmul(b[0], a[1]))
    return oracle_reduce(n, polys.pmul(a[1], b[1]))


def oracle_mul(a, b):
    if a[1] == polys.ONE and b[1] == polys.ONE:
        return (polys.pmul(a[0], b[0]), polys.ONE)
    return oracle_reduce(polys.pmul(a[0], b[0]), polys.pmul(a[1], b[1]))


def oracle_inv(a):
    return oracle_reduce(a[1], a[0])


def oracle_sigma(k, a):
    return oracle_reduce(k._sigma_poly(a[0]), k._sigma_poly(a[1]))


def assert_canonical_ratfun(value):
    num, den = value
    for p in (num, den):
        assert type(p) is tuple and all(type(c) is Fraction for c in p)
        assert not p or p[-1] != 0
    assert den and den[-1] == 1
    if not num:
        assert den == polys.ONE
    else:
        assert polys.pgcd(num, den) == polys.ONE


def random_poly(rng, degree):
    return polys.poly([Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(degree)]
                      + [Fraction(rng.choice([-2, -1, 1, 3]), rng.randint(1, 3))])


def qqt_cases(k, rng):
    """(a, b) pairs of raw values: seeded random elements, pairs that share
    factors across (a.num with b.den, b.num with a.den), equal and
    overlapping denominators, x and -x, constants, 0 and 1."""
    rand = lambda: k.random_element(rng, max_deg=3).value  # noqa: E731
    for _ in range(30):
        yield rand(), rand()
    for _ in range(30):
        f, g, h = (random_poly(rng, rng.randint(1, 2)) for _ in range(3))
        u, v, w = (random_poly(rng, rng.randint(0, 2)) for _ in range(3))
        # across: f divides a.num and b.den, g divides b.num and a.den
        yield (k.ratfun(polys.pmul(f, u), polys.pmul(g, v)).value,
               k.ratfun(polys.pmul(g, w), polys.pmul(f, h)).value)
        # overlapping denominators f*g and f*h, and equal ones
        yield (k.ratfun(u, polys.pmul(f, g)).value, k.ratfun(w, polys.pmul(f, h)).value)
        yield k.ratfun(u, f).value, k.ratfun(v, f).value
        # equal denominators f*g whose sum v*g / (f*g) cancels g
        fg = polys.pmul(f, g)
        yield k.ratfun(u, fg).value, k.ratfun(polys.psub(polys.pmul(v, g), u), fg).value
        x = rand()
        yield x, k._neg(x)
    consts = [k.element(c).value for c in (0, 1, -1, Fraction(3, 7))]
    for c in consts:
        yield c, rand()
        yield rand(), c
        for d in consts:
            yield c, d


@pytest.mark.parametrize("descriptor", QQT_DESCRIPTORS)
def test_qqt_ops_match_the_reduce_oracles(descriptor):
    k = make_field(descriptor)
    rng = random.Random(descriptor)
    across = equal = cancelled = 0
    for a, b in qqt_cases(k, rng):
        for x, y in ((a, b), (b, a)):
            for got, want in ((k._add(x, y), oracle_add(x, y)),
                              (k._mul(x, y), oracle_mul(x, y)),
                              (k._sigma(x), oracle_sigma(k, x))):
                assert got == want, (x, y)
                assert_canonical_ratfun(got)
            if x[0]:
                got = k._inv(x)
                assert got == oracle_inv(x)
                assert_canonical_ratfun(got)
        across += polys.deg(polys.pgcd(a[0], b[1])) > 0 and polys.deg(polys.pgcd(b[0], a[1])) > 0
        equal += polys.deg(a[1]) > 0 and a[1] == b[1]
        s = k._add(a, b)
        cancelled += bool(s[0]) and polys.deg(s[1]) < polys.deg(polys.pmul(a[1], b[1])) - polys.deg(
            polys.pgcd(a[1], b[1]))
    # the planted cases reach the branches they were built for
    assert across >= 20 and equal >= 20 and cancelled >= 20, (across, equal, cancelled)


@pytest.mark.parametrize("descriptor", QQT_DESCRIPTORS)
def test_qqt_sigma_preimage_matches_the_reduce_oracle(descriptor):
    k = make_field(descriptor)
    rng = random.Random(descriptor)
    for _ in range(40):
        y = k.random_element(rng, max_deg=3)
        for x in (y, y.sigma()):
            num, den = x.value
            if k.mode == "subst":
                flip = oracle_reduce(polys.compose_linear(num, Fraction(-1), Fraction(0)),
                                     polys.compose_linear(den, Fraction(-1), Fraction(0)))
                want = None if flip != (num, den) else oracle_reduce(num[0::2], den[0::2])
            elif k.mode == "shift":
                want = oracle_reduce(polys.shift(num, -1), polys.shift(den, -1))
            else:
                qi = 1 / k.q
                want = oracle_reduce(polys.compose_linear(num, qi, Fraction(0)),
                                     polys.compose_linear(den, qi, Fraction(0)))
            got = in_sigma_image(x)
            if want is None:
                assert got is None
            else:
                assert got.value == want
                assert_canonical_ratfun(got.value)
                assert got.sigma() == x


@pytest.mark.parametrize("descriptor", QQT_DESCRIPTORS)
def test_qqt_sigma_inverse_and_polynomial_products_take_no_gcd(descriptor, monkeypatch):
    calls = []

    def counted(a, b):
        calls.append((a, b))
        return polys.pgcd(a, b)

    k = make_field(descriptor)
    rng = random.Random(descriptor)
    elts = [k.random_element(rng, max_deg=3).value for _ in range(40)]
    polys_only = [(random_poly(rng, rng.randint(0, 4)), polys.ONE) for _ in range(10)]
    monkeypatch.setattr(fields, "pgcd", counted)
    for x in elts:
        k._sigma(x)
        if x[0]:
            k._inv(x)
    for p in polys_only:
        for x in polys_only:
            k._mul(p, x)
            k._add(p, x)
        for x in elts:
            k._add(p, x)  # a polynomial summand makes the denominator gcd 1
    assert calls == []
    for p in polys_only:
        for x in elts:
            k._mul(p, x)
            assert len(calls) <= 1  # gcd(p, x.den) only
            del calls[:]


# ---------------------------------------------------------------------------
# GF(q) inverses above the table limit: extended Euclid against a^(q-2)

@pytest.mark.parametrize("p,m", [(2, 10), (3, 12), (2, 32), (5, 20)])
def test_large_finite_field_inverse_is_the_group_inverse(p, m):
    F = FiniteField(p, m)
    assert F.size > FiniteField.TABLE_LIMIT
    one = F.one().value
    rng = random.Random(p * 100 + m)
    units = [F.random_element(rng).value for _ in range(60)]
    units += [one, F.element("w").value, F.element(p - 1).value]
    for i, u in enumerate(units):
        if not any(u):
            continue
        v = F._inv(u)
        assert len(v) == m and all(0 <= c < p for c in v)
        assert F._mul(u, v) == one
        if i % 6 == 0:
            power = fields._ip_powmod(polys._trim(list(u)), F.size - 2, F.modulus, p)
            assert v == F._pad(power)
    with pytest.raises(ZeroDivisionError):
        F._inv(F.zero().value)


# --------------------------------------------------------------------------
# QQ raw values: an int when integral, else a Fraction with denominator > 1


def assert_canonical_rational(value, expected):
    """value is the normal form of the rational `expected`."""
    assert value == expected
    assert_qq_normal_form(value)


def qq_samples(rng, count=60):
    """Seeded rationals, integral ones, +-1 and 0 among them, each as a
    Fraction (integral ones too, as callers may pass them)."""
    special = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(-3),
               Fraction(1, 2), Fraction(-1, 3), Fraction(4, 2), Fraction(-6, 3)]
    return special + [Fraction(rng.randint(-30, 30), rng.choice((1, 1, 2, 3, 4, 6, 9)))
                      for _ in range(count)]


def test_qq_raw_kernels_agree_with_fraction_arithmetic_in_normal_form():
    QQ = make_field("QQ")
    rng = random.Random(2024)
    samples = qq_samples(rng)
    canon = [QQ.wrap(x).value for x in samples]
    for x, c in zip(samples, canon):
        assert_canonical_rational(c, x)
        assert_canonical_rational(QQ._neg(c), -x)
        if x:
            assert_canonical_rational(QQ._inv(x), 1 / x)
            assert_canonical_rational(QQ._inv(c), 1 / x)
        else:
            with pytest.raises(ZeroDivisionError):
                QQ._inv(c)
    for _ in range(400):
        i, j = rng.randrange(len(samples)), rng.randrange(len(samples))
        x, y = samples[i], samples[j]
        for a, b in ((x, y), (canon[i], canon[j]), (canon[i], y)):
            assert_canonical_rational(QQ._add(a, b), x + y)
            assert_canonical_rational(QQ._mul(a, b), x * y)
    # sums and products that cancel to integers
    assert_canonical_rational(QQ._add(Fraction(1, 2), Fraction(1, 2)), Fraction(1))
    assert_canonical_rational(QQ._mul(2, Fraction(1, 2)), Fraction(1))
    assert_canonical_rational(QQ._mul(Fraction(3, 2), Fraction(2, 3)), Fraction(1))
    assert_canonical_rational(QQ._inv(Fraction(-1, 5)), Fraction(-5))


def test_qq_elements_are_in_normal_form_whatever_they_are_made_from():
    QQ = make_field("QQ")
    rng = random.Random(2025)
    for x in qq_samples(rng):
        assert_canonical_rational(QQ.element(x).value, x)
        assert_canonical_rational(QQ.wrap(x).value, x)
        assert_canonical_rational(QQ.element(str(x)).value, x)
        if x.denominator == 1:
            assert_canonical_rational(QQ.element(x.numerator).value, x)
        text = f"{x.numerator * 2}/{x.denominator * 2}"
        assert_canonical_rational(QQ.element(text).value, x)
    assert_canonical_rational(QQ.element(True).value, Fraction(1))
    assert_canonical_rational(QQ.element(False).value, Fraction(0))
    a, b = QQ.element(Fraction(3, 2)), QQ.element(Fraction(2, 3))
    for got, want in ((a + b, Fraction(13, 6)), (a * b, Fraction(1)), (a / a, Fraction(1)),
                      (a - a, Fraction(0)), (-a, Fraction(-3, 2)), (a.inv(), Fraction(2, 3)),
                      (a ** 2, Fraction(9, 4)), (b ** -1, Fraction(3, 2)),
                      (a * 2, Fraction(3)), (2 - a, Fraction(1, 2)), (a.sigma(), Fraction(3, 2)),
                      (in_sigma_image(a), Fraction(3, 2))):
        assert_canonical_rational(got.value, want)


def test_qq_is_square_roots_are_in_normal_form():
    QQ = make_field("QQ")
    rng = random.Random(2026)
    for x in qq_samples(rng):
        root = is_square(QQ.element(x * x))
        assert root is not None and root * root == QQ.element(x * x)
        assert_canonical_rational(root.value, abs(x))
        if x < 0:
            assert is_square(QQ.element(x)) is None
    assert is_square(QQ.element(Fraction(2, 9))) is None
    assert_canonical_rational(is_square(QQ.element(Fraction(16, 4))).value, Fraction(2))


def test_qq_integral_values_equal_hash_and_print_alike():
    QQ = make_field("QQ")
    forms = [QQ.element(2), QQ.element(Fraction(4, 2)), QQ.element("4/2"), QQ.wrap(Fraction(2))]
    assert all(type(x.value) is int for x in forms)
    assert len({hash(x) for x in forms}) == 1
    assert len({str(x) for x in forms}) == 1 and str(forms[0]) == "2"
    assert all(x == forms[0] for x in forms) and forms[0] == 2 and forms[0] == Fraction(2)
    # the lemma the normal form leans on: an integral Fraction that slipped
    # past it would still equal and hash as its int
    assert Fraction(2) == 2 and hash(Fraction(2)) == hash(2) and str(Fraction(2)) == "2"
    assert hash(QQ.element(Fraction(2))) == hash(FieldElement(QQ, Fraction(2)))
    assert str(QQ.element("-6/4")) == "-3/2"
