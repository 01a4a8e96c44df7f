"""Field layer: exact arithmetic, sigma, squares, sigma-image membership."""

import random
import tracemalloc

import pytest

from dcoh.fields import (FieldError, FieldParseError, FiniteField, field_arith,
                         in_sigma_image, is_square, make_field, sigma_apply)

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
