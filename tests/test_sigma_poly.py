"""Sigma-polynomials: canonical form, shift action, evaluation."""

import random

import pytest

from dcoh.algebras import make_mu_algebra, make_split_algebra, scalar_algebra
from dcoh.fields import FieldElement, make_field
from dcoh.sigma_poly import (SigmaPolyError, SigmaPolynomial, mult_eval,
                             parse_multiplicative, parse_sigma_polynomial,
                             poly_arith, poly_eval, poly_shift,
                             relation_from_multiplicative)


def var(field, nvars, i, order=0):
    return SigmaPolynomial.variable(field, nvars, i, order)


def test_poly_arith_examples(gf9, QQ):
    y = var(QQ, 1, 0)
    sy = y.shift()
    prod = poly_arith(sy, y, "mul")
    assert prod == parse_sigma_polynomial("y1*s(y1)", QQ, 1)
    p = parse_sigma_polynomial("s(y1)^2 - 3*y1 + 1", QQ, 1)
    assert poly_arith(p, SigmaPolynomial.constant(QQ, 1, 0), "add") == p

    g2 = make_field("GF(2^1);frob^1")
    q = parse_sigma_polynomial("y1 + s(y1)", g2, 1)
    assert poly_arith(q, q, "add").is_zero()

    with pytest.raises(SigmaPolyError):
        poly_arith(p, parse_sigma_polynomial("y1", QQ, 2), "add")


def test_poly_shift_examples():
    k = make_field("QQ(t);shift")
    y = var(k, 1, 0)
    assert poly_shift(y * y) == var(k, 1, 0, 1) ** 2
    ty = SigmaPolynomial.constant(k, 1, k.element("t")) * y
    shifted = poly_shift(ty)
    assert shifted == SigmaPolynomial.constant(k, 1, k.element("t+1")) * var(k, 1, 0, 1)
    c = SigmaPolynomial.constant(k, 1, k.element("t^2"))
    assert poly_shift(c) == SigmaPolynomial.constant(k, 1, k.element("(t+1)^2"))


def test_poly_shift_is_ring_homomorphism(gf9):
    rng = random.Random(5)

    def random_poly():
        terms = {}
        for _ in range(rng.randint(1, 4)):
            mono = tuple(sorted({((rng.randint(0, 1), rng.randint(0, 2)),
                                  rng.randint(1, 2))}))
            terms[mono] = gf9.random_element(rng)
        return SigmaPolynomial(gf9, 2, terms)

    for _ in range(30):
        p, q = random_poly(), random_poly()
        assert poly_shift(p * q) == poly_shift(p) * poly_shift(q)
        assert poly_shift(p + q) == poly_shift(p) + poly_shift(q)


def test_poly_eval_defining_relations(gf9):
    a = gf9.element("w")
    A = make_mu_algebra(a, a)
    y = A.basis_element(1)
    p = parse_sigma_polynomial("y1^2", gf9, 1) - SigmaPolynomial.constant(gf9, 1, a)
    assert poly_eval(p, (y,)).is_zero()
    q = parse_sigma_polynomial("s(y1)", gf9, 1) \
        - SigmaPolynomial.constant(gf9, 1, a) * parse_sigma_polynomial("y1", gf9, 1)
    assert poly_eval(q, (y,)).is_zero()


def test_poly_eval_gf4_example(gf4):
    # brute force in GF(4): w^2 - w = 1 with the modulus w^2 = w + 1
    p = parse_sigma_polynomial("s(y1) - y1", gf4, 1)
    w = gf4.element("w")
    R = scalar_algebra(gf4)
    val = poly_eval(p, (R.from_scalar(w),))
    assert val == R.from_scalar(gf4.one())
    # field-element evaluation agrees
    assert poly_eval(p, (w,)) == gf4.one()


def test_poly_eval_commutes_with_sigma(gf9):
    A = make_mu_algebra(gf9.element("w"), gf9.element("w"))
    rng = random.Random(9)
    p = parse_sigma_polynomial("s(y1)^2 - w*y1 + 1", gf9, 1)
    for _ in range(20):
        coords = {i: gf9.random_element(rng) for i in A.index_list()}
        x = A.element(coords)
        assert poly_eval(poly_shift(p), (x,)) == poly_eval(p, (x,)).sigma()


def test_mult_eval_examples(gf9):
    f = parse_multiplicative("y^2", 1)
    x = gf9.element("w")
    assert mult_eval(f, (x,)) == x * x

    # sigma(y)/y at the mu-algebra generator equals b
    b = gf9.element("w")
    A = make_mu_algebra(b, b)
    g = parse_multiplicative("s(y)*y^-1", 1)
    y = A.basis_element(1)
    assert mult_eval(g, (y,)) == A.from_scalar(b)
    assert parse_multiplicative("s(y)/y", 1) == g

    anyf = parse_multiplicative("y1^3*s(y2)^-2", 2)
    ones = (gf9.one(), gf9.one())
    assert mult_eval(anyf, ones) == gf9.one()


def test_mult_eval_multiplicative(gf9):
    f = parse_multiplicative("y^2*s(y)^-1", 1)
    rng = random.Random(4)
    units = [x for x in gf9.elements() if not x.is_zero()]
    for _ in range(50):
        u = rng.choice(units)
        v = rng.choice(units)
        assert mult_eval(f, (u * v,)) == mult_eval(f, (u,)) * mult_eval(f, (v,))


def test_relation_from_multiplicative(gf9):
    f = parse_multiplicative("s(y)*y^-1", 1)
    rel = relation_from_multiplicative(f, gf9, gf9.element("w"))
    # numerator(f) - a * denominator(f) = s(y1) - w*y1
    expected = parse_sigma_polynomial("s(y1) - w*y1", gf9, 1)
    assert rel == expected


def test_order_and_parse_errors(QQ):
    p = parse_sigma_polynomial("s^3(y1) + s(y1)*y1", QQ, 1)
    assert p.order == 3
    with pytest.raises(SigmaPolyError):
        parse_sigma_polynomial("z1", QQ, 1)
    with pytest.raises(SigmaPolyError):
        parse_multiplicative("y + 1", 1)
    with pytest.raises(SigmaPolyError):
        parse_sigma_polynomial("y1/y1", QQ, 1)


# --------------------------------------------------------------------------
# f read only as a numerator and a denominator


def _layered_eval(f, point):
    """prod_j sigma^j(prod_i point_i^(alpha_j,i)), layer by layer with
    negative powers taken by inverses: f.eval as it was written, kept as an
    oracle."""
    total = None
    for j, alpha in enumerate(f.exps):
        layer = None
        for i, e in enumerate(alpha):
            if e:
                x = point[i] ** e
                layer = x if layer is None else layer * x
        if layer is not None:
            layer = layer.sigma(j)
            total = layer if total is None else total * layer
    if total is None:
        first = point[0]
        return first.field.one() if isinstance(first, FieldElement) else first.algebra.one()
    return total


UNARY = ["1", "y^2", "s(y)/y", "s(y)^2/y^3", "1/y", "s^2(y)*y", "s(y)/s^2(y)^2"]
BINARY = ["y1*s(y2)/y2^2", "s(y1)/y2", "y1^2*y2"]


@pytest.mark.parametrize("descriptor,a,b", [("GF(3);frob^1", "2", "2"), ("GF(4);frob^1", "w", "w+1"),
                                            ("GF(5);frob^1", "2", "4"), ("GF(9);frob^1", "w", "w")])
def test_mult_eval_agrees_with_the_layered_eval(descriptor, a, b):
    """num * den^-1 from split_eval against the layered product, on the
    units of GF(q) (pairs of them for arity 2) and of the mu and split
    algebras."""
    F = make_field(descriptor)
    units = list(F.units())
    for text in UNARY:
        f = parse_multiplicative(text, 1)
        for R in (make_mu_algebra(F.element(a), F.element(b)), make_split_algebra(F, 2, [1, 0])):
            for x in R.enumerate_elements():
                if x.is_unit():
                    assert f.eval((x,)) == _layered_eval(f, (x,)), (text, x)
        for x in units:
            assert f.eval((x,)) == _layered_eval(f, (x,)), (text, x)
    for text in BINARY:
        f = parse_multiplicative(text, 2)
        for x in units:
            for y in units:
                assert f.eval((x, y)) == _layered_eval(f, (x, y)), (text, x, y)


def test_mult_eval_without_a_denominator_inverts_nothing(monkeypatch):
    """eval of y^2, y*s(y) and 1 takes no inverse, not even of 1, on every
    element of R (a non-unit included); s(y)/y takes one per unit."""
    from dcoh.algebras import FinDimAlgebra
    calls = []
    invert = FinDimAlgebra._invert_data
    monkeypatch.setattr(FinDimAlgebra, "_invert_data",
                        lambda self, d: calls.append(d) or invert(self, d))
    F = make_field("GF(9);frob^1")
    R = make_split_algebra(F, 2, [1, 0])
    elements = list(R.enumerate_elements())
    for text in ("y^2", "y*s(y)", "1"):
        f = parse_multiplicative(text, 1)
        for x in elements:
            f.eval((x,))
        assert calls == [], text
    f = parse_multiplicative("s(y)/y", 1)
    units = [x for x in elements if x.is_unit()]
    for x in units:
        f.eval((x,))
    assert len(calls) == len(units)


def test_indexed_names_are_read_once_and_each_caller_keeps_its_miss(gf9):
    """exprs.indexed_name reads <stem> and <stem><i> for sigma-polynomials,
    multiplicative functions and monomial algebras; a miss falls back to a
    field name, is an unknown variable, or is None, as each caller states."""
    from dcoh import exprs
    from dcoh.algebras import FreePolyAlgebra
    cases = {("y", 1): 0, ("y", 2): None, ("y1", 2): 0, ("y2", 2): 1, ("y3", 2): None,
             ("y0", 2): None, ("yz", 2): None, ("w", 2): None}
    for (name, n), index in cases.items():
        assert exprs.indexed_name(name, "y", n) == index, (name, n)
    w = gf9.named_element("w")
    assert parse_sigma_polynomial("w*y2", gf9, 2) == var(gf9, 2, 1) * w
    with pytest.raises(ValueError, match="unknown name"):
        parse_sigma_polynomial("y3", gf9, 2)
    with pytest.raises(ValueError, match="unknown variable"):
        parse_multiplicative("y3", 2)
    A = FreePolyAlgebra(gf9, 2)
    assert A.named_element(A.stem + "2") == A.gen(1) and A.named_element(A.stem + "3") is None
    with pytest.raises(SigmaPolyError):
        var(gf9, 1, 0) ** -1
