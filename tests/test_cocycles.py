"""Cocycle calculus: verification, coboundaries, equivalence, invariants."""

import itertools
import math
import random

import pytest

from dcoh import linalg
from dcoh.algebras import (AlgebraMorphism, FinDimAlgebra, FreePolyAlgebra, LaurentAlgebra,
                           TensorContext, change_basis, make_mu_algebra,
                           make_split_algebra, scalar_algebra, tensor_square)
from dcoh.cocycles import (Cocycle, additive_invariant,
                           coboundary, enumerate_cocycles, equivalent, invariant,
                           is_cocycle, make_cocycle, mu_invariant,
                           mu_pairs_equivalent, product_merge, product_split,
                           pushforward_algebra, pushforward_group,
                           trivial_cocycle)
from dcoh.fields import FieldElement, make_field
from dcoh.groups import (AdditiveKernel, CocycleError, DiagonalMult, FrobeniusTwist,
                         MatrixGroup, ProductGroup,
                         ambient_ga, ambient_gl, enumerate_points, gl_trivialize,
                         group_identity, mat_det, mat_identity, mat_inverse,
                         mat_mul, mat_sigma, mu2sigma_group)
from dcoh.operators import DifferenceOperator
from dcoh.sigma_poly import parse_multiplicative
from dcoh.torsors import additive_torsor_algebra, mu_pair_space


def mu_setup(gf9, a_txt="w", b_txt="w"):
    a, b = gf9.element(a_txt), gf9.element(b_txt)
    A = make_mu_algebra(a, b)
    return mu2sigma_group(gf9), A, TensorContext(A), a, b


def test_is_cocycle_examples(gf9):
    G, A, tc, a, b = mu_setup(gf9)
    assert is_cocycle(G, tc, group_identity(G, tc.AA))

    # the canonical mu2 cocycle chi = alpha^{-1} (x) alpha with alpha = y
    y = A.basis_element(1)
    chi = tc.pair(y, y) * a.inv()
    assert chi == tc.pair(y.inverse(), y)
    assert is_cocycle(G, tc, chi)

    # additive: chi = 1 (x) alpha - alpha (x) 1 with L(alpha) in k
    k = make_field("QQ(t);shift")
    L = DifferenceOperator.parse(k, "s - 1")
    AF = additive_torsor_algebra(L, k.element("1/t"))
    tcF = TensorContext(AF)
    alpha = AF.gen(0)
    chiF = tcF.d1(alpha) - tcF.d2(alpha)
    assert is_cocycle(AdditiveKernel(L), tcF, chiF)


def test_is_cocycle_failure_witnesses(gf9):
    G, A, tc, a, b = mu_setup(gf9)
    y = A.basis_element(1)
    res = is_cocycle(G, tc, tc.pair(y, A.one()))
    assert not res and res.certificate == "not-a-group-element"

    # a unit of (A x) A that is no Gm-cocycle: fails the partial identity
    Gm = ambient_gl(gf9, 1)
    u = tc.pair(y, y)
    res2 = is_cocycle(Gm, tc, u)
    assert not res2 and res2.certificate == "cocycle-identity-fails"


def test_coboundary(gf9):
    G, A, tc, a, b = mu_setup(gf9)
    assert coboundary(G, tc, A.one()) == trivial_cocycle(G, tc)

    Gm = ambient_gl(gf9, 1)
    y = A.basis_element(1)
    cb = coboundary(Gm, tc, ((y,),))
    assert cb.value[0][0] == tc.pair(y.inverse(), y)

    k = make_field("QQ(t);shift")
    L = DifferenceOperator.parse(k, "s - 1")
    AF = additive_torsor_algebra(L, k.element("1/t"))
    tcF = TensorContext(AF)
    Ga = ambient_ga(k)
    alpha = AF.gen(0)
    cba = coboundary(Ga, tcF, alpha)
    assert cba.value == tcF.d1(alpha) - tcF.d2(alpha)


def test_search_fallback_refusal_carries_its_space(gf9):
    """Gm as a matrix group has no invariant, so equivalence searches G(A):
    9^2 candidates, refused under budget 1 and decided without it."""
    G, A, tc, a, b = mu_setup(gf9)
    Gm = ambient_gl(gf9, 1)
    chi = coboundary(Gm, tc, ((A.basis_element(1),),))
    res = equivalent(chi, trivial_cocycle(Gm, tc), budget=1)
    assert not res.decided and res.certificate == "budget-exhausted"
    assert res.detail == {"space": 81}
    assert equivalent(chi, trivial_cocycle(Gm, tc))


def test_the_group_search_stops_at_the_first_carrying_point(monkeypatch):
    """Gm as a matrix group has no invariant, so equivalence searches G(A)
    in coset_points order and tests membership only until the first alpha
    that carries chi2 to chi1: over split:2 of GF(3) that is e1 + 2 e2, the
    sixth of the 9 candidates."""
    F = make_field("GF(3);frob^1")
    A = make_split_algebra(F, 2)
    tc = TensorContext(A)
    Gm = ambient_gl(F, 1)
    alpha = ((A.from_vector([F.one(), F.element(2)]),),)
    chi = coboundary(Gm, tc, alpha)
    tested = []
    member = MatrixGroup.contains
    monkeypatch.setattr(MatrixGroup, "contains",
                        lambda self, x, R: tested.append(x) or member(self, x, R))
    res = equivalent(chi, trivial_cocycle(Gm, tc))
    assert res and res.witness == alpha
    assert len(tested) == 6 and tested[-1] == alpha


def test_coboundaries_always_cocycles(gf9):
    G, A, tc, a, b = mu_setup(gf9)
    for alpha in enumerate_points(G, A):
        assert is_cocycle(G, tc, coboundary(G, tc, alpha).value)


def test_equivalence_cross_oracle(gf9):
    """Invariant-based equivalence agrees with brute-force enumeration."""
    for (a, b) in mu_pair_space(gf9)[:6]:
        A = make_mu_algebra(a, b)
        tc = TensorContext(A)
        G = mu2sigma_group(gf9)
        zs = enumerate_cocycles(G, tc)
        for c1 in zs:
            for c2 in zs:
                by_invariant = mu_pairs_equivalent(
                    gf9, mu_invariant(c1), mu_invariant(c2))
                by_enumeration = _equiv_by_enumeration(G, tc, c1, c2)
                assert bool(by_invariant) == by_enumeration
                assert bool(equivalent(c1, c2)) == by_enumeration


def _family_group(F, family):
    fs = lambda n, texts: [parse_multiplicative(t, n) for t in texts]
    if family == "add s-1":
        return AdditiveKernel(DifferenceOperator.parse(F, "s - 1"))
    if family == "diag mu-shaped":
        return DiagonalMult(F, 1, fs(1, ("y^2", "s(y)/y")))
    if family == "diag rank 2":
        return DiagonalMult(F, 2, fs(2, ("y1^2", "s(y2)/y2")))
    return FrobeniusTwist(F, "GL", 1, 1, family.split()[-1])


@pytest.mark.parametrize("algebra", ["mu", "split"])
@pytest.mark.parametrize("family", ["add s-1", "diag mu-shaped", "diag rank 2",
                                    "GL1 trivial", "GL1 id", "GL1 transposeinv"])
@pytest.mark.parametrize("descriptor,a,b", [("GF(3);frob^1", "2", "1"),
                                            ("GF(4);frob^1", "w", "w+1")])
def test_equivalence_cross_oracle_every_family(descriptor, a, b, family, algebra):
    """The invariant-based decision of every family agrees with a
    brute-force search of G(A) on every pair of Z^1."""
    F = make_field(descriptor)
    G = _family_group(F, family)
    A = make_mu_algebra(F.element(a), F.element(b)) if algebra == "mu" \
        else make_split_algebra(F, 2, [1, 0])
    tc = TensorContext(A)
    zs = enumerate_cocycles(G, tc)
    assert zs
    for c1 in zs:
        for c2 in zs:
            res = equivalent(c1, c2)
            assert res.decided
            assert bool(res) == _equiv_by_enumeration(G, tc, c1, c2), (c1.value, c2.value)


def test_additive_classes_cross_oracle():
    """s - 1 over GF(3) on k^3 with sigma a 3-cycle: three cocycles, three
    classes, so the sign of the translation counts."""
    F = make_field("GF(3);frob^1")
    G = AdditiveKernel(DifferenceOperator.parse(F, "s - 1"))
    tc = TensorContext(make_split_algebra(F, 3, [1, 2, 0]))
    zs = enumerate_cocycles(G, tc)
    assert len(zs) == 3
    for c1 in zs:
        for c2 in zs:
            assert bool(equivalent(c1, c2)) == _equiv_by_enumeration(G, tc, c1, c2) == (c1 == c2)


def test_enumerate_cocycles_tests_membership_once(gf9, monkeypatch):
    """enumerate_points has checked membership; only the cocycle identity
    runs on its points."""
    from dcoh import cocycles
    G, A, tc, a, b = mu_setup(gf9)
    expected = enumerate_cocycles(G, tc)

    def refuse(*args):
        raise AssertionError("membership tested again")

    monkeypatch.setattr(cocycles, "contains", refuse)
    assert enumerate_cocycles(G, tc) == expected


# (field, mu pair) for the additive Z^1 grid; the pairs give |Z^1| > 1 for
# some L of each field
ADDITIVE_GRID = [("GF(3);frob^1", "2", "2"), ("GF(4);frob^1", "w", "w+1"),
                 ("GF(7);frob^1", "3", "6"), ("GF(9);frob^1", "w", "w")]
ADDITIVE_OPERATORS = ["s - 1", "s + 1", "s^2 - 1", None]


def _additive_setup(descriptor, a, b, op, algebra):
    F = make_field(descriptor)
    G = ambient_ga(F) if op is None else AdditiveKernel(DifferenceOperator.parse(F, op))
    A = make_mu_algebra(F.element(a), F.element(b)) if algebra == "mu" \
        else make_split_algebra(F, 2)
    return G, TensorContext(A)


def _counting_identity(monkeypatch):
    from dcoh import cocycles
    calls = []
    identity = cocycles._cocycle_identity

    def counted(G, tc, value):
        calls.append(value)
        return identity(G, tc, value)

    monkeypatch.setattr(cocycles, "_cocycle_identity", counted)
    return calls


@pytest.mark.parametrize("algebra", ["mu", "split"])
@pytest.mark.parametrize("op", ADDITIVE_OPERATORS)
@pytest.mark.parametrize("descriptor,a,b", ADDITIVE_GRID)
def test_additive_cocycles_in_point_order(descriptor, a, b, op, algebra):
    """Solving the cocycle identity as a linear relation keeps Z^1 and its
    order: the members of G(A(x)A) in enumerate_points order that pass the
    identity."""
    from dcoh.cocycles import _cocycle_identity
    G, tc = _additive_setup(descriptor, a, b, op, algebra)
    brute = [x for x in enumerate_points(G, tc.AA) if _cocycle_identity(G, tc, x)]
    assert [chi.value for chi in enumerate_cocycles(G, tc)] == brute


@pytest.mark.parametrize("algebra", ["mu", "split"])
@pytest.mark.parametrize("op", ADDITIVE_OPERATORS)
@pytest.mark.parametrize("descriptor,a,b", ADDITIVE_GRID)
def test_additive_cocycle_identity_runs_once_per_cocycle(descriptor, a, b, op, algebra,
                                                         monkeypatch):
    """Only the points of Z^1 are streamed, and each is still checked."""
    G, tc = _additive_setup(descriptor, a, b, op, algebra)
    calls = _counting_identity(monkeypatch)
    zs = enumerate_cocycles(G, tc)
    assert zs and calls == [chi.value for chi in zs]


@pytest.mark.parametrize("descriptor,a,b", ADDITIVE_GRID)
def test_additive_cocycles_without_the_relation(descriptor, a, b, monkeypatch):
    """Without cocycle_relations the identity runs on every point of ker L,
    and Z^1 comes out the same."""
    G, tc = _additive_setup(descriptor, a, b, "s - 1", "mu")
    expected = enumerate_cocycles(G, tc)
    monkeypatch.setattr(AdditiveKernel, "cocycle_relations", lambda self, tc: None)
    calls = _counting_identity(monkeypatch)
    assert enumerate_cocycles(G, tc) == expected
    assert calls == enumerate_points(G, tc.AA)


def _equiv_by_enumeration(G, tc, c1, c2):
    from dcoh.cocycles import map_value, values_equal
    from dcoh.groups import group_inv, group_mul
    for alpha in enumerate_points(G, tc.A):
        cand = group_mul(G, map_value(G, tc.d1, alpha),
                         group_mul(G, c2.value,
                                   group_inv(G, map_value(G, tc.d2, alpha))))
        if values_equal(G, c1.value, cand):
            return True
    return False


def test_equivalence_properties(gf9):
    G, A, tc, a, b = mu_setup(gf9)
    zs = enumerate_cocycles(G, tc)
    for c1 in zs:
        assert equivalent(c1, c1)
        for c2 in zs:
            r12 = equivalent(c1, c2)
            r21 = equivalent(c2, c1)
            assert bool(r12) == bool(r21)


def test_mu2_equivalence_over_infinite_field(shift_field):
    k = shift_field
    G = mu2sigma_group(k)
    c = k.element("t+1")
    A = make_mu_algebra(c * c, c.sigma() / c)
    tc = TensorContext(A)
    y = A.basis_element(1)
    chi = make_cocycle(G, tc, tc.pair(y.inverse(), y))
    res = equivalent(trivial_cocycle(G, tc), chi)
    assert res and res.witness == c

    a2 = k.element("2*t^2") * (c * c)
    b2 = k.element("(t+1)/t") * (c.sigma() / c)
    A2 = make_mu_algebra(a2, b2)
    tc2 = TensorContext(A2)
    y2 = A2.basis_element(1)
    chi2 = make_cocycle(G, tc2, tc2.pair(y2.inverse(), y2))
    res2 = equivalent(trivial_cocycle(G, tc2), chi2)
    assert res2.status == "no" and res2.certificate == "ratio-not-a-square"


def test_additive_equivalence(shift_field):
    k = shift_field
    L = DifferenceOperator.parse(k, "s - 1")
    G = AdditiveKernel(L)
    AF = additive_torsor_algebra(L, k.element("1/t"))
    tcF = TensorContext(AF)
    alpha = AF.gen(0)
    chi = make_cocycle(G, tcF, tcF.d1(alpha) - tcF.d2(alpha))
    zero = trivial_cocycle(G, tcF)
    res = equivalent(zero, chi)
    assert res.status == "no"  # invariant 1/t is not in (sigma - 1)(k)

    A2 = additive_torsor_algebra(L, k.element("1/(t*(t+1))"))
    tc2 = TensorContext(A2)
    alpha2 = A2.gen(0)
    chi2 = make_cocycle(G, tc2, tc2.d1(alpha2) - tc2.d2(alpha2))
    res2 = equivalent(trivial_cocycle(G, tc2), chi2)
    assert res2

    # two cocycles over one algebra whose invariants differ by 1/t
    double = Cocycle(G, tcF, chi.value + chi.value)
    res3 = equivalent(chi, double)
    assert res3.status == "no" and res3.certificate == "no-rational-solution"


def test_pushforward_algebra_identity_and_inclusion(gf9):
    from dcoh.cocycles import values_equal
    G, A, tc, a, b = mu_setup(gf9)
    y = A.basis_element(1)
    chi = make_cocycle(G, tc, tc.pair(y.inverse(), y))
    same = pushforward_algebra(chi, AlgebraMorphism.identity(A))
    assert values_equal(G, same.value, chi.value)

    # first inclusion A -> A (x) A stays a cocycle by functoriality
    incl = AlgebraMorphism(A, tc.AA, [tc.d2(A.basis_element(i))
                                      for i in A.index_list()])
    pushed = pushforward_algebra(chi, incl)
    assert is_cocycle(G, pushed.context, pushed.value)


def test_pushforward_algebra_mu_isomorphism(gf9):
    """y -> lambda^{-1} y' realizes (a,b) ~ (lambda^2 a, sigma(l)/l b)."""
    lam = gf9.element("w")
    a, b = gf9.one(), gf9.one()
    a2, b2 = lam * lam * a, lam.sigma() / lam * b
    A1 = make_mu_algebra(a, b)
    A2 = make_mu_algebra(a2, b2)
    h = AlgebraMorphism(A1, A2, [A2.one(), A2.basis_element(1) * lam.inv()])
    G = mu2sigma_group(gf9)
    tc1 = TensorContext(A1)
    y1 = A1.basis_element(1)
    chi = make_cocycle(G, tc1, tc1.pair(y1.inverse(), y1))
    pushed = pushforward_algebra(chi, h)
    inv = mu_invariant(pushed)
    # the image cocycle is alpha'^{-1} (x) alpha' for alpha' = lambda^{-1} y';
    # the trivializer is found up to a unit of k, so the invariant is
    # well-defined up to the lambda-action and stays in the class of (a, b)
    assert mu_pairs_equivalent(gf9, inv, (a, b))


def test_pushforward_class_independent_of_morphism(gf9):
    """Both tensor inclusions A -> A (x) A push a cocycle into one class."""
    G, A, tc, a, b = mu_setup(gf9)
    left = AlgebraMorphism(A, tc.AA, [tc.d2(A.basis_element(i))
                                      for i in A.index_list()])
    right = AlgebraMorphism(A, tc.AA, [tc.d1(A.basis_element(i))
                                       for i in A.index_list()])
    for chi in enumerate_cocycles(G, tc):
        p1 = pushforward_algebra(chi, left)
        p2 = pushforward_algebra(chi, right)
        assert equivalent(p1, p2)


def test_pushforward_is_injective_on_classes(gf9):
    """Inequivalent cocycles stay inequivalent after extension of the algebra."""
    G, A, tc, a, b = mu_setup(gf9)
    incl = AlgebraMorphism(A, tc.AA, [tc.d2(A.basis_element(i))
                                      for i in A.index_list()])
    zs = enumerate_cocycles(G, tc)
    for c1 in zs:
        for c2 in zs:
            before = bool(equivalent(c1, c2))
            after = bool(equivalent(pushforward_algebra(c1, incl),
                                    pushforward_algebra(c2, incl)))
            assert before == after


def test_pushforward_preserves_equivalence(gf9):
    G, A, tc, a, b = mu_setup(gf9)
    zs = enumerate_cocycles(G, tc)
    incl = AlgebraMorphism(A, tc.AA, [tc.d2(A.basis_element(i))
                                      for i in A.index_list()])
    for c1 in zs:
        for c2 in zs:
            r = equivalent(c1, c2)
            if r:
                p1 = pushforward_algebra(c1, incl)
                p2 = pushforward_algebra(c2, incl)
                assert equivalent(p1, p2)


def test_pushforward_group(gf9):
    G, A, tc, a, b = mu_setup(gf9)
    y = A.basis_element(1)
    chi = make_cocycle(G, tc, tc.pair(y.inverse(), y))
    # mu2 -> Gm inclusion keeps the same value
    Gm = ambient_gl(gf9, 1)
    pushed = pushforward_group(chi, "inclusion", Gm)
    assert pushed.group is Gm
    assert is_cocycle(Gm, tc, pushed.value)

    # sigma^d pushforward of a coboundary is the coboundary of sigma^d(u)
    u = A.basis_element(1)
    cb = coboundary(Gm, tc, ((u,),))
    moved = pushforward_group(cb, ("sigma_power", 1))
    expected = coboundary(Gm, tc, ((u.sigma(),),))
    assert moved.value[0][0] == expected.value[0][0]

    k = make_field("QQ(t);shift")
    L = DifferenceOperator.parse(k, "s - 1")
    AF = additive_torsor_algebra(L, k.element("1/t"))
    tcF = TensorContext(AF)
    alpha = AF.gen(0)
    chiA = make_cocycle(AdditiveKernel(L), tcF, tcF.d1(alpha) - tcF.d2(alpha))
    ga = pushforward_group(chiA, "inclusion", ambient_ga(k))
    assert is_cocycle(ga.group, tcF, ga.value)


def test_product_split_and_merge(gf9):
    G, A, tc, a, b = mu_setup(gf9)
    P = ProductGroup([G, G])
    zs = enumerate_cocycles(G, tc)
    rng = random.Random(12)
    for _ in range(20):
        c1, c2 = rng.choice(zs), rng.choice(zs)
        merged = product_merge(P, [c1, c2])
        s1, s2 = product_split(merged)
        assert s1.value == c1.value and s2.value == c2.value
    t = trivial_cocycle(P, tc)
    parts = product_split(t)
    assert all(not p.value[0][0].is_zero() for p in parts)


@pytest.mark.parametrize("ambient", ["GL1", "Ga"])
def test_product_with_a_factor_without_invariant(gf9, ambient, monkeypatch):
    """GL1 and Ga have no invariant, mu2^sigma has one: a product of them
    is decided factor by factor (a search of the ambient factor's own G(A),
    the invariants for mu2^sigma), with one witness per factor, and agrees
    with a search of the whole product G(A)."""
    from dcoh import cocycles
    from dcoh.cocycles import map_value, values_equal
    from dcoh.groups import contains, group_inv, group_mul
    # the class (1, 2) of y^-1 (x) y is not that of the trivial cocycle
    M, A, tc, a, b = mu_setup(gf9, "1", "2")
    H = ambient_gl(gf9, 1) if ambient == "GL1" else ambient_ga(gf9)
    P = ProductGroup([H, M])
    y = A.basis_element(1)
    unit = y + A.one() * gf9.element("w")
    h_values = [group_identity(H, tc.AA),
                coboundary(H, tc, ((unit,),) if ambient == "GL1" else y).value]
    mu_values = [group_identity(M, tc.AA), tc.pair(y.inverse(), y)]
    chis = [make_cocycle(P, tc, (h, m)) for h in h_values for m in mu_values]
    searched = []

    def enumerate_and_record(G, R, *args, **kwargs):
        searched.append(G)
        return enumerate_points(G, R, *args, **kwargs)

    monkeypatch.setattr(cocycles, "enumerate_points", enumerate_and_record)
    for c1 in chis:
        for c2 in chis:
            res = equivalent(c1, c2)
            assert res.decided
            assert all(G == H for G in searched)
            assert bool(res) == _equiv_by_enumeration(P, tc, c1, c2)
            assert bool(res) == values_equal(M, c1.value[1], c2.value[1])
            if res and not values_equal(P, c1.value, c2.value):
                assert len(res.witness) == 2
                if not values_equal(H, c1.value[0], c2.value[0]):
                    # the ambient factor's witness is its alpha in H(A)
                    alpha = res.witness[0]
                    assert contains(H, alpha, A)
                    moved = group_mul(H, map_value(H, tc.d1, alpha),
                                      group_mul(H, c2.value[0],
                                                group_inv(H, map_value(H, tc.d2, alpha))))
                    assert values_equal(H, c1.value[0], moved)


def test_mu_invariant_examples(gf9):
    G, A, tc, a, b = mu_setup(gf9)
    assert mu_invariant(trivial_cocycle(G, tc)) == (gf9.one(), gf9.one())
    y = A.basis_element(1)
    chi = make_cocycle(G, tc, tc.pair(y, y) * a.inv())
    assert mu_invariant(chi) == (a, b)


def test_mu_invariant_constant_on_classes(gf9):
    G, A, tc, a, b = mu_setup(gf9)
    zs = enumerate_cocycles(G, tc)
    for c1 in zs:
        for c2 in zs:
            if _equiv_by_enumeration(G, tc, c1, c2):
                p1 = mu_invariant(c1)
                p2 = mu_invariant(c2)
                assert mu_pairs_equivalent(gf9, p1, p2)


def test_additive_invariant(shift_field):
    k = shift_field
    L = DifferenceOperator.parse(k, "s^2 - 3*s + 1")
    G = AdditiveKernel(L)
    target = k.element("t+1")
    AF = additive_torsor_algebra(L, target)
    tc = TensorContext(AF)
    assert additive_invariant(trivial_cocycle(G, tc)) == k.zero()
    alpha = AF.gen(0)
    chi = make_cocycle(G, tc, tc.d1(alpha) - tc.d2(alpha))
    assert additive_invariant(chi) == target

    # additivity in chi
    two_chi = Cocycle(G, tc, chi.value + chi.value)
    assert is_cocycle(G, tc, two_chi.value)
    assert additive_invariant(two_chi) == target + target


def test_additive_invariant_findim(gf9):
    # over a finite-dimensional algebra: truncated k[y]/(y^2), sigma(y) = c*y
    from dcoh.algebras import make_truncated_algebra
    c = gf9.element("w")
    A = make_truncated_algebra(gf9, 2, c)
    L = DifferenceOperator(gf9, [-c])  # L = sigma - c kills y
    G = AdditiveKernel(L)
    tc = TensorContext(A)
    y = A.basis_element(1)
    chi = make_cocycle(G, tc, tc.d1(y) - tc.d2(y))
    assert additive_invariant(chi) == gf9.zero()


def _random_invertible(A, n, rng, base="GL"):
    """A random g in GL_n(A) with sigma(g) = g (SL_n(A) with base SL): its
    entries are sigma-orbit sums, so g is a point of the twist with d = 1
    and psi = id."""
    def orbit_sum(x):
        total, y = x, x.sigma()
        while y != x:
            total, y = total + y, y.sigma()
        return total

    while True:
        g = tuple(tuple(orbit_sum(A.from_vector([A.field.random_element(rng)
                                                 for _ in range(A.dim)]))
                        for _ in range(n)) for _ in range(n))
        dinv = mat_det(g).maybe_inverse()
        if dinv is not None:
            break
    return g if base == "GL" else (tuple(e * dinv for e in g[0]),) + g[1:]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("algebra", ["split", "mu", "tensor-square"])
@pytest.mark.parametrize("descriptor", ["GF(3);frob^1", "GF(9);frob^1", "QQ"])
def test_twist_invariant_of_trivial_and_coboundary(descriptor, algebra, n):
    """Over a field H^1(A/k, GL_n) is trivial, so the trivial cocycle and a
    coboundary chi = d1(g) d2(g)^{-1} of the GL_n and SL_n twists (d = 1,
    psi = id) trivialize by descent: the trivializer h has g^{-1} h = c in
    GL_n(k), and the invariant is c^{-1} sigma(c), the target the identity
    torsor translates to."""
    F = make_field(descriptor)
    A = {"split": lambda: make_split_algebra(F, 3, [1, 0, 2]),
         "mu": lambda: make_mu_algebra(F.one(), F.one()),
         "tensor-square": lambda: tensor_square(make_split_algebra(F, 2, [1, 0]))}[algebra]()
    tc = TensorContext(A)
    rng = random.Random(n)
    for base in ("GL", "SL") if n > 1 else ("GL",):
        G = FrobeniusTwist(F, base, n, 1, "id")
        triv = cob = trivial_cocycle(G, tc)
        while cob == triv:
            g = _random_invertible(A, n, rng, base)
            cob = coboundary(G, tc, g)
        for g, chi in ((mat_identity(A, n), triv), (g, cob)):
            t = invariant(chi)
            assert all(isinstance(e, FieldElement) for row in t for e in row)
            assert not mat_det(t).is_zero()
            c = mat_mul(mat_inverse(g), gl_trivialize(tc, chi.value, n))
            c = tuple(tuple(e.scalar_part() for e in row) for row in c)
            assert t == mat_mul(mat_inverse(c), mat_sigma(c))
            assert equivalent(chi, chi)


# --------------------------------------------------------------------------
# the additive invariant read off by the contracting homotopy, against the
# linear solve it replaced


def _additive_invariant_by_solve(G, tc, value):
    """L(alpha) with alpha solved for among the basis of a finite-dimensional
    A, or among the monomials of a free polynomial A up to the degree of
    value: the additive invariant as a linear solve, kept as an oracle."""
    A = tc.A
    zero = A.field.zero()
    if isinstance(A, FinDimAlgebra):
        span = A.generators()
    elif isinstance(A, FreePolyAlgebra):
        degree = max((sum(w) for w in value.data), default=0)
        span = [A.basis_element(w) for w in itertools.product(range(degree + 1), repeat=A.ngens)
                if sum(w) <= degree]
    else:
        raise CocycleError("no finite span to solve over")
    images = [tc.d1(m) - tc.d2(m) for m in span]
    keys = sorted(set(value.data).union(*(img.data for img in images)))
    mat = [[img.data.get(key, zero) for img in images] for key in keys]
    sol = linalg.solve(mat, [value.data.get(key, zero) for key in keys], A.field)
    if sol is None:
        raise CocycleError("additive cocycle failed to trivialize")
    alpha = A.zero()
    for m, c in zip(span, sol):
        alpha = alpha + m * c
    a = G.L.apply(alpha).scalar_part()
    if a is None:
        raise CocycleError("L(alpha) does not land in the base field")
    return a


def _value_or_error(compute):
    try:
        return compute()
    except Exception as e:  # the class is compared, not the message
        return type(e)


P2 = [[1, 1], [1, 2]]
P3 = [[1, 1, 0], [1, 2, 1], [0, 1, 2]]     # both L * U with unit diagonals: det 1


@pytest.mark.parametrize("algebra", ["mu", "split:2", "split:3"])
@pytest.mark.parametrize("descriptor,a,b", ADDITIVE_GRID + [("GF(5);frob^1", "2", "4")])
def test_additive_invariant_read_off_agrees_with_the_solve(descriptor, a, b, algebra):
    """Over every algebra, and over its change_basis image where 1 is no
    basis element, each additive cocycle of L in {s-1, s+1, s^2-1} gets the
    invariant of the solve, and a value that is no coboundary (y(x)y for
    the last basis element y) raises the solve's error class."""
    F = make_field(descriptor)
    base = (make_mu_algebra(F.element(a), F.element(b)) if algebra == "mu"
            else make_split_algebra(F, int(algebra[-1])))
    checked = 0
    for A in (base, change_basis(base, P2 if base.dim == 2 else P3)):
        tc = TensorContext(A)
        y = A.basis_element(A.index_list()[-1])
        for op in ADDITIVE_OPERATORS[:3]:
            G = AdditiveKernel(DifferenceOperator.parse(F, op))
            values = [chi.value for chi in enumerate_cocycles(G, tc, math.inf)]
            for value in values + [tc.pair(y, y)]:
                got = _value_or_error(lambda: G.invariant(tc, value))
                assert got == _value_or_error(lambda: _additive_invariant_by_solve(G, tc, value))
            checked += len(values)
    assert checked > 6


def test_additive_invariant_read_off_over_free_polynomial_algebras(shift_field):
    """Coboundaries 1(x)alpha - alpha(x)1 over the additive torsor algebras
    of QQ(t);shift: the same invariant as the solve, or the same error
    where L(alpha) is no scalar."""
    k = shift_field
    raised = 0
    for op_text, target in (("s - 1", "1/t"), ("s^2 - 3*s + 1", "t+1")):
        L = DifferenceOperator.parse(k, op_text)
        G = AdditiveKernel(L)
        A = additive_torsor_algebra(L, k.element(target))
        tc = TensorContext(A)
        ys = A.generators()
        for alpha in (ys[0], ys[0] + k.element("t"), ys[0] * 2 - k.element("1/t"),
                      ys[0] * ys[0], ys[-1] * k.element("t") + ys[0], ys[0] * ys[-1]):
            value = tc.d1(alpha) - tc.d2(alpha)
            got = _value_or_error(lambda: G.invariant(tc, value))
            assert got == _value_or_error(lambda: _additive_invariant_by_solve(G, tc, value))
            raised += got is CocycleError
    assert 0 < raised < 12


def test_additive_invariant_over_a_laurent_algebra(subst_field):
    """A Laurent algebra has no finite span to solve over; the read-off
    alpha still trivializes its coboundaries, and a value that is no
    coboundary, or whose L(alpha) is no scalar, raises."""
    k = subst_field
    A = LaurentAlgebra(k, 1, [(k.element("t"), (1,))])    # sigma(u) = t*u
    tc = TensorContext(A)
    u = A.gen(0)
    G = AdditiveKernel(DifferenceOperator.parse(k, "s - t"))     # L(u) = 0
    for alpha in (u, u * 3 + k.element("t")):
        assert additive_invariant(make_cocycle(G, tc, tc.d1(alpha) - tc.d2(alpha))) == k.zero()
    for value in (tc.d1(u * u) - tc.d2(u * u), tc.pair(u, u)):
        with pytest.raises(CocycleError):
            G.invariant(tc, value)


def test_sigma_power_pushforward_of_an_additive_cocycle(gf9):
    """pushforward_group(chi, ("sigma_power", d)) moves L's coefficients
    through sigma^d (AdditiveKernel.coefficient_twist), and the class of
    the invariant moves with them: L'(sigma^d(alpha)) = sigma^d(L(alpha)),
    up to L'(k) as alpha is read off up to a scalar."""
    w = gf9.element("w")
    L = DifferenceOperator(gf9, [-w])     # s - w, w not fixed by sigma
    G = AdditiveKernel(L)
    tc = TensorContext(make_split_algebra(gf9, 2, [1, 0]))
    zs = enumerate_cocycles(G, tc)
    assert len(zs) > 1
    for d in (1, 2):
        for chi in zs:
            moved = pushforward_group(chi, ("sigma_power", d))
            assert moved.group == AdditiveKernel(DifferenceOperator(gf9, [-w.sigma(d)]))
            assert moved.value == chi.value.sigma(d)
            assert moved.group.equivalent_targets(invariant(moved), invariant(chi).sigma(d),
                                                  math.inf)


def test_equivalence_search_certifies_a_no():
    """mu2^sigma as a plain MatrixGroup has no invariant, so equivalence
    searches G(A): its answers are those of the torus's invariants, and an
    inequivalent pair gets "exhausted-group-points"."""
    F = make_field("GF(9);frob^1")
    M = mu2sigma_group(F)
    plain = MatrixGroup(F, 1, M.relations)
    tc = TensorContext(make_mu_algebra(F.one(), F.element("2")))
    zs = enumerate_cocycles(M, tc)
    noes = 0
    for c1 in zs:
        for c2 in zs:
            res = equivalent(Cocycle(plain, tc, c1.value), Cocycle(plain, tc, c2.value))
            assert bool(res) == bool(equivalent(c1, c2))
            if not res:
                assert res.certificate == "exhausted-group-points"
                noes += 1
    assert noes
