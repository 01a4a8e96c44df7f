"""Group presentations: membership, the group law, point enumeration."""

import itertools
import math
import random

import pytest

from dcoh.algebras import (FinDimAlgebra, TensorContext, make_mu_algebra, make_split_algebra,
                           scalar_algebra)
from dcoh import linalg
from dcoh.cocycles import _cocycle_identity, enumerate_cocycles
from dcoh.fields import make_field
from dcoh.groups import (AdditiveKernel, BudgetExceeded, CocycleError, DiagonalMult,
                         FrobeniusTwist, GroupError, MatrixGroup, ProductGroup,
                         ScalarTorus, _enumerate_field_matrices, _kernel_points,
                         ambient_ga, ambient_gl, contains,
                         enumerate_points, gl_trivialize, gm_trivialize, group_identity,
                         group_inv, group_mul, kernel_of_sigma_power, mat_det, mat_eq,
                         mat_identity, mat_inverse, mat_mul, mat_sigma, mu2sigma_group,
                         scalar_value)
from dcoh.outcome import InternalError
from dcoh.operators import DifferenceOperator
from dcoh.sigma_poly import SigmaPolynomial, parse_multiplicative


def test_mu2_membership(gf9, QQ):
    G = mu2sigma_group(QQ)
    R = scalar_algebra(QQ)
    assert contains(G, R.one(), R)
    assert contains(G, -R.one(), R)
    assert not contains(G, R.from_scalar(QQ.element(2)), R)

    # over the mu-algebra, y itself is generally not in the group
    a = gf9.element("w")
    A = make_mu_algebra(a, a)
    y = A.basis_element(1)
    G9 = mu2sigma_group(gf9)
    assert not contains(G9, y, A)  # sigma(y) = w*y != y and y^2 = w != 1
    assert contains(G9, A.one(), A)


def test_additive_kernel_membership(gf4):
    L = DifferenceOperator.parse(gf4, "s - 1")
    G = AdditiveKernel(L)
    R = scalar_algebra(gf4)
    assert contains(G, R.one(), R)
    assert not contains(G, R.from_scalar(gf4.element("w")), R)


def test_group_law(gf9):
    G = mu2sigma_group(gf9)
    R = scalar_algebra(gf9)
    pts = enumerate_points(G, R)
    for x in pts:
        assert group_mul(G, x, group_inv(G, x)) == group_identity(G, R)
        for y in pts:
            assert contains(G, group_mul(G, x, y), R)
        assert contains(G, group_inv(G, x), R)

    L = DifferenceOperator.parse(gf9, "s - 1")
    GA = AdditiveKernel(L)
    apts = enumerate_points(GA, R)
    for x in apts:
        assert group_mul(GA, x, group_inv(GA, x)) == R.zero()
        for y in apts:
            assert contains(GA, group_mul(GA, x, y), R)


def test_enumerate_points_examples(gf4):
    g5 = make_field("GF(5);frob^1")
    G = mu2sigma_group(g5)
    R5 = scalar_algebra(g5)
    pts = enumerate_points(G, R5)
    vals = sorted(str(scalar_value(G, p)) for p in pts)
    assert vals == ["1", "4"]

    L = DifferenceOperator.parse(gf4, "s - 1")
    R4 = scalar_algebra(gf4)
    pts4 = enumerate_points(AdditiveKernel(L), R4)
    assert len(pts4) == 2  # the fixed field GF(2)

    one = SigmaPolynomial.constant(gf4, 1, 1)
    y = SigmaPolynomial.variable(gf4, 1, 0)
    trivial = MatrixGroup(gf4, 1, [y - one])
    assert len(enumerate_points(trivial, R4)) == 1


def test_matrix_relations_take_exactly_the_entries(gf4):
    two_vars = SigmaPolynomial.variable(gf4, 2, 1) - SigmaPolynomial.constant(gf4, 2, 1)
    with pytest.raises(GroupError, match="arity"):
        MatrixGroup(gf4, 1, [two_vars])


def test_mu2sigma_relations_come_from_its_torus(gf9, QQ):
    for F in (gf9, QQ):
        G = mu2sigma_group(F)
        y = SigmaPolynomial.variable(F, 1, 0)
        assert G.relations == (y * y - SigmaPolynomial.constant(F, 1, 1), y.shift() - y)
        assert G.torus.functions == (parse_multiplicative("y^2", 1),
                                     parse_multiplicative("s(y)/y", 1))
        assert G.kind == "matrix" and G.torsor_kind == "mu"


@pytest.mark.parametrize("descriptor", ["GF(7);frob^1", "GF(9);frob^1"])
def test_scalar_torus_answers_as_its_torus(descriptor):
    """A rank-one torus that is not mu2^sigma, as a 1 x 1 matrix group:
    membership and every torsor answer are the DiagonalMult's, with the
    1-tuples of its points unwrapped."""
    F = make_field(descriptor)
    T = DiagonalMult(F, 1, [parse_multiplicative("s(y)/y^2", 1)])
    G = ScalarTorus(T)
    y = SigmaPolynomial.variable(F, 1, 0)
    assert G.relations == (y.shift() - y * y,)
    assert G.kind == "matrix" and G.torsor_kind == "diagonal"
    R = scalar_algebra(F)
    for c in F.elements():
        x = R.from_scalar(c)
        assert contains(G, x, R) == contains(T, (x,), R)
    assert G.classify(10 ** 4) == T.classify(10 ** 4)

    def unwrapped(res):
        return (res.status, res.certificate, res.witness[0] if res else res.witness)

    targets = [(c,) for c in F.units()]
    for t1 in targets:
        res = G.rational_point(t1, 10 ** 4)
        assert (res.status, res.certificate, res.witness) == unwrapped(T.rational_point(t1, 10 ** 4))
        assert not res or G.torsor_point(res.witness, t1)
        for t2 in targets:
            res = G.equivalent_targets(t1, t2, 10 ** 4)
            assert (res.status, res.certificate, res.witness) == \
                unwrapped(T.equivalent_targets(t1, t2, 10 ** 4))
            assert not res or G.translate(res.witness, t1) == t2


def test_enumeration_is_audited(gf9):
    G = mu2sigma_group(gf9)
    A = make_mu_algebra(gf9.element("w"), gf9.element("w"))
    pts = enumerate_points(G, A)
    for p in pts:
        assert contains(G, p, A)
    # soundness spot check: nothing outside the list satisfies the relations
    count = sum(1 for x in A.enumerate_elements() if contains(G, x, A))
    assert count == len(pts)


def test_diagonal_membership_order_invariant(gf9):
    f1 = parse_multiplicative("y1^2", 2)
    f2 = parse_multiplicative("s(y2)*y2^-1", 2)
    G1 = DiagonalMult(gf9, 2, [f1, f2])
    G2 = DiagonalMult(gf9, 2, [f2, f1])
    R = scalar_algebra(gf9)
    for g1 in [gf9.one(), -gf9.one()]:
        for g2 in gf9.units():
            x = (R.from_scalar(g1), R.from_scalar(g2))
            assert contains(G1, x, R) == contains(G2, x, R)


def test_kernel_of_sigma_power(gf9):
    N = kernel_of_sigma_power(gf9, "GL", 1, 1)
    R = scalar_algebra(gf9)
    assert contains(N, ((R.one(),),), R)
    N2 = kernel_of_sigma_power(gf9, "SL", 2, 2)
    ident = group_identity(N2, R)
    assert contains(N2, ident, R)
    assert N2.psi == "trivial" and N2.d == 2 and N2.base == "SL"


def test_frobenius_twist_membership(gf9):
    R = scalar_algebra(gf9)
    G = FrobeniusTwist(gf9, "GL", 1, 1, "id")
    # sigma(g) = g picks out the fixed field GF(3)
    pts = enumerate_points(G, R)
    assert len(pts) == 2  # units of GF(3)
    Gt = FrobeniusTwist(gf9, "GL", 1, 1, "transposeinv")
    # sigma(g) = g^{-1}: g^3 = g^{-1}, so g^4 = 1
    ptst = enumerate_points(Gt, R)
    assert len(ptst) == 4


def test_product_group(gf9):
    G = mu2sigma_group(gf9)
    P = ProductGroup([G, G])
    R = scalar_algebra(gf9)
    pts = enumerate_points(P, R)
    single = enumerate_points(G, R)
    assert len(pts) == len(single) ** 2
    x = pts[0]
    assert contains(P, x, R)
    assert group_mul(P, x, group_inv(P, x)) == group_identity(P, R)


def test_budget_guard(gf9):
    A = make_mu_algebra(gf9.element("w"), gf9.element("w"))
    G = FrobeniusTwist(gf9, "GL", 2, 1, "trivial")
    with pytest.raises(BudgetExceeded):
        enumerate_points(G, A, budget=10)


def test_a_budget_refusal_is_no_group_error_and_names_its_space(gf9):
    """A refusal is told apart from a malformed group: catching GroupError
    (as is_cocycle does) must not swallow it."""
    A = make_mu_algebra(gf9.element("w"), gf9.element("w"))
    G = FrobeniusTwist(gf9, "GL", 2, 1, "trivial")
    with pytest.raises(BudgetExceeded, match=f"search space {9 ** 8} exceeds budget 10") as e:
        enumerate_points(G, A, budget=10)
    assert e.value.space == 9 ** 8
    assert not isinstance(e.value, GroupError) and isinstance(e.value, ValueError)


def test_a_product_is_charged_its_whole_space_before_it_is_built():
    """A product's slots are its factors' slots together, and its search is
    charged q^(dim R * slots) before the factors' lists are combined: Ga x
    Ga over GF(3)^2 has 3^4 points, while each factor is charged only 3^2."""
    F = make_field("GF(3);frob^1")
    R = make_split_algebra(F, 2)
    P = ProductGroup([ambient_ga(F)] * 2)
    with pytest.raises(BudgetExceeded) as e:
        enumerate_points(P, R, budget=80)
    assert e.value.space == 81
    assert len(enumerate_points(P, R, budget=81)) == 81
    assert P.slots == 2


# --------------------------------------------------------------------------
# linear-first enumeration against the brute-force filter


def _brute_force_points(G, R):
    """contains() over the whole product R^slots, in itertools.product order."""
    elems = list(R.enumerate_elements())
    if isinstance(G, AdditiveKernel):
        return [x for x in elems if contains(G, x, R)]
    if isinstance(G, DiagonalMult):
        return [x for x in itertools.product(elems, repeat=G.n) if contains(G, x, R)]
    n = G.n
    out = []
    for combo in itertools.product(elems, repeat=n * n):
        m = tuple(combo[i * n:(i + 1) * n] for i in range(n))
        if contains(G, m, R):
            out.append(m)
    return out


def _order_cases(F):
    """Each group kind with a sigma-semilinear relation, the single-slot
    groups without one, and the multi-slot diagonal and GL2 twist, over
    scalar, split and mu algebras and their tensor squares, where the brute
    force takes at most 729 candidates; over larger fields the tensor
    square of the mu algebra gets mu2sigma and s - 1 at full size."""
    diag = lambda n, texts: DiagonalMult(F, n, [parse_multiplicative(t, n) for t in texts])
    s_minus_1 = AdditiveKernel(DifferenceOperator.parse(F, "s - 1"))
    groups = [mu2sigma_group(F), s_minus_1, AdditiveKernel(DifferenceOperator.parse(F, "s^2 + s")),
              diag(1, ("y^2", "s(y)/y")), FrobeniusTwist(F, "GL", 1, 1, "id"),
              FrobeniusTwist(F, "GL", 1, 2, "id"), FrobeniusTwist(F, "GL", 1, 1, "trivial"),
              FrobeniusTwist(F, "GL", 1, 1, "transposeinv"),
              diag(2, ("y1^2", "s(y2)/y2")), FrobeniusTwist(F, "GL", 2, 1, "id")]
    units = list(F.units())
    pairs = [(a, b) for a in units for b in units if a.sigma() == a * b * b]
    a, b = max(pairs, key=lambda ab: ab[0] != ab[1] * ab[1])    # y^2 = a, a not b^2 if any
    mu = make_mu_algebra(a, b)
    for A in (scalar_algebra(F), make_split_algebra(F, 2, [1, 0]), mu):
        for R in (A, TensorContext(A).AA):
            for G in groups:
                slots = 1 if G.kind == "additive" else G.n if G.kind == "diagonal" \
                    else G.n * G.n
                if F.size ** (R.dim * slots) <= 729:
                    yield G, R
    if F.size ** 4 > 729:
        AA = TensorContext(mu).AA
        yield mu2sigma_group(F), AA
        yield s_minus_1, AA


@pytest.mark.parametrize("descriptor", [f"GF({q});frob^{e}" for q in (3, 4, 8, 9)
                                        for e in (1, 2)])
def test_enumerate_points_matches_brute_force_order(descriptor):
    F = make_field(descriptor)
    cases = 0
    for G, R in _order_cases(F):
        expected = _brute_force_points(G, R)
        assert enumerate_points(G, R) == expected, (descriptor, G.kind, R.dim)
        if len(expected) <= 64:
            every_other = expected[::2]
            assert enumerate_points(G, R, keep=lambda x: x in every_other) == every_other
        cases += 1
    assert cases >= 12


def test_budget_charges_the_full_space():
    # s - 1 leaves 3^4 of the 9^4 candidates, yet the charge is 9^4
    gf9 = make_field("GF(9);frob^1")
    w = gf9.element("w")
    AA = TensorContext(make_mu_algebra(w, w)).AA
    G = AdditiveKernel(DifferenceOperator.parse(gf9, "s - 1"))
    with pytest.raises(BudgetExceeded):
        enumerate_points(G, AA, budget=9 ** 4 - 1)
    assert len(enumerate_points(G, AA, budget=9 ** 4)) == 3 ** 4


def test_gl_trivialize_certifies_non_cocycles_and_checks_itself(monkeypatch):
    """A value that is no cocycle has a descent space of the wrong
    dimension, and the message names it; a wrong kernel basis trips the
    self-check.  Both are explicit raises, so they hold under python -O."""
    F = make_field("GF(3);frob^1")
    A = make_mu_algebra(F.one(), F.one())
    tc = TensorContext(A)
    y = A.basis_element(1)
    one, zero = tc.AA.one(), tc.AA.zero()
    with pytest.raises(CocycleError, match="descent space has dimension 1, not 2"):
        gl_trivialize(tc, ((one, zero), (zero, tc.pair(y, A.one()))), 2)
    with pytest.raises(CocycleError, match="descent space has dimension 0, not 1"):
        gm_trivialize(tc, tc.pair(y, A.one()))

    chi = tc.pair(y.inverse(), y)
    assert gm_trivialize(tc, chi) == y
    monkeypatch.setattr(linalg, "kernel_basis", lambda *args, **kw: [[F.one(), F.zero()]])
    with pytest.raises(InternalError, match="fails chi"):
        gm_trivialize(tc, chi)


# --------------------------------------------------------------------------
# membership by its cheapest refutation: same answers as units-first, and
# no inverse inside a membership test


def _head_is_unit(e):
    return e.maybe_inverse() is not None


def _head_contains(G, x, R):
    """contains() as it was with the unit test first, kept as an oracle."""
    if isinstance(G, DiagonalMult):
        if not all(_head_is_unit(e) for e in x):
            return False
        one = R.one()
        return all(f.eval(x) == one for f in G.functions)
    m = G._matrix(x)
    det = mat_det(m)
    if det.maybe_inverse() is None:
        return False
    if G.base == "SL" and det != R.one():
        return False
    return mat_eq(mat_sigma(m, G.d), G.psi_apply(m, R))


def _head_torsor_point(G, x, t, R):
    """torsor_point() as it was with the unit test first, kept as an oracle."""
    if isinstance(G, DiagonalMult):
        if not all(_head_is_unit(e) for e in x):
            return False
        return all(f.eval(x) == R.from_scalar(a) for f, a in zip(G.functions, t))
    m = G._matrix(x)
    det = mat_det(m)
    if not _head_is_unit(det):
        return False
    if G.base == "SL" and det != R.one():
        return False
    target = tuple(tuple(R.from_scalar(e) for e in row) for row in t)
    return mat_eq(mat_sigma(m, G.d), mat_mul(G.psi_apply(m, R), target))


def _membership_cases(F):
    """(G, a torsor target of G) for the diagonal groups and the GL1, GL2
    and SL2 twists with every psi, and the dim-2 algebras over F."""
    units = list(F.units())
    pairs = [(a, b) for a in units for b in units if a.sigma() == a * b * b]
    a, b = max(pairs, key=lambda ab: ab[0] != ab[1] * ab[1])    # y^2 = a, a not b^2 if any
    one, zero = F.one(), F.zero()
    cases = [(DiagonalMult(F, 1, [parse_multiplicative(t, 1) for t in ("y^2", "s(y)/y")]), (a, b)),
             (DiagonalMult(F, 2, [parse_multiplicative(t, 2) for t in ("y1^2", "s(y2)/y2")]),
              (a, b))]
    for base, n in (("GL", 1), ("GL", 2), ("SL", 2)):
        target = ((a,),) if n == 1 else ((zero, one), (-one, one))
        cases += [(FrobeniusTwist(F, base, n, 1, psi), target)
                  for psi in ("trivial", "id", "transposeinv")]
    return cases, [make_mu_algebra(a, b), make_split_algebra(F, 2, [1, 0])]


def _candidates(G, R, entries):
    slots = G.n if G.kind == "diagonal" else G.n * G.n
    for ys in itertools.product(entries, repeat=slots):
        yield G.shape(ys)


@pytest.mark.parametrize("q", [3, 4])
def test_cost_order_keeps_every_membership_answer(q):
    """Relations first and no inverse give the answers of units-first on
    every element of R^slots, and with a nontrivial torsor target: the
    rewrites agree on units, and a non-unit still ends False without
    raising.  The 2 x 2 twists take the entries with coordinates 0 and 1
    (q^8 matrices over R would take minutes); among those, sigma(m) = m
    holds on singular matrices such as the all-ones one."""
    F = make_field(f"GF({q});frob^1")
    groups, algebras = _membership_cases(F)
    for R in algebras:
        elements = list(R.enumerate_elements())
        zero_one = [x for x in elements if all(c.is_one() for c in x.data.values())]
        for G, target in groups:
            entries = zero_one if G.kind == "twist" and G.n == 2 else elements
            accepted = 0
            for x in _candidates(G, R, entries):
                got = contains(G, x, R)
                assert got == _head_contains(G, x, R), (G.kind, x)
                assert G.torsor_point(x, target, R) == _head_torsor_point(G, x, target, R)
                assert got == G.torsor_point(x, _unit_target(G), R), (G.kind, x)
                accepted += got
            assert accepted, (G.kind, q)


def _unit_target(G):
    """The torsor target of G itself: 1 for each torus function, I for a twist."""
    if G.kind == "diagonal":
        return (G.field.one(),) * len(G.functions)
    return mat_identity(G.field, G.n)


@pytest.mark.parametrize("q", [3, 4])
def test_contains_is_the_torsor_equation_at_the_unit_target(q):
    """contains(G, x, R) is torsor_point(x, None, R), and both answer as the
    torsor equation at the explicit unit target, for the additive groups
    (target 0) and mu2^sigma (target (1, 1)) on every element of R."""
    F = make_field(f"GF({q});frob^1")
    _, algebras = _membership_cases(F)
    cases = [(AdditiveKernel(DifferenceOperator.parse(F, op)), F.zero())
             for op in ("s - 1", "s^2 - w" if q == 4 else "s^2 - 2")]
    cases.append((mu2sigma_group(F), (F.one(), F.one())))
    for G, unit in cases:
        answers = set()
        for R in algebras:
            for x in R.enumerate_elements():
                got = contains(G, x, R)
                assert got == G.torsor_point(x, None, R) == G.torsor_point(x, unit, R), (G, x)
                answers.add(got)
        assert answers == {True, False}, G


def _relations_hold(G, x, R):
    """G's equations at x with the unit conditions left out, written out
    here without any inverse."""
    if isinstance(G, MatrixGroup):
        return all(rel.eval(tuple(e for row in G._matrix(x) for e in row)).is_zero()
                   for rel in G.relations)
    if isinstance(G, DiagonalMult):
        def side(f, sign):
            p = R.one()
            for j, alpha in enumerate(f.exps):
                for i, e in enumerate(alpha):
                    if e * sign > 0:
                        p = p * x[i].sigma(j) ** (e * sign)
            return p
        return all(side(f, 1) == side(f, -1) for f in G.functions)
    m = G._matrix(x)
    s = mat_sigma(m, G.d)
    if G.psi == "transposeinv":
        s = mat_mul(tuple(zip(*m)), s)
    holds = mat_eq(s, m if G.psi == "id" else group_identity(G, R))
    return holds and (G.base == "GL" or mat_det(m) == R.one())


def test_membership_never_solves_and_tests_units_only_after_the_relations(monkeypatch):
    """contains and torsor_point take no inverse, and contains pays for a
    unit test only on a candidate that satisfies every relation (det = 1
    included for SL, which makes the unit test needless)."""
    F = make_field("GF(3);frob^1")
    groups, algebras = _membership_cases(F)
    groups.append((mu2sigma_group(F), None))
    calls = {"solve": 0, "unit": 0}

    def counted(name, method):
        def wrapper(self, d):
            calls[name] += 1
            return method(self, d)
        return wrapper

    monkeypatch.setattr(FinDimAlgebra, "_invert_data",
                        counted("solve", FinDimAlgebra._invert_data))
    monkeypatch.setattr(FinDimAlgebra, "_is_unit_data",
                        counted("unit", FinDimAlgebra._is_unit_data))
    unit_tests = 0
    for R in algebras:
        elements = list(R.enumerate_elements())
        zero_one = [x for x in elements if all(c.is_one() for c in x.data.values())]
        for G, target in groups:
            entries = zero_one if G.kind == "twist" and G.n == 2 else elements
            for x in _candidates(G, R, entries):
                calls.update(solve=0, unit=0)
                contains(G, x, R)
                assert calls["solve"] == 0, (G.kind, x)
                if not _relations_hold(G, x, R):
                    assert calls["unit"] == 0, (G.kind, x)
                unit_tests += calls["unit"]
                if target is not None:
                    G.torsor_point(x, target, R)
                    assert calls["solve"] == 0, (G.kind, x)
    assert unit_tests > 0


# --------------------------------------------------------------------------
# mu2^sigma runs as its torus; psi^{-1} is taken directly


@pytest.mark.parametrize("descriptor,a,b", [("GF(3);frob^1", "2", "2"), ("GF(4);frob^1", "w", "w+1"),
                                            ("GF(5);frob^1", "2", "4"), ("GF(7);frob^1", "3", "6"),
                                            ("GF(9);frob^1", "w", "w")])
def test_mu2sigma_contains_as_its_torus_answers_as_its_relations(descriptor, a, b):
    """The torus membership of mu2^sigma against MatrixGroup.contains on its
    relations y^2 - 1, sigma(y) - y, on every element of R: the mu and split
    algebras, and their tensor squares over GF(3) and GF(4)."""
    F = make_field(descriptor)
    G = mu2sigma_group(F)
    algebras = [make_mu_algebra(F.element(a), F.element(b)), make_split_algebra(F, 2, [1, 0])]
    if F.size < 5:
        algebras += [TensorContext(R).AA for R in algebras]
    members = 0
    for R in algebras:
        for x in R.enumerate_elements():
            got = G.contains(x, R)
            assert got == MatrixGroup.contains(G, x, R), (R.dim, x)
            members += got
    assert members > len(algebras)


def _mat_map(func, x):
    return tuple(tuple(func(e) for e in row) for row in x)


def _twists(F):
    return [FrobeniusTwist(F, base, n, d, psi) for base, n in (("GL", 1), ("GL", 2), ("SL", 2))
            for d in (1, 2) for psi in ("trivial", "id", "transposeinv")]


@pytest.mark.parametrize("q", [3, 4])
def test_twist_translate_and_invariant_agree_with_the_inverse_of_psi(q, monkeypatch):
    """translate and invariant take psi(c)^{-1} as 1, c^{-1} or c^T; they
    agree with mat_inverse(psi_apply(c)) on every c of base(k) against a
    spread of targets, and on the trivial cocycle and coboundaries of GL_n
    over the split and mu algebras.  A coboundary of GL_n need not be one
    of G, so the invariant is compared before its entries are read as
    scalars."""
    from dcoh import groups
    monkeypatch.setattr(groups, "_scalar_parts", lambda values, what: list(values))
    F = make_field(f"GF({q});frob^1")
    rng = random.Random(q)
    algebras = [make_split_algebra(F, 2, [1, 0]), make_mu_algebra(F.one(), F.one())]
    for G in _twists(F):
        mats = list(_enumerate_field_matrices(F, G.n, G.base == "SL", math.inf))
        for a in mats[::max(1, len(mats) // 5)]:
            for c in mats:
                assert G.translate(c, a) == mat_mul(mat_mul(mat_inverse(G.psi_apply(c, F)), a),
                                                    mat_sigma(c, G.d))
        for A in algebras:
            tc = TensorContext(A)
            Gl = ambient_gl(F, G.n)
            chis = [group_identity(Gl, tc.AA)]
            while len(chis) < 4:
                g = tuple(tuple(A.from_vector([F.random_element(rng) for _ in range(A.dim)])
                                for _ in range(G.n)) for _ in range(G.n))
                if mat_det(g).is_unit():
                    chis.append(mat_mul(_mat_map(tc.d1, g), mat_inverse(_mat_map(tc.d2, g))))
            for chi in chis:
                h = gl_trivialize(tc, chi, G.n)
                assert G.invariant(tc, chi) == mat_mul(mat_inverse(G.psi_apply(h, A)),
                                                       mat_sigma(h, G.d))


def test_translate_inverts_only_for_psi_id(monkeypatch):
    """psi = 1 and psi = (c^T)^{-1} translate without any matrix inverse
    (the identity's and c^T's inverses were taken, c^T's twice)."""
    from dcoh import groups
    calls = []
    inverse = groups.mat_inverse
    monkeypatch.setattr(groups, "mat_inverse", lambda x: calls.append(x) or inverse(x))
    F = make_field("GF(4);frob^1")
    one, zero, w = F.one(), F.zero(), F.element("w")
    c, a = ((one, w), (zero, one)), ((zero, one), (one, one))
    for psi, inverses in (("trivial", 0), ("transposeinv", 0), ("id", 1)):
        calls.clear()
        assert FrobeniusTwist(F, "GL", 2, 1, psi).translate(c, a) is not None
        assert len(calls) == inverses, psi


def _sorted_exponent_pairs(G):
    """The (i_num, a, i_den, b) of each function sigma^a(y_i) / sigma^b(y_j),
    found by sorting its nonzero exponents: linear_relations as it was
    written, kept as an oracle."""
    pairs = []
    for f in G.functions:
        entries = sorted((e, i, j) for j, alpha in enumerate(f.exps)
                         for i, e in enumerate(alpha) if e)
        if [e for e, _, _ in entries] == [-1, 1]:
            (_, ib, b), (_, ia, a) = entries
            pairs.append((ia, a, ib, b))
    return pairs


def test_diagonal_linear_relations_read_the_numerator_and_denominator(gf9):
    """A function is a linear relation exactly when its numerator and its
    denominator are one factor of exponent 1 each; the relations and their
    order are those of the exponent sort."""
    R = make_split_algebra(gf9, 2, [1, 0])
    rng = random.Random(3)
    ys = tuple(R.from_vector([gf9.random_element(rng) for _ in range(2)]) for _ in range(2))
    texts = ["s(y1)/y2", "y1/s^2(y2)", "y1^2/y2", "s(y1)*y2/y1", "s(y2)/y2", "y1*y2", "y1/y2^2",
             "s(y1)/s(y1)"]
    for chosen in itertools.combinations(texts, 3):
        G = DiagonalMult(gf9, 2, [parse_multiplicative(t, 2) for t in chosen])
        pairs = _sorted_exponent_pairs(G)
        rels = G.linear_relations()
        assert (rels is None) == (not pairs), chosen
        if rels is not None:
            assert rels(ys) == [ys[ia].sigma(a) - ys[ib].sigma(b) for ia, a, ib, b in pairs]


# --------------------------------------------------------------------------
# the torus unit lemma: when f has no denominator and y_i occurs unshifted
# in it, f(x) = a with a a unit makes x_i a unit, so x_i is not unit-tested


def _unit_first_contains(G, x, R):
    """DiagonalMult.contains with every entry unit-tested, kept as an oracle."""
    if not isinstance(x, tuple) or len(x) != G.n or (x and isinstance(x[0], tuple)):
        raise GroupError("shape mismatch for diagonal element")
    sides = (f.split_eval(x) for f in G.functions)
    return all(num == den for num, den in sides) and all(e.is_unit() for e in x)


def _unit_first_torsor_point(G, x, avec, R=None):
    """DiagonalMult.torsor_point with every entry unit-tested, kept as an oracle."""
    if len(x) != G.n:
        raise GroupError("arity mismatch")
    sides = (f.split_eval(x) for f in G.functions)
    return (all(num == den * a for (num, den), a in zip(sides, avec))
            and all(e.is_unit() for e in x))


def _lemma_tori(F):
    """(group, its torus, the slots each function forces): y is forced by
    y^2 (mu2^sigma and diag:1;y^2,s(y)/y), y2 is not by s(y2)/y2, and no
    slot is by a function with a denominator or a shifted numerator only."""
    mu2 = mu2sigma_group(F)
    cases = [(mu2, mu2.torus, [{0}, set()])]
    for n, texts, forcing in ((1, ("y^2", "s(y)/y"), [{0}, set()]),
                              (2, ("y1^2", "s(y2)/y2"), [{0}, set()]),
                              (1, ("s(y)/y",), [set()]), (1, ("s(y)^2",), [set()])):
        T = DiagonalMult(F, n, [parse_multiplicative(t, n) for t in texts])
        cases.append((T, T, forcing))
    return cases


def _tuples(elements, n):
    """Every n-tuple of elements; for n = 2 over a tensor square (more than
    25 elements), every element in each slot against a spread of 8 in the
    other, as all q^8 pairs would take a minute."""
    if n == 1 or len(elements) <= 25:
        return list(itertools.product(elements, repeat=n))
    spread = elements[::len(elements) // 8]
    return sorted(set(itertools.product(elements, spread)) | set(itertools.product(spread, elements)),
                  key=lambda x: (elements.index(x[0]), elements.index(x[1])))


@pytest.mark.parametrize("q", [3, 4, 5])
def test_torus_unit_lemma_keeps_every_membership_answer(q, monkeypatch):
    """contains and torsor_point agree with their unit-first forms on every
    element of the mu and split:2 algebras (and of their tensor squares over
    GF(3) and GF(4)), as members and against every target with entries 0
    and a unit other than 1.  _is_unit_data is never called on a forced
    slot, and once the equations hold it still is on an unforced one, a
    slot whose function has a zero target included."""
    F = make_field(f"GF({q});frob^1")
    units = list(F.units())
    pairs = [(a, b) for a in units for b in units if a.sigma() == a * b * b]
    a, b = max(pairs, key=lambda ab: ab[0] != ab[1] * ab[1])
    algebras = [make_mu_algebra(a, b), make_split_algebra(F, 2)]
    if q < 5:
        algebras += [TensorContext(R).AA for R in algebras]
    scalars = [F.zero(), units[-1]]         # contains is the target (1, ..., 1)
    tested = []
    unit_data = FinDimAlgebra._is_unit_data
    monkeypatch.setattr(FinDimAlgebra, "_is_unit_data",
                        lambda self, d: tested.append(d) or unit_data(self, d))

    def check(T, x, avec, forcing, new, oracle):
        """Compare new() with oracle(), both run at x; return whether new()
        had to unit-test a slot."""
        tested.clear()
        got, slots = new(), [{i for i, e in enumerate(x) if e.data is d} for d in tested]
        expected = oracle()
        sides = (f.split_eval(x) for f in T.functions)
        eqs = all(num == den * t for (num, den), t in zip(sides, avec))
        forced = set().union(*(s for s, t in zip(forcing, avec) if not t.is_zero()))
        unforced = [i for i in range(T.n) if i not in forced]
        assert got == expected, (T.functions, x, avec)
        assert all(s - forced for s in slots), (T.functions, x, avec)
        assert not (eqs and unforced) or (slots and unforced[0] in slots[0]), (T.functions, x, avec)
        return bool(eqs and unforced)

    for G, T, forcing in _lemma_tori(F):
        unit_tests = 0
        targets = list(itertools.product(scalars, repeat=len(T.functions)))
        for R in algebras:
            for x in _tuples(list(R.enumerate_elements()), T.n):
                value = x[0] if G is not T else x
                unit_tests += check(T, x, [F.one()] * len(T.functions), forcing,
                                    lambda: G.contains(value, R),
                                    lambda: _unit_first_contains(T, x, R))
                for avec in targets:
                    unit_tests += check(T, x, avec, forcing,
                                        lambda: G.torsor_point(value, avec, R),
                                        lambda: _unit_first_torsor_point(T, x, avec))
        assert unit_tests, T.functions

    # y + 1 is a nonzero square-zero element when a = 1 in characteristic 2
    if q == 4:
        R = make_mu_algebra(F.one(), F.one())
        x = (R.basis_element(1) + R.one(),)
        T = DiagonalMult(F, 1, [parse_multiplicative("y^2", 1)])
        tested.clear()
        assert T.torsor_point(x, (F.zero(),), R) is False and tested == [x[0].data]
        tested.clear()
        assert T.torsor_point((R.basis_element(1),), (F.one(),), R) is True and tested == []


# --------------------------------------------------------------------------
# the affine coset stream: sigma^d(g) = 1 and the other torsor equations are
# F_p-affine, so only their coset is streamed


def _parent_points(G, R, keep=None):
    """GroupPresentation.points by the walk over all of R^slots, kept as an
    oracle that uses no relations: each tuple is checked by contains() and
    keep, in enumerate_points order."""
    out = []
    for ys in _kernel_points(R, G.slots, None):
        x = G.shape(ys)
        if G.contains(x, R) and (keep is None or keep(x)):
            out.append(x)
    return out


def _h1_groups(F):
    """The groups of the finite-h1 benchmark's Z^1 strata."""
    add = [AdditiveKernel(DifferenceOperator.parse(F, op)) for op in ("s - 1", "s + 1", "s^2 - 1")]
    diag = DiagonalMult(F, 1, [parse_multiplicative(t, 1) for t in ("y^2", "s(y)/y")])
    return [mu2sigma_group(F), *add, diag, FrobeniusTwist(F, "GL", 1, 1, "id"),
            kernel_of_sigma_power(F, "GL", 1, 1)]


def _h1_algebras(F):
    """split:2 with sigma the identity and the swap, and the mu algebras of
    the first pair of M and of one with a not a square of b (if any)."""
    units = list(F.units())
    pairs = [(a, b) for a in units for b in units if a.sigma() == a * b * b]
    mus = {pairs[0], max(pairs, key=lambda ab: ab[0] != ab[1] * ab[1])}
    return [make_split_algebra(F, 2, [0, 1]), make_split_algebra(F, 2, [1, 0])] + \
        [make_mu_algebra(a, b) for a, b in sorted(mus, key=pairs.index)]


@pytest.mark.parametrize("q", [3, 4, 5, 7, 9])
def test_coset_stream_lists_the_parents_points_and_cocycles(q):
    """On every group and algebra kind of the finite-h1 Z^1 strata, G(A) and
    Z^1(A/k, G) are the lists of the walk over all of R^slots, in its order
    (so their first points agree)."""
    F = make_field(f"GF({q});frob^1")
    for A in _h1_algebras(F):
        tc = TensorContext(A)
        for G in _h1_groups(F):
            assert enumerate_points(G, A) == _parent_points(G, A), (q, G.kind, A)
            expected = _parent_points(G, tc.AA, lambda value: _cocycle_identity(G, tc, value))
            assert [c.value for c in enumerate_cocycles(G, tc)] == expected, (q, G.kind, A)


@pytest.mark.parametrize("q", [3, 4])
def test_psi_trivial_z1_streams_one_candidate(q, monkeypatch):
    """sigma(g) = 1 has the one solution g = 1 on A(x)A for A = split:2:
    one candidate is tested where the walk over A(x)A tested q^4."""
    F = make_field(f"GF({q});frob^1")
    tc = TensorContext(make_split_algebra(F, 2, [1, 0]))
    G = kernel_of_sigma_power(F, "GL", 1, 1)
    tested = []
    member = FrobeniusTwist.contains
    monkeypatch.setattr(FrobeniusTwist, "contains",
                        lambda self, x, R: tested.append(x) or member(self, x, R))
    (chi,) = enumerate_cocycles(G, tc)
    assert chi.value == ((tc.AA.one(),),) and tested == [chi.value]


def _zeros(R, slots, rel):
    """The zeros of rel on R^slots by brute force, in enumerate_points order."""
    elems = list(R.enumerate_elements())
    return [ys for ys in itertools.product(elems, repeat=slots)
            if all(z.is_zero() for z in rel(ys))]


def test_coset_stream_is_the_zero_set_of_doctored_relations():
    """_kernel_points streams exactly the zeros of an F_p-affine map, in
    order, for the true relations, a doctored constant, a dropped relation
    and an inconsistent system (which has none)."""
    for F in (make_field("GF(3);frob^1"), make_field("GF(4);frob^1")):
        one, zero, w = F.one(), F.zero(), F.element(2 if F.size == 3 else "w")
        swap = make_split_algebra(F, 2, [1, 0])
        e1, e2 = swap.basis_element(0), swap.basis_element(1)
        AA = TensorContext(swap).AA
        gl2 = FrobeniusTwist(F, "GL", 2, 1, "trivial")
        k = scalar_algebra(F)
        cases = [
            (AA, 1, kernel_of_sigma_power(F, "GL", 1, 1).linear_relations(), 1),
            (AA, 1, lambda ys: [ys[0].sigma() - w - one], 1),                 # doctored constant
            (swap, 1, lambda ys: [ys[0].sigma() - e1], 1),                    # sigma(y) = e1
            (swap, 1, lambda ys: [ys[0].sigma() - ys[0] - e1], 0),            # inconsistent
            (swap, 1, lambda ys: [ys[0] * e1 - e2], 0),                       # inconsistent
            (k, 4, gl2.linear_relations(), 1),
            (k, 4, lambda ys: gl2.linear_relations()(ys)[1:], F.size),        # dropped relation
            (k, 4, gl2.linear_relations(((w, zero), (zero, one))), 1),
        ]
        for R, slots, rel, count in cases:
            got = list(_kernel_points(R, slots, rel))
            assert got == _zeros(R, slots, rel) and len(got) == count, (F, R.dim, slots, count)


def test_linear_relations_vanish_on_the_torsor_points():
    """Each family's relations with a target vanish on every point of its
    torsor over an algebra, and the group's relations are those of the
    torsor whose target is 1."""
    F = make_field("GF(3);frob^1")
    R = make_split_algebra(F, 2, [1, 0])
    one, two, zero = F.one(), F.element(2), F.zero()
    eye = ((one, zero), (zero, one))
    cases = [(AdditiveKernel(DifferenceOperator.parse(F, "s + 1")), two, zero),
             (mu2sigma_group(F), (one, two), (one, one)),
             (DiagonalMult(F, 1, [parse_multiplicative("s(y)/y", 1)]), (two,), (one,)),
             (FrobeniusTwist(F, "GL", 1, 1, "trivial"), ((two,),), ((one,),)),
             (FrobeniusTwist(F, "GL", 1, 1, "id"), ((two,),), ((one,),)),
             (FrobeniusTwist(F, "GL", 2, 1, "trivial"), ((two, one), (zero, one)), eye),
             (FrobeniusTwist(F, "GL", 2, 1, "id"), ((two, zero), (zero, one)), eye)]
    elems = list(R.enumerate_elements())
    for G, target, unit in cases:
        rel = G.linear_relations(target)
        found = 0
        for ys in itertools.product(elems, repeat=G.slots):
            if G.torsor_point(G.point_shape(ys), target, R):
                found += 1
                assert all(z.is_zero() for z in rel(ys)), (G.kind, ys)
        assert found, G.kind
        ys = tuple(elems[5:5 + G.slots])
        assert G.linear_relations(unit)(ys) == G.linear_relations()(ys), G.kind
    assert FrobeniusTwist(F, "GL", 2, 1, "transposeinv").linear_relations(eye) is None
