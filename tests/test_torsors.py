"""Torsors: points, the classification bijection, deciders, delta, audits."""

import random

import pytest

from dcoh import outcome
from dcoh.algebras import TensorContext, make_mu_algebra, make_split_algebra, scalar_algebra
from dcoh.cocycles import enumerate_cocycles, mu_pairs_equivalent
from dcoh.fields import make_field
from dcoh.groups import (AdditiveKernel, DiagonalMult, FrobeniusTwist, GroupError,
                         ProductGroup, _kernel_points, contains, mat_inverse, mat_mul,
                         mat_sigma, mu2sigma_group)
from dcoh.operators import DifferenceOperator
from dcoh.outcome import DEFAULT_BUDGET, charge
from dcoh.sigma_poly import parse_multiplicative
from dcoh.torsors import (AdditiveTorsor, DiagonalTorsor, FrobeniusTwistTorsor,
                          MuTorsor, TorsorError, TwistedForm, classify_h1,
                          cocycle_from_point, connecting_delta,
                          diagonal_constraints, exactness_audit, is_point,
                          isomorphic, mu_pair_space, normalize,
                          additive_torsor_algebra, torsor_from_cocycle,
                          torsor_points)


def test_torsor_points_mu_examples(QQ, gf9):
    # x^2 = 1 with sigma(x) = -x has no rational point: sigma = id forces x = -x
    X = MuTorsor(QQ.one(), QQ.element(-1))
    res = torsor_points(X)
    assert res.status == "no" and res.certificate == "sigma-ratio-mismatch"

    # over QQ(t);shift a square obstruction is certified: a = 2t^2 is no
    # square (leading coefficient 2), and b = (t+1)/t keeps the constraint
    k = make_field("QQ(t);shift")
    X2 = MuTorsor(k.element("2*t^2"), k.element("(t+1)/t"))
    res2 = torsor_points(X2)
    assert res2.status == "no" and res2.certificate == "square-obstruction"

    # solvable: a = c^2, b = sigma(c)/c
    c = k.element("t+2")
    X3 = MuTorsor(c * c, c.sigma() / c)
    res3 = torsor_points(X3)
    assert res3 and is_point(X3, res3.witness)

    # the defining point of the mu-algebra
    a = gf9.element("w")
    A = make_mu_algebra(a, a)
    X9 = MuTorsor(a, a)
    res9 = torsor_points(X9, A)
    assert res9 and is_point(X9, res9.witness, A)


def test_torsor_points_additive(shift_field):
    k = shift_field
    L = DifferenceOperator.parse(k, "s - 1")
    X0 = AdditiveTorsor(L, k.zero())
    res = torsor_points(X0)
    assert res and res.witness == k.zero()
    X1 = AdditiveTorsor(L, k.element("1/t"))
    assert torsor_points(X1).status == "no"
    # over the canonical trivializing algebra the generator is a point
    A = additive_torsor_algebra(L, k.element("1/t"))
    resA = torsor_points(X1, A)
    assert resA and is_point(X1, resA.witness, A)


def test_cocycle_from_point_examples(gf9):
    # a k-rational point gives the trivial cocycle
    c = gf9.element("w+1")
    a, b = c * c, c.sigma() / c
    X = MuTorsor(a, b)
    A = make_mu_algebra(a, b)
    tc = TensorContext(A)
    chi_k = cocycle_from_point(X, A.from_scalar(c), A)
    assert chi_k.value == tc.AA.one()

    # the mu-algebra generator gives chi = a^{-1} (y (x) y)
    y = A.basis_element(1)
    chi = cocycle_from_point(X, y, A)
    assert chi.value == tc.pair(y, y) * a.inv()

    # additive: chi = 1 (x) alpha - alpha (x) 1
    k = make_field("QQ(t);shift")
    L = DifferenceOperator.parse(k, "s - 1")
    a_t = k.element("1/t")
    XA = AdditiveTorsor(L, a_t)
    AF = additive_torsor_algebra(L, a_t)
    tcF = TensorContext(AF)
    alpha = AF.gen(0)
    chiF = cocycle_from_point(XA, alpha, AF)
    assert chiF.value == tcF.d1(alpha) - tcF.d2(alpha)

    with pytest.raises(TorsorError):
        cocycle_from_point(XA, AF.one(), AF)  # not a point


def test_torsor_from_cocycle_round_trip(gf9):
    G = mu2sigma_group(gf9)
    for (a, b) in mu_pair_space(gf9)[:4]:
        A = make_mu_algebra(a, b)
        tc = TensorContext(A)
        for chi in enumerate_cocycles(G, tc):
            X = torsor_from_cocycle(chi)
            back = cocycle_from_point(X, X.canonical_point())
            assert back == chi


def test_twisted_form_round_trip_keeps_its_cocycle(gf9, monkeypatch):
    """The canonical point gives chi back as the same object; another point
    gives a fresh cocycle, still checked by make_cocycle, in chi's class."""
    from dcoh import torsors
    from dcoh.algebras import make_split_algebra
    from dcoh.cocycles import equivalent
    checked = []
    make = torsors.make_cocycle
    monkeypatch.setattr(torsors, "make_cocycle",
                        lambda G, tc, value: checked.append(value) or make(G, tc, value))
    G = mu2sigma_group(gf9)
    tc = TensorContext(make_mu_algebra(gf9.element("w"), gf9.element("w")))
    for chi in enumerate_cocycles(G, tc):
        X = torsor_from_cocycle(chi)
        assert cocycle_from_point(X, X.canonical_point()) is chi
    assert len(checked) == len(enumerate_cocycles(G, tc)) > 1

    F = make_field("GF(3);frob^1")
    G = AdditiveKernel(DifferenceOperator.parse(F, "s - 1"))
    tc = TensorContext(make_split_algebra(F, 2))
    alpha = tc.A.basis_element(0)
    assert G.contains(alpha, tc.A) and tc.d1(alpha) != tc.d2(alpha)
    for chi in enumerate_cocycles(G, tc):
        X = torsor_from_cocycle(chi)
        checked.clear()
        back = cocycle_from_point(X, X.canonical_point() + tc.d2(alpha))
        assert checked == [back.value] and back is not chi and back != chi
        assert equivalent(back, chi)


def test_normalize(gf9):
    G = mu2sigma_group(gf9)
    a = gf9.element("w")
    A = make_mu_algebra(a, a)
    tc = TensorContext(A)
    y = A.basis_element(1)
    from dcoh.cocycles import make_cocycle, trivial_cocycle
    nf0 = normalize(torsor_from_cocycle(trivial_cocycle(G, tc)))
    assert (nf0.a, nf0.b) == (gf9.one(), gf9.one())

    chi = make_cocycle(G, tc, tc.pair(y.inverse(), y))
    nf = normalize(torsor_from_cocycle(chi))
    assert isinstance(nf, MuTorsor)
    assert mu_pairs_equivalent(gf9, (nf.a, nf.b), (a, a))
    assert isomorphic(nf, MuTorsor(a, a))

    # additive normal form
    k = make_field("QQ(t);shift")
    L = DifferenceOperator.parse(k, "s - 1")
    a_t = k.element("1/t")
    AF = additive_torsor_algebra(L, a_t)
    tcF = TensorContext(AF)
    alpha = AF.gen(0)
    chiF = cocycle_from_point(AdditiveTorsor(L, a_t), alpha, AF)
    nfF = normalize(torsor_from_cocycle(chiF))
    assert isinstance(nfF, AdditiveTorsor)
    assert isomorphic(nfF, AdditiveTorsor(L, a_t))


def test_normalize_twist(gf9):
    """A hand-built cocycle for {sigma(g) = g}: chi = y^{-1} (x) y over mu(2,1)."""
    from dcoh.cocycles import make_cocycle

    a, b = gf9.element(2), gf9.one()
    A = make_mu_algebra(a, b)
    tc = TensorContext(A)
    y = A.basis_element(1)
    G = FrobeniusTwist(gf9, "GL", 1, 1, "id")
    chi = make_cocycle(G, tc, ((tc.pair(y.inverse(), y),),))
    nf = normalize(torsor_from_cocycle(chi))
    assert isinstance(nf, FrobeniusTwistTorsor)
    # the trivializer is h = y with psi(h)^{-1} sigma(h) = y^{-1} * 1 * y = 1
    assert nf.a == ((gf9.one(),),)


def test_normalize_diagonal_cross_family(gf9):
    fs = [parse_multiplicative("y^2", 1), parse_multiplicative("s(y)/y", 1)]
    a, b = gf9.element("w"), gf9.element("w")
    X = DiagonalTorsor(fs, (a, b))
    A = make_mu_algebra(a, b)
    y = A.basis_element(1)
    chi = cocycle_from_point(X, (y,), A)
    nf = normalize(torsor_from_cocycle(chi))
    assert isinstance(nf, DiagonalTorsor)
    res = isomorphic(nf, X)
    assert res


def test_mu_canonical_point_over_infinite_field():
    k = make_field("QQ(t);shift")
    c = k.element("t+1")
    a, b = c * c, c.sigma() / c
    X = MuTorsor(a, b)
    A = make_mu_algebra(a, b)
    res = torsor_points(X, A)
    assert res and is_point(X, res.witness, A)


def test_isomorphic_mu(gf9):
    # x -> lambda*x is an isomorphism X_{a,b} -> X_{lambda^2 a, sigma(l)/l b}
    a, b = gf9.element("w"), gf9.element("w")
    lam = gf9.element("w+1")
    X = MuTorsor(a, b)
    Y = MuTorsor(lam * lam * a, lam.sigma() / lam * b)
    res = isomorphic(X, Y)
    assert res
    w = res.witness
    assert Y.a == w * w * X.a and Y.b == w.sigma() / w * X.b
    assert isomorphic(X, X).witness == gf9.one()


def test_isomorphic_mu_char_zero(shift_field):
    k = shift_field
    c = k.element("t")
    X = MuTorsor(k.one(), k.one())
    Y = MuTorsor(c * c, c.sigma() / c)
    res = isomorphic(X, Y)
    assert res and res.witness == c
    # a non-square ratio is certified
    Z = MuTorsor(k.element("2*t^2"), k.element("(t+1)/t"))
    res2 = isomorphic(X, Z)
    assert res2.status == "no" and res2.certificate == "ratio-not-a-square"
    # square ratio but wrong sigma twist
    W = MuTorsor(c * c, -(c.sigma() / c))
    res3 = isomorphic(X, W)
    assert res3.status == "no" and res3.certificate == "sigma-ratio-mismatch"


def test_isomorphic_additive(shift_field):
    k = shift_field
    L = DifferenceOperator.parse(k, "s - 1")
    X0 = AdditiveTorsor(L, k.zero())
    X1 = AdditiveTorsor(L, k.element("1/t"))
    res = isomorphic(X0, X1)
    assert res.status == "no"
    X2 = AdditiveTorsor(L, k.element("1/(t*(t+1))"))
    res2 = isomorphic(X0, X2)
    assert res2
    assert L.apply(res2.witness) == X2.a - X0.a


def test_isomorphism_witnesses_compose(gf9):
    space = mu_pair_space(gf9)
    X = MuTorsor(*space[0])
    for p in space[1:6]:
        Y = MuTorsor(*p)
        r1 = isomorphic(X, Y)
        if not r1:
            continue
        for q in space[6:10]:
            Z = MuTorsor(*q)
            r2 = isomorphic(Y, Z)
            if r2:
                lam = r1.witness * r2.witness
                assert Z.a == lam * lam * X.a
                assert Z.b == lam.sigma() / lam * X.b


def test_classify_mu2_gf9(gf9):
    G = mu2sigma_group(gf9)
    rep = classify_h1(G)
    assert rep.count == 4
    # independent brute-force orbit enumeration
    space = mu_pair_space(gf9)
    assert len(space) == 16
    units = list(gf9.units())
    orbits = []
    seen = set()
    for pair in space:
        if pair in seen:
            continue
        orbit = {(l * l * pair[0], l.sigma() / l * pair[1]) for l in units}
        seen |= orbit
        orbits.append(orbit)
    assert len(orbits) == rep.count
    # representatives are pairwise non-isomorphic
    reps = rep.representatives
    for i, p in enumerate(reps):
        for q in reps[i + 1:]:
            assert not isomorphic(MuTorsor(*p), MuTorsor(*q))


@pytest.mark.parametrize("desc", ["GF(5);frob^1", "GF(7);frob^1",
                                  "GF(25);frob^1"])
def test_classify_mu2_other_fields(desc):
    field = make_field(desc)
    rep = classify_h1(mu2sigma_group(field))
    space = mu_pair_space(field)
    units = list(field.units())
    seen, count = set(), 0
    for pair in space:
        if pair in seen:
            continue
        orbit = {(l * l * pair[0], l.sigma() / l * pair[1]) for l in units}
        seen |= orbit
        count += 1
    assert rep.count == count == 4


def test_classify_twist_nontrivial_psi_burnside(gf4):
    """Translation-orbit count for the unitary twist over GF(4), checked
    against Burnside's lemma for the same action."""
    from dcoh.groups import mat_eq, mat_inverse, mat_mul, mat_sigma
    from dcoh.torsors import _enumerate_field_matrices

    G = FrobeniusTwist(gf4, "SL", 2, 1, "transposeinv")
    rep = classify_h1(G, budget=10 ** 7)
    mats = list(_enumerate_field_matrices(gf4, 2, True, 10 ** 6))
    fixed_total = 0
    for c in mats:
        pre = mat_inverse(G.psi_apply(c, gf4))
        post = mat_sigma(c, 1)
        fixed_total += sum(1 for m in mats
                           if mat_eq(mat_mul(mat_mul(pre, m), post), m))
    assert fixed_total % len(mats) == 0
    assert rep.count == fixed_total // len(mats)


def test_classify_additive(gf4):
    L = DifferenceOperator.parse(gf4, "s - 1")
    rep = classify_h1(AdditiveKernel(L))
    assert rep.count == 2


def test_classify_product(gf9):
    G = mu2sigma_group(gf9)
    P = ProductGroup([G, G])
    rep = classify_h1(P)
    assert rep.count == 16


def test_classify_twist_trivial_psi(gf9, shift_field):
    for field in (gf9, shift_field):
        G = FrobeniusTwist(field, "GL", 1, 1, "trivial")
        rep = classify_h1(G)
        assert rep.count == 1
        G2 = FrobeniusTwist(field, "SL", 2, 2, "trivial")
        assert classify_h1(G2).count == 1


def test_classify_twist_psi_id_finite(gf9):
    # sigma(c)/c over GF(9) is the squares, so GL_1 with psi = id has 2 classes
    G = FrobeniusTwist(gf9, "GL", 1, 1, "id")
    rep = classify_h1(G)
    quotients = {(c.sigma() / c) for c in gf9.units()}
    assert rep.count == (gf9.size - 1) // len(quotients)


def test_diagonal_family_matches_mu(gf9):
    fs = [parse_multiplicative("y^2", 1), parse_multiplicative("s(y)/y", 1)]
    G = DiagonalMult(gf9, 1, fs)
    rep = classify_h1(G)
    mu_rep = classify_h1(mu2sigma_group(gf9))
    assert rep.count == mu_rep.count == 4
    # per-pair agreement between the diagonal decider and the mu decider
    space = mu_pair_space(gf9)
    for p in space[:6]:
        for q in space[:6]:
            d1 = isomorphic(DiagonalTorsor(fs, p), DiagonalTorsor(fs, q))
            d2 = isomorphic(MuTorsor(*p), MuTorsor(*q))
            assert bool(d1) == bool(d2)


def test_diagonal_rank_two_consistency(gf9):
    # {(g1,g2): g1*g2 = 1} is isomorphic to Gm, so one class
    G = DiagonalMult(gf9, 2, [parse_multiplicative("y1*y2", 2)])
    assert classify_h1(G).count == 1
    # mu2 x mu2 written diagonally matches the product classification
    fs = [parse_multiplicative(t, 2)
          for t in ("y1^2", "s(y1)/y1", "y2^2", "s(y2)/y2")]
    assert classify_h1(DiagonalMult(gf9, 2, fs)).count == 16


def test_diagonal_constraints_syzygy(gf9):
    fs = [parse_multiplicative("y^2", 1), parse_multiplicative("s(y)/y", 1)]
    G = DiagonalMult(gf9, 1, fs)
    cons = diagonal_constraints(G)
    assert cons  # the syzygy sigma(a1) = a1 * a2^2 must be found
    space = [(a, b) for a in gf9.units() for b in gf9.units()
             if a.sigma() == a * b * b]
    from dcoh.torsors import _satisfies_constraints
    matches = [(a, b) for a in gf9.units() for b in gf9.units()
               if _satisfies_constraints((a, b), cons)]
    assert set(matches) == set(space)


def test_twist_torsor_points(gf9, shift_field, subst_field):
    rng = random.Random(77)
    # finite field: all psi specs, both bases
    for psi in ("trivial", "id", "transposeinv"):
        x0 = ((gf9.element("w"),),)
        G = FrobeniusTwist(gf9, "GL", 1, 1, psi)
        a = (G.psi_apply(x0, gf9)[0][0].inv() * x0[0][0].sigma(1),)
        X = FrobeniusTwistTorsor(gf9, "GL", 1, 1, psi, ((a[0],),))
        res = torsor_points(X)
        assert res and is_point(X, res.witness)

    # shift field, trivial psi: explicit sigma preimage, including SL2
    mat = ((shift_field.element("t"), shift_field.element("1")),
           (shift_field.element("t^2+t-1"), shift_field.element("t+1")))
    from dcoh.groups import mat_det
    assert mat_det(mat) == shift_field.one()
    Xs = FrobeniusTwistTorsor(shift_field, "SL", 2, 1, "trivial", mat)
    res = torsor_points(Xs)
    assert res and is_point(Xs, res.witness)

    # shift field, psi = id on GL_1 via the multiplicative solver
    x0 = shift_field.element("(t+1)/(t-1)")
    a = x0.sigma() / x0
    Xq = FrobeniusTwistTorsor(shift_field, "GL", 1, 1, "id", ((a,),))
    res = torsor_points(Xq)
    assert res and is_point(Xq, res.witness)

    # subst field: nonexistence certified by the parity obstruction
    Xn = FrobeniusTwistTorsor(subst_field, "GL", 1, 1, "trivial",
                              ((subst_field.element("t"),),))
    res = torsor_points(Xn)
    assert res.status == "no" and res.certificate == "sigma-image-obstruction"


def test_twist_isomorphic(gf9, shift_field):
    # trivial psi over an inversive field: always isomorphic
    X = FrobeniusTwistTorsor(shift_field, "GL", 1, 2, "trivial",
                             ((shift_field.element("t^2+1"),),))
    Y = FrobeniusTwistTorsor(shift_field, "GL", 1, 2, "trivial",
                             ((shift_field.one(),),))
    assert isomorphic(X, Y)

    # psi = id over GF(9): orbit criterion
    G_args = (gf9, "GL", 1, 1, "id")
    Xa = FrobeniusTwistTorsor(*G_args, ((gf9.element("w"),),))
    Xb = FrobeniusTwistTorsor(*G_args, ((gf9.element("w^3"),),))
    ra = isomorphic(Xa, Xb)
    # w^3 / w = w^2 = sigma(w)/w, so the translation c = w works
    assert ra


def test_connecting_delta(gf9, subst_field, shift_field):
    # x in sigma(k^x) on an inversive field: trivial with an explicit witness
    d = connecting_delta(shift_field, 1, shift_field.element("t^2"))
    assert d.trivial
    assert d.trivial.witness.sigma() == shift_field.element("t^2")
    assert d.cocycle.value[0][0] == d.cocycle.context.AA.one()

    # x = 1: the cocycle is literally 1
    d1 = connecting_delta(gf9, 2, gf9.one())
    assert d1.trivial and d1.cocycle.value[0][0] == d1.cocycle.context.AA.one()

    # nontrivial class over the substitution field, with parity certificate
    dn = connecting_delta(subst_field, 1, subst_field.element("t"))
    assert dn.trivial.status == "no"
    assert dn.trivial.detail.get("obstruction") == "parity"
    assert dn.cocycle.value[0][0] != dn.cocycle.context.AA.one()

    # d = 2 chain over the substitution field
    d2 = connecting_delta(subst_field, 2, subst_field.element("t^4"))
    assert d2.trivial and d2.trivial.witness == subst_field.element("t")


def test_delta_matches_sigma_image(gf9, subst_field):
    from dcoh.fields import in_sigma_image
    for x in list(gf9.units())[:10]:
        res = connecting_delta(gf9, 1, x)
        assert bool(res.trivial) == (in_sigma_image(x) is not None)
    rng = random.Random(5)
    for _ in range(5):
        y = subst_field.random_element(rng)
        if y.is_zero():
            continue
        x = y.sigma()
        assert connecting_delta(subst_field, 1, x).trivial


def test_additive_twisted_form_round_trip(shift_field):
    k = shift_field
    L = DifferenceOperator.parse(k, "s - 1")
    a = k.element("1/t")
    A = additive_torsor_algebra(L, a)
    alpha = A.gen(0)
    chi = cocycle_from_point(AdditiveTorsor(L, a), alpha, A)
    X = torsor_from_cocycle(chi)
    back = cocycle_from_point(X, X.canonical_point())
    assert back == chi


def test_laurent_twisted_form_round_trip(subst_field):
    d = connecting_delta(subst_field, 1, subst_field.element("t"))
    X = torsor_from_cocycle(d.cocycle)
    back = cocycle_from_point(X, X.canonical_point())
    assert back == d.cocycle


def test_classification_higher_frobenius():
    # sigma = frob^2 on GF(16): the kernel of sigma - 1 is GF(4)
    g16 = make_field("GF(2^4);frob^2")
    L = DifferenceOperator.parse(g16, "s - 1")
    from dcoh.operators import classify_additive_h1
    h1 = classify_additive_h1(L)
    kernel = [x for x in g16.elements() if L.apply(x).is_zero()]
    image = {L.apply(x) for x in g16.elements()}
    assert len(kernel) == 4
    assert h1.size == g16.size // len(image) == 4
    assert exactness_audit(g16, 1).ok


def test_exactness_audit(gf4, gf9):
    for field, d in [(gf4, 1), (gf4, 2), (gf9, 1), (gf9, 2)]:
        rep = exactness_audit(field, d)
        assert rep.ok, (field.descriptor, d)
        assert rep.image_size == field.size - 1  # sigma is onto the units


def test_exactness_audit_kernel_check_can_fail(gf9, monkeypatch):
    """Negative control: a membership test that drops one point of N(k)
    must make kernel_matches false."""
    from dcoh import torsors

    one = gf9.one()
    real = torsors.contains

    def drops_one(G, x, R):
        if x == ((one,),):
            return False
        return real(G, x, R)

    assert exactness_audit(gf9, 2).kernel_matches
    monkeypatch.setattr(torsors, "contains", drops_one)
    rep = exactness_audit(gf9, 2)
    assert not rep.kernel_matches and not rep.ok


# --------------------------------------------------------------------------
# twisted forms over their own and a foreign algebra; the oracle branches


def test_twisted_form_points_over_its_own_and_a_foreign_algebra(gf9):
    """torsor_points of a twisted form is its canonical point chi^{-1} over
    its own algebra (or with none named), undecided over another one."""
    A = make_mu_algebra(gf9.element("w"), gf9.element("w"))
    G = mu2sigma_group(gf9)
    tc = TensorContext(A)
    for chi in enumerate_cocycles(G, tc):
        X = torsor_from_cocycle(chi)
        for R in (A, None):
            res = torsor_points(X, R)
            assert res and res.witness == X.canonical_point() and is_point(X, res.witness)
        res = torsor_points(X, make_mu_algebra(gf9.one(), gf9.element("2")))
        assert (res.status, res.certificate) == ("undecided", "twisted-form-over-foreign-algebra")


def test_isomorphic_twisted_forms_over_one_algebra(gf9):
    """Two twisted forms over one algebra are decided by the equivalence
    of their cocycles, with its witness."""
    from dcoh.cocycles import equivalent
    A = make_mu_algebra(gf9.one(), gf9.element("2"))
    zs = enumerate_cocycles(mu2sigma_group(gf9), TensorContext(A))
    answers = set()
    for c1 in zs:
        for c2 in zs:
            res = isomorphic(torsor_from_cocycle(c1), torsor_from_cocycle(c2))
            assert res == equivalent(c1, c2)
            answers.add(res.status)
    assert answers == {"yes", "no"}


def test_oracle_branches_over_infinite_fields(shift_field, subst_field):
    """Over an infinite field a torus that is not mu-shaped, and the twists
    with psi != 1, are classified by an oracle report; their pairwise and
    point questions answer undecided unless c = 1 settles them."""
    k = shift_field
    t = k.element("t")
    torus = DiagonalMult(k, 1, [parse_multiplicative("s(y)/y^2", 1)])
    assert classify_h1(torus).kind == "oracle"
    assert classify_h1(mu2sigma_group(k)).note.startswith("normal form x^2=a")
    assert torus.equivalent_targets((t,), (t + 1,), 10).certificate == \
        "diagonal-equivalence-undecided"
    assert torus.rational_point((t,), 10).certificate == \
        "diagonal-points-undecided-over-infinite-field"
    assert classify_h1(FrobeniusTwist(k, "GL", 2, 1, "trivial")).count == 1
    assert classify_h1(FrobeniusTwist(subst_field, "GL", 1, 1, "trivial")).kind == "oracle"
    one, zero = k.one(), k.zero()
    a1, a2 = ((one, t), (zero, one)), ((one, zero), (t, one))
    for psi in ("id", "transposeinv"):
        G = FrobeniusTwist(k, "GL", 2, 1, psi)
        assert classify_h1(G).note == "decide via isomorphic"
        res = G.equivalent_targets(a1, a2, 10)
        assert (res.status, res.certificate, res.detail) == (
            "undecided", "twist-translation-undecided", {"psi": psi})
        assert G.equivalent_targets(a1, a1, 10).witness == ((one, zero), (zero, one))
        res = torsor_points(FrobeniusTwistTorsor(k, "GL", 2, 1, psi, a1))
        assert (res.status, res.certificate) == ("undecided", "twist-points-undecided")


def test_infinite_field_torus_answers_yes_when_lambda_one_settles_it(shift_field, gf9):
    """Over QQ(t) a torus that is not mu-shaped has no search, but
    lambda = (1, ..., 1) carries a target onto itself, and (1, ..., 1) is a
    point of the torsor of the all-ones target.  Over GF(9) the budget still
    refuses the search first."""
    k = shift_field
    t, one = k.element("t"), k.one()
    f = parse_multiplicative("s(y)/y^2", 1)
    torus = DiagonalMult(k, 1, [f])
    assert torus.equivalent_targets((t,), (t,), 10).witness == (one,)
    assert torus.rational_point((one,), 10).witness == (one,)
    X = DiagonalTorsor([f], [t])
    assert isomorphic(X, X).status == "yes"
    assert torsor_points(DiagonalTorsor([f], [one])).witness == (one,)
    pair = DiagonalMult(gf9, 2, [parse_multiplicative("y1^2", 2), parse_multiplicative("y2^2", 2)])
    ones = (gf9.one(), gf9.one())
    assert pair.rational_point(ones, 10).certificate == "budget-exhausted"
    assert pair.equivalent_targets(ones, ones, 10).certificate == "budget-exhausted"


def test_twist_orbit_refusal_falls_back_to_the_oracle():
    """GL2(GF(3)) has 81 candidate matrices and 48 points: a budget of 100
    lists them but refuses the 48^2 translates of the orbit check."""
    F = make_field("GF(3);frob^1")
    G = FrobeniusTwist(F, "GL", 2, 1, "id")
    rep = classify_h1(G, 100)
    assert (rep.kind, rep.note) == ("oracle", "orbit enumeration exceeds budget")
    assert classify_h1(G, 48 ** 2).kind == "finite-list"


def test_product_classify_with_a_factor_without_listing(gf9, shift_field):
    """A factor with an oracle report makes the product's report an oracle
    one; a factor with no classification at all leaves the product
    unclassified."""
    L = DifferenceOperator.parse(shift_field, "s - 1")
    rep = classify_h1(ProductGroup([mu2sigma_group(shift_field), AdditiveKernel(L)]))
    assert (rep.kind, rep.note) == ("oracle", "some factor lacks a finite listing")
    with pytest.raises(TorsorError):
        classify_h1(ProductGroup([mu2sigma_group(gf9), AdditiveKernel(None, field=gf9)]))
    rep = classify_h1(ProductGroup([mu2sigma_group(gf9), mu2sigma_group(gf9)]))
    assert rep.kind == "finite-list" and rep.count == 16


# --------------------------------------------------------------------------
# the round trip at the cost of its proof: what the lemmas leave out is
# implied, and every check the input could break still raises


def _round_trip_cases():
    """(G, tc) with canonical points that are not their own inverse:
    ker(s - 1) on GF(3)^2, GL1 with psi = id and the torus s(y)/y on GF(4)^2
    with sigma swapping the factors."""
    F3, F4 = make_field("GF(3);frob^1"), make_field("GF(4);frob^1")
    from dcoh.algebras import make_split_algebra
    return [(AdditiveKernel(DifferenceOperator.parse(F3, "s - 1")),
             TensorContext(make_split_algebra(F3, 2))),
            (FrobeniusTwist(F4, "GL", 1, 1, "id"), TensorContext(make_split_algebra(F4, 2, [1, 0]))),
            (DiagonalMult(F4, 1, [parse_multiplicative("s(y)/y", 1)]),
             TensorContext(make_split_algebra(F4, 2, [1, 0])))]


def test_round_trip_checks_what_the_input_can_break(monkeypatch):
    """A non-cocycle in a bare Cocycle, a z that is not a point, a wrong
    G.inv and a wrong untensor_third each raise, by explicit raises that
    python -O keeps."""
    from dcoh.cocycles import Cocycle
    from dcoh.groups import CocycleError, enumerate_points
    moved = outside = 0
    for G, tc in _round_trip_cases():
        z1 = enumerate_cocycles(G, tc)
        members = enumerate_points(G, tc.AA)
        non_cocycles = [v for v in members if not any(G.equal(v, c.value) for c in z1)]
        assert non_cocycles and len(z1) > 1
        non_members = [G.shape((v,)) for v in tc.AA.enumerate_elements()
                       if not G.contains(G.shape((v,)), tc.AA)][:1]
        outside += len(non_members)
        for value in non_cocycles + non_members:
            with pytest.raises(TorsorError, match="not a cocycle"):
                torsor_from_cocycle(Cocycle(G, tc, value))
        for chi in z1:
            X = torsor_from_cocycle(chi)
            for z in members:
                if not X.is_point(z):
                    with pytest.raises(TorsorError, match="not a point"):
                        cocycle_from_point(X, z)
            z = X.canonical_point()
            if G.equal(G.inv(z), z):
                continue
            moved += 1
            with monkeypatch.context() as m:
                m.setattr(G, "inv", lambda x: x)
                with pytest.raises((TorsorError, CocycleError)):
                    cocycle_from_point(X, z)
                with pytest.raises(TorsorError, match="not a point"):
                    cocycle_from_point(X, X.canonical_point())
        untensor = TensorContext.untensor_third
        with monkeypatch.context() as m:
            m.setattr(TensorContext, "untensor_third",
                      lambda self, w: untensor(self, w) + self.AA.one())
            for chi in z1:
                X = torsor_from_cocycle(chi)
                with pytest.raises(TorsorError, match="uniqueness solve failed"):
                    cocycle_from_point(X, X.canonical_point())
    assert moved >= 3 and outside


def test_torsor_from_cocycle_rechecks_only_a_bare_cocycle(monkeypatch):
    """A cocycle from enumerate_cocycles gets its twisted form with neither
    is_cocycle nor TwistedForm.is_point; a bare Cocycle of the same value
    is checked by is_cocycle once.  The round trip then tests the point
    once and keeps chi."""
    from dcoh import torsors
    from dcoh.cocycles import Cocycle
    calls = {"is_cocycle": 0, "is_point": 0}
    is_cocycle, is_point_ = torsors.is_cocycle, TwistedForm.is_point

    def count_cocycle(*args):
        calls["is_cocycle"] += 1
        return is_cocycle(*args)

    def count_point(self, *args):
        calls["is_point"] += 1
        return is_point_(self, *args)

    monkeypatch.setattr(torsors, "is_cocycle", count_cocycle)
    monkeypatch.setattr(TwistedForm, "is_point", count_point)
    for G, tc in _round_trip_cases():
        for chi in enumerate_cocycles(G, tc):
            calls.update(is_cocycle=0, is_point=0)
            X = torsor_from_cocycle(chi)
            assert calls == {"is_cocycle": 0, "is_point": 0}
            assert cocycle_from_point(X, X.canonical_point()) is chi
            assert calls == {"is_cocycle": 0, "is_point": 1}
            calls.update(is_cocycle=0, is_point=0)
            X = torsor_from_cocycle(Cocycle(G, tc, chi.value))
            assert calls == {"is_cocycle": 1, "is_point": 0}


def test_twisted_form_points_test_only_an_unchecked_chi(monkeypatch):
    """torsor_points of a twisted form answers chi^{-1} without a membership
    test when chi is checked, tests it once when chi is a bare Cocycle, and
    raises when a bare Cocycle is no cocycle."""
    from dcoh.cocycles import Cocycle
    from dcoh.groups import enumerate_points
    calls = {"is_point": 0}
    is_point_ = TwistedForm.is_point

    def count_point(self, *args):
        calls["is_point"] += 1
        return is_point_(self, *args)

    monkeypatch.setattr(TwistedForm, "is_point", count_point)
    for G, tc in _round_trip_cases():
        z1 = enumerate_cocycles(G, tc)
        for chi in z1:
            X = torsor_from_cocycle(chi)
            calls["is_point"] = 0
            res = torsor_points(X)
            assert res and G.equal(res.witness, G.inv(chi.value))
            assert calls["is_point"] == 0
            bare = TwistedForm(Cocycle(G, tc, chi.value))
            res = torsor_points(bare)
            assert res and G.equal(res.witness, G.inv(chi.value))
            assert calls["is_point"] == 1
        non_cocycles = [v for v in enumerate_points(G, tc.AA)
                        if not any(G.equal(v, c.value) for c in z1)]
        for v in non_cocycles[:5]:
            with pytest.raises(TorsorError, match="not a cocycle"):
                torsor_points(TwistedForm(Cocycle(G, tc, v)))


# --------------------------------------------------------------------------
# torsor points over a finite algebra stream the coset of the torsor's own
# affine equations


def _parent_points_over_algebra(X, R, budget=DEFAULT_BUDGET):
    """torsors._points_over_algebra as it was over a finite field and a
    finite-dimensional R, walking all of R^slots, kept as an oracle."""
    G = X.presentation
    charge(X.field.size ** (R.dim * G.slots), budget)
    return outcome.first(map(G.point_shape, _kernel_points(R, G.slots, None)),
                         lambda x: is_point(X, x, R), "exhausted-algebra")


def _affine_torsors(F):
    """mu, additive, torus and twist torsors (psi trivial and id) of F."""
    units = list(F.units())
    pairs = [(a, b) for a in units for b in units if a.sigma() == a * b * b]
    mu_fs = [parse_multiplicative(t, 1) for t in ("y^2", "s(y)/y")]
    out = [MuTorsor(a, b) for a, b in pairs]
    for op in ("s - 1", "s + 1", "s^2 - 1"):
        L = DifferenceOperator.parse(F, op)
        out += [AdditiveTorsor(L, a) for a in (F.zero(), F.one(), units[-1])]
    out += [DiagonalTorsor(mu_fs, pair) for pair in pairs[:3]]
    out += [DiagonalTorsor([parse_multiplicative("s(y)/y", 1)], (c,)) for c in units[:3]]
    out += [DiagonalTorsor([parse_multiplicative(t, 2) for t in ("s(y1)/y2", "y1^2")],
                           (units[-1], F.one()))]
    for psi in ("trivial", "id"):
        out += [FrobeniusTwistTorsor(F, "GL", 1, d, psi, ((c,),)) for d in (1, 2)
                for c in units[:3]]
    return out


@pytest.mark.parametrize("descriptor", ["GF(3);frob^1", "GF(4);frob^1", "GF(9);frob^1"])
def test_torsor_points_over_algebras_agree_with_the_full_walk(descriptor):
    """torsor_points over small algebras gives the parent's outcome: the
    same first point, or the same "no" and certificate, the latter for some
    torsor without a point over R."""
    F = make_field(descriptor)
    units = list(F.units())
    pairs = [(a, b) for a in units for b in units if a.sigma() == a * b * b]
    a, b = max(pairs, key=lambda ab: ab[0] != ab[1] * ab[1])
    algebras = [scalar_algebra(F), make_split_algebra(F, 2, [0, 1]),
                make_split_algebra(F, 2, [1, 0]), make_mu_algebra(a, b)]
    if F.size < 9:
        algebras.append(TensorContext(make_split_algebra(F, 2, [1, 0])).AA)
    answers = []
    for X in _affine_torsors(F):
        for R in algebras:
            if F.size ** (R.dim * X.presentation.slots) > 6561:
                continue
            got = torsor_points(X, R)
            assert got == _parent_points_over_algebra(X, R), (X, R.dim)
            answers.append(got.status)
    # 2 x 2 twists over k, where the full walk is q^4, with a target and
    # with the target of a point x0 that commutes with neither it nor sigma
    g, k = units[-1], scalar_algebra(F)
    for psi in ("trivial", "id"):
        for base in ("GL", "SL"):
            x0 = ((F.one(), g), (F.zero(), F.one())) if base == "SL" else \
                ((g, F.one()), (F.one(), F.zero()))
            a0 = mat_sigma(x0) if psi == "trivial" else mat_mul(mat_inverse(x0), mat_sigma(x0))
            for a in (((F.one(), g), (F.zero(), F.one())), a0):
                X = FrobeniusTwistTorsor(F, base, 2, 1, psi, a)
                assert torsor_points(X, k) == _parent_points_over_algebra(X, k), (psi, base, a)
            assert torsor_points(X, k), (psi, base)
    assert "yes" in answers and "no" in answers


def test_torsor_point_search_survives_doctored_relations(monkeypatch):
    """A dropped relation or an inconsistent system still gives the
    parent's answer; a doctored constant loses the points, and the oracle
    comparison catches it."""
    F = make_field("GF(3);frob^1")
    swap = make_split_algebra(F, 2, [1, 0])
    two = F.element(2)
    # sigma(y) - y = 2 has no solution on split:2 with sigma the swap: "no"
    X = AdditiveTorsor(DifferenceOperator.parse(F, "s - 1"), two)
    assert torsor_points(X, swap) == _parent_points_over_algebra(X, swap) == \
        outcome.no("exhausted-algebra")
    # sigma(x) = x a on GL2: drop the relations of the second row
    X = FrobeniusTwistTorsor(F, "GL", 2, 1, "id", ((two, F.zero()), (F.one(), F.one())))
    relations = FrobeniusTwist.linear_relations
    monkeypatch.setattr(FrobeniusTwist, "linear_relations",
                        lambda self, t=None: (lambda ys: relations(self, t)(ys)[:2]))
    expected = _parent_points_over_algebra(X, swap)
    assert expected and torsor_points(X, swap) == expected
    # sigma(y) = 2 read as sigma(y) = 1: the coset misses every point
    X = FrobeniusTwistTorsor(F, "GL", 1, 1, "trivial", ((two,),))
    monkeypatch.setattr(FrobeniusTwist, "linear_relations",
                        lambda self, t=None: relations(self, None))
    expected = _parent_points_over_algebra(X, swap)
    assert expected and torsor_points(X, swap) == outcome.no("exhausted-algebra") != expected


def test_a_value_of_the_wrong_shape_is_no_point_but_an_error():
    """is_point raises GroupError on a value without the shape of the
    torsor's points, as contains does: a bare element for a 2 x 2 twist, a
    matrix for a torus of rank 2, a field value for an additive torsor over
    an algebra."""
    F = make_field("GF(4);frob^1")
    w, zero, one = F.element("w"), F.zero(), F.one()
    R = make_split_algebra(F, 2)
    X = FrobeniusTwistTorsor(F, "GL", 2, 1, "trivial", ((w, zero), (zero, one)))
    Y = DiagonalTorsor([parse_multiplicative(t, 2) for t in ("y1^2", "s(y2)/y2")], (one, one))
    Z = AdditiveTorsor(DifferenceOperator.parse(F, "s - 1"), zero)
    m = ((R.one(), R.one()), (R.one(), R.one()))
    for T, x, ring in [(X, w + one, None), (X, R.one(), R), (Y, m, R), (Z, one, R)]:
        with pytest.raises(GroupError):
            is_point(T, x, ring)
        with pytest.raises(GroupError):
            contains(T.presentation, x, R)
