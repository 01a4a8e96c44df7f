"""Algebra kinds, tensor machinery, the Amitsur audit, and descent."""

import gc
import random
from fractions import Fraction

import pytest

from conftest import (assert_qq_normal_form, random_basis_change, random_findim_algebra,
                      random_unit, small_element, table_isomorphism_by_search)

from dcoh import algebras, linalg
from dcoh.algebras import (AlgebraError, AlgebraMorphism, AlgElement, DescentDatum,
                           TensorAlgebra, TensorContext, amitsur_audit,
                           canonical_descent_datum, change_basis,
                           descend_invariants, direct_sum, FreePolyAlgebra,
                           LaurentAlgebra, make_cyclic_group_algebra,
                           make_findim, make_mu_algebra, make_split_algebra,
                           make_truncated_algebra, mu_twisted_datum,
                           scalar_algebra)
from dcoh.fields import make_field


def test_make_findim_validates(QQ):
    one, zero = QQ.one(), QQ.zero()
    K = make_findim(QQ, ("1",), [[[one]]], [one], [[one]])
    assert K.dim == 1

    # k x k with swap sigma: check the four sigma identities hold
    S = make_split_algebra(QQ, 2, [1, 0])
    e1, e2 = S.basis_element(0), S.basis_element(1)
    assert e1.sigma() == e2 and e2.sigma() == e1
    assert (e1 * e2).is_zero()
    assert (e1 * e1).sigma() == e1.sigma() * e1.sigma()
    assert S.one().sigma() == S.one()

    # table with sigma(e1*e2) != sigma(e1)sigma(e2) is rejected
    with pytest.raises(AlgebraError):
        make_findim(QQ, ("1", "y"),
                    [[[one, zero], [zero, one]], [[zero, one], [one, zero]]],
                    [one, zero],
                    [[one, zero], [zero, QQ.element(2)]])
    # non-associative table is rejected: e*e = f, e*f = 1, f*f = 0 gives
    # (e*f)*f = f but e*(f*f) = 0
    with pytest.raises(AlgebraError):
        make_findim(QQ, ("1", "e", "f"),
                    [[[one, zero, zero], [zero, one, zero], [zero, zero, one]],
                     [[zero, one, zero], [zero, zero, one], [one, zero, zero]],
                     [[zero, zero, one], [one, zero, zero], [zero, zero, zero]]],
                    [one, zero, zero],
                    [[one, zero, zero], [zero, one, zero], [zero, zero, one]])
    # zero algebra is rejected
    with pytest.raises(AlgebraError):
        make_findim(QQ, ("1",), [[[zero]]], [zero], [[one]])


def test_make_mu_algebra(gf9, QQ):
    A = make_mu_algebra(QQ.one(), QQ.one())
    assert A.dim == 2
    y = A.basis_element(1)
    assert y * y == A.one()
    assert y.sigma() == y

    # enumerate valid (a, b) pairs over GF(9): the derived oracle
    valid = [(a, b) for a in gf9.units() for b in gf9.units()
             if a.sigma() == a * b * b]
    assert len(valid) == 16
    for a, b in valid:
        A9 = make_mu_algebra(a, b)
        y = A9.basis_element(1)
        assert y * y == A9.from_scalar(a)
        assert y.sigma() == y * b

    with pytest.raises(AlgebraError):
        make_mu_algebra(gf9.element("w"), gf9.element("w+1"))


def test_tensor_context_dimensions(gf9):
    A = make_mu_algebra(gf9.element("w"), gf9.element("w"))
    tc = TensorContext(A)
    assert tc.AA.dim == 4
    assert tc.AAA.dim == 8
    y = A.basis_element(1)
    d1y = tc.d1(y)
    assert d1y == tc.pair(A.one(), y)
    assert d1y.data == {(0, 1): gf9.one()}
    basis = [A.basis_element(i) for i in A.index_list()]
    assert tc.simplicial_check(basis)


def test_alg_invert(gf9, QQ):
    a = gf9.element("w")
    A = make_mu_algebra(a, a)
    y = A.basis_element(1)
    yinv = y.inverse()
    assert yinv == y * a.inv()
    assert y * yinv == A.one()
    assert A.one().inverse() == A.one()
    S = make_split_algebra(QQ, 2)
    e1 = S.basis_element(0)
    assert e1.maybe_inverse() is None


def test_factorwise_sigma_on_tensor(gf9):
    A = make_mu_algebra(gf9.element("w"), gf9.element("w"))
    tc = TensorContext(A)
    rng = random.Random(2)
    for _ in range(20):
        x = A.element({i: gf9.random_element(rng) for i in A.index_list()})
        y = A.element({i: gf9.random_element(rng) for i in A.index_list()})
        assert tc.pair(x, y).sigma() == tc.pair(x.sigma(), y.sigma())
        lam = gf9.random_element(rng)
        assert (tc.pair(x, y) * lam).sigma() == tc.pair(x, y).sigma() * lam.sigma()


def test_amitsur_audit_examples(QQ):
    rep = amitsur_audit(scalar_algebra(QQ))
    assert rep.ok and rep.dim_ker_first == 1 and rep.dim_ker_second == 0

    rep = amitsur_audit(make_mu_algebra(QQ.one(), QQ.one()))
    assert rep.ok and rep.dim_ker_first == 1

    rep = amitsur_audit(make_split_algebra(QQ, 2, [1, 0]))
    assert rep.ok


@pytest.mark.parametrize("descriptor", ["QQ", "GF(4);frob^1", "GF(9);frob^1",
                                        "QQ(t);shift"])
def test_amitsur_audit_randomized(descriptor):
    field = make_field(descriptor)
    rng = random.Random(42)
    for _ in range(5):
        A = random_findim_algebra(field, rng, max_dim=5)
        rep = amitsur_audit(A)
        assert rep.ok, (descriptor, A.labels)


def test_amitsur_audit_detects_broken_face_map(QQ, monkeypatch):
    """Negative control: a corrupted face map must fail the audit."""
    A = make_mu_algebra(QQ.element(2), QQ.one())
    original = TensorContext._insert

    def broken(self, z, pos):
        # route dd2 through the dd3 slot, breaking the complex
        return original(self, z, 2 if pos == 1 else pos)

    monkeypatch.setattr(TensorContext, "_insert", broken)
    rep = amitsur_audit(A)
    assert not rep.ok


def test_laurent_algebra(gf9):
    x = gf9.element("w")
    A = LaurentAlgebra(gf9, 1, [(x, (1,))])  # sigma(u) = w*u
    u = A.gen(0)
    assert u.sigma() == u * x
    assert u.inverse() * u == A.one()
    assert (u + A.one()).maybe_inverse() is None
    assert (u ** -2) * (u ** 2) == A.one()
    tc = TensorContext(A)
    assert tc.simplicial_check([u, u.inverse(), A.one()])
    assert tc.pair(u, u.inverse()).sigma() == tc.pair(u * x, u.inverse() * x.inv())


def test_freepoly_algebra(shift_field):
    k = shift_field
    a = k.element("1/t")
    A = FreePolyAlgebra(k, 1, [(a, [k.one()])])  # sigma(y) = y + 1/t
    y = A.gen(0)
    assert y.sigma() == y + A.from_scalar(a)
    assert (y * y).sigma() == y.sigma() * y.sigma()
    assert A.one().inverse() == A.one()
    assert y.maybe_inverse() is None
    tc = TensorContext(A)
    assert tc.simplicial_check([y, y * y + A.one()])


def test_power_equals_repeated_product(gf9):
    w = gf9.element("w")
    A = make_mu_algebra(w, w)
    AA = TensorContext(A).AA
    L = LaurentAlgebra(gf9, 2, [(w, (0, 1)), (gf9.one(), (1, 0))])
    units = [A.basis_element(1), A.one() * w + A.basis_element(1),
             AA.pure_tensor(A.basis_element(1), A.one() + A.basis_element(1)),
             L.gen(0) * L.gen(1) ** -2 * w]
    for x in units:
        assert x.is_unit()
        for n in range(-3, 10):
            expected = x.algebra.one()
            for _ in range(abs(n)):
                expected = expected * (x if n > 0 else x.inverse())
            assert x ** n == expected, (x, n)


def test_monomial_algebras_share_one_protocol(shift_field):
    k = shift_field
    t = k.element("t")
    L = LaurentAlgebra(k, 2, [(t, (0, -1)), (k.one(), (1, 0))])
    # the data form of the sigma images gives the same algebra as the pairs
    assert L == LaurentAlgebra(k, 2, [img.data for img in L.images])
    P = FreePolyAlgebra(k, 2, [(k.zero(), [k.zero(), k.one()]), (t, [k.one(), k.one()])])
    assert P == FreePolyAlgebra(k, 2, [img.data for img in P.images])
    for A in (L, P):
        tc = TensorContext(A)
        assert tc.AA == algebras.tensor_square(A) == A.tensor_power(2)
        assert tc.AA.ngens == 2 * A.ngens and tc.AAA.ngens == 3 * A.ngens
        x, y = A.generators()
        z = tc.pair(x * y, y)
        assert [A.join_keys(A.split_key(key, 2)) for key in z.data] == list(z.data)
        assert tc.untensor_third(tc.dd3(z)) == z
        assert tc.pair(x, y).sigma() == tc.pair(x.sigma(), y.sigma())
        assert A.named_element(A.stem + "2") == y and A.named_element("v") is None
        swap = AlgebraMorphism(A, A, [y, x], check=False)
        assert swap.apply(x * x * y + t) == y * y * x + t
    with pytest.raises(AlgebraError, match="Laurent sigma images must be monomials"):
        LaurentAlgebra(k, 1, [{(1,): k.one(), (0,): k.one()}])
    with pytest.raises(AlgebraError, match="must be a unit"):
        LaurentAlgebra(k, 1, [{(1,): k.zero()}])
    with pytest.raises(AlgebraError, match="affine-linear"):
        FreePolyAlgebra(k, 1, [{(2,): k.one()}])
    with pytest.raises(AlgebraError, match="missing sigma image for a Laurent generator"):
        LaurentAlgebra(k, 2, [None, {(1, 0): k.one()}])


def test_descent_canonical_recovers_c0(QQ, gf9):
    C0 = make_mu_algebra(QQ.element(2), QQ.one())
    A = make_split_algebra(QQ, 2, [1, 0])
    res = descend_invariants(canonical_descent_datum(C0, A))
    assert res.base_change_is_isomorphism
    assert res.invariants.dim == C0.dim
    # B0 = C0 (x) 1 inside B, so contracting the A slot with a unit functional
    # restores C0's tables
    assert table_isomorphism_by_search(res, C0, A)




def test_descent_twisted_by_trivial_cocycle(gf9):
    A = make_mu_algebra(gf9.element("w"), gf9.element("w"))
    res = descend_invariants(canonical_descent_datum(A, A))
    assert res.invariants.dim == A.dim
    assert res.base_change_is_isomorphism


def test_descent_cocycle_condition_enforced(QQ):
    C0 = scalar_algebra(QQ)
    A = make_split_algebra(QQ, 2, [1, 0])
    datum = canonical_descent_datum(C0, A)
    # corrupt phi by swapping two image columns
    keys = list(datum.phi_images)
    datum.phi_images[keys[0]], datum.phi_images[keys[1]] = \
        datum.phi_images[keys[1]], datum.phi_images[keys[0]]
    with pytest.raises(AlgebraError):
        descend_invariants(datum)


def test_mu_twisted_datum_recovers_mu_algebra(gf9):
    a = gf9.element("w")
    A = make_mu_algebra(a, a)
    tc = TensorContext(A)
    y = A.basis_element(1)
    chi = tc.pair(y.inverse(), y)
    res = descend_invariants(mu_twisted_datum(A, chi))
    assert res.invariants.dim == 2
    assert res.base_change_is_isomorphism
    # the invariants contain an element z with z^2 = a and sigma(z) = a*z:
    # search the 2-dimensional algebra for it
    B0 = res.invariants
    found = False
    for c0 in gf9.elements():
        for c1 in gf9.elements():
            z = B0.basis_element(0) * c0 + B0.basis_element(1) * c1
            if z * z == B0.from_scalar(a) and z.sigma() == z * a:
                if not z.is_zero():
                    found = True
    assert found


@pytest.mark.parametrize("field", ["QQ", "gf9"])
def test_descent_rejects_a_ring_map_that_is_no_cocycle(field, request):
    """Twisting by chi = -1 gives a bijective, linear, sigma-equivariant
    ring map phi, but phi13 = phi23 . phi12 fails: phi12 and phi23 each
    multiply the g-component by -1 where phi13 does it once."""
    k = request.getfixturevalue(field)
    if field == "QQ":
        A = make_mu_algebra(k.element(2), k.one())
    else:
        A = make_mu_algebra(k.element("w"), k.element("w"))
    datum = mu_twisted_datum(A, -TensorContext(A).AA.one())
    with pytest.raises(AlgebraError,
                       match=r"^descent cocycle condition phi13 = phi12 \. phi23 fails$"):
        descend_invariants(datum)


def test_morphism_validation(gf9):
    lam = gf9.element("w")
    a, b = lam * lam, lam.sigma() / lam
    A1 = make_mu_algebra(gf9.one(), gf9.one())
    A2 = make_mu_algebra(a, b)
    # y1 -> lam^{-1} * y2 is a sigma-algebra morphism A1 -> A2
    images = [A2.one(), A2.basis_element(1) * lam.inv()]
    h = AlgebraMorphism(A1, A2, images)
    y1 = A1.basis_element(1)
    assert h.apply(y1 * y1) == h.apply(y1) * h.apply(y1)
    # a wrong scaling breaks multiplicativity
    with pytest.raises(AlgebraError):
        AlgebraMorphism(A1, A2, [A2.one(), A2.basis_element(1)])


def test_change_basis_and_direct_sum_preserve_validity(QQ):
    A = direct_sum(make_mu_algebra(QQ.element(2), QQ.one()),
                   make_truncated_algebra(QQ, 2, QQ.element(3)))
    assert A.dim == 4
    P = [[QQ.element(1 if i == j else 0) for j in range(4)] for i in range(4)]
    P[0][2] = QQ.element(1)
    P[1][3] = QQ.element(-2)
    B = change_basis(A, P)
    assert B.dim == 4
    assert amitsur_audit(B).ok


def test_cyclic_group_algebra_with_collapsing_sigma(gf4):
    # sigma(g) = g^0 = 1 is a legitimate non-injective endomorphism
    A = make_cyclic_group_algebra(gf4, 3, 0)
    g = A.basis_element(1)
    assert g.sigma() == A.one()
    assert amitsur_audit(A).ok


# --------------------------------------------------------------------------
# the raw-value kernel against schoolbook FieldElement arithmetic


def _reference_constants(A, i, j=None):
    """e_i * e_j (or sigma(e_i) when j is None) from the dense FieldElement
    tables a TableAlgebra was built with, factor by factor for tensors."""
    if isinstance(A, TensorAlgebra):
        one = A.field.one()
        out = {(): one}
        for n, f in enumerate(A.factors):
            part = _reference_constants(f, i[n], None if j is None else j[n])
            out = {key + (r,): c * s for key, c in out.items()
                   for r, s in part.items() if not (c * s).is_zero()}
        return out
    vec = A._sigma[i] if j is None else A._mult[i][j]
    return {r: c for r, c in enumerate(vec) if not c.is_zero()}


def _schoolbook_mul(A, x, y):
    out = {}
    for i, a in x.data.items():
        for j, b in y.data.items():
            c = a * b
            if c.is_zero():
                continue
            for r, s in _reference_constants(A, i, j).items():
                out[r] = c * s if r not in out else out[r] + c * s
    return {k: v for k, v in out.items() if not v.is_zero()}


def _schoolbook_sigma(A, x):
    out = {}
    for i, a in x.data.items():
        for r, s in _reference_constants(A, i).items():
            v = a.sigma() * s
            out[r] = v if r not in out else out[r] + v
    return {k: v for k, v in out.items() if not v.is_zero()}


def _schoolbook_inverse(A, x):
    idx = A.index_list()
    zero = A.field.zero()
    cols = [_schoolbook_mul(A, x, A.basis_element(j)) for j in idx]
    matrix = [[col.get(r, zero) for col in cols] for r in idx]
    unit = A.unit_data()
    sol = linalg.solve(matrix, [unit.get(r, zero) for r in idx], A.field)
    return None if sol is None else {i: c for i, c in zip(idx, sol) if not c.is_zero()}


def _random_element(A, rng):
    return A.element({i: small_element(A.field, rng) for i in A.index_list()
                      if rng.random() < 0.6})


@pytest.mark.parametrize("descriptor", ["QQ", "QQ(t);shift", "GF(4);frob^1",
                                        "GF(9);frob^1"])
def test_raw_kernel_matches_schoolbook(descriptor):
    field = make_field(descriptor)
    rng = random.Random(7)
    for _ in range(4):
        A = random_findim_algebra(field, rng, max_dim=3)
        tc = TensorContext(A)
        for R in (A, tc.AA, tc.AAA):
            for _ in range(3):
                x, y = _random_element(R, rng), _random_element(R, rng)
                # same coefficients and the same key order as the schoolbook sum
                assert list((x * y).data.items()) == list(_schoolbook_mul(R, x, y).items())
                assert list(x.sigma().data.items()) == list(_schoolbook_sigma(R, x).items())
                for i in R.index_list():
                    assert R.basis_sigma(i) == _reference_constants(R, i)
                    for j in R.index_list()[:3]:
                        assert R.basis_mult(i, j) == _reference_constants(R, i, j)
            if R is tc.AAA:
                continue        # inverses: the algebra and its square
            units = [R.one(), R.one() * field.element(3)]
            if R is A:
                units.append(R.one() + R.basis_element(R.index_list()[-1]))
            for x in units + [_random_element(R, rng) for _ in range(2)]:
                inv = x.maybe_inverse()
                ref = _schoolbook_inverse(R, x)
                assert (None if inv is None else inv.data) == ref
                if inv is not None:
                    assert x * inv == R.one()


# the unit test (nonsingularity of L_x) against the inverse's solve


def _mu_algebras(F):
    """A mu algebra k[y]/(y^2 - a) for a square a, and one for a non-square
    a if there is one; their units depend on a alone."""
    units = list(F.units())
    pairs = {}
    for a in units:
        for b in units:
            if a.sigma() == a * b * b:
                pairs.setdefault(any(c * c == a for c in units), (a, b))
    return [make_mu_algebra(a, b) for a, b in pairs.values()]


def _unit_test_agrees_with_the_solve(x):
    inv = x.maybe_inverse()
    assert x.is_unit() is (inv is not None), x
    assert inv is None or x * inv == x.algebra.one()
    return inv is not None


@pytest.mark.parametrize("q", [3, 4, 5, 7, 9])
def test_unit_test_agrees_with_the_solve_on_every_element(q):
    """Every element of the mu and split:2 algebras over GF(q) and of their
    tensor squares (at most 9^4 elements each)."""
    F = make_field(f"GF({q});frob^1")
    for A in _mu_algebras(F) + [make_split_algebra(F, 2)]:
        for R in (A, TensorContext(A).AA):
            units = sum(map(_unit_test_agrees_with_the_solve, R.enumerate_elements()))
            assert 0 < units < F.size ** R.dim


@pytest.mark.parametrize("descriptor", ["QQ", "QQ(t);shift"])
def test_unit_test_agrees_with_the_solve_on_random_algebras(descriptor):
    field = make_field(descriptor)
    rng = random.Random(17)
    verdicts = set()
    for _ in range(6):
        A = random_findim_algebra(field, rng, max_dim=3)
        for R in (A, TensorContext(A).AA):
            basis = [R.basis_element(i) for i in R.index_list()]
            samples = [R.zero(), R.one()] + basis + [R.one() + e for e in basis]
            # dense random elements of a QQ(t) tensor square take seconds each
            if R is A:
                samples += [_random_element(R, rng) for _ in range(6)]
            for x in samples:
                verdicts.add(_unit_test_agrees_with_the_solve(x))
    assert verdicts == {True, False}


def test_monomial_unit_test_keeps_its_answer(gf9, shift_field):
    """Laurent monomials are the Laurent units; constants alone are the
    free-polynomial units."""
    w = gf9.element("w")
    L = LaurentAlgebra(gf9, 2, [(w, (0, 1)), (gf9.one(), (1, 0))])
    u1, u2 = L.gen(0), L.gen(1)
    k = shift_field
    P = FreePolyAlgebra(k, 1, [(k.element("1/t"), [k.one()])])
    y = P.gen(0)
    cases = [(u1, True), (u1 ** -2 * u2 * w, True), (L.one() * w, True),
             (u1 + L.one(), False), (L.zero(), False),
             (P.one() * k.element("t"), True), (y, False), (y + P.one(), False),
             (P.zero(), False)]
    for x, unit in cases:
        assert _unit_test_agrees_with_the_solve(x) is unit, x


def test_equal_tensor_contexts_share_tables(gf9):
    w = gf9.element("w")
    t1 = TensorContext(make_mu_algebra(w, w))
    t2 = TensorContext(make_mu_algebra(w, w))
    assert t1.A is not t2.A and t1.AA is not t2.AA and t1.AA == t2.AA
    assert t1.A._tables is t2.A._tables
    assert t1.AA._tables is t2.AA._tables
    assert t1.AAA._tables is t2.AAA._tables
    assert t1.AA._tables is not t1.AAA._tables
    y = t1.pair(t1.A.basis_element(1), t1.A.one())
    assert (y * y).data == {(0, 0): w}


def test_tensor_tables_live_only_while_used(gf9):
    A = make_truncated_algebra(gf9, 3, gf9.element("w+2"))
    tc = TensorContext(A)
    z = tc.AAA.basis_element((1, 2, 0))
    assert (z * z).sigma().is_zero()
    keys = [R.cache_key() for R in (tc.A, tc.AA, tc.AAA)]
    assert all(key in algebras._TABLES for key in keys)
    del tc, z
    gc.collect()
    assert keys[0] in algebras._TABLES          # A itself is still alive
    assert keys[1] not in algebras._TABLES and keys[2] not in algebras._TABLES
    del A
    gc.collect()
    assert keys[0] not in algebras._TABLES


def test_equal_table_algebras_share_key_and_views_match_input(gf9):
    w = gf9.element("w")
    zero, one = gf9.zero(), gf9.one()
    mult = [[[one, zero], [zero, one]], [[zero, one], [w, zero]]]
    unit, sigma = [one, zero], [[one, zero], [zero, w]]
    A1 = algebras.TableAlgebra(gf9, ("1", "y"), mult, unit, sigma)
    A2 = make_mu_algebra(w, w)
    assert A1 is not A2 and A1 == A2
    assert A1.cache_key() is A2.cache_key() and A1.labels is A2.labels
    assert A1.labels == ("1", "y")
    assert [[list(v) for v in row] for row in A1._mult] == mult
    assert list(A1._unit) == unit
    assert [list(v) for v in A1._sigma] == sigma
    assert not hasattr(A1, "__dict__")


LINEARITY = "phi is not A(x)A-linear"


def _all_pairs_validate(datum):
    """DescentDatum.validate with its A(x)A-linearity check written out over
    all m^2 * |B(x)A| pairs (e_i (x) e_j) . x, x a basis element of B(x)A:
    the oracle for the m^2-element check."""
    A, BA, AB, iota = datum.A, datum.BA, datum.AB, datum.iota
    iota.validate()
    idx_ba = BA.index_list()
    if set(datum.phi_images) != set(idx_ba):
        raise AlgebraError("phi must be defined on the whole tensor basis")
    if datum.apply(BA.one()) != AB.one():
        raise AlgebraError("phi does not preserve 1")
    basis = {k: BA.basis_element(k) for k in idx_ba}
    for k1 in idx_ba:
        for k2 in idx_ba:
            if datum.apply(basis[k1] * basis[k2]) != datum.phi_images[k1] * datum.phi_images[k2]:
                raise AlgebraError("phi is not a ring morphism")
    for k in idx_ba:
        if datum.apply(basis[k].sigma()) != datum.phi_images[k].sigma():
            raise AlgebraError("phi does not commute with sigma")
    for i in A.index_list():
        for j in A.index_list():
            e_i, e_j = A.basis_element(i), A.basis_element(j)
            for k in idx_ba:
                lhs = datum.apply(BA.pure_tensor(iota.apply(e_i), e_j) * basis[k])
                rhs = AB.pure_tensor(e_i, iota.apply(e_j)) * datum.phi_images[k]
                if lhs != rhs:
                    raise AlgebraError(LINEARITY)
    zero = A.field.zero()
    mat = [[datum.phi_images[c].data.get(r, zero) for c in idx_ba] for r in AB.index_list()]
    if linalg.rank(mat, A.field) != len(idx_ba):
        raise AlgebraError("phi is not bijective")
    datum._check_cocycle()


def _error(check):
    try:
        check()
    except AlgebraError as e:
        return str(e)
    return None


def _swap_composed(datum):
    """phi . (id_B (x) s) for the swap s of A = split:2: still a bijective ring
    morphism commuting with sigma, but not A(x)A-linear."""
    A, B = datum.A, datum.B
    e0, e1 = A.basis_element(0), A.basis_element(1)
    s = AlgebraMorphism(A, A, [e1, e0], check=False)
    images = {(b, a): datum.apply(datum.BA.pure_tensor(B.basis_element(b),
                                                       s.apply(A.basis_element(a))))
              for (b, a) in datum.BA.index_list()}
    return DescentDatum(A, B, datum.iota, images, check=False)


@pytest.mark.parametrize("field", ["QQ", "gf9"])
def test_descent_rejects_a_datum_that_is_not_linear(field, request):
    k = request.getfixturevalue(field)
    A = make_split_algebra(k, 2, [1, 0])
    a = k.element(2) if field == "QQ" else k.element("w")
    C0 = make_mu_algebra(a, k.one() if field == "QQ" else a)
    bad = _swap_composed(canonical_descent_datum(C0, A))
    with pytest.raises(AlgebraError, match=r"^phi is not A\(x\)A-linear$"):
        descend_invariants(bad)
    assert _error(lambda: _all_pairs_validate(bad)) == LINEARITY


def _swapped_columns(datum):
    keys = list(datum.phi_images)
    datum.phi_images[keys[0]], datum.phi_images[keys[1]] = \
        datum.phi_images[keys[1]], datum.phi_images[keys[0]]
    return datum


def test_descent_linearity_check_agrees_with_all_pairs(QQ, gf9):
    data = []
    for k, (a, b) in ((QQ, (3, 1)), (gf9, ("w", "w"))):
        for perm in ([1, 0], [0, 1]):
            C0 = make_mu_algebra(k.element(a), k.element(b))
            data.append(canonical_descent_datum(C0, make_split_algebra(k, 2, perm)))
    A = make_mu_algebra(gf9.element("w"), gf9.element("w"))
    tc = TensorContext(A)
    y = A.basis_element(1)
    data += [mu_twisted_datum(A, tc.pair(y.inverse(), y)), mu_twisted_datum(A, tc.AA.one()),
             _swapped_columns(canonical_descent_datum(scalar_algebra(QQ),
                                                      make_split_algebra(QQ, 2, [1, 0]))),
             _swap_composed(canonical_descent_datum(scalar_algebra(gf9),
                                                    make_split_algebra(gf9, 2, [1, 0])))]
    errors = [_error(d.validate) for d in data]
    assert errors == [_error(lambda: _all_pairs_validate(d)) for d in data]
    assert errors[:6] == [None] * 6 and errors[6] is not None and errors[7] == LINEARITY


def _unit_spans_by_solve(rep, A):
    """Whether 1 spans the first kernel, by linalg.in_span: the audit's
    unit check as a solve, kept as an oracle."""
    return rep.dim_ker_first == 1 and linalg.in_span(
        [A.to_vector(k) for k in rep.first_kernel], A.to_vector(A.one()), A.field) is not None


@pytest.mark.parametrize("descriptor", ["QQ", "GF(4);frob^1", "GF(9);frob^1", "QQ(t);shift"])
def test_amitsur_unit_check_is_read_off(descriptor):
    """The unit check reads whether the one kernel vector is a scalar; it
    agrees with the solve on the block algebras and basis changes of the
    algebra-audit workload, dimensions 1 to 6."""
    field = make_field(descriptor)
    rng = random.Random(7)
    for _ in range(8):
        A = random_findim_algebra(field, rng, max_dim=6 if field.finite else 4)
        rep = amitsur_audit(A)
        assert rep.unit_spans_first_kernel == _unit_spans_by_solve(rep, A) is True


def test_amitsur_unit_check_refutes_a_non_scalar_kernel(QQ, monkeypatch):
    """A first kernel spanned by 1 + y (a broken kernel solve) fails the
    unit check, as the solve says."""
    A = make_mu_algebra(QQ.element(2), QQ.one())
    kernel = linalg.kernel_basis

    def broken(rows, field, ncols):
        vecs = kernel(rows, field, ncols)
        return [[field.one()] * ncols] if ncols == A.dim else vecs

    monkeypatch.setattr(linalg, "kernel_basis", broken)
    rep = amitsur_audit(A)
    assert rep.dim_ker_first == 1
    assert rep.unit_spans_first_kernel is _unit_spans_by_solve(rep, A) is False
    assert not rep.ok


# --------------------------------------------------------------------------
# the algebra self-checks on raw structure constants against element products


def _validate_by_elements(A):
    """TableAlgebra.validate written on AlgElement products over all m^3
    triples: the oracle for the check on raw structure constants."""
    m = A.dim
    labels = A.labels
    if not A._tables.unit:
        raise AlgebraError("zero algebra: unit is zero")
    mult = A._tables.key[3]
    e = [A.basis_element(i) for i in range(m)]
    one = A.one()
    for i in range(m):
        if one * e[i] != e[i]:
            raise AlgebraError(f"unit fails on basis element {labels[i]}")
        for j in range(i, m):
            if mult[i][j] != mult[j][i]:
                raise AlgebraError(f"multiplication not commutative at ({i},{j})")
    prod = [[e[i] * e[j] for j in range(m)] for i in range(m)]
    for i in range(m):
        for j in range(m):
            for k in range(m):
                if prod[i][j] * e[k] != e[i] * prod[j][k]:
                    raise AlgebraError(f"multiplication not associative at ({i},{j},{k})")
    if one.sigma() != one:
        raise AlgebraError("sigma does not fix 1")
    es = [x.sigma() for x in e]
    for i in range(m):
        for j in range(i, m):
            if prod[i][j].sigma() != es[i] * es[j]:
                raise AlgebraError(f"sigma not multiplicative at ({i},{j})")


def _unchecked(field, labels, mult, unit, sigma):
    """A TableAlgebra built without running validate."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(algebras.TableAlgebra, "validate", lambda self: None)
        return algebras.TableAlgebra(field, labels, mult, unit, sigma)


def _checks_agree(field, labels, mult, unit, sigma):
    """The error of building the table (None when it validates), after
    checking that the element oracle gives the same one."""
    error = _error(lambda: algebras.TableAlgebra(field, labels, mult, unit, sigma))
    oracle = _error(lambda: _validate_by_elements(_unchecked(field, labels, mult, unit, sigma)))
    assert error == oracle, (labels, error, oracle)
    return error


# the block shapes of the algebra-audit workload, dims 1 to 6
AUDIT_SHAPES = ((("scalar",), ("scalar",)), (("mu",), ("split2",)),
                (("mu", "scalar"), ("cyclic3",)), (("mu", "split2"), ("trunc2", "mu")),
                (("cyclic3", "mu"), ("split3", "trunc2")),
                (("mu", "mu", "split2"), ("cyclic4", "mu")))


def _audit_block(F, rng, kind):
    if kind == "mu":
        c = random_unit(F, rng)
        return make_mu_algebra(c * c, c.sigma() / c)
    if kind in ("split2", "split3"):
        m = int(kind[-1])
        return make_split_algebra(F, m, [(i + 1) % m for i in range(m)])
    if kind in ("cyclic3", "cyclic4"):
        n = int(kind[-1])
        return make_cyclic_group_algebra(F, n, n - 1)
    if kind == "trunc2":
        return make_truncated_algebra(F, 2, random_unit(F, rng))
    return scalar_algebra(F)


def _audit_algebras(F, rng):
    """Each shape's direct sum and one basis change of it."""
    for shape in (s for pair in AUDIT_SHAPES for s in pair):
        A = _audit_block(F, rng, shape[0])
        for kind in shape[1:]:
            A = direct_sum(A, _audit_block(F, rng, kind))
        yield A
        polynomial = F.descriptor.startswith("QQ(t)") and A.dim <= 3
        yield change_basis(A, random_basis_change(F, rng, A.dim, polynomial))


def _dense_tables(A):
    return ([[list(v) for v in row] for row in A._mult], list(A._unit),
            [list(v) for v in A._sigma])


def _mutations(A, rng, count):
    """count one-entry mutations of A's tables, each adding one to an entry:
    of e_i e_j alone; of e_i e_j and e_j e_i together, i and j off the
    support of the unit where it leaves room (commutativity and the unit
    kept); of the unit; of sigma(e_i)."""
    m, one = A.dim, A.field.one()
    free = [i for i in range(m) if i not in A.unit_data()] or list(range(m))
    for _ in range(count):
        mult, unit, sigma = _dense_tables(A)
        kind = rng.choice(("mult", "symmetric", "symmetric", "unit", "sigma"))
        i, j, r = rng.randrange(m), rng.randrange(m), rng.randrange(m)
        if kind == "unit":
            unit[r] += one
        elif kind == "sigma":
            sigma[i][r] += one
        elif kind == "mult":
            mult[i][j][r] += one
        else:
            i, j = rng.choice(free), rng.choice(free)
            mult[i][j][r] += one
            if i != j:
                mult[j][i][r] += one
        yield mult, unit, sigma


@pytest.mark.parametrize("descriptor", ["QQ", "GF(4);frob^1", "GF(9);frob^1", "QQ(t);shift"])
def test_table_check_agrees_with_element_products(descriptor):
    """On the algebra-audit shapes, their direct sums and basis changes, and
    on one-entry mutations of their tables, the check on raw structure
    constants gives the element oracle's verdict and message."""
    F = make_field(descriptor)
    rng = random.Random(19)
    checks = set()
    for A in _audit_algebras(F, rng):
        assert _checks_agree(F, A.labels, *_dense_tables(A)) is None
        for tables in _mutations(A, rng, 4 if F.finite else 3):
            error = _checks_agree(F, A.labels, *tables)
            checks.add(error and error.split(" at ")[0].split(" on ")[0])
    # every check is reached, and mutations may leave a valid table
    assert checks - {None, "zero algebra: unit is zero"} == {
        "unit fails", "multiplication not commutative", "multiplication not associative",
        "sigma does not fix 1", "sigma not multiplicative"}


def _xy_tables(k, sigma_xy=1):
    """k[x,y]/(x^2, y^2) on the basis 1, x, y, xy, with sigma(x) = x,
    sigma(y) = y and sigma(xy) = sigma_xy * xy."""
    exps = ((0, 0), (1, 0), (0, 1), (1, 1))
    zero, one = k.zero(), k.one()

    def vec(e):
        return [one if f == e else zero for f in exps]

    mult = [[vec((a[0] + b[0], a[1] + b[1])) for b in exps] for a in exps]
    sigma = [vec(e) for e in exps]
    sigma[3] = [zero, zero, zero, k.element(sigma_xy)]
    return ("1", "x", "y", "xy"), mult, vec((0, 0)), sigma


def test_associativity_failing_only_at_a_mirrored_triple(QQ):
    """1, x, y with x^2 = 1, xy = y^2 = 0 is commutative and fails
    associativity exactly at (2,1,1), where i > k, and at its mirror
    (1,1,2): (x x) y = y but x (x y) = 0."""
    one, zero = QQ.one(), QQ.zero()
    e = lambda r: [one if s == r else zero for s in range(3)]
    mult = [[e(0), e(1), e(2)], [e(1), e(0), [zero] * 3], [e(2), [zero] * 3, [zero] * 3]]
    tables = (("1", "x", "y"), mult, e(0), [e(0), e(1), e(2)])
    A = _unchecked(QQ, *tables)
    b = [A.basis_element(i) for i in range(3)]
    failing = {(i, j, k) for i in range(3) for j in range(3) for k in range(3)
               if (b[i] * b[j]) * b[k] != b[i] * (b[j] * b[k])}
    assert failing == {(2, 1, 1), (1, 1, 2)}
    assert _checks_agree(QQ, *tables) == "multiplication not associative at (1,1,2)"


@pytest.mark.parametrize("field", ["QQ", "gf9"])
def test_sigma_multiplicative_on_every_pair_but_one(field, request):
    """sigma(xy) = c xy with c != 1 while sigma fixes x and y: sigma fixes 1
    and is multiplicative on every pair of basis elements but (x, y)."""
    k = request.getfixturevalue(field)
    tables = _xy_tables(k, 2 if field == "QQ" else k.element("w"))
    A = _unchecked(k, *tables)
    b = [A.basis_element(i) for i in range(4)]
    failing = {(i, j) for i in range(4) for j in range(i, 4)
               if (b[i] * b[j]).sigma() != b[i].sigma() * b[j].sigma()}
    assert failing == {(1, 2)} and A.one().sigma() == A.one()
    assert _checks_agree(k, *tables) == "sigma not multiplicative at (1,2)"


def test_a_table_one_entry_off_a_validated_one_is_checked(gf9):
    """Equal algebras share their tables; a table one entry away from one
    validated earlier, still alive, shares nothing and is checked afresh."""
    w = gf9.element("w")
    A = make_mu_algebra(w, w)
    mult, unit, sigma = _dense_tables(A)
    mult[1][1][0] = w + 1         # y^2 = w + 1, but sigma(w + 1) != (w + 1) w^2
    for _ in range(2):
        assert _checks_agree(gf9, A.labels, mult, unit, sigma) == \
            "sigma not multiplicative at (1,1)"
    assert A.cache_key() in algebras._TABLES
    mult, unit, sigma = _dense_tables(A)
    mult[0][1][1] = w             # 1 * y = w y: breaks the unit, not commutativity
    mult[1][0][1] = w
    assert _checks_agree(gf9, A.labels, mult, unit, sigma) == "unit fails on basis element y"
    assert make_mu_algebra(w, w) == A


@pytest.mark.parametrize("field", ["QQ", "gf9"])
@pytest.mark.parametrize("diagonal", [False, True])
def test_descent_rejects_phi_failing_one_unordered_pair(field, diagonal, request):
    """Over A = k, phi: B -> B bijective and unital, multiplicative on every
    unordered pair of basis elements but one: on B = k[x,y]/(x^2, y^2) it
    fixes 1, x and y and scales xy by c != 1, failing at {x, y}; on
    B = k[y]/(y^2) it sends y to 1 + y, failing at {y, y}."""
    k = request.getfixturevalue(field)
    A = scalar_algebra(k)
    c = k.element(2) if field == "QQ" else k.element("w")
    one = k.one()
    if diagonal:
        B = make_truncated_algebra(k, 2, one)
        columns = [{0: one}, {0: one, 1: one}]
        expected = {((1, 0), (1, 0))}
    else:
        B = make_findim(k, *_xy_tables(k))
        columns = [{b: c if b == 3 else one} for b in range(4)]
        expected = {((1, 0), (2, 0)), ((2, 0), (1, 0))}
    AB = TensorAlgebra([A, B])
    images = {(b, 0): AlgElement(AB, {(0, r): v for r, v in col.items()})
              for b, col in enumerate(columns)}
    datum = DescentDatum(A, B, AlgebraMorphism(A, B, [B.one()]), images, check=False)
    basis = {key: datum.BA.basis_element(key) for key in datum.BA.index_list()}
    failing = {(k1, k2) for k1 in basis for k2 in basis
               if datum.apply(basis[k1] * basis[k2]) != images[k1] * images[k2]}
    assert failing == expected
    assert _error(datum.validate) == _error(lambda: _all_pairs_validate(datum)) == \
        "phi is not a ring morphism"


def test_morphism_sending_a_unit_to_a_non_unit_is_rejected(QQ):
    """y with y^2 = 1 is a unit; z with z^2 = 0 is not.  y -> z is unital
    and commutes with sigma, and multiplicativity rejects it.  A Laurent
    generator's inverse is no product of generators, so its image is
    tested for a unit."""
    one = QQ.one()
    A1 = make_mu_algebra(one, one)
    A2 = make_truncated_algebra(QQ, 2, one)
    y, z = A1.basis_element(1), A2.basis_element(1)
    assert y.is_unit() and not z.is_unit()
    with pytest.raises(AlgebraError, match="^morphism is not multiplicative$"):
        AlgebraMorphism(A1, A2, [A2.one(), z])
    L = LaurentAlgebra(QQ, 1)
    with pytest.raises(AlgebraError, match="^morphism must map units to units$"):
        AlgebraMorphism(L, A2, [z])
    assert AlgebraMorphism(L, A1, [y]).apply(L.gen(0) ** -1) == y


# --------------------------------------------------------------------------
# exactness at A(x)A certified by the contracting homotopy, against elimination


def _audit_by_elimination(A):
    """amitsur_audit with ker(dd3 - dd2 + dd1) measured by eliminating the
    m^3 x m^2 matrix of the second map, and the composite by six face maps
    per column: the audit before the homotopy certificate, kept as its
    oracle."""
    field = A.field
    tc = TensorContext(A)
    idxA = A.index_list()
    idxAA = tc.AA.index_list()
    idxAAA = tc.AAA.index_list()
    zero = field.zero()

    first_images = [tc.d2(A.basis_element(i)) - tc.d1(A.basis_element(i)) for i in idxA]
    m1 = [[img.data.get(r, zero) for img in first_images] for r in idxAA]
    ker1_vecs = linalg.kernel_basis(m1, field, ncols=len(idxA))
    ker1 = [A.from_vector(v) for v in ker1_vecs]
    unit_ok = len(ker1) == 1 and ker1[0].scalar_part() is not None

    def second_map(z):
        return tc.dd3(z) - tc.dd2(z) + tc.dd1(z)

    second_images = {}
    for key in idxAA:
        second_images[key] = second_map(AlgElement(tc.AA, {key: field.one()}))
    m2 = [[second_images[c].data.get(r, zero) for c in idxAA] for r in idxAAA]
    ker2_vecs = linalg.kernel_basis(m2, field, ncols=len(idxAA))

    composite_zero = all(second_map(img).is_zero() for img in first_images)
    dim_im1 = len(idxA) - len(ker1_vecs)
    exact = composite_zero and len(ker2_vecs) == dim_im1
    return algebras.AmitsurReport(
        algebra_dim=len(idxA), dim_ker_first=len(ker1_vecs), first_kernel=ker1,
        unit_spans_first_kernel=unit_ok, dim_ker_second=len(ker2_vecs),
        dim_image_first=dim_im1, composite_is_zero=composite_zero, exact=exact)


def _counted_audit(A, monkeypatch):
    """(amitsur_audit(A), the number of its linalg.kernel_basis calls)."""
    calls = []
    kernel = linalg.kernel_basis

    def counting(rows, field, ncols):
        calls.append(ncols)
        return kernel(rows, field, ncols)

    with monkeypatch.context() as mp:
        mp.setattr(linalg, "kernel_basis", counting)
        rep = amitsur_audit(A)
    return rep, len(calls)


@pytest.mark.parametrize("descriptor", ["QQ", "GF(4);frob^1", "GF(9);frob^1", "QQ(t);shift"])
def test_certified_audit_equals_elimination(descriptor, monkeypatch):
    """On random algebras and on the algebra-audit block shapes (dims 1 to
    6), the certified report equals the elimination's field by field, and
    the audit reduces M1 alone: one kernel_basis call."""
    field = make_field(descriptor)
    rng = random.Random(23)
    randoms = [random_findim_algebra(field, rng, max_dim=5 if field.finite else 4)
               for _ in range(5)]
    for A in randoms + list(_audit_algebras(field, rng)):
        rep, calls = _counted_audit(A, monkeypatch)
        assert rep.ok and calls == 1, (descriptor, A.labels)
        assert rep == _audit_by_elimination(A), (descriptor, A.labels)


def _mutation_algebras():
    QQ, gf9 = make_field("QQ"), make_field("GF(9);frob^1")
    return [make_mu_algebra(QQ.element(2), QQ.one()),
            change_basis(make_split_algebra(gf9, 3, [1, 2, 0]),
                         random_basis_change(gf9, random.Random(5), 3, False))]


@pytest.mark.parametrize("slot", [0, 1, 2])
def test_a_face_map_broken_at_each_slot_fails_the_audit(slot, monkeypatch):
    """_insert writing slot p's tensor-1 into the next slot breaks the
    complex; the certificate fails, M2 is eliminated (a second kernel_basis
    call) and the report equals the elimination's on the same maps."""
    original = TensorContext._insert

    def broken(self, z, pos):
        return original(self, z, (pos + 1) % 3 if pos == slot else pos)

    monkeypatch.setattr(TensorContext, "_insert", broken)
    for A in _mutation_algebras():
        rep, calls = _counted_audit(A, monkeypatch)
        assert not rep.ok and calls == 2
        assert rep == _audit_by_elimination(A)


def test_a_face_map_dropping_one_term_fails_the_certificate(monkeypatch):
    """dd1 without its last term, 1 = sum u_k e_k's last key in the first
    slot: the identity s3 f - e s2 = id fails on every basis tensor, and the
    report is the elimination's on the same broken maps."""
    original = TensorContext._insert

    def dropping(self, z, pos):
        out = original(self, z, pos)
        if pos == 0 and out.data:
            out.data.pop(list(out.data)[-1])
        return out

    monkeypatch.setattr(TensorContext, "_insert", dropping)
    for A in _mutation_algebras():
        tc = TensorContext(A)
        first = {i: tc.d2(A.basis_element(i)) - tc.d1(A.basis_element(i))
                 for i in A.index_list()}
        second = {z: tc.dd3(tc.AA.basis_element(z)) - tc.dd2(tc.AA.basis_element(z))
                  + tc.dd1(tc.AA.basis_element(z)) for z in tc.AA.index_list()}
        assert not algebras._homotopy_holds(tc, first, second)
        rep, calls = _counted_audit(A, monkeypatch)
        assert calls == 2 and not rep.ok
        assert rep == _audit_by_elimination(A)


def test_a_form_with_lambda_of_one_not_one_fails_the_certificate(monkeypatch):
    """lambda = 2 x_r / u_r has lambda(1) = 2, so s3 f - e s2 = 2 id: the
    certificate fails on the true Amitsur maps, and the elimination still
    returns the correct report."""
    original = TensorContext.homotopy_form
    monkeypatch.setattr(TensorContext, "homotopy_form",
                        lambda self: (original(self)[0], original(self)[1] / 2))
    for A in _mutation_algebras():
        rep, calls = _counted_audit(A, monkeypatch)
        assert calls == 2 and rep.ok
        assert rep == _audit_by_elimination(A)


def test_any_unit_coordinate_gives_a_valid_form(monkeypatch):
    """lambda(x) = x_g / u_g for the first key g with u_g != 0 has
    lambda(1) = 1 too: the certificate holds and M2 is not eliminated."""
    cases = _mutation_algebras()
    assert len(cases[1].unit_data()) > 1     # the first key is not the last
    monkeypatch.setattr(TensorContext, "homotopy_form",
                        lambda self: next(iter(self.A.unit_data().items())))
    for A in cases:
        rep, calls = _counted_audit(A, monkeypatch)
        assert calls == 1 and rep.ok
        assert rep == _audit_by_elimination(A)


def test_qq_algebra_arithmetic_keeps_raw_values_in_normal_form(QQ):
    """Products, inverses and sigma in random QQ algebras, and in their
    tensor squares, hold coefficients in normal form."""
    rng = random.Random(77)
    for _ in range(8):
        A = random_findim_algebra(QQ, rng, max_dim=4)
        for B in (A, A.tensor_power(2)):
            idx = B.index_list()
            xs = [B.element({i: QQ.random_element(rng) for i in idx}) for _ in range(3)]
            got = [x * y for x in xs for y in xs] + [x.sigma() for x in xs]
            got += [inv for inv in (x.maybe_inverse() for x in xs) if inv is not None]
            got += [B.basis_element(i) * B.basis_element(j) for i in idx for j in idx]
            for z in got:
                for c in z.data.values():
                    assert_qq_normal_form(c.value)
        kind, _, _, mult, unit, sigma = A.cache_key()
        assert kind == "table"
        for vec in [v for row in mult for v in row] + [unit] + list(sigma):
            for value in vec:
                assert_qq_normal_form(value)


def test_fraction_and_int_tables_give_one_algebra(QQ):
    """A TableAlgebra built from integral Fractions has the cache key of the
    one built from ints, holds ints, and shares its tables with it."""
    def mu_table(a, one, zero):
        return ([[[one, zero], [zero, one]], [[zero, one], [a, zero]]],
                [one, zero], [[one, zero], [zero, one]])

    by_int = make_findim(QQ, ("1", "y"), *mu_table(4, 1, 0))
    by_fraction = make_findim(QQ, ("1", "y"), *mu_table(Fraction(8, 2), Fraction(1), Fraction(0)))
    assert by_fraction.cache_key() == by_int.cache_key()
    assert hash(by_fraction.cache_key()) == hash(by_int.cache_key())
    assert by_fraction._tables is by_int._tables
    assert all(type(v) is int for vec in by_fraction._tables.key[3][1] for v in vec)
    assert by_fraction == by_int


# --------------------------------------------------------------------------
# basis changes, direct sums, invariants and canonical data certified by
# their lemmas, against the generic checks


def _change_basis_by_validate(A, P):
    """change_basis with every product f_i f_j computed and the table built
    by the public, validating constructor: the oracle for the certified
    build."""
    field = A.field
    idx = A.index_list()
    m = len(idx)
    P = [[field.element(c) for c in row] for row in P]
    Pinv = linalg.invert_matrix(P, field)
    fs = [AlgElement(A, {idx[i]: P[i][j] for i in range(m) if not P[i][j].is_zero()})
          for j in range(m)]
    pos = {k: i for i, k in enumerate(idx)}

    def to_new(x):
        terms = [(pos[k], c) for k, c in x.data.items()]
        return [sum((Pinv[r][i] * c for i, c in terms), field.zero()) for r in range(m)]

    mult = [[to_new(fs[i] * fs[j]) for j in range(m)] for i in range(m)]
    sigma = [to_new(fs[i].sigma()) for i in range(m)]
    return algebras.TableAlgebra(field, tuple(f"f{i + 1}" for i in range(m)), mult,
                                 to_new(A.one()), sigma)


def _basis_changes(F, rng):
    """(A, P) for random algebras and the algebra-audit shapes' direct sums,
    each with a random determinant-1 basis change."""
    randoms = [random_findim_algebra(F, rng, max_dim=5 if F.finite else 4) for _ in range(4)]
    sums = [A for n, A in enumerate(_audit_algebras(F, rng)) if n % 2 == 0]
    for A in randoms + sums:
        polynomial = F.descriptor.startswith("QQ(t)") and A.dim <= 3
        yield A, random_basis_change(F, rng, A.dim, polynomial)


@pytest.mark.parametrize("descriptor", ["QQ", "GF(4);frob^1", "GF(9);frob^1", "QQ(t);shift"])
def test_certified_basis_change_equals_the_validated_one(descriptor):
    """The transported table has the cache key and the tables of the one
    the validating constructor builds, and passes both checks."""
    F = make_field(descriptor)
    for A, P in _basis_changes(F, random.Random(31)):
        oracle = _change_basis_by_validate(A, P)
        key, tables = oracle.cache_key(), _dense_tables(oracle)
        del oracle              # so that the certified build makes its own tables
        gc.collect()
        B = change_basis(A, P)
        assert B.cache_key() == key and _dense_tables(B) == tables, (descriptor, A.labels)
        B.validate()
        _validate_by_elements(B)


@pytest.mark.parametrize("descriptor", ["QQ", "GF(4);frob^1", "GF(9);frob^1", "QQ(t);shift"])
def test_certified_sums_and_invariants_pass_the_generic_checks(descriptor):
    """Direct sums, basis changes and descended invariants (canonical and
    mu-twisted) built without validate pass validate and the element
    oracle."""
    F = make_field(descriptor)
    rng = random.Random(37)
    built = list(_audit_algebras(F, rng))
    for _ in range(3):
        C0 = random_findim_algebra(F, rng, max_dim=3 if F.finite else 2)
        A = random_findim_algebra(F, rng, max_dim=2)
        built.append(descend_invariants(canonical_descent_datum(C0, A)).invariants)
    c = random_unit(F, rng)
    A = make_mu_algebra(c * c, c.sigma() / c)
    y = A.basis_element(1)
    built.append(descend_invariants(mu_twisted_datum(A, TensorContext(A).pair(y.inverse(), y)))
                 .invariants)
    for B in built:
        B.validate()
        _validate_by_elements(B)


def _certificate_cases(k):
    """An algebra over k, a basis change of it with off-diagonal entries and
    a canonical datum whose invariants have more than one term."""
    A = direct_sum(make_split_algebra(k, 2, [1, 0]), scalar_algebra(k))
    one, zero, two = k.one(), k.zero(), k.element(2) if k.descriptor == "QQ" else k.element("w")
    P = [[one, two, zero], [zero, one, zero], [one, zero, one]]
    return A, P, canonical_descent_datum(make_mu_algebra(two * two, one), A)


@pytest.mark.parametrize("field", ["QQ", "gf9"])
def test_a_wrong_inverse_fails_the_transport_certificate(field, request, monkeypatch):
    """invert_matrix returning P^-1 off in one entry: P^-1 P != I."""
    k = request.getfixturevalue(field)
    A, P, _ = _certificate_cases(k)
    invert = linalg.invert_matrix

    def off(matrix, fld):
        inv = invert(matrix, fld)
        inv[0][-1] = inv[0][-1] + fld.one()
        return inv

    monkeypatch.setattr(linalg, "invert_matrix", off)
    with pytest.raises(AlgebraError, match="^basis change: the coordinates do not invert the basis$"):
        change_basis(A, P)


@pytest.mark.parametrize("field", ["QQ", "gf9"])
def test_coordinates_dropping_a_term_fail_the_transport_certificate(field, request, monkeypatch):
    """_to_new skipping the last term of its element, in a basis change
    and in the invariants' read-off; with the identity as P the basis
    elements keep their coordinates and a product with two terms fails."""
    k = request.getfixturevalue(field)
    A, P, datum = _certificate_cases(k)
    changed = change_basis(A, P)
    identity = [[k.one() if i == j else k.zero() for j in range(3)] for i in range(3)]
    to_new = algebras._to_new

    def dropping(fld, cols, n, x):
        if len(x.data) > 1:
            x = AlgElement(x.algebra, dict(list(x.data.items())[:-1]))
        return to_new(fld, cols, n, x)

    monkeypatch.setattr(algebras, "_to_new", dropping)
    with pytest.raises(AlgebraError, match="^basis change: the coordinates do not invert the basis$"):
        change_basis(A, P)
    with pytest.raises(AlgebraError, match="^basis change: the basis does not carry the table$"):
        change_basis(changed, identity)
    with pytest.raises(AlgebraError, match="^descended invariants: "):
        descend_invariants(datum)


@pytest.mark.parametrize("field", ["QQ", "gf9"])
def test_a_kernel_vector_off_one_at_its_free_column_fails(field, request, monkeypatch):
    """A kernel vector scaled by c != 1 still spans B0, but its free column
    reads c, not one: the read-off coordinates would be wrong."""
    k = request.getfixturevalue(field)
    _, _, datum = _certificate_cases(k)
    c = k.element(2) if field == "QQ" else k.element("w")
    kernel = linalg.kernel_basis

    def scaled(rows, fld, ncols):
        vecs = kernel(rows, fld, ncols)
        vecs[-1] = [v * c for v in vecs[-1]]
        return vecs

    monkeypatch.setattr(linalg, "kernel_basis", scaled)
    with pytest.raises(AlgebraError,
                       match="^descended invariants: the coordinates do not invert the basis$"):
        descend_invariants(datum)


def _near_canonical_data(k):
    """Data one step off canonical_descent_datum(C0, A): one image scaled,
    iota scaled, the factors in the order [A, C0], B a TableAlgebra copy
    of C0 (x) A; and a mu-twisted datum."""
    c = k.element(2) if k.descriptor == "QQ" else k.element("w")
    one = k.one()
    C0, A = make_mu_algebra(c * c, one), make_split_algebra(k, 2, [1, 0])
    out = []
    changed = canonical_descent_datum(C0, A)
    key = list(changed.phi_images)[1]
    changed.phi_images[key] = changed.phi_images[key] * c
    out.append(changed)
    canon = canonical_descent_datum(C0, A)
    iota = AlgebraMorphism(A, canon.B, [img * c for img in canon.iota.images], check=False)
    out.append(DescentDatum(A, canon.B, iota, canon.phi_images, check=False))
    B = TensorAlgebra([A, C0])
    AB = TensorAlgebra([A, B])
    iota = AlgebraMorphism(A, B, [B.pure_tensor(e, C0.one()) for e in A.generators()],
                           check=False)
    out.append(DescentDatum(A, B, iota, {((a, c0), a2): AlgElement(AB, {(a, (a2, c0)): one})
                                         for (a, c0), a2 in TensorAlgebra([B, A]).index_list()},
                            check=False))
    T = canon.B
    idx = T.index_list()
    pos = {key: p for p, key in enumerate(idx)}
    copy = make_findim(k, tuple(map(T.index_label, idx)),
                       [[T.to_vector(T.basis_element(i) * T.basis_element(j)) for j in idx]
                        for i in idx], T.to_vector(T.one()),
                       [T.to_vector(T.basis_element(i).sigma()) for i in idx])
    AB = TensorAlgebra([A, copy])
    iota = AlgebraMorphism(A, copy, [copy.element({pos[key]: v for key, v in img.data.items()})
                                     for img in canon.iota.images], check=False)
    out.append(DescentDatum(A, copy, iota,
                            {(pos[(c0, a)], a2): AlgElement(AB, {(a, pos[(c0, a2)]): one})
                             for (c0, a), a2 in canon.BA.index_list()}, check=False))
    y = C0.basis_element(1)
    out.append(mu_twisted_datum(C0, TensorContext(C0).pair(y.inverse(), y)))
    return canon, out


@pytest.mark.parametrize("field", ["QQ", "gf9"])
def test_near_canonical_data_take_the_generic_checks(field, request, monkeypatch):
    """Only the canonical datum is recognized; each near miss runs the
    generic checks (iota's validate first) and gets the all-pairs oracle's
    verdict: the two scaled data fail, the reordered, table and twisted
    ones pass."""
    k = request.getfixturevalue(field)
    canon, data = _near_canonical_data(k)
    assert canon._is_canonical_swap()
    calls = []
    validate = AlgebraMorphism.validate
    monkeypatch.setattr(AlgebraMorphism, "validate", lambda self: (calls.append(1), validate(self)))
    errors = []
    for d in data:
        assert not d._is_canonical_swap()
        calls.clear()
        errors.append(_error(d.validate))
        assert calls
        assert errors[-1] == _error(lambda: _all_pairs_validate(d))
    assert errors[0] is not None and errors[1] == "morphism does not preserve 1"
    assert errors[2:] == [None, None, None]


def test_canonical_descent_and_certified_builds_skip_the_generic_checks(QQ, monkeypatch):
    """A canonical datum's validate runs no cocycle check and no rank;
    change_basis, direct_sum and descend_invariants run no
    TableAlgebra.validate."""
    A, P, datum = _certificate_cases(QQ)
    mu = make_mu_algebra(QQ.element(3), QQ.one())
    calls = []
    for owner, name in ((DescentDatum, "_check_cocycle"), (linalg, "rank"),
                        (algebras.TableAlgebra, "validate")):
        original = getattr(owner, name)
        monkeypatch.setattr(owner, name,
                            lambda *args, _f=original, _n=name: (calls.append(_n), _f(*args))[1])
    datum.validate()
    change_basis(A, P)
    direct_sum(A, mu)
    assert calls == []
    descend_invariants(datum)
    assert "validate" not in calls and "_check_cocycle" not in calls
