"""Difference operators: application, the Abramov solver, H^1 = k/L(k)."""

import functools
import itertools
import random
from fractions import Fraction

import pytest

from dcoh import polys
from dcoh.fields import make_field
from dcoh.operators import (DifferenceOperator, OperatorError,
                            additive_kernel_basis, classify_additive_h1,
                            degree_bound, dispersion_set,
                            dispersion_set_resultant, op_apply, solve_additive,
                            solve_additive_full, solve_sigma_quotient,
                            universal_denominator)
from dcoh.outcome import BudgetExceeded


def op(field, text):
    return DifferenceOperator.parse(field, text)


def test_op_apply_examples(gf4, shift_field):
    L4 = op(gf4, "s - 1")
    w = gf4.element("w")
    assert op_apply(L4, w) == gf4.one()  # w^2 - w = 1 with w^2 = w + 1
    assert op_apply(L4, gf4.zero()) == gf4.zero()
    L = op(shift_field, "s - 1")
    assert op_apply(L, shift_field.element("t")) == shift_field.one()


def test_operator_parsing(shift_field):
    L = op(shift_field, "s^2 - 3*s + 1")
    assert L.order == 2
    assert L.coeffs[1] == shift_field.element(-3)
    L2 = op(shift_field, "s^2 + (1/t)*s - t")
    assert L2.coeffs[0] == shift_field.element("-t")
    with pytest.raises(OperatorError):
        op(shift_field, "2*s - 1")  # not monic
    with pytest.raises(OperatorError):
        op(shift_field, "t + 1")  # no sigma at all


def test_abramov_solved_example(shift_field):
    k = shift_field
    L = op(k, "s - 1")
    a = k.element("1/(t*(t+1))")
    b = solve_additive(L, a)
    assert b is not None
    # verification by substitution; -1/t is one valid witness, and any
    # answer may differ from it by a kernel element
    assert op_apply(L, b) == a
    assert op_apply(L, k.element("-1/t")) == a


def test_abramov_nonexistence_certificate(shift_field):
    k = shift_field
    L = op(k, "s - 1")
    res = solve_additive_full(L, k.element("1/t"))
    assert res.status == "no"
    assert res.certificate == "no-rational-solution"
    assert solve_additive(L, k.element("1/t")) is None


def test_abramov_random_solvable_instances(shift_field):
    k = shift_field
    rng = random.Random(17)
    ops = ["s - 1", "s^2 - 3*s + 1", "s - t", "s^2 + (1/t)*s - 1"]
    for text in ops:
        L = op(k, text)
        for _ in range(4):
            b = k.random_element(rng)
            a = op_apply(L, b)
            got = solve_additive(L, a)
            assert got is not None
            assert op_apply(L, got) == a


def test_abramov_higher_order_nonexistence(shift_field):
    k = shift_field
    L = op(k, "s^2 - 2*s + 1")
    res = solve_additive_full(L, k.element("1/t"))
    # verified against the bounded independent search in the acceptance suite
    assert res.decided


def test_kernel_basis(shift_field):
    k = shift_field
    L = op(k, "s - 1")
    ker = additive_kernel_basis(L)
    assert len(ker) == 1 and ker[0] == k.one()
    # sigma(y) = (t+1)/t * y has kernel spanned by t
    L2 = op(k, "s - (t+1)/t")
    ker2 = additive_kernel_basis(L2)
    assert len(ker2) == 1
    assert op_apply(L2, ker2[0]).is_zero()
    L3 = op(k, "s - t")
    assert additive_kernel_basis(L3) == []


@pytest.mark.parametrize("desc", ["GF(4);frob^1", "GF(9);frob^1", "GF(5);frob^1"])
def test_finite_field_solver_exhaustive(desc):
    field = make_field(desc)
    L = op(field, "s - 1")
    elements = list(field.elements())
    image = {op_apply(L, x) for x in elements}
    for a in elements:
        res = solve_additive_full(L, a)
        assert bool(res) == (a in image)
        if res:
            assert op_apply(L, res.witness) == a
    # rank-nullity audit: |image| * |kernel| = q
    kernel = [x for x in elements if op_apply(L, x).is_zero()]
    assert len(image) * len(kernel) == field.size


def test_classification_finite_examples(gf4):
    h1 = classify_additive_h1(op(gf4, "s - 1"))
    assert h1.size == 2
    assert [str(r) for r in h1.representatives] == ["0", "w"]
    # derived: the Artin-Schreier image {x^2 - x} over GF(4) is {0, 1}
    image = {op_apply(op(gf4, "s - 1"), x) for x in gf4.elements()}
    assert image == {gf4.zero(), gf4.one()}

    g5 = make_field("GF(5);frob^1")
    h5 = classify_additive_h1(op(g5, "s - 1"))
    assert h5.size == 5  # sigma = id on the prime field, so L = 0

    g9 = make_field("GF(9);frob^1")
    h9 = classify_additive_h1(op(g9, "s - 1"))
    assert h9.size == 3


def test_representatives_are_a_transversal(gf9):
    L = op(gf9, "s - 1")
    h1 = classify_additive_h1(L)
    image = {op_apply(L, x) for x in gf9.elements()}
    reps = h1.representatives
    # pairwise inequivalent and jointly covering
    covered = set()
    for r in reps:
        covered.update((r + img) for img in image)
    assert len(covered) == gf9.size
    for i, r1 in enumerate(reps):
        for r2 in reps[i + 1:]:
            assert (r2 - r1) not in image


def test_classification_oracle_mode(shift_field):
    k = shift_field
    L = op(k, "s - 1")
    h1 = classify_additive_h1(L)
    assert h1.kind == "oracle"
    res = h1.equivalent(k.zero(), k.element("1/(t*(t+1))"))
    assert res
    assert op_apply(L, res.witness) == k.element("1/(t*(t+1))")
    assert h1.equivalent(k.zero(), k.element("1/t")).status == "no"


def test_equivalence_relation_properties(shift_field):
    k = shift_field
    L = op(k, "s - 1")
    rng = random.Random(23)
    samples = [k.random_element(rng) for _ in range(4)]
    for a in samples:
        assert solve_additive_full(L, a - a)
        for b in samples:
            r1 = solve_additive_full(L, b - a)
            r2 = solve_additive_full(L, a - b)
            assert bool(r1) == bool(r2)
            if r1:
                # transitivity through witness addition
                for c in samples:
                    r3 = solve_additive_full(L, c - b)
                    if r3:
                        w = r1.witness + r3.witness
                        assert op_apply(L, w) == c - a


def test_abramov_nonexistence_cross_validated(shift_field):
    """Random instances: every NO answer is confirmed by an independent
    bounded search (denominators with poles at integer shifts of the
    right side's poles, small degrees)."""
    import itertools
    from fractions import Fraction

    k = shift_field
    rng = random.Random(314)

    def random_operator():
        order = rng.randint(1, 2)
        coeffs = []
        for _ in range(order):
            num = polys.poly([rng.randint(-2, 2) for _ in range(rng.randint(1, 2))])
            den = polys.poly([rng.randint(-2, 2) for _ in range(rng.randint(1, 2))])
            coeffs.append(k.ratfun(num or polys.ONE, den or polys.ONE))
        return DifferenceOperator(k, coeffs)

    def random_rhs():
        num = polys.poly([rng.randint(-2, 2) for _ in range(rng.randint(1, 3))])
        den = polys.ONE
        for _ in range(rng.randint(0, 2)):
            den = polys.pmul(den, polys.poly([rng.randint(-2, 2), 1]))
        return k.ratfun(num or polys.ONE, den)

    def bounded_family_has_solution(L, a, max_deg=3, window=3):
        roots = polys.integer_roots(a.value[1]) if polys.deg(a.value[1]) > 0 else [0]
        shifts = sorted({r + j for r in roots for j in range(-window, window + 1)})
        factors = [polys.poly([-c, 1]) for c in shifts]
        for total in range(0, max_deg + 1):
            for combo in itertools.combinations_with_replacement(
                    range(len(factors)), total):
                den = polys.ONE
                for j in combo:
                    den = polys.pmul(den, factors[j])
                cols = [op_apply(L, k.ratfun(polys.poly([0] * d + [1]), den))
                        for d in range(max_deg + 1)]
                common = a.value[1]
                for col in cols:
                    common = polys.plcm(common, col.value[1])
                numified = [polys.pmul(c.value[0], polys.pdiv_exact(common, c.value[1]))
                            for c in cols]
                target = polys.pmul(a.value[0],
                                    polys.pdiv_exact(common, a.value[1]))
                rows = max([polys.deg(x) for x in numified]
                           + [polys.deg(target)]) + 1
                aug = [[Fraction(x[r]) if r < len(x) else Fraction(0)
                        for x in numified]
                       + [Fraction(target[r]) if r < len(target) else Fraction(0)]
                       for r in range(rows)]
                ncols = max_deg + 1
                rr, consistent = 0, True
                for col in range(ncols + 1):
                    piv = next((i for i in range(rr, rows) if aug[i][col]), None)
                    if piv is None:
                        continue
                    if col == ncols:
                        consistent = False
                        break
                    aug[rr], aug[piv] = aug[piv], aug[rr]
                    pr = aug[rr]
                    inv = 1 / pr[col]
                    for i in range(rows):
                        if i != rr and aug[i][col]:
                            f = aug[i][col] * inv
                            aug[i] = [x - f * y for x, y in zip(aug[i], pr)]
                    rr += 1
                if consistent:
                    return True
        return False

    checked_no = 0
    for _ in range(8):
        L = random_operator()
        a = random_rhs()
        if a.is_zero():
            continue
        res = solve_additive_full(L, a)
        if res:
            assert op_apply(L, res.witness) == a
        else:
            assert not bounded_family_has_solution(L, a)
            checked_no += 1
    assert checked_no >= 1


def test_dispersion_cross_check():
    rng = random.Random(31)
    for _ in range(25):
        A = polys.poly([rng.randint(-3, 3) for _ in range(rng.randint(2, 4))])
        B = polys.poly([rng.randint(-3, 3) for _ in range(rng.randint(2, 4))])
        if polys.deg(A) < 1 or polys.deg(B) < 1:
            continue
        assert dispersion_set(A, B) == dispersion_set_resultant(A, B)
    # a structured positive case: roots exactly 5 apart
    A = polys.poly([0, 1])           # t
    B = polys.poly([5, 1])           # t + 5: B(t + (-5)) = t, so shift -5...
    assert dispersion_set(B, A) == [5]
    assert dispersion_set_resultant(B, A) == [5]


def test_dispersion_window_over_the_budget_raises():
    A, B = polys.poly([0, 1]), polys.poly([5, 1])
    with pytest.raises(BudgetExceeded) as e:
        dispersion_set(B, A, budget=1)
    assert e.value.space > 1
    assert dispersion_set(B, A, budget=e.value.space) == [5]


def test_shift_solvers_decide_without_a_budget_and_refuse_under_one(shift_field):
    k = shift_field
    L = op(k, "s - 1")
    assert solve_additive_full(L, k.element("t^20"))
    res = solve_additive_full(L, k.element("t^20"), budget=10)
    assert res.status == "undecided" and res.certificate == "budget-exhausted"
    assert res.detail["space"] > 10
    a = k.element("(t+50)/t")
    res = solve_sigma_quotient(a)
    assert res and res.witness.sigma() == a * res.witness
    res = solve_sigma_quotient(a, budget=10)
    assert res.status == "undecided" and res.detail["space"] > 10


def test_universal_denominator_divides_solution_denominator(shift_field):
    k = shift_field
    L = op(k, "s - 1")
    a = k.element("1/(t*(t+1))")
    ps = [polys.pneg(polys.pmul(a.value[1], polys.ONE)), a.value[1]]
    # direct check on the worked example: u = t and the solution is -1/t
    u = universal_denominator([polys.pneg((a.value[1])), a.value[1]])
    sol_den = k.element("-1/t").value[1]
    assert polys.pdivmod(u, sol_den)[1] == polys.ZERO


def test_scalar_field_cases(QQ):
    L = op(QQ, "s - 2")
    # sigma = id: L is multiplication by 1 - 2 = -1
    assert solve_additive(L, QQ.element(3)) == QQ.element(-3)
    L0 = op(QQ, "s - 1")
    res = solve_additive_full(L0, QQ.one())
    assert res.status == "no"
    h1 = classify_additive_h1(L0)
    assert h1.size is None  # H^1 = k itself


def test_bounded_search_over_dilation():
    k = make_field("QQ(t);dilate:2")
    L = op(k, "s - 1")
    b = k.element("t^2")
    a = op_apply(L, b)  # 4t^2 - t^2 = 3t^2
    res = solve_additive_full(L, a)
    assert res.status in ("yes", "undecided")
    if res:
        assert op_apply(L, res.witness) == a
    hard = solve_additive_full(L, k.element("t^3 + 1/(t^5+t+1)"))
    assert hard.status in ("yes", "undecided")


def test_abramov_polynomial_rhs_raises_degree(shift_field):
    # telescoping against sigma - 1 raises polynomial degree by one
    k = shift_field
    L = op(k, "s - 1")
    b = solve_additive(L, k.element("t"))
    assert b is not None and op_apply(L, b) == k.element("t")
    assert b - k.element("(t^2-t)/2") in (k.zero(), b - k.element("(t^2-t)/2"))
    # the canonical solution t(t-1)/2 differs from b by a constant
    diff = b - k.element("(t^2-t)/2")
    assert diff.sigma() == diff


def test_abramov_spread_denominators(shift_field):
    k = shift_field
    L = op(k, "s^2 - 3*s + 1")
    b = k.element("1/(t*(t+5))")
    a = op_apply(L, b)
    got = solve_additive(L, a)
    assert got is not None and op_apply(L, got) == a


def test_sigma_quotient_negative_shift_reduction(shift_field):
    # sigma(x)/x = t/(t+3) forces gcd cancellations at a negative shift
    k = shift_field
    a = k.element("t/(t+3)")
    res = solve_sigma_quotient(a, 1)
    assert res
    x = res.witness
    assert x.sigma() == a * x


def test_sigma_quotient_solver(shift_field, gf9, QQ):
    k = shift_field
    rng = random.Random(41)
    for _ in range(10):
        x = k.random_element(rng)
        if x.is_zero():
            continue
        a = x.sigma() / x
        res = solve_sigma_quotient(a, 1)
        assert res
        assert res.witness.sigma() / res.witness == a
    assert solve_sigma_quotient(k.element("t"), 1).status == "no"
    assert solve_sigma_quotient(k.element("2"), 1).status == "no"
    assert solve_sigma_quotient(k.element("(t+3)/t"), 3)

    # finite field: brute force inside the solver
    for a in gf9.units():
        res = solve_sigma_quotient(a, 1)
        if res:
            assert res.witness.sigma(1) == a * res.witness

    assert solve_sigma_quotient(QQ.one(), 2)
    assert solve_sigma_quotient(QQ.element(2), 1).status == "no"


def test_degree_bound_recovers_polynomial_solutions(shift_field):
    k = shift_field
    rng = random.Random(53)
    for _ in range(10):
        L = DifferenceOperator(k, [k.element(rng.randint(-3, 3)),
                                   k.element(rng.randint(-3, 3))])
        z = polys.poly([rng.randint(-2, 2) for _ in range(rng.randint(1, 4))])
        b = k.ratfun(z)
        a = op_apply(L, b)
        if a.is_zero():
            continue
        ps = [c.value[0] if c.value[1] == polys.ONE else None for c in L.coeffs]
        assert all(p is not None for p in ps)
        ps = ps + [polys.ONE]
        bound = degree_bound(ps, polys.deg(a.value[0]))
        assert bound >= polys.deg(z)


@pytest.mark.parametrize("descriptor,x", [("QQ(t);shift", "t^2/(t + 3)"),
                                          ("GF(9);frob^1", "w + 2")])
def test_operator_products_compose(descriptor, x):
    """A product parses as the composition, sigma*c = sigma(c)*sigma."""
    F = make_field(descriptor)
    c = "t" if descriptor.startswith("QQ") else "w"
    x = F.element(x)
    for left, right in [("s - 1", f"s - {c}"), (f"s - {c}", "s - 1"),
                        (f"s + {c}", f"s^2 - {c}*s + 1")]:
        L, R = DifferenceOperator.parse(F, left), DifferenceOperator.parse(F, right)
        LR = DifferenceOperator.parse(F, f"({left})*({right})")
        assert LR.apply(x) == L.apply(R.apply(x)), (left, right)
    if c == "t":
        assert str(DifferenceOperator.parse(F, "(s-1)*(s-t)")) == "s^2 + (-t - 2)*s + t"


# --------------------------------------------------------------------------
# the kernel basis against brute force; the GF(q) quotient search is charged


@pytest.mark.parametrize("descriptor", ["GF(4);frob^1", "GF(9);frob^1", "GF(8);frob^1",
                                        "GF(9);frob^2"])
def test_additive_kernel_basis_over_a_finite_field(descriptor):
    """{b in k : L(b) = 0} by brute force is the F_p-span of the basis, and
    the basis is independent: the span has p^len(basis) elements."""
    k = make_field(descriptor)
    p = k.characteristic
    for text in ("s - 1", "s + 1", "s^2 - 1", "s - w", "s^2 + w*s + 1", "s^3 - s"):
        L = op(k, text)
        kernel = {b for b in k.elements() if L.apply(b).is_zero()}
        basis = additive_kernel_basis(L)
        span = {sum((v * c for v, c in zip(basis, cs)), k.zero())
                for cs in itertools.product(range(p), repeat=len(basis))}
        assert span == kernel and len(span) == p ** len(basis), text


def test_additive_kernel_basis_over_QQ(QQ):
    """sigma = id: L acts as its scalar value, so the kernel is QQ or 0."""
    for text, dim in (("s - 1", 1), ("s^2 - 1", 1), ("s + 1", 0), ("s^2 - 3*s + 2", 1), ("s - 2", 0)):
        basis = additive_kernel_basis(op(QQ, text))
        assert len(basis) == dim, text
        assert all(op(QQ, text).apply(b).is_zero() and not b.is_zero() for b in basis)


def test_sigma_quotient_over_a_finite_field_charges_its_units():
    """Over GF(9) the q - 1 = 8 units are charged first: budget 7 refuses
    with space 8, budget 8 decides."""
    k = make_field("GF(9);frob^1")
    for a in k.units():
        res = solve_sigma_quotient(a, 1, budget=7)
        assert (res.status, res.certificate, res.detail) == (
            "undecided", "budget-exhausted", {"space": 8})
        decided = solve_sigma_quotient(a, 1, budget=8)
        assert decided.decided and decided == solve_sigma_quotient(a, 1)


# --------------------------------------------------------------------------
# the window scans modulo a prime and the ansatz on integer rows, against
# the scans with one gcd over QQ per shift and the ansatz over QQ


def _linear(c, a=1):
    return polys.poly([c, a])


def _product(*factors):
    return functools.reduce(polys.pmul, factors, polys.ONE)


def _random_poly(rng, lo, hi):
    while True:
        p = polys.poly([Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)))
                        for _ in range(rng.randint(lo, hi) + 1)])
        if polys.deg(p) >= lo:
            return p


def _dispersion_family():
    """(A, B) pairs: random pairs, which mostly have no dispersion; shared
    factors at shifts 0..6, squared ones among them; t against t + 50;
    leading coefficients divisible by polys.PRIME."""
    rng = random.Random(67)
    P = polys.PRIME
    cases = [(_random_poly(rng, 1, 3), _random_poly(rng, 1, 3)) for _ in range(25)]
    for _ in range(25):
        f = _random_poly(rng, 1, 2)
        h = rng.randint(0, 6)
        e = rng.choice((1, 1, 2))
        A = _product(*[f] * e, _random_poly(rng, 0, 1))
        B = _product(*[polys.shift(f, -h)] * rng.choice((1, e)), _random_poly(rng, 0, 1))
        cases.append((A, B))
    cases.append((_linear(0), _linear(-50)))
    cases.append((_product(_linear(0), _linear(3)), _product(_linear(-50), _linear(1, 2))))
    cases.append((_linear(1, P), _product(_linear(1, P), _linear(-2))))
    cases.append((_product(_linear(3), _linear(1, P)), polys.shift(_linear(3), -4)))
    cases.append((_product(_linear(-1), _linear(-1)), polys.poly([1, 0, P])))
    cases.append((polys.poly([2, 1, 1]), _product(polys.poly([1, 0, P]), _linear(-7))))
    return cases


def _primitive_ints(p):
    return polys._primitive(polys._cleared(p)[0])


def _prime_divides_a_leading_coefficient(A, B):
    return any(_primitive_ints(p)[-1] % polys.PRIME == 0 for p in (A, B))


def test_dispersion_set_matches_the_resultant_on_a_seeded_family():
    cases = _dispersion_family()
    far = nonempty = empty = fallback = 0
    for A, B in cases:
        ds = dispersion_set(A, B)
        assert ds == dispersion_set_resultant(A, B), (A, B)
        far += 50 in ds
        nonempty += bool(ds)
        empty += not ds
        fallback += _prime_divides_a_leading_coefficient(A, B)
    assert far == 2 and nonempty >= 25 and empty >= 10 and fallback == 4


def test_window_scan_confirms_only_the_modular_candidates(monkeypatch):
    """dispersion_set runs its gcd over QQ on exactly the h whose gcd
    modulo polys.PRIME is nonconstant, and on the whole window when the
    prime divides a leading coefficient."""
    from dcoh import operators
    confirmed = []
    pgcd = polys.pgcd

    def counting(a, b):
        confirmed.append(b)
        return pgcd(a, b)

    monkeypatch.setattr(operators, "pgcd", counting)
    skipped = 0
    for A, B in _dispersion_family():
        if polys.deg(A) <= 0 or polys.deg(B) <= 0:
            continue
        window = range(operators._dispersion_window(A, B) + 1)
        if _prime_divides_a_leading_coefficient(A, B):
            expected = list(window)
        else:
            ia = _primitive_ints(A)
            expected = [h for h in window if polys._gcd_degree_mod(
                ia, _primitive_ints(polys.shift(B, h)), polys.PRIME) > 0]
        confirmed.clear()
        dispersion_set(A, B)
        assert confirmed == [polys.shift(B, h) for h in expected]
        skipped += len(window) - len(expected)
    assert skipped > 100


def _reference_first_shift(p, q, d, top):
    """The first j != 0 in -top..top with a nonconstant gcd(p, q(t + j d)),
    by one gcd over QQ per j."""
    for j in range(-top, top + 1):
        if j:
            g = polys.pgcd(p, polys.shift(q, j * d))
            if polys.deg(g) > 0:
                return j, g
    return None, None


def test_first_shift_matches_the_scan_over_QQ():
    from dcoh.operators import _first_shift
    rng = random.Random(71)
    signs = set()
    for d in (1, 2, 3):
        for _ in range(30):
            p, q = _random_poly(rng, 1, 3), _random_poly(rng, 1, 3)
            if rng.random() < 0.7:
                f, j0 = _random_poly(rng, 1, 2), rng.choice((-4, -2, -1, 1, 2, 5))
                p = _product(p, f)
                q = _product(q, polys.shift(f, -j0 * d))
            top = int((polys.cauchy_root_bound(p) + polys.cauchy_root_bound(q)) / d) + 1
            got = _first_shift(p, q, d, top)
            assert got == _reference_first_shift(p, q, d, top), (p, q, d)
            if got[0] is not None:
                signs.add((d, got[0] > 0))
    assert signs == {(d, s) for d in (1, 2, 3) for s in (True, False)}


def _reference_ansatz_matrix(k, ps, bound):
    """Coefficients over QQ of sum p_i sigma^i(t^d), one column per d <= bound,
    built from Fraction polynomials."""
    sigma_t = [polys.T]
    for _ in range(len(ps) - 1):
        sigma_t.append(k._sigma_poly(sigma_t[-1]))
    powers, cols = [polys.ONE] * len(ps), []
    for _ in range(bound + 1):
        cols.append(functools.reduce(polys.padd, map(polys.pmul, ps, powers), polys.ZERO))
        powers = list(map(polys.pmul, sigma_t, powers))
    rows = max(polys.deg(p) for p in ps) + bound * polys.deg(sigma_t[-1]) + 1
    return [[col[r] if r < len(col) else Fraction(0) for col in cols] for r in range(rows)]


def _reference_rref(rows):
    """Reduced echelon form with pivots 1, by Gauss-Jordan over Fractions."""
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    for col in range(len(rows[0])):
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pv = rows[r][col]
        rows[r] = [a / pv for a in rows[r]]
        for i in range(len(rows)):
            c = rows[i][col]
            if i != r and c:
                rows[i] = [a - c * b for a, b in zip(rows[i], rows[r])]
        pivots.append((r, col))
        r += 1
    return rows, pivots


def _reference_solution(k, ps, q, bound):
    """The particular solution of the ansatz over QQ: free unknowns zero."""
    if bound < 0:
        return None if q else polys.ZERO
    mat = _reference_ansatz_matrix(k, ps, bound)
    if polys.deg(q) >= len(mat):
        return None
    rows, pivots = _reference_rref(
        [row + [q[r] if r < len(q) else Fraction(0)] for r, row in enumerate(mat)])
    if any(c == bound + 1 for _, c in pivots):
        return None
    x = [Fraction(0)] * (bound + 1)
    for r, c in pivots:
        x[c] = rows[r][-1]
    return polys.poly(x)


@pytest.mark.parametrize("descriptor", ["QQ(t);shift", "QQ(t);dilate:2",
                                        "QQ(t);dilate:1/2", "QQ(t);subst:t^2"])
def test_polynomial_solutions_match_the_ansatz_over_QQ(descriptor):
    """Consistent, inconsistent and rank-deficient systems and zero right
    sides, with fractional coefficients."""
    from dcoh.operators import polynomial_solutions
    k = make_field(descriptor)
    rng = random.Random(73)
    seen = {"yes": 0, "no": 0, "deficient": 0, "zero": 0}
    for trial in range(60):
        n = rng.randint(1, 2)
        ps = [_random_poly(rng, 0, 3) for _ in range(n + 1)]
        if trial % 5 == 0:
            # sum p_i = 0 annihilates the constants: a zero column
            ps[-1] = polys.psub(ps[-1], functools.reduce(polys.padd, ps))
            if not ps[-1]:
                continue
        bound = rng.randint(-1, 4)
        kind = trial % 3
        if kind == 0:
            q = polys.ZERO
        elif kind == 1:
            q = _random_poly(rng, 0, 5)
        else:
            z = _random_poly(rng, 0, max(bound, 0))
            q = functools.reduce(polys.padd, [polys.pmul(p, _sigma_n(k, z, i))
                                              for i, p in enumerate(ps)])
        want = _reference_solution(k, ps, q, bound)
        assert polynomial_solutions(k, ps, q, bound) == want, (ps, q, bound)
        seen["yes" if want is not None else "no"] += 1
        seen["zero"] += not q
        if bound >= 0:
            _, piv = _reference_rref(_reference_ansatz_matrix(k, ps, bound))
            seen["deficient"] += len(piv) < bound + 1
    assert all(seen.values()), seen


def _sigma_n(k, z, i):
    for _ in range(i):
        z = k._sigma_poly(z)
    return z


@pytest.mark.parametrize("text", ["s - 1", "s^2 - 2*s + 1", "s^3 - 3*s^2 + 3*s - 1",
                                  "s - (t+1)/t", "s - (t+2)/t", "(s - 1)*(s - (t+1)/t)",
                                  "s + 1", "s - t", "s^2 + s - 3", "s - 2*(t+1)/t"])
def test_additive_kernel_basis_matches_the_ansatz_over_QQ(shift_field, text):
    from dcoh.operators import _abramov_reduction
    k = shift_field
    L = op(k, text)
    u, Ps, _, bound = _abramov_reduction(L, k.zero())
    want = []
    if bound >= 0:
        rows, pivots = _reference_rref(_reference_ansatz_matrix(k, Ps, bound))
        pivot_of_col = {c: r for r, c in pivots}
        for free in range(bound + 1):
            if free in pivot_of_col:
                continue
            x = [Fraction(0)] * (bound + 1)
            x[free] = Fraction(1)
            for c, r in pivot_of_col.items():
                x[c] = -rows[r][free]
            want.append(k.ratfun(polys.poly(x), u))
    assert additive_kernel_basis(L) == want


# --------------------------------------------------------------------------
# the residue prefilter of the window scans, against the scan of every shift


def _full_window_scan(A, B, start, step, count):
    """The window scan without the residue prefilter: every h of the window
    is tested by its gcd modulo polys.PRIME."""
    ia, ib = _primitive_ints(A), _primitive_ints(B)
    p = polys.PRIME
    hs = range(start, start + count * step, step)
    if not (ia[-1] % p and ib[-1] % p):
        yield from hs
        return
    polys._taylor_shift(ib, start)
    for h in hs:
        if polys._gcd_degree_mod(ia, ib, p) > 0:
            yield h
        polys._taylor_shift(ib, step)


def _scan_windows(A, B):
    """(start, step, count) of dispersion_set's window and of _first_shift's
    windows for d = 1, 2, 3, which reach negative shifts."""
    from dcoh import operators
    out = [(0, 1, operators._dispersion_window(A, B) + 1)]
    for d in (1, 2, 3):
        top = int((polys.cauchy_root_bound(A) + polys.cauchy_root_bound(B)) / d) + 1
        out.append((-top * d, d, 2 * top + 1))
    return out


def _residue_prime_of(A, B, start, step, count):
    from dcoh.operators import _residue_prime
    ia, ib = _primitive_ints(A), _primitive_ints(B)
    return _residue_prime(max(count - 1, len(ia) - 1, len(ib) - 1), step, ia[-1], ib[-1])


def _residue_family():
    """(A, B) pairs for the prefilter: a leading coefficient divisible by the
    first prime above the window, which also makes the roots -2/11 and 1
    meet mod 13; repeated roots; an irreducible quadratic and cubic with
    shifted partners; two cubics on each side (the prefilter falls back);
    and seeded products of factors of degree 1-3 with partners shifted by
    -4..4."""
    q, c1, c2 = polys.poly([1, 1, 1]), polys.poly([-2, 0, 0, 1]), polys.poly([1, 1, 0, 1])
    cases = [
        (_product(_linear(2, 11), _linear(-1)), _product(_linear(-20, 11), _linear(3))),
        (_product(_linear(1), _linear(1), _linear(-2)), _product(_linear(-3), _linear(-3), _linear(4))),
        (_product(q, _linear(5)), _product(polys.shift(q, -3), _linear(-1))),
        (_product(c1, _linear(1)), _product(polys.shift(c1, -2), _linear(7))),
        (_product(c1, c2), _product(polys.shift(c1, -1), polys.shift(c2, -2))),
    ]
    rng = random.Random(73)
    for _ in range(30):
        f = _random_poly(rng, 1, 3)
        h = rng.randint(-4, 4)
        A = _product(*[f] * rng.choice((1, 1, 2)), _random_poly(rng, 0, 2))
        B = _product(polys.shift(f, -h), _random_poly(rng, 0, 2))
        cases.append((A, B) if rng.random() < 0.5 else (B, A))
    return cases


def _residue_features(A, B):
    """Which of the family's features (A, B) shows in one of its windows."""
    from dcoh.operators import _distinct_factors, _residue_prime, _shift_residues
    ia, ib = _primitive_ints(A), _primitive_ints(B)
    found = set()
    for window in _scan_windows(A, B):
        ell = _residue_prime_of(A, B, *window)
        if ell != _residue_prime(max(window[2] - 1, len(ia) - 1, len(ib) - 1), window[1]):
            found.add("prime divides a leading coefficient")
        for cs in (ia, ib):
            derivative = [i * c for i, c in enumerate(cs)][1:]
            if polys.deg(polys.pgcd(polys.poly(cs), polys.poly(derivative))) > 0:
                found.add("repeated root")
            elif polys._gcd_degree_mod(cs, derivative, ell) > 0:
                found.add("prime divides a discriminant")
        (_, pa), (_, pb) = _distinct_factors(ia, ell), _distinct_factors(ib, ell)
        for e in pa.keys() & pb.keys():
            if len(pa[e]) == len(pb[e]) == e + 1:
                found.add(f"irreducible partners of degree {e}")
        if _shift_residues(ia, ib, ell) is None:
            found.add("several factors of one degree")
    return found


def test_residue_prefilter_keeps_every_candidate_on_a_seeded_family():
    """_shift_candidates yields what the scan of every shift yields, on
    every window of the family, and the family shows every feature."""
    from dcoh.operators import _shift_candidates
    features, signs = set(), set()
    for A, B in _residue_family():
        features |= _residue_features(A, B)
        for window in _scan_windows(A, B):
            got = list(_shift_candidates(A, B, *window))
            assert got == list(_full_window_scan(A, B, *window)), (A, B, window)
            signs.update((window[1], h > 0) for h in got if h)
    assert features == {"prime divides a leading coefficient", "prime divides a discriminant",
                        "repeated root", "irreducible partners of degree 2",
                        "irreducible partners of degree 3", "several factors of one degree"}
    assert signs == {(d, s) for d in (1, 2, 3) for s in (True, False)}


def test_residue_prefilter_tests_a_fraction_of_the_window(monkeypatch):
    """The gcds modulo polys.PRIME run only on the shifts the residues name,
    under an eighth of the windows they filter; a scan that falls back
    tests its whole window."""
    from dcoh.operators import _shift_candidates, _shift_residues
    calls = []
    real = polys._gcd_degree_mod

    def counting(a, b, p):
        calls.append(p)
        return real(a, b, p)

    monkeypatch.setattr(polys, "_gcd_degree_mod", counting)
    tested = window_total = fallbacks = 0
    for A, B in _residue_family():
        for window in _scan_windows(A, B):
            ell = _residue_prime_of(A, B, *window)
            calls.clear()
            list(_shift_candidates(A, B, *window))
            assert set(calls) <= {polys.PRIME}
            if _shift_residues(_primitive_ints(A), _primitive_ints(B), ell) is None:
                assert len(calls) == window[2]
                fallbacks += 1
            else:
                assert len(calls) < window[2]
                tested += len(calls)
                window_total += window[2]
    assert fallbacks >= 4 and tested * 8 < window_total


def _ratfun_decide_workload(seed):
    """The benchmark's ratfun-decide workload at this seed."""
    import importlib.util
    import pathlib
    from types import SimpleNamespace

    from dcoh import fields, operators, torsors
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "wl_ratfun_decide.py"
    spec = importlib.util.spec_from_file_location("wl_ratfun_decide", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    dc = SimpleNamespace(fields=fields, operators=operators, torsors=torsors)
    return module.Workload(dc, seed, module.MAX_DISTINCT_ROUNDS)


def test_residue_prefilter_on_the_benchmark_inputs(monkeypatch):
    """On every ratfun-decide input of seeds 1-10 the scans yield what the
    scan of every shift yields; dispersion_set equals the resultant oracle
    and _first_shift the scan over QQ on each window they reach."""
    from dcoh import operators
    from dcoh.operators import _first_shift
    scans = {}
    real = operators._shift_candidates

    def recording(A, B, start, step, count):
        scans[A, B, start, step, count] = None
        return real(A, B, start, step, count)

    monkeypatch.setattr(operators, "_shift_candidates", recording)
    for seed in range(1, 11):
        w = _ratfun_decide_workload(seed)
        for queries in w.rounds:
            for query in queries:
                assert w.check(query, w.run(query))[0], query
    monkeypatch.undo()
    dispersions = 0
    for A, B, start, step, count in scans:
        got = list(real(A, B, start, step, count))
        assert got == list(_full_window_scan(A, B, start, step, count)), (A, B, start, step)
        if start == 0:
            assert dispersion_set(A, B) == dispersion_set_resultant(A, B), (A, B)
            dispersions += 1
        else:
            top = count // 2
            assert _first_shift(A, B, step, top) == _reference_first_shift(A, B, step, top)
    assert dispersions >= 10 and len(scans) - dispersions >= 10
