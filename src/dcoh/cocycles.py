"""Cocycles of sigma-algebraic groups: Z^1(A/k, G) and its calculus.

A cocycle is an element chi of G(A(x)A) with dd2(chi) = dd1(chi)*dd3(chi)
in G(A(x)A(x)A); two cocycles are equivalent when they differ by a
coboundary d1(alpha) chi d2(alpha)^{-1} with alpha in G(A).  Everything
here is verified by exact computation in the tensor square and cube.

The family invariants implement the explicit descriptions of H^1 for
the classified groups: a mu2 cocycle is alpha^{-1}(x)alpha for a unit
alpha with alpha^2 and sigma(alpha)/alpha in k (its invariant is that
pair), and an additive cocycle is 1(x)alpha - alpha(x)1 with invariant
L(alpha) in k.  Both trivializations are linear solves, which is where
the vanishing of H^1 for Gm and Ga does the work.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import linalg, outcome
from .algebras import (AlgebraMorphism, AlgElement, FinDimAlgebra,
                       FreePolyAlgebra, TensorContext)
from .fields import FieldElement
from .groups import (AdditiveKernel, DiagonalMult, FrobeniusTwist, GroupError,
                     GroupPresentation, MatrixGroup, ProductGroup, contains,
                     enumerate_points, group_identity, group_inv, group_mul,
                     mat_det, mat_eq, mat_identity, mat_inverse, mat_maybe_inverse,
                     mat_mul, mat_sigma)
from .operators import solve_additive_full, solve_sigma_quotient
from .outcome import Outcome


class CocycleError(ValueError):
    pass


@dataclass(slots=True)
class Cocycle:
    group: GroupPresentation
    context: TensorContext
    value: object

    @property
    def algebra(self):
        return self.context.A

    def __eq__(self, other):
        if not isinstance(other, Cocycle):
            return NotImplemented
        return (self.context.A == other.context.A
                and values_equal(self.group, self.value, other.value))


def values_equal(G: GroupPresentation, x, y) -> bool:
    if isinstance(G, ProductGroup):
        return all(values_equal(f, a, b) for f, a, b in zip(G.factors, x, y))
    if isinstance(G, AdditiveKernel):
        return x == y
    if isinstance(G, DiagonalMult):
        return all(a == b for a, b in zip(x, y))
    xm = x if isinstance(x, tuple) else ((x,),)
    ym = y if isinstance(y, tuple) else ((y,),)
    return mat_eq(xm, ym)


def map_value(G: GroupPresentation, func, x):
    """Apply an element transformer through the shape of a group value."""
    if isinstance(G, ProductGroup):
        return tuple(map_value(f, func, c) for f, c in zip(G.factors, x))
    if isinstance(G, AdditiveKernel):
        return func(x)
    if isinstance(G, DiagonalMult):
        return tuple(func(c) for c in x)
    xm = x if isinstance(x, tuple) else ((x,),)
    return tuple(tuple(func(e) for e in row) for row in xm)


def is_cocycle(G: GroupPresentation, tc: TensorContext, value) -> Outcome:
    """Membership in G(A(x)A) plus the identity dd2 = dd1 * dd3."""
    try:
        member = contains(G, value, tc.AA)
    except GroupError as e:
        raise CocycleError(str(e)) from e
    if not member:
        return outcome.no("not-a-group-element")
    lhs = map_value(G, tc.dd2, value)
    rhs = group_mul(G, map_value(G, tc.dd1, value), map_value(G, tc.dd3, value))
    if not values_equal(G, lhs, rhs):
        return outcome.no("cocycle-identity-fails")
    return outcome.yes()


def make_cocycle(G: GroupPresentation, tc: TensorContext, value) -> Cocycle:
    res = is_cocycle(G, tc, value)
    if not res:
        raise CocycleError(f"not a cocycle: {res.certificate}")
    return Cocycle(G, tc, value)


def trivial_cocycle(G: GroupPresentation, tc: TensorContext) -> Cocycle:
    return Cocycle(G, tc, group_identity(G, tc.AA))


def coboundary(G: GroupPresentation, tc: TensorContext, alpha) -> Cocycle:
    """d1(alpha) * d2(alpha)^{-1} for alpha in G(A)."""
    if not contains(G, alpha, tc.A):
        raise CocycleError("coboundary argument is not a group element")
    value = group_mul(G, map_value(G, tc.d1, alpha),
                      group_inv(G, map_value(G, tc.d2, alpha)))
    return make_cocycle(G, tc, value)


def enumerate_cocycles(G: GroupPresentation, tc: TensorContext,
                       budget: int = 10 ** 6) -> list:
    """All of Z^1(A/k, G) by exhaustive search (finite base field)."""
    values = enumerate_points(G, tc.AA, budget, keep=lambda value: is_cocycle(G, tc, value))
    return [Cocycle(G, tc, value) for value in values]


# --------------------------------------------------------------------------
# trivialization inside the ambient group (H^1 of Gm / GL_n is trivial)


def gm_trivialize(tc: TensorContext, chi: AlgElement) -> AlgElement:
    """alpha in A^x with chi = alpha^{-1} (x) alpha, by a linear kernel solve."""
    A = tc.A
    field = A.field
    if not isinstance(A, FinDimAlgebra):
        raise CocycleError("trivialization implemented for finite-dimensional algebras")
    idxA = A.index_list()
    idxAA = tc.AA.index_list()
    zero = field.zero()
    cols = []
    for i in idxA:
        e = A.basis_element(i)
        cols.append(chi * tc.d2(e) - tc.d1(e))
    mat = [[col.data.get(r, zero) for col in cols] for r in idxAA]
    ker = linalg.kernel_basis(mat, field, ncols=len(idxA))
    for vec in ker:
        alpha = A.from_vector(vec)
        if alpha.is_unit():
            inv = alpha.inverse()
            if tc.pair(inv, alpha) == chi:
                return alpha
    raise CocycleError("no unit trivialization found (is chi a Gm-cocycle?)")


def _grid(field, size, radius=4):
    if field.finite:
        pools = [list(field.elements()) for _ in range(size)]
    else:
        pools = [[field.element(v) for v in range(radius)] for _ in range(size)]
    return itertools.product(*pools)


def gl_trivialize(tc: TensorContext, chi, n: int):
    """h in GL_n(A) with chi = (1(x)h) * (h(x)1)^{-1}."""
    A = tc.A
    field = A.field
    idxA = A.index_list()
    idxAA = tc.AA.index_list()
    zero = field.zero()
    slots = [(r, c) for r in range(n) for c in range(n)]
    cols = []
    unknowns = []
    for (r, c) in slots:
        for i in idxA:
            e = A.basis_element(i)
            hmat = tuple(tuple(tc.d2(e) if (rr, cc) == (r, c) else tc.AA.zero()
                               for cc in range(n)) for rr in range(n))
            lhs = mat_mul(chi, hmat)
            rhs = tuple(tuple(tc.d1(e) if (rr, cc) == (r, c) else tc.AA.zero()
                              for cc in range(n)) for rr in range(n))
            diff = tuple(tuple(lhs[rr][cc] - rhs[rr][cc] for cc in range(n))
                         for rr in range(n))
            cols.append(diff)
            unknowns.append(((r, c), i))
    rows = []
    for (rr, cc) in slots:
        for key in idxAA:
            rows.append([col[rr][cc].data.get(key, zero) for col in cols])
    ker = linalg.kernel_basis(rows, field, ncols=len(cols))
    if not ker:
        raise CocycleError("no trivialization found (is chi a GL-cocycle?)")

    def assemble(vec):
        entries = {}
        for coef, ((r, c), i) in zip(vec, unknowns):
            if not coef.is_zero():
                cur = entries.get((r, c), A.zero())
                entries[(r, c)] = cur + A.basis_element(i) * coef
        return tuple(tuple(entries.get((r, c), A.zero()) for c in range(n))
                     for r in range(n))

    def check(h):
        hinv = mat_maybe_inverse(h)
        if hinv is None:
            return None
        lhs = mat_mul(chi, tuple(tuple(tc.d2(e) for e in row) for row in h))
        rhs = tuple(tuple(tc.d1(e) for e in row) for row in h)
        return h if mat_eq(lhs, rhs) else None

    for vec in ker:
        got = check(assemble(vec))
        if got is not None:
            return got
    # generic combination: det is a nonzero polynomial in the coefficients,
    # so a grid of size n+2 per coordinate meets an invertible point
    if len(ker) <= 6:
        for coeffs in _grid(field, len(ker), radius=n + 2):
            if all(c.is_zero() for c in coeffs):
                continue
            vec = [sum((c * v[i] for c, v in zip(coeffs, ker)), field.zero())
                   for i in range(len(ker[0]))]
            got = check(assemble(vec))
            if got is not None:
                return got
    raise CocycleError("no invertible trivialization found")


# --------------------------------------------------------------------------
# family invariants


def mu_invariant(chi: Cocycle):
    """(alpha^2, sigma(alpha)/alpha) in k^2 for a mu2 cocycle."""
    tc = chi.context
    value = chi.value if isinstance(chi.value, AlgElement) else chi.value[0][0]
    alpha = gm_trivialize(tc, value)
    a = (alpha * alpha).scalar_part()
    b = (alpha.sigma() * alpha.inverse()).scalar_part()
    if a is None or b is None:
        raise CocycleError("mu-invariant does not land in the base field")
    return a, b


def additive_invariant(chi: Cocycle) -> FieldElement:
    """L(alpha) in k where chi = 1(x)alpha - alpha(x)1."""
    G = chi.group
    if not isinstance(G, AdditiveKernel) or G.L is None:
        raise CocycleError("additive invariant needs a kernel-of-L group")
    tc = chi.context
    A = tc.A
    field = A.field
    value: AlgElement = chi.value
    if isinstance(A, FinDimAlgebra):
        idxA = A.index_list()
        idxAA = tc.AA.index_list()
        zero = field.zero()
        cols = [tc.d1(A.basis_element(i)) - tc.d2(A.basis_element(i)) for i in idxA]
        mat = [[col.data.get(r, zero) for col in cols] for r in idxAA]
        rhs = [value.data.get(r, zero) for r in idxAA]
        sol = linalg.solve(mat, rhs, field)
        if sol is None:
            raise CocycleError("additive cocycle failed to trivialize (bug)")
        alpha = A.from_vector(sol)
    elif isinstance(A, FreePolyAlgebra):
        r = A.ngens
        degree = max((sum(w) for w in value.data), default=0)
        monos = [w for w in itertools.product(range(degree + 1), repeat=r)
                 if sum(w) <= degree]
        cols = []
        keys = set(value.data)
        images = []
        for w in monos:
            m = AlgElement(A, {w: field.one()})
            img = tc.d1(m) - tc.d2(m)
            images.append(img)
            keys.update(img.data)
        keys = sorted(keys)
        zero = field.zero()
        mat = [[img.data.get(key, zero) for img in images] for key in keys]
        rhs = [value.data.get(key, zero) for key in keys]
        sol = linalg.solve(mat, rhs, field)
        if sol is None:
            raise CocycleError("additive cocycle failed to trivialize (bug)")
        alpha = A.zero()
        for w, c in zip(monos, sol):
            alpha = alpha + AlgElement(A, {w: c})
    else:
        raise CocycleError("additive invariant supports FinDim and FreePoly algebras")
    a = G.L.apply(alpha).scalar_part()
    if a is None:
        raise CocycleError("L(alpha) does not land in the base field")
    return a


def diagonal_invariant(chi: Cocycle):
    """(f_1(g),...,f_m(g)) in k^m for a trivializing torus point g."""
    G = chi.group
    if not isinstance(G, DiagonalMult):
        raise CocycleError("diagonal invariant needs a DiagonalMult group")
    tc = chi.context
    gs = tuple(gm_trivialize(tc, comp) for comp in chi.value)
    avec = []
    for f in G.functions:
        val = f.eval(gs).scalar_part()
        if val is None:
            raise CocycleError("f_i(g) does not land in the base field")
        avec.append(val)
    return tuple(avec)


def twist_invariant(chi: Cocycle):
    """a = psi(h)^{-1} * sigma^d(h) in GL_n(k) for a twist cocycle."""
    G = chi.group
    if not isinstance(G, FrobeniusTwist):
        raise CocycleError("twist invariant needs a FrobeniusTwist group")
    tc = chi.context
    value = chi.value if isinstance(chi.value, tuple) else ((chi.value,),)
    h = gl_trivialize(tc, value, G.n)
    a_alg = mat_mul(mat_inverse(G.psi_apply(h, tc.A)), mat_sigma(h, G.d))
    a = []
    for row in a_alg:
        out_row = []
        for e in row:
            c = e.scalar_part()
            if c is None:
                raise CocycleError("twist invariant does not land in the base field")
            out_row.append(c)
        a.append(tuple(out_row))
    return tuple(a)


# --------------------------------------------------------------------------
# equivalence


def mu_pairs_equivalent(field, pair1, pair2) -> Outcome:
    """(a,b) ~ (a',b') iff a' = l^2 a and b' = sigma(l)/l * b for some unit l."""
    a1, b1 = pair1
    a2, b2 = pair2
    if field.finite:
        for lam in field.units():
            if a2 == lam * lam * a1 and b2 == lam.sigma() / lam * b1:
                return outcome.yes(lam)
        return outcome.no("exhausted-units")
    r = a2 / a1
    lam = field.is_square(r)
    if lam is None:
        return outcome.no("ratio-not-a-square", ratio=str(r))
    if b2 == lam.sigma() / lam * b1:
        return outcome.yes(lam)
    return outcome.no("sigma-ratio-mismatch", candidate=str(lam))


def twist_translates(G: FrobeniusTwist, a1, a2, budget: int = 10 ** 6) -> Outcome:
    """c in base(k) with a2 = psi(c)^{-1} a1 sigma^d(c), or a certificate."""
    field = G.field
    n = G.n
    if field.finite:
        pools = [list(field.elements())] * (n * n)
        count = field.size ** (n * n)
        if count > budget:
            return outcome.undecided("budget-exhausted", space=count)
        for combo in itertools.product(*pools):
            c = tuple(tuple(combo[i * n + j] for j in range(n)) for i in range(n))
            d = mat_det(c)
            if d.is_zero():
                continue
            if G.base == "SL" and not d.is_one():
                continue
            lhs = mat_mul(mat_mul(mat_inverse(G.psi_apply(c, field)), a1),
                          mat_sigma(c, G.d))
            if mat_eq(lhs, a2):
                return outcome.yes(c)
        return outcome.no("exhausted-rational-points")
    if G.psi == "trivial" and field.inversive:
        # a2 = a1 * sigma^d(c): c = sigma^{-d}(a1^{-1} a2)
        target = mat_mul(mat_inverse(a1), a2)
        c = target
        for _ in range(G.d):
            c = tuple(tuple(field.sigma_preimage(e) for e in row) for row in c)
        lhs = mat_mul(mat_mul(mat_inverse(G.psi_apply(c, field)), a1),
                      mat_sigma(c, G.d))
        assert mat_eq(lhs, a2)
        return outcome.yes(c)
    if G.psi == "id" and n == 1:
        ratio = a2[0][0] / a1[0][0]
        res = solve_sigma_quotient(ratio, G.d)
        if res:
            return outcome.yes(((res.witness,),))
        if res.status == outcome.NO:
            return outcome.no(res.certificate, **res.detail)
        return res
    return outcome.undecided("twist-translation-undecided", psi=G.psi)


def equivalent(chi1: Cocycle, chi2: Cocycle, budget: int = 10 ** 6) -> Outcome:
    """Decide chi1 = d1(alpha) chi2 d2(alpha)^{-1} for some alpha in G(A)."""
    G = chi1.group
    tc = chi1.context
    if chi2.context.A != tc.A:
        raise CocycleError("cocycles live over different algebras")
    if values_equal(G, chi1.value, chi2.value):
        return outcome.yes(group_identity(G, tc.A))
    if isinstance(G, ProductGroup):
        parts = []
        for f, c1, c2 in zip(G.factors, chi1.value, chi2.value):
            r = equivalent(Cocycle(f, tc, c1), Cocycle(f, tc, c2), budget)
            if not r:
                return r
            parts.append(r.witness)
        return outcome.yes(tuple(parts))
    if isinstance(G, MatrixGroup) and G.name == "mu2sigma":
        p1 = mu_invariant(chi1)
        p2 = mu_invariant(chi2)
        res = mu_pairs_equivalent(tc.A.field, p1, p2)
        if res.decided:
            return res
    if isinstance(G, AdditiveKernel) and G.L is not None:
        a1 = additive_invariant(chi1)
        a2 = additive_invariant(chi2)
        return solve_additive_full(G.L, a1 - a2)
    if isinstance(G, DiagonalMult):
        v1 = diagonal_invariant(chi1)
        v2 = diagonal_invariant(chi2)
        return diagonal_vectors_equivalent(G, v1, v2, budget)
    if isinstance(G, FrobeniusTwist):
        return twist_translates(G, twist_invariant(chi1), twist_invariant(chi2), budget)
    field = tc.A.field
    if field.finite and isinstance(tc.A, FinDimAlgebra):
        try:
            candidates = enumerate_points(G, tc.A, budget)
        except GroupError as e:
            return outcome.undecided("budget-exhausted", reason=str(e))
        for alpha in candidates:
            cand = group_mul(G, map_value(G, tc.d1, alpha),
                             group_mul(G, chi2.value,
                                       group_inv(G, map_value(G, tc.d2, alpha))))
            if values_equal(G, chi1.value, cand):
                return outcome.yes(alpha)
        return outcome.no("exhausted-group-points")
    return outcome.undecided("no-decision-procedure")


def diagonal_vectors_equivalent(G: DiagonalMult, v1, v2, budget: int = 10 ** 6) -> Outcome:
    """lambda in (k^x)^n with v2_i = v1_i * f_i(lambda), or a certificate."""
    field = G.field
    if field.finite:
        count = (field.size - 1) ** G.n
        if count > budget:
            return outcome.undecided("budget-exhausted", space=count)
        for lam in itertools.product(*[list(field.units())] * G.n):
            if all(b == a * f.eval(lam) for a, b, f in zip(v1, v2, G.functions)):
                return outcome.yes(lam)
        return outcome.no("exhausted-units")
    mu_shape = _mu_shaped_diagonal(G)
    if mu_shape:
        res = mu_pairs_equivalent(field, (v1[mu_shape[0]], v1[mu_shape[1]]),
                                  (v2[mu_shape[0]], v2[mu_shape[1]]))
        if res.decided:
            return res
    return outcome.undecided("diagonal-equivalence-undecided")


def _mu_shaped_diagonal(G: DiagonalMult):
    """Indices (i, j) when functions include y^2 and s(y)/y; else None."""
    if G.n != 1:
        return None
    sq = None
    ratio = None
    for i, f in enumerate(G.functions):
        if f.exps == ((2,),):
            sq = i
        if f.exps == ((-1,), (1,)):
            ratio = i
    if sq is None or ratio is None:
        return None
    return (sq, ratio)


# --------------------------------------------------------------------------
# pushforwards and products


def pushforward_algebra(chi: Cocycle, h: AlgebraMorphism) -> Cocycle:
    """Image of a cocycle under a k-sigma-algebra morphism A -> B."""
    h.validate()
    if h.source != chi.context.A:
        raise CocycleError("morphism source does not match the cocycle algebra")
    tc_src = chi.context
    tc_tgt = TensorContext(h.target)
    value = map_value(chi.group, lambda e: h.square_apply(tc_src, tc_tgt, e), chi.value)
    return make_cocycle(chi.group, tc_tgt, value)


def pushforward_group(chi: Cocycle, spec, target: GroupPresentation = None) -> Cocycle:
    """Image under a group morphism: subgroup inclusion or sigma^d."""
    tc = chi.context
    if spec == "inclusion":
        if target is None:
            raise CocycleError("inclusion pushforward needs the ambient group")
        return make_cocycle(target, tc, chi.value)
    if isinstance(spec, tuple) and spec and spec[0] == "sigma_power":
        d = spec[1]
        value = map_value(chi.group, lambda e: e.sigma(d), chi.value)
        G2 = _coefficient_twist_group(chi.group, d)
        return make_cocycle(G2, tc, value)
    raise CocycleError(f"unsupported group morphism spec {spec!r}")


def _coefficient_twist_group(G: GroupPresentation, d: int) -> GroupPresentation:
    """The presentation of ^{sigma^d}G: coefficients move through sigma^d."""
    from .sigma_poly import SigmaPolynomial

    if isinstance(G, AdditiveKernel):
        if G.L is None:
            return G
        from .operators import DifferenceOperator
        return AdditiveKernel(DifferenceOperator(
            G.field, [c.sigma(d) for c in G.L.coeffs]))
    if isinstance(G, MatrixGroup):
        rels = [SigmaPolynomial(r.field, r.nvars,
                                {m: c.sigma(d) for m, c in r.terms.items()})
                for r in G.relations]
        return MatrixGroup(G.field, G.n, rels, name=G.name)
    return G


def product_split(chi: Cocycle) -> tuple:
    """Split a G x H cocycle into its factor cocycles."""
    G = chi.group
    if not isinstance(G, ProductGroup):
        raise CocycleError("product_split needs a product presentation")
    return tuple(make_cocycle(f, chi.context, comp)
                 for f, comp in zip(G.factors, chi.value))


def product_merge(G: ProductGroup, parts) -> Cocycle:
    if len(parts) != len(G.factors):
        raise CocycleError("wrong number of factors")
    tc = parts[0].context
    return make_cocycle(G, tc, tuple(p.value for p in parts))
