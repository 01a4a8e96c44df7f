"""Torsor presentations, the torsor <-> cocycle bijection, and classification.

The presentations are the normal forms the classification produces:

  * MuTorsor(a, b):          x^2 = a, sigma(x) = b*x   (sigma(a) = a*b^2)
  * AdditiveTorsor(L, a):    L(x) = a
  * DiagonalTorsor(F, avec): f_i(x) = a_i on the torus
  * FrobeniusTwistTorsor:    sigma^d(x) = psi(x)*a inside GL_n or SL_n
  * TwistedForm(chi):        the descent of the group along a cocycle

Both directions of the classification bijection are computable: a point
x of a torsor over A yields the unique cocycle with f1(x) = chi.f2(x),
and a cocycle yields a twisted form whose canonical A-point is chi^{-1}.
Deciders return witnesses or first-class nonexistence certificates
(square obstruction, no-rational-solution, sigma-image parity).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field

from . import linalg, outcome
from .algebras import (AlgebraError, AlgElement, FinDimAlgebra, FreePolyAlgebra,
                       LaurentAlgebra, SigmaAlgebra, TensorContext,
                       make_mu_algebra)
from .cocycles import (Cocycle, additive_invariant, diagonal_invariant,
                       diagonal_vectors_equivalent, enumerate_cocycles,
                       equivalent, is_cocycle, make_cocycle, mu_invariant,
                       mu_pairs_equivalent, twist_invariant, twist_translates,
                       values_equal, map_value)
from .fields import FieldElement, SigmaField
from .groups import (AdditiveKernel, BudgetExceeded, DiagonalMult, FrobeniusTwist,
                     GroupPresentation, MatrixGroup, ProductGroup,
                     contains, group_identity, group_inv, group_mul,
                     kernel_of_sigma_power, mat_det, mat_eq, mat_identity,
                     mat_inverse, mat_mul, mat_sigma, mu2sigma_group)
from .operators import (DifferenceOperator, classify_additive_h1,
                        solve_additive_full, solve_sigma_quotient)
from .outcome import Outcome


class TorsorError(ValueError):
    pass


# --------------------------------------------------------------------------
# presentations


class TorsorPresentation:
    kind = "abstract"


class MuTorsor(TorsorPresentation):
    kind = "mu"

    def __init__(self, a: FieldElement, b: FieldElement):
        self.field = a.field
        self.a = a
        self.b = self.field.element(b)
        if a.is_zero() or self.b.is_zero():
            raise TorsorError("mu-torsor parameters must be units")
        if a.sigma() != a * self.b * self.b:
            raise TorsorError("constraint sigma(a) = a*b^2 violated")

    def group(self):
        return mu2sigma_group(self.field)

    def __repr__(self):
        return f"MuTorsor(a={self.a}, b={self.b})"


class AdditiveTorsor(TorsorPresentation):
    kind = "additive"

    def __init__(self, L: DifferenceOperator, a: FieldElement):
        self.field = L.field
        self.L = L
        self.a = self.field.element(a)

    def group(self):
        return AdditiveKernel(self.L)

    def __repr__(self):
        return f"AdditiveTorsor(L={self.L}, a={self.a})"


class DiagonalTorsor(TorsorPresentation):
    kind = "diagonal"

    def __init__(self, functions, avec):
        self.functions = tuple(functions)
        if not self.functions:
            raise TorsorError("need at least one multiplicative function")
        self.n = self.functions[0].nvars
        self.avec = tuple(avec)
        if not self.avec:
            raise TorsorError("need one target per function")
        self.field = self.avec[0].field
        if len(self.avec) != len(self.functions):
            raise TorsorError("need one target per function")
        if any(a.is_zero() for a in self.avec):
            raise TorsorError("targets must be units")

    def group(self):
        return DiagonalMult(self.field, self.n, self.functions)

    def __repr__(self):
        return f"DiagonalTorsor({[str(f) for f in self.functions]}, {[str(a) for a in self.avec]})"


class FrobeniusTwistTorsor(TorsorPresentation):
    kind = "twist"

    def __init__(self, field, base: str, n: int, d: int, psi: str, a):
        self.field = field
        self.presentation = FrobeniusTwist(field, base, n, d, psi)
        if isinstance(a, FieldElement):
            a = ((a,),)
        self.a = tuple(tuple(field.element(e) for e in row) for row in a)
        if len(self.a) != n or any(len(row) != n for row in self.a):
            raise TorsorError("twist target has the wrong shape")
        det = mat_det(self.a)
        if det.is_zero():
            raise TorsorError("twist target must be invertible")
        if base == "SL" and not det.is_one():
            raise TorsorError("twist target must have determinant 1 for SL")

    def group(self):
        return self.presentation

    def __repr__(self):
        return f"FrobeniusTwistTorsor({self.presentation.base}{self.presentation.n}, d={self.presentation.d}, psi={self.presentation.psi}, a={self.a})"


class TwistedForm(TorsorPresentation):
    kind = "twisted-form"

    def __init__(self, chi: Cocycle):
        self.chi = chi
        self.field = chi.algebra.field

    def group(self):
        return self.chi.group

    def canonical_point(self):
        return group_inv(self.chi.group, self.chi.value)

    def __repr__(self):
        return f"TwistedForm(group={self.chi.group.kind})"


# --------------------------------------------------------------------------
# point membership


def _embed_matrix(R: SigmaAlgebra, m):
    return tuple(tuple(R.from_scalar(e) for e in row) for row in m)


def is_point(X: TorsorPresentation, x, R: SigmaAlgebra = None) -> bool:
    """Does x satisfy the defining equations of X (over R or over k)?"""
    if isinstance(X, MuTorsor):
        one_a = R.from_scalar(X.a) if R is not None else X.a
        lhs = x * x
        return lhs == one_a and x.sigma() == x * X.b
    if isinstance(X, AdditiveTorsor):
        target = R.from_scalar(X.a) if R is not None else X.a
        return X.L.apply(x) == target
    if isinstance(X, DiagonalTorsor):
        if len(x) != X.n:
            raise TorsorError("arity mismatch")
        if not all(e.is_unit() for e in x):
            return False
        for f, a in zip(X.functions, X.avec):
            target = R.from_scalar(a) if R is not None else a
            if f.eval(x) != target:
                return False
        return True
    if isinstance(X, FrobeniusTwistTorsor):
        G = X.presentation
        m = x if isinstance(x, tuple) else ((x,),)
        det = mat_det(m)
        if not det.is_unit():
            return False
        ring = R if R is not None else X.field
        if G.base == "SL" and det != ring.one():
            return False
        a = _embed_matrix(R, X.a) if R is not None else X.a
        return mat_eq(mat_sigma(m, G.d), mat_mul(G.psi_apply(m, ring), a))
    if isinstance(X, TwistedForm):
        chi = X.chi
        tc = chi.context
        if R is not None and R != tc.A:
            raise TorsorError("twisted-form membership is realized over its own algebra")
        G = chi.group
        lhs = group_mul(G, map_value(G, tc.dd2, x), map_value(G, tc.dd1, chi.value))
        rhs = map_value(G, tc.dd3, x)
        return values_equal(G, lhs, rhs) and contains(G, x, tc.AA)
    raise TorsorError(f"unknown torsor kind {X.kind}")


# --------------------------------------------------------------------------
# decision procedures for points


def _charge(count: int, budget: int):
    """Refuse a search of `count` candidates before starting it."""
    if count > budget:
        raise BudgetExceeded(f"search space {count} exceeds budget {budget}")


def _sigma_preimage_chain(x: FieldElement, d: int):
    """y with sigma^d(y) = x, or (None, failing step)."""
    y = x
    for step in range(d):
        y2 = x.field.sigma_preimage(y)
        if y2 is None:
            return None, step
        y = y2
    return y, None


def _enumerate_field_matrices(field, n: int, det_one: bool, budget: int):
    total = field.size ** (n * n)
    if total > budget:
        raise TorsorError(f"search space {total} exceeds budget {budget}")
    elems = list(field.elements())
    for combo in itertools.product(elems, repeat=n * n):
        m = tuple(tuple(combo[i * n + j] for j in range(n)) for i in range(n))
        det = mat_det(m)
        if det.is_zero():
            continue
        if det_one and not det.is_one():
            continue
        yield m


def torsor_points(X: TorsorPresentation, R: SigmaAlgebra = None,
                  budget: int = 10 ** 6) -> Outcome:
    """A point of X over R (or over k when R is None), or a certificate.

    Finite data is enumerated completely; over infinite fields the
    decidable families use is_square, the Abramov solver, and sigma
    preimages, and everything else reports Undecided with its budget.
    The search for a mu point over a finite field charges its q candidates
    to the budget first and raises BudgetExceeded when they exceed it.
    """
    field = X.field
    if R is not None:
        return _points_over_algebra(X, R, budget)
    if isinstance(X, MuTorsor):
        if field.finite:
            _charge(field.size, budget)
            for x in field.elements():
                if is_point(X, x):
                    return outcome.yes(x)
            return outcome.no("exhausted-field")
        lam = field.is_square(X.a)
        if lam is None:
            return outcome.no("square-obstruction", a=str(X.a))
        if lam.sigma() == lam * X.b:
            return outcome.yes(lam)
        return outcome.no("sigma-ratio-mismatch", root=str(lam),
                          ratio=str(lam.sigma() / lam))
    if isinstance(X, AdditiveTorsor):
        return solve_additive_full(X.L, X.a)
    if isinstance(X, DiagonalTorsor):
        if field.finite:
            units = list(field.units())
            if (field.size - 1) ** X.n > budget:
                return outcome.undecided("budget-exhausted")
            for combo in itertools.product(units, repeat=X.n):
                if is_point(X, combo):
                    return outcome.yes(combo)
            return outcome.no("exhausted-units")
        return outcome.undecided("diagonal-points-undecided-over-infinite-field")
    if isinstance(X, FrobeniusTwistTorsor):
        G = X.presentation
        if G.psi == "trivial" and field.inversive:
            # explicit preimage: x = sigma^{-d}(a) entrywise
            entries = []
            for row in X.a:
                out_row = []
                for e in row:
                    y, _ = _sigma_preimage_chain(e, G.d)
                    out_row.append(y)
                entries.append(tuple(out_row))
            x = tuple(entries)
            assert is_point(X, x)
            return outcome.yes(x)
        if field.finite:
            for m in _enumerate_field_matrices(field, G.n, G.base == "SL", budget):
                if is_point(X, m):
                    return outcome.yes(m)
            return outcome.no("exhausted-rational-points")
        if G.psi == "trivial":
            entries = []
            for row in X.a:
                out_row = []
                for e in row:
                    y, step = _sigma_preimage_chain(e, G.d)
                    if y is None:
                        return outcome.no("sigma-image-obstruction",
                                          entry=str(e), failing_step=step)
                    out_row.append(y)
                entries.append(tuple(out_row))
            x = tuple(entries)
            assert is_point(X, x)
            return outcome.yes(x)
        if G.psi == "id" and G.n == 1:
            res = solve_sigma_quotient(X.a[0][0], G.d)
            if res:
                x = ((res.witness,),)
                assert is_point(X, x)
                return outcome.yes(x)
            if res.status == outcome.NO:
                return outcome.no(res.certificate, **res.detail)
            return res
        return outcome.undecided("twist-points-undecided", psi=G.psi)
    if isinstance(X, TwistedForm):
        x = X.canonical_point()
        if not is_point(X, x):
            raise TorsorError("canonical point fails membership (bug)")
        return outcome.yes(x)
    raise TorsorError(f"unknown torsor kind {X.kind}")


def _points_over_algebra(X: TorsorPresentation, R: SigmaAlgebra,
                         budget: int) -> Outcome:
    if isinstance(X, TwistedForm):
        if R == X.chi.context.A:
            return torsor_points(X)
        return outcome.undecided("twisted-form-over-foreign-algebra")
    field = X.field
    if not (field.finite and isinstance(R, FinDimAlgebra)):
        # canonical trivializing algebras admit a distinguished point
        cand = _canonical_point_over(X, R)
        if cand is not None:
            return outcome.yes(cand)
        return outcome.undecided("enumeration-needs-finite-data")
    if isinstance(X, MuTorsor) or isinstance(X, AdditiveTorsor):
        if field.size ** R.dim > budget:
            return outcome.undecided("budget-exhausted")
        for x in R.enumerate_elements():
            if is_point(X, x, R):
                return outcome.yes(x)
        return outcome.no("exhausted-algebra")
    if isinstance(X, DiagonalTorsor):
        units = [u for u in R.enumerate_elements() if u.is_unit()]
        if len(units) ** X.n > budget:
            return outcome.undecided("budget-exhausted")
        for combo in itertools.product(units, repeat=X.n):
            if is_point(X, combo, R):
                return outcome.yes(combo)
        return outcome.no("exhausted-units")
    if isinstance(X, FrobeniusTwistTorsor):
        G = X.presentation
        elems = list(R.enumerate_elements())
        if len(elems) ** (G.n * G.n) > budget:
            return outcome.undecided("budget-exhausted")
        for combo in itertools.product(elems, repeat=G.n * G.n):
            m = tuple(tuple(combo[i * G.n + j] for j in range(G.n)) for i in range(G.n))
            if is_point(X, m, R):
                return outcome.yes(m)
        return outcome.no("exhausted-algebra")
    raise TorsorError(f"unknown torsor kind {X.kind}")


def _canonical_point_over(X: TorsorPresentation, R: SigmaAlgebra):
    if isinstance(X, MuTorsor):
        try:
            canon = make_mu_algebra(X.a, X.b)
        except AlgebraError:
            return None
        if R == canon:
            y = R.basis_element(1)
            return y if is_point(X, y, R) else None
    if isinstance(X, AdditiveTorsor):
        canon = additive_torsor_algebra(X.L, X.a)
        if R == canon:
            y = R.gen(0)
            return y if is_point(X, y, R) else None
    return None


def additive_torsor_algebra(L: DifferenceOperator, a: FieldElement) -> FreePolyAlgebra:
    """k[y_1..y_n] with sigma cycling the generators so that L(y_1) = a."""
    field = L.field
    n = L.order
    zero = field.zero()
    images = []
    for i in range(n - 1):
        coeffs = [field.one() if j == i + 1 else zero for j in range(n)]
        images.append((zero, coeffs))
    last = [-L.coeffs[j] for j in range(n)]
    images.append((a, last))
    A = FreePolyAlgebra(field, n, images)
    assert L.apply(A.gen(0)) == A.from_scalar(a)
    return A


# --------------------------------------------------------------------------
# the classification bijection


def _group_of(X: TorsorPresentation) -> GroupPresentation:
    return X.group()


def cocycle_from_point(X: TorsorPresentation, x, A: SigmaAlgebra = None) -> Cocycle:
    """The unique cocycle with f1(x) = chi . f2(x) for a point x in X(A)."""
    if isinstance(X, TwistedForm):
        return _cocycle_from_twisted_point(X, x)
    if A is None:
        raise TorsorError("need the trivializing algebra A")
    if not is_point(X, x, A):
        raise TorsorError("x is not a point of X over A")
    tc = TensorContext(A)
    G = _group_of(X)
    if isinstance(X, AdditiveTorsor):
        value = tc.d1(x) - tc.d2(x)
    elif isinstance(X, MuTorsor):
        value = tc.d1(x) * tc.d2(x).inverse()
    elif isinstance(X, DiagonalTorsor):
        value = tuple(tc.d1(c) * tc.d2(c).inverse() for c in x)
    else:  # FrobeniusTwistTorsor
        m = x if isinstance(x, tuple) else ((x,),)
        f1 = tuple(tuple(tc.d1(e) for e in row) for row in m)
        f2 = tuple(tuple(tc.d2(e) for e in row) for row in m)
        value = mat_mul(f1, mat_inverse(f2))
    return make_cocycle(G, tc, value)


def _untensor_third(tc: TensorContext, w: AlgElement) -> AlgElement:
    """Invert dd3 on its image: strip the trailing tensor-1 factor."""
    A = tc.A
    if isinstance(A, FinDimAlgebra):
        unit = A.unit_data()
        i0, u0 = next(iter(unit.items()))
        # key the result with AA's own index tuples, shared by every element
        own = {k: k for k in tc.AA.index_list()}
        out = {}
        for (i, j, r), c in w.data.items():
            if r == i0:
                out[own[i, j]] = c / u0
        return AlgElement(tc.AA, out)
    r = A.ngens
    out = {}
    for key, c in w.data.items():
        if any(e != 0 for e in key[2 * r:]):
            continue
        out[key[:2 * r]] = c
    return AlgElement(tc.AA, out)


def _cocycle_from_twisted_point(X: TwistedForm, z) -> Cocycle:
    chi = X.chi
    tc = chi.context
    G = chi.group
    if not is_point(X, z):
        raise TorsorError("z is not a point of the twisted form")
    prod = group_mul(G, map_value(G, tc.dd1, z),
                     group_inv(G, map_value(G, tc.dd2, z)))
    cand = map_value(G, lambda e: _untensor_third(tc, e), prod)
    if not values_equal(G, map_value(G, tc.dd3, cand), prod):
        raise TorsorError("uniqueness solve failed for the extracted cocycle")
    return make_cocycle(G, tc, cand)


def torsor_from_cocycle(chi: Cocycle) -> TwistedForm:
    """The twisted form classified by chi; its canonical A-point is chi^{-1}."""
    res = is_cocycle(chi.group, chi.context, chi.value)
    if not res:
        raise TorsorError(f"not a cocycle: {res.certificate}")
    X = TwistedForm(chi)
    if not is_point(X, X.canonical_point()):
        raise TorsorError("canonical point chi^{-1} fails membership (bug)")
    return X


def normalize(X: TwistedForm) -> TorsorPresentation:
    """Family normal form of a twisted form, via the family invariants."""
    if not isinstance(X, TwistedForm):
        return X
    G = X.chi.group
    if isinstance(G, MatrixGroup) and G.name == "mu2sigma":
        a, b = mu_invariant(X.chi)
        return MuTorsor(a, b)
    if isinstance(G, AdditiveKernel) and G.L is not None:
        return AdditiveTorsor(G.L, additive_invariant(X.chi))
    if isinstance(G, DiagonalMult):
        return DiagonalTorsor(G.functions, diagonal_invariant(X.chi))
    if isinstance(G, FrobeniusTwist):
        a = twist_invariant(X.chi)
        return FrobeniusTwistTorsor(G.field, G.base, G.n, G.d, G.psi, a)
    raise TorsorError(f"normalization unsupported for group kind {G.kind}")


# --------------------------------------------------------------------------
# isomorphism deciders


def isomorphic(X: TorsorPresentation, Y: TorsorPresentation,
               budget: int = 10 ** 6) -> Outcome:
    """A torsor isomorphism witness (a translation datum), or a certificate."""
    if isinstance(X, TwistedForm) and isinstance(Y, TwistedForm):
        if X.chi.context.A == Y.chi.context.A:
            return equivalent(X.chi, Y.chi, budget)
        return isomorphic(normalize(X), normalize(Y), budget)
    if isinstance(X, TwistedForm):
        return isomorphic(normalize(X), Y, budget)
    if isinstance(Y, TwistedForm):
        return isomorphic(X, normalize(Y), budget)
    if X.kind != Y.kind:
        raise TorsorError("family mismatch")
    if isinstance(X, MuTorsor):
        return mu_pairs_equivalent(X.field, (X.a, X.b), (Y.a, Y.b))
    if isinstance(X, AdditiveTorsor):
        if X.L != Y.L:
            raise TorsorError("additive torsors for different operators")
        return solve_additive_full(X.L, Y.a - X.a)
    if isinstance(X, DiagonalTorsor):
        if X.functions != Y.functions:
            raise TorsorError("diagonal torsors for different groups")
        return diagonal_vectors_equivalent(X.group(), X.avec, Y.avec, budget)
    if isinstance(X, FrobeniusTwistTorsor):
        gx, gy = X.presentation, Y.presentation
        if (gx.base, gx.n, gx.d, gx.psi) != (gy.base, gy.n, gy.d, gy.psi):
            raise TorsorError("twist torsors for different groups")
        return twist_translates(gx, X.a, Y.a, budget)
    raise TorsorError(f"unknown torsor kind {X.kind}")


# --------------------------------------------------------------------------
# H^1(k, G) classification


@dataclass
class ClassifyReport:
    group: str
    kind: str                       # "finite-list" | "oracle"
    count: int | None = None
    representatives: list = dc_field(default_factory=list)
    note: str | None = None

    def describe_reps(self):
        out = []
        for rep in self.representatives:
            if isinstance(rep, tuple):
                out.append(tuple(str(c) for c in rep))
            else:
                out.append(str(rep))
        return out


def _orbit_partition(items, orbit_of):
    seen = set()
    reps = []
    for it in items:
        if it in seen:
            continue
        orbit = orbit_of(it)
        assert it in orbit
        seen.update(orbit)
        reps.append(it)
    return reps


def mu_pair_space(field):
    """M = {(a,b) in k^x x k^x : sigma(a) = a*b^2}."""
    return [(a, b) for a in field.units() for b in field.units()
            if a.sigma() == a * b * b]


def classify_h1(G: GroupPresentation, budget: int = 10 ** 6) -> ClassifyReport:
    """Representatives of H^1(k, G) for the classified families.

    Finite base fields get an explicit list; infinite fields get oracle
    mode (the normal-form statement plus the pairwise decider).  The mu2
    and diagonal listings charge their search, (q-1)^2 pairs and
    (q-1)^#functions target vectors, to the budget before starting and
    raise BudgetExceeded when it is exceeded.
    """
    field = G.field
    if isinstance(G, ProductGroup):
        parts = [classify_h1(f, budget) for f in G.factors]
        if all(p.kind == "finite-list" for p in parts):
            reps = [tuple(combo) for combo in
                    itertools.product(*[p.representatives for p in parts])]
            count = 1
            for p in parts:
                count *= p.count
            return ClassifyReport(group="product", kind="finite-list",
                                  count=count, representatives=reps)
        return ClassifyReport(group="product", kind="oracle",
                              note="some factor lacks a finite listing")
    if isinstance(G, MatrixGroup) and G.name == "mu2sigma":
        if not field.finite:
            return ClassifyReport(group="mu2sigma", kind="oracle",
                                  note="normal form x^2=a, sigma(x)=b*x; decide via isomorphic")
        _charge((field.size - 1) ** 2, budget)
        space = mu_pair_space(field)
        units = list(field.units())

        def orbit(pair):
            a, b = pair
            return {(lam * lam * a, lam.sigma() / lam * b) for lam in units}

        reps = _orbit_partition(space, orbit)
        return ClassifyReport(group="mu2sigma", kind="finite-list",
                              count=len(reps), representatives=reps)
    if isinstance(G, AdditiveKernel) and G.L is not None:
        h1 = classify_additive_h1(G.L)
        if h1.kind == "finite":
            return ClassifyReport(group="additive", kind="finite-list",
                                  count=h1.size, representatives=h1.representatives)
        if h1.kind == "scalar" and h1.size == 1:
            return ClassifyReport(group="additive", kind="finite-list", count=1,
                                  representatives=h1.representatives)
        if h1.kind == "scalar":
            return ClassifyReport(group="additive", kind="oracle",
                                  note="sigma = id and L = 0: H^1 = k, classes are elements")
        return ClassifyReport(group="additive", kind="oracle",
                              note="decide a ~ a' via solve_additive(L, a'-a)")
    if isinstance(G, DiagonalMult):
        if not field.finite:
            return ClassifyReport(group="diagonal", kind="oracle",
                                  note="normal form f_i(x) = a_i; pairwise decider only")
        _charge((field.size - 1) ** len(G.functions), budget)
        constraints = diagonal_constraints(G)
        units = list(field.units())
        space = [vec for vec in itertools.product(units, repeat=len(G.functions))
                 if _satisfies_constraints(vec, constraints)]
        lam_space = list(itertools.product(units, repeat=G.n))

        def orbit(vec):
            return {tuple(a * f.eval(lam) for a, f in zip(vec, G.functions))
                    for lam in lam_space}

        reps = _orbit_partition(space, orbit)
        return ClassifyReport(group="diagonal", kind="finite-list",
                              count=len(reps), representatives=reps,
                              note="targets constrained by bounded-degree syzygies")
    if isinstance(G, FrobeniusTwist):
        if G.psi == "trivial" and field.inversive:
            return ClassifyReport(group="twist", kind="finite-list", count=1,
                                  representatives=[mat_identity(field, G.n)],
                                  note="sigma bijective: every torsor is trivial")
        if field.finite:
            mats = list(_enumerate_field_matrices(field, G.n, G.base == "SL", budget))
            if len(mats) ** 2 > budget:
                return ClassifyReport(group="twist", kind="oracle",
                                      note="orbit enumeration exceeds budget")

            def orbit(m):
                out = set()
                for c in mats:
                    lhs = mat_mul(mat_mul(mat_inverse(G.psi_apply(c, field)), m),
                                  mat_sigma(c, G.d))
                    out.add(lhs)
                return out

            reps = _orbit_partition(mats, orbit)
            return ClassifyReport(group="twist", kind="finite-list",
                                  count=len(reps), representatives=reps)
        return ClassifyReport(group="twist", kind="oracle",
                              note="decide via twist_translates")
    raise TorsorError(f"classification unsupported for group kind {G.kind}")


def diagonal_constraints(G: DiagonalMult, extra_degree: int = 2):
    """Integer syzygies among the exponent data of the defining functions.

    Each returned vector c gives the necessary constraint
    prod_{i,l} sigma^l(a_i)^(c_{i,l}) = 1 on realizable target vectors.
    """
    from .fields import make_field

    QQ = make_field("QQ")
    m = len(G.functions)
    orders = [f.order for f in G.functions]
    D = sum(orders) + extra_degree
    unknowns = [(i, l) for i in range(m) for l in range(D + 1)]
    max_power = D + max(orders)
    rows = []
    for v in range(G.n):
        for s in range(max_power + 1):
            row = []
            for (i, l) in unknowns:
                j = s - l
                exps = G.functions[i].exps
                val = exps[j][v] if 0 <= j < len(exps) else 0
                row.append(QQ.element(val))
            rows.append(row)
    ker = linalg.kernel_basis(rows, QQ, ncols=len(unknowns))
    out = []
    for vec in ker:
        denom = math.lcm(*[c.value.denominator for c in vec])
        ints = [int(c.value * denom) for c in vec]
        out.append({u: c for u, c in zip(unknowns, ints) if c})
    return out


def _satisfies_constraints(vec, constraints) -> bool:
    field = vec[0].field
    for cons in constraints:
        total = field.one()
        for (i, l), c in cons.items():
            total = total * vec[i].sigma(l) ** c
        if not total.is_one():
            return False
    return True


# --------------------------------------------------------------------------
# connecting map and the exact sequence


@dataclass
class DeltaResult:
    cocycle: Cocycle
    lift_algebra: LaurentAlgebra
    trivial: Outcome


def connecting_delta(field: SigmaField, d: int, x: FieldElement) -> DeltaResult:
    """delta(x) in H^1(k, N) for N = ker(sigma^d: Gm -> Gm), with triviality decided.

    The lift algebra adjoins a chain u_1 -> u_2 -> ... -> u_d -> x under
    sigma, the lift is u_1, and the class is u_1^{-1} (x) u_1.
    """
    x = field.element(x)
    if x.is_zero():
        raise TorsorError("delta needs a unit of the base field")
    if d < 1:
        raise TorsorError("d must be >= 1")
    images = []
    for i in range(d - 1):
        v = [0] * d
        v[i + 1] = 1
        images.append((field.one(), tuple(v)))
    images.append((x, (0,) * d))
    A = LaurentAlgebra(field, d, images)
    tc = TensorContext(A)
    N = kernel_of_sigma_power(field, "GL", 1, d)
    y, step = _sigma_preimage_chain(x, d)
    if y is not None:
        # a k-rational lift exists, so the canonical cocycle is literally 1
        chi = make_cocycle(N, tc, ((tc.AA.one(),),))
        g = A.gen(0)
        n_elt = g * A.from_scalar(y).inverse()
        assert n_elt.sigma(d) == A.one()
        cb = group_mul(N, map_value(N, tc.d1, ((n_elt,),)),
                       group_inv(N, map_value(N, tc.d2, ((n_elt,),))))
        assert values_equal(N, cb, ((tc.pair(g.inverse(), g),),))
        return DeltaResult(cocycle=chi, lift_algebra=A, trivial=outcome.yes(y))
    g = A.gen(0)
    assert g.sigma(d) == A.from_scalar(x)
    value = tc.pair(g.inverse(), g)
    chi = make_cocycle(N, tc, ((value,),))
    cert_detail = {"failing_step": step}
    if getattr(field, "mode", None) == "subst":
        cert_detail["obstruction"] = "parity"
    trivial = outcome.no("not-in-sigma-image", **cert_detail)
    return DeltaResult(cocycle=chi, lift_algebra=A, trivial=trivial)


@dataclass
class ExactnessReport:
    field: str
    d: int
    n_points: int
    image_size: int
    delta_trivial_count: int
    kernel_matches: bool
    delta_matches_lifting: bool
    torsors_all_trivial: bool

    @property
    def ok(self) -> bool:
        return self.kernel_matches and self.delta_matches_lifting \
            and self.torsors_all_trivial


def exactness_audit(field: SigmaField, d: int, budget: int = 10 ** 6) -> ExactnessReport:
    """Enumerated exactness of 1 -> N(k) -> Gm(k) -> Gm(k) -> H^1(k,N) -> ...

    Checks ker(sigma^d) = N(k), that delta(x) is trivial exactly when x
    lifts to Gm(k), and that every normal-form N-torsor sigma^d(y) = a
    has a k-point (sigma is an automorphism on a finite field).
    """
    if not field.finite:
        raise TorsorError("exactness audit enumerates a finite field")
    units = list(field.units())
    if len(units) * (d + 2) > budget:
        raise TorsorError("budget exceeded")
    # N(k) by the group's own membership test, checked against sigma^d(g) = 1
    N = kernel_of_sigma_power(field, "GL", 1, d)
    n_points = [g for g in units if contains(N, ((g,),), field)]
    image = {g.sigma(d) for g in units}
    kernel_matches = all(g.sigma(d).is_one() == (g in n_points) for g in units)
    delta_trivial = 0
    delta_ok = True
    for x in units:
        res = connecting_delta(field, d, x)
        lifts = x in image
        if bool(res.trivial) != lifts:
            delta_ok = False
        if res.trivial:
            delta_trivial += 1
    torsors_trivial = True
    for a in units:
        pts = [y for y in units if y.sigma(d) == a]
        if not pts or len(pts) != len(n_points):
            torsors_trivial = False
    return ExactnessReport(
        field=field.descriptor, d=d, n_points=len(n_points),
        image_size=len(image), delta_trivial_count=delta_trivial,
        kernel_matches=kernel_matches, delta_matches_lifting=delta_ok,
        torsors_all_trivial=torsors_trivial,
    )
