"""Torsor presentations, the torsor <-> cocycle bijection, and classification.

A torsor presentation is a pair (group, target): its points satisfy the
group's equations with the target in place of 1.  The presentations are
the normal forms the classification produces:

  * MuTorsor(a, b):          x^2 = a, sigma(x) = b*x   (sigma(a) = a*b^2),
                             the torus torsor of mu2^sigma
  * AdditiveTorsor(L, a):    L(x) = a
  * DiagonalTorsor(F, avec): f_i(x) = a_i on the torus
  * FrobeniusTwistTorsor:    sigma^d(x) = psi(x)*a inside GL_n or SL_n
  * TwistedForm(chi):        the descent of the group along a cocycle

is_point, torsor_points, isomorphic, normalize, classify_h1 and
cocycle_from_point each have one body: the family's torsor equations,
point search, invariant, decision on targets and H^1 listing are methods
of the group presentation (see groups), and the normal form is looked up
by the group's torsor_kind.  Only the twisted form, whose group may be of
any family, has equations of its own: it overrides the presentation's
is_point, points, cocycle_from_point and normal_form.

Both directions of the classification bijection are computable: a point
x of a torsor over A yields the unique cocycle with f1(x) = chi.f2(x),
and a cocycle yields a twisted form whose canonical A-point is chi^{-1}.
Deciders return witnesses or first-class nonexistence certificates
(square obstruction, no-rational-solution, sigma-image parity).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import outcome
from .algebras import FinDimAlgebra, LaurentAlgebra, SigmaAlgebra, TensorContext
from .cocycles import (Cocycle, coboundary_value, equivalent, invariant, is_cocycle,
                       make_cocycle)
from .fields import FieldElement, SigmaField
from .groups import (AdditiveKernel, DiagonalMult, FrobeniusTwist,
                     GroupPresentation, _sigma_preimage_chain, contains,
                     coset_points, kernel_of_sigma_power, mat_det, mu2sigma_group)
# re-exported: the H^1 listings and the additive torsor algebra live with their families
from .groups import (ClassifyReport, _enumerate_field_matrices,  # noqa: F401
                     _satisfies_constraints, additive_torsor_algebra,
                     diagonal_constraints, mu_pair_space)
from .operators import DifferenceOperator
from .outcome import DEFAULT_BUDGET, Outcome, charge


class TorsorError(ValueError):
    pass


# --------------------------------------------------------------------------
# presentations


class TorsorPresentation:
    """The pair (group presentation, target).

    Its points satisfy the group's equations with the target in place of 1,
    and every method defers to the family protocol of the group; the twisted
    form overrides them with the equations of its cocycle, chi (None here).
    """

    kind = "abstract"
    chi = None

    def __init__(self, presentation: GroupPresentation, target):
        self.presentation = presentation
        self.field = presentation.field
        self.target = target

    def is_point(self, x, R: SigmaAlgebra = None) -> bool:
        return self.presentation.torsor_point(x, self.target, R)

    def points(self, R: SigmaAlgebra, budget: int) -> Outcome:
        """A rational point for R None; over a finite field and a
        finite-dimensional R, the first of the coset_points of the target
        that is_point accepts; elsewhere only the canonical point of a
        trivializing algebra is tried."""
        G = self.presentation
        if R is None:
            return G.rational_point(self.target, budget)
        if not (self.field.finite and isinstance(R, FinDimAlgebra)):
            x = G.canonical_point(self.target, R)
            if x is not None and self.is_point(x, R):
                return outcome.yes(x)
            return outcome.undecided("enumeration-needs-finite-data")
        return outcome.first(map(G.point_shape, coset_points(G, R, budget, self.target)),
                             lambda x: self.is_point(x, R), "exhausted-algebra")

    def cocycle_from_point(self, x, A: SigmaAlgebra) -> Cocycle:
        if A is None:
            raise TorsorError("need the trivializing algebra A")
        if not self.is_point(x, A):
            raise TorsorError("x is not a point of X over A")
        tc = TensorContext(A)
        return make_cocycle(self.presentation, tc, coboundary_value(self.presentation, tc, x))

    def normal_form(self) -> "TorsorPresentation":
        return self


class MuTorsor(TorsorPresentation):
    kind = "mu"

    def __init__(self, a: FieldElement, b: FieldElement):
        b = a.field.element(b)
        if a.is_zero() or b.is_zero():
            raise TorsorError("mu-torsor parameters must be units")
        if a.sigma() != a * b * b:
            raise TorsorError("constraint sigma(a) = a*b^2 violated")
        super().__init__(mu2sigma_group(a.field), (a, b))
        self.a, self.b = a, b

    def __repr__(self):
        return f"MuTorsor(a={self.a}, b={self.b})"


class AdditiveTorsor(TorsorPresentation):
    kind = "additive"

    def __init__(self, L: DifferenceOperator, a: FieldElement):
        self.L = L
        self.a = L.field.element(a)
        super().__init__(AdditiveKernel(L), self.a)

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
        if not self.avec or len(self.avec) != len(self.functions):
            raise TorsorError("need one target per function")
        if any(a.is_zero() for a in self.avec):
            raise TorsorError("targets must be units")
        super().__init__(DiagonalMult(self.avec[0].field, self.n, self.functions), self.avec)

    def __repr__(self):
        return f"DiagonalTorsor({[str(f) for f in self.functions]}, {[str(a) for a in self.avec]})"


class FrobeniusTwistTorsor(TorsorPresentation):
    kind = "twist"

    def __init__(self, field, base: str, n: int, d: int, psi: str, a):
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
        super().__init__(FrobeniusTwist(field, base, n, d, psi), self.a)

    def __repr__(self):
        G = self.presentation
        return f"FrobeniusTwistTorsor({G.base}{G.n}, d={G.d}, psi={G.psi}, a={self.a})"


class TwistedForm(TorsorPresentation):
    kind = "twisted-form"

    def __init__(self, chi: Cocycle):
        super().__init__(chi.group, chi)
        self.chi = chi

    def canonical_point(self):
        return self.presentation.inv(self.chi.value)

    def is_point(self, x, R=None):
        tc = self.chi.context
        if R is not None and R != tc.A:
            raise TorsorError("twisted-form membership is realized over its own algebra")
        G = self.presentation
        lhs = G.mul(G.map(tc.dd2, x), G.map(tc.dd1, self.chi.value))
        return G.equal(lhs, G.map(tc.dd3, x)) and contains(G, x, tc.AA)

    def points(self, R, budget):
        """The canonical point chi^{-1}.  For a checked chi it is a point by
        the lemma of torsor_from_cocycle; an unchecked chi is tested, and
        one that is no cocycle raises."""
        if R is not None and R != self.chi.context.A:
            return outcome.undecided("twisted-form-over-foreign-algebra")
        x = self.canonical_point()
        if not self.chi.checked and not self.is_point(x):
            raise TorsorError("canonical point fails membership: chi is not a cocycle")
        return outcome.yes(x)

    def cocycle_from_point(self, z, A=None):
        """The cocycle dd1(z) dd2(z)^{-1}, read off through dd3.

        dd2 is a ring map, so it commutes with inverses: dd2(z)^{-1} is
        dd2(z^{-1}), and the inverse is taken in A(x)A, not in A(x)A(x)A.
        That z is a point and that the product lies in the image of dd3 are
        checked; by the bijection the value is then a cocycle, and
        make_cocycle checks it once more.
        """
        tc = self.chi.context
        G = self.presentation
        if not self.is_point(z):
            raise TorsorError("z is not a point of the twisted form")
        prod = G.mul(G.map(tc.dd1, z), G.map(tc.dd2, G.inv(z)))
        cand = G.map(tc.untensor_third, prod)
        if not G.equal(G.map(tc.dd3, cand), prod):
            raise TorsorError("uniqueness solve failed for the extracted cocycle")
        chi = make_cocycle(G, tc, cand)
        return self.chi if chi == self.chi else chi

    def normal_form(self):
        G = self.presentation
        make = NORMAL_FORMS.get(G.torsor_kind)
        if make is None:
            raise TorsorError(f"normalization unsupported for group kind {G.kind}")
        return make(G, invariant(self.chi))

    def __repr__(self):
        return f"TwistedForm(group={self.chi.group.kind})"


# the normal-form torsor of each family, by the group's torsor_kind
NORMAL_FORMS = {
    "mu": lambda G, t: MuTorsor(*t),
    "additive": lambda G, t: AdditiveTorsor(G.L, t),
    "diagonal": lambda G, t: DiagonalTorsor(G.torus.functions, t),
    "twist": lambda G, t: FrobeniusTwistTorsor(G.field, G.base, G.n, G.d, G.psi, t),
}


# --------------------------------------------------------------------------
# points


def is_point(X: TorsorPresentation, x, R: SigmaAlgebra = None) -> bool:
    """Does x satisfy the defining equations of X (over R or over k)?"""
    return X.is_point(x, R)


def torsor_points(X: TorsorPresentation, R: SigmaAlgebra = None,
                  budget: int = DEFAULT_BUDGET) -> Outcome:
    """A point of X over R (or over k when R is None), or a certificate.

    Finite data is enumerated completely; over infinite fields the
    decidable families use is_square, the Abramov solver, and sigma
    preimages, and everything else reports Undecided with its budget.
    Every enumeration checks its candidates against the budget first: the
    (q-1)^n units of a torus search (mu2^sigma's too) and the q^(n^2)
    matrices of a twist search answer undecided, and the q^(dim R * slots)
    points of a search over R raise BudgetExceeded, when they exceed it.
    A twisted form answers with its canonical point over its own algebra.
    """
    return X.points(R, budget)


# --------------------------------------------------------------------------
# the classification bijection


def cocycle_from_point(X: TorsorPresentation, x, A: SigmaAlgebra = None) -> Cocycle:
    """The unique cocycle with f1(x) = chi . f2(x) for a point x in X(A)."""
    return X.cocycle_from_point(x, A)


def torsor_from_cocycle(chi: Cocycle) -> TwistedForm:
    """The twisted form classified by chi; its canonical A-point is chi^{-1}.

    Only an unchecked chi (a bare Cocycle) is tested (membership and the
    cocycle identity).  chi^{-1} is then a point by a lemma, not by a test: the dd_i
    are ring maps, so dd_i(chi^{-1}) = dd_i(chi)^{-1}, and dd2(chi^{-1})
    dd1(chi) = dd3(chi^{-1}) holds exactly when dd2(chi) = dd1(chi)
    dd3(chi); chi^{-1} lies in G(A(x)A) because chi does.
    """
    if not chi.checked:
        res = is_cocycle(chi.group, chi.context, chi.value)
        if not res:
            raise TorsorError(f"not a cocycle: {res.certificate}")
    return TwistedForm(chi)


def normalize(X: TorsorPresentation) -> TorsorPresentation:
    """Family normal form of a twisted form, via the family invariant."""
    return X.normal_form()


# --------------------------------------------------------------------------
# isomorphism deciders


def isomorphic(X: TorsorPresentation, Y: TorsorPresentation,
               budget: int = DEFAULT_BUDGET) -> Outcome:
    """A torsor isomorphism witness (a translation datum), or a certificate:
    the family's decision on the targets of the normal forms."""
    if X.chi is not None and Y.chi is not None and X.chi.context.A == Y.chi.context.A:
        return equivalent(X.chi, Y.chi, budget)
    X, Y = normalize(X), normalize(Y)
    if X.kind != Y.kind:
        raise TorsorError("family mismatch")
    if X.presentation != Y.presentation:
        raise TorsorError(f"{X.kind} torsors for different groups")
    return X.presentation.equivalent_targets(X.target, Y.target, budget)


# --------------------------------------------------------------------------
# H^1(k, G) classification


def classify_h1(G: GroupPresentation, budget: int = DEFAULT_BUDGET) -> ClassifyReport:
    """Representatives of H^1(k, G) for the classified families.

    Finite base fields get an explicit list; infinite fields get oracle
    mode (the normal-form statement plus the pairwise decider).  Each
    listing charges its search to the budget before starting -- (q-1)^2
    pairs for mu2^sigma, (q-1)^#functions target vectors for a torus,
    q^(n^2) matrices for a twist -- and raises BudgetExceeded when it is
    exceeded.
    """
    rep = G.classify(budget)
    if rep is None:
        raise TorsorError(f"classification unsupported for group kind {G.kind}")
    return rep


# --------------------------------------------------------------------------
# connecting map and the exact sequence


@dataclass
class DeltaResult:
    cocycle: Cocycle
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
        cb = coboundary_value(N, tc, ((n_elt,),))
        if n_elt.sigma(d) != A.one() or not N.equal(cb, ((tc.pair(g.inverse(), g),),)):
            raise outcome.InternalError("the rational lift fails to trivialize delta(x)")
        return DeltaResult(cocycle=chi, trivial=outcome.yes(y))
    g = A.gen(0)
    if g.sigma(d) != A.from_scalar(x):
        raise outcome.InternalError("the lift algebra fails sigma^d(u_1) = x")
    value = tc.pair(g.inverse(), g)
    chi = make_cocycle(N, tc, ((value,),))
    cert_detail = {"failing_step": step}
    if getattr(field, "mode", None) == "subst":
        cert_detail["obstruction"] = "parity"
    trivial = outcome.no("not-in-sigma-image", **cert_detail)
    return DeltaResult(cocycle=chi, trivial=trivial)


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


def exactness_audit(field: SigmaField, d: int, budget: int = DEFAULT_BUDGET) -> ExactnessReport:
    """Enumerated exactness of 1 -> N(k) -> Gm(k) -> Gm(k) -> H^1(k,N) -> ...

    Checks ker(sigma^d) = N(k), that delta(x) is trivial exactly when x
    lifts to Gm(k), and that every normal-form N-torsor sigma^d(y) = a
    has a k-point (sigma is an automorphism on a finite field).  The
    (q-1)(d+2) steps are charged to the budget first (BudgetExceeded).
    """
    if not field.finite:
        raise TorsorError("exactness audit enumerates a finite field")
    charge((field.size - 1) * (d + 2), budget)
    units = list(field.units())
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
