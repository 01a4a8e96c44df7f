"""Cocycles of sigma-algebraic groups: Z^1(A/k, G) and its calculus.

A cocycle is an element chi of G(A(x)A) with dd2(chi) = dd1(chi)*dd3(chi)
in G(A(x)A(x)A); two cocycles are equivalent when they differ by a
coboundary d1(alpha) chi d2(alpha)^{-1} with alpha in G(A).  Everything
here is verified by exact computation in the tensor square and cube.

Every function here has one body for all groups: the group law, value
shapes and membership come from the presentation's methods (see groups),
and so do the family invariants, which implement the explicit
descriptions of H^1 for the classified groups.  A mu2 cocycle is
alpha^{-1}(x)alpha for a unit alpha with alpha^2 and sigma(alpha)/alpha in
k (its invariant is that pair, the torus invariant for the functions y^2
and s(y)/y), and an additive cocycle is 1(x)alpha - alpha(x)1 with
invariant L(alpha) in k.  The vanishing of H^1 for Gm and Ga does the
work: alpha is a descent kernel solve for Gm, and is read off for Ga by
the Amitsur complex's contracting homotopy.  Equivalence
splits a product into its factors (components), compares the invariants
by the family's decision on targets, and falls back to a search of G(A)
for groups without one.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import outcome
from .algebras import AlgebraMorphism, FinDimAlgebra, TensorContext
from .groups import (CocycleError, GroupError, GroupPresentation, ProductGroup,
                     contains, coset_points, enumerate_points)
from .groups import mu_pairs_equivalent  # noqa: F401  (re-exported)
from .outcome import DEFAULT_BUDGET, BudgetExceeded, Outcome


@dataclass(slots=True)
class Cocycle:
    """A value in G(A(x)A) claimed to be a cocycle.  `checked` is set where
    the claim was just proved: by make_cocycle (so coboundary too) and
    enumerate_cocycles, or by a caller that ran is_cocycle on the value; a
    bare Cocycle(G, tc, value) is unchecked."""

    group: GroupPresentation
    context: TensorContext
    value: object
    checked: bool = False

    @property
    def algebra(self):
        return self.context.A

    def __eq__(self, other):
        if not isinstance(other, Cocycle):
            return NotImplemented
        return (self.context.A == other.context.A
                and self.group.equal(self.value, other.value))


def values_equal(G: GroupPresentation, x, y) -> bool:
    return G.equal(x, y)


def map_value(G: GroupPresentation, func, x):
    """Apply an element transformer through the shape of a group value."""
    return G.map(func, x)


def _cocycle_identity(G: GroupPresentation, tc: TensorContext, value) -> Outcome:
    """dd2 = dd1 * dd3 for a value already known to lie in G(A(x)A)."""
    lhs = G.map(tc.dd2, value)
    rhs = G.mul(G.map(tc.dd1, value), G.map(tc.dd3, value))
    if not G.equal(lhs, rhs):
        return outcome.no("cocycle-identity-fails")
    return outcome.yes()


def is_cocycle(G: GroupPresentation, tc: TensorContext, value) -> Outcome:
    """Membership in G(A(x)A) plus the identity dd2 = dd1 * dd3."""
    try:
        member = contains(G, value, tc.AA)
    except GroupError as e:
        raise CocycleError(str(e)) from e
    if not member:
        return outcome.no("not-a-group-element")
    return _cocycle_identity(G, tc, value)


def make_cocycle(G: GroupPresentation, tc: TensorContext, value) -> Cocycle:
    res = is_cocycle(G, tc, value)
    if not res:
        raise CocycleError(f"not a cocycle: {res.certificate}")
    return Cocycle(G, tc, value, checked=True)


def trivial_cocycle(G: GroupPresentation, tc: TensorContext) -> Cocycle:
    return Cocycle(G, tc, G.identity(tc.AA))


def coboundary_value(G: GroupPresentation, tc: TensorContext, x):
    """d1(x) * d2(x)^{-1} in G(A(x)A), for x in G(A) or a torsor point over A."""
    return G.mul(G.map(tc.d1, x), G.inv(G.map(tc.d2, x)))


def coboundary(G: GroupPresentation, tc: TensorContext, alpha) -> Cocycle:
    """d1(alpha) * d2(alpha)^{-1} for alpha in G(A)."""
    if not contains(G, alpha, tc.A):
        raise CocycleError("coboundary argument is not a group element")
    return make_cocycle(G, tc, coboundary_value(G, tc, alpha))


def enumerate_cocycles(G: GroupPresentation, tc: TensorContext,
                       budget: int = DEFAULT_BUDGET) -> list:
    """All of Z^1(A/k, G) by exhaustive search (finite base field), in
    enumerate_points order.  Its points are members already, so only the
    cocycle identity is tested; where the identity is linear
    (cocycle_relations) it is also solved, so only Z^1 is streamed."""
    values = enumerate_points(G, tc.AA, budget,
                              keep=lambda value: _cocycle_identity(G, tc, value),
                              relations=G.cocycle_relations(tc))
    return [Cocycle(G, tc, value, checked=True) for value in values]


# --------------------------------------------------------------------------
# family invariants and equivalence


def invariant(chi: Cocycle):
    """The family invariant of chi: the target of the normal-form torsor it
    classifies ((a, b) for mu2^sigma, L(alpha) for ker L, (f_i(g)) for a
    torus, psi(h)^{-1} sigma^d(h) for a twist)."""
    t = chi.group.invariant(chi.context, chi.value)
    if t is None:
        raise CocycleError(f"no trivialization invariant for group kind {chi.group.kind}")
    return t


# the names under which callers know the invariant of their family
mu_invariant = additive_invariant = invariant


def equivalent(chi1: Cocycle, chi2: Cocycle, budget: int = DEFAULT_BUDGET) -> Outcome:
    """Decide chi1 = d1(alpha) chi2 d2(alpha)^{-1} for some alpha in G(A).

    A product is decided factor by factor, with one witness per factor.
    With a family invariant the witness is the rational point that carries
    the torsor of chi1 onto that of chi2 (as torsors.isomorphic gives it);
    otherwise it is alpha itself, the first member of G(A) over a finite
    field, in coset_points order, that carries chi2 to chi1.
    """
    G = chi1.group
    tc = chi1.context
    if chi2.context.A != tc.A:
        raise CocycleError("cocycles live over different algebras")
    if G.equal(chi1.value, chi2.value):
        return outcome.yes(G.identity(tc.A))
    parts = G.components(chi1.value)
    if parts is not None:
        witnesses = []
        for (f, c1), c2 in zip(parts, chi2.value):
            res = equivalent(Cocycle(f, tc, c1), Cocycle(f, tc, c2), budget)
            if not res:
                return res
            witnesses.append(res.witness)
        return outcome.yes(tuple(witnesses))
    t1 = G.invariant(tc, chi1.value)
    if t1 is not None:
        return G.equivalent_targets(t1, G.invariant(tc, chi2.value), budget)
    if not (tc.A.field.finite and isinstance(tc.A, FinDimAlgebra)):
        return outcome.undecided("no-decision-procedure")
    try:
        candidates = map(G.shape, coset_points(G, tc.A, budget))
    except BudgetExceeded as e:
        return outcome.undecided("budget-exhausted", space=e.space)
    carries = lambda alpha: contains(G, alpha, tc.A) and G.equal(
        chi1.value, G.mul(G.map(tc.d1, alpha), G.mul(chi2.value, G.inv(G.map(tc.d2, alpha)))))
    return outcome.first(candidates, carries, "exhausted-group-points")


# --------------------------------------------------------------------------
# pushforwards and products


def pushforward_algebra(chi: Cocycle, h: AlgebraMorphism) -> Cocycle:
    """Image of a cocycle under a k-sigma-algebra morphism A -> B."""
    h.validate()
    if h.source != chi.context.A:
        raise CocycleError("morphism source does not match the cocycle algebra")
    tc_tgt = TensorContext(h.target)
    value = chi.group.map(lambda e: h.square_apply(tc_tgt, e), chi.value)
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
        value = chi.group.map(lambda e: e.sigma(d), chi.value)
        return make_cocycle(chi.group.coefficient_twist(d), tc, value)
    raise CocycleError(f"unsupported group morphism spec {spec!r}")


def product_split(chi: Cocycle) -> tuple:
    """Split a G x H cocycle into its factor cocycles."""
    parts = chi.group.components(chi.value)
    if parts is None:
        raise CocycleError("product_split needs a product presentation")
    return tuple(make_cocycle(f, chi.context, comp) for f, comp in parts)


def product_merge(G: ProductGroup, parts) -> Cocycle:
    if len(parts) != len(G.factors):
        raise CocycleError("wrong number of factors")
    tc = parts[0].context
    return make_cocycle(G, tc, tuple(p.value for p in parts))
