"""Presentations of sigma-algebraic groups, one class per family.

Four presentation kinds cover every family classified here:

  * MatrixGroup    -- sigma-closed subgroups of GL_n cut out by
                      sigma-polynomial relations in the n^2 entries;
  * AdditiveKernel -- {g : L(g) = 0} for a monic linear difference
                      operator L (L = None is the full additive group);
  * DiagonalMult   -- the torus family {g in (R^x)^n : f_i(g) = 1} for
                      multiplicative functions f_i;
  * FrobeniusTwist -- {g in GL_n or SL_n : sigma^d(g) = psi(g)} for psi
                      one of 1, g, (g^T)^-1.

ProductGroup glues presentations into direct products, factor by factor.

Every presentation supplies one protocol, which the generic code in
cocycles and torsors calls instead of testing the class:

  values   slots, shape(ys), identity(R), mul, inv, equal,
           map(func, x), linear_relations(target), cocycle_relations(tc),
           points(R, budget, keep, relations), coefficient_twist(d), components(x);
  torsors  torsor_kind, invariant(tc, value), translate(c, t),
           equivalent_targets(t1, t2, budget), classify(budget),
           torsor_point(x, t, R), rational_point(t, budget),
           canonical_point(t, R), point_shape(ys).

Membership contains(x, R) is the torsor equation at the unit target,
torsor_point(x, None, R): None stands for the group itself, as in
linear_relations.  Only MatrixGroup, which has no torsors, and
ProductGroup, decided factor by factor, state their own.

Budgets: each search calls outcome.charge(space, budget) itself before it
starts, and a budget is a number (math.inf for none).  A listing (points,
classify, the H^1 lists) lets the BudgetExceeded through; a decision
answers undecided "budget-exhausted" instead, with the refused space for
equivalent_targets and without it for rational_point.  The twist classify
falls back to its oracle report when the orbit check exceeds the budget.

Group values are plain: an algebra element (additive), a tuple of them
(diagonal), a matrix of them (matrix and twist; a bare element stands for
a 1 x 1 matrix, kept bare by the group law), or a tuple of component values
(products).  A torsor of a family is a pair (G, t) whose points satisfy
the equations of G with the target t in place of 1: L(x) = a,
f_i(x) = a_i, sigma^d(x) = psi(x) a.  A cocycle's invariant is the target
of the torsor it classifies, found by trivializing the cocycle in the
ambient group (H^1 of Gm, GL_n and Ga vanishes; gl_trivialize does Gm
and GL_n by one descent kernel solve, TensorContext.contract reads Ga's
off); torsor_kind names the normal-form torsor class in torsors, None
for a family without invariant.
translate(c, t), the family's one action of G(k) on targets, is the
target that translation by c carries the torsor of t onto, or None when c
lies outside the ambient group; it uses field arithmetic only.

A ScalarTorus is a rank-one torus DiagonalMult(1, [f_1, ...]) presented
as the 1 x 1 MatrixGroup {f_i(y) = 1}: its relations numerator(f_i) -
denominator(f_i) name the group, while membership, the linear relations
of enumeration and every torsor method are the torus's, with the 1-tuples
of the torus unwrapped to bare scalars.  mu2^sigma = {y^2 = 1,
sigma(y) = y} is the ScalarTorus of DiagonalMult(1, [y^2, s(y)/y]), so
lambda acts on its targets by (lambda^2, sigma(lambda)/lambda).  Functions
exactly (y^2, s(y)/y) are mu-shaped and get the mu paths: the pair space
M = {(a, b) : sigma(a) = a b^2}, square roots over infinite fields, and
the canonical point y of the mu-algebra.

Over a finite base field, enumerate_points lists G(R) for a
finite-dimensional R, torsors searches the points of a torsor and
cocycles searches G(A), all through coset_points.  Membership and
torsor_point refute by the cheapest check first and take no inverse, each
family in the order its method states (MatrixGroup.contains,
DiagonalMult.torsor_point, FrobeniusTwist.torsor_point); on units each
form is equivalent to the textbook one, and a non-unit still ends False,
so answers and enumeration order do not depend on this order.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field as dc_field

from . import linalg, outcome
from .algebras import (AlgebraError, AlgElement, FinDimAlgebra, FreePolyAlgebra,
                       SigmaAlgebra, _clean_element, make_mu_algebra)
from .fields import make_field
from .operators import (DifferenceOperator, classify_additive_h1,
                        solve_additive_full, solve_sigma_quotient)
from .outcome import DEFAULT_BUDGET, BudgetExceeded, Outcome, charge  # re-exports BudgetExceeded
from .sigma_poly import MultiplicativeFunction, SigmaPolynomial, relation_from_multiplicative


class GroupError(ValueError):
    pass


class CocycleError(ValueError):
    pass


# --------------------------------------------------------------------------
# matrices over an algebra (or a field): small, cofactor-based


def mat_mul(x, y):
    n = len(x)
    return tuple(
        tuple(sum((x[i][t] * y[t][j] for t in range(1, n)),
                  x[i][0] * y[0][j]) for j in range(n))
        for i in range(n)
    )


def mat_sigma(x, power: int = 1):
    return tuple(tuple(e.sigma(power) for e in row) for row in x)


def mat_transpose(x):
    n = len(x)
    return tuple(tuple(x[j][i] for j in range(n)) for i in range(n))


def mat_det(x):
    n = len(x)
    if n == 1:
        return x[0][0]
    total = None
    for j in range(n):
        minor = tuple(tuple(row[c] for c in range(n) if c != j) for row in x[1:])
        term = x[0][j] * mat_det(minor)
        if j % 2:
            term = -term
        total = term if total is None else total + term
    return total


def mat_identity(R, n: int):
    one, zero = R.one(), R.zero()
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def mat_maybe_inverse(x):
    """Adjugate inverse; None when det is not a unit."""
    n = len(x)
    d = mat_det(x)
    dinv = d.maybe_inverse()
    if dinv is None:
        return None
    if n == 1:
        return ((dinv,),)
    adj = []
    for i in range(n):
        row = []
        for j in range(n):
            minor = tuple(tuple(x[r][c] for c in range(n) if c != i)
                          for r in range(n) if r != j)
            term = mat_det(minor) * dinv
            if (i + j) % 2:
                term = -term
            row.append(term)
        adj.append(tuple(row))
    return tuple(adj)


def mat_inverse(x):
    inv = mat_maybe_inverse(x)
    if inv is None:
        raise GroupError("matrix is not invertible")
    return inv


def mat_eq(x, y) -> bool:
    return all(a == b for rx, ry in zip(x, y) for a, b in zip(rx, ry))


def _as_matrix(x):
    if isinstance(x, tuple) and x and isinstance(x[0], tuple):
        return x
    return ((x,),)


def _scalar_parts(values, what: str):
    """The base-field scalars of algebra elements, or CocycleError."""
    out = []
    for e in values:
        c = e.scalar_part()
        if c is None:
            raise CocycleError(f"{what} does not land in the base field")
        out.append(c)
    return out


# --------------------------------------------------------------------------
# H^1 listings


@dataclass
class ClassifyReport:
    kind: str                       # "finite-list" | "oracle"
    count: int | None = None
    representatives: list = dc_field(default_factory=list)
    note: str | None = None


def _orbit_partition(items, orbit_of):
    seen = set()
    reps = []
    for it in items:
        if it in seen:
            continue
        orbit = orbit_of(it)
        if it not in orbit:
            raise outcome.InternalError("an orbit misses its own representative")
        seen.update(orbit)
        reps.append(it)
    return reps


def mu_pair_space(field):
    """M = {(a,b) in k^x x k^x : sigma(a) = a*b^2}."""
    return [(a, b) for a in field.units() for b in field.units()
            if a.sigma() == a * b * b]


def mu_pairs_equivalent(field, pair1, pair2) -> Outcome:
    """(a,b) ~ (a',b') iff a' = l^2 a and b' = sigma(l)/l * b for some unit l."""
    return mu2sigma_group(field).equivalent_targets(tuple(pair1), tuple(pair2), math.inf)


SYZYGY_EXTRA_DEGREE = 2  # diagonal_constraints: sigma-degrees up to sum of orders + this


def diagonal_constraints(G: DiagonalMult):
    """Integer syzygies among the exponent data of the defining functions.

    Each returned vector c gives the necessary constraint
    prod_{i,l} sigma^l(a_i)^(c_{i,l}) = 1 on realizable target vectors.
    """
    QQ = make_field("QQ")
    m = len(G.functions)
    orders = [f.order for f in G.functions]
    D = sum(orders) + SYZYGY_EXTRA_DEGREE
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


def _enumerate_field_matrices(field, n: int, det_one: bool, budget: float):
    """The matrices of GL_n(k) (SL_n(k) with det_one) of a finite field k,
    charging q^(n^2) to the budget first."""
    charge(field.size ** (n * n), budget)
    elems = list(field.elements())
    for combo in itertools.product(elems, repeat=n * n):
        m = tuple(tuple(combo[i * n + j] for j in range(n)) for i in range(n))
        det = mat_det(m)
        if det.is_zero():
            continue
        if det_one and not det.is_one():
            continue
        yield m


# --------------------------------------------------------------------------
# trivialization inside the ambient group (H^1 of Gm / GL_n is trivial)


def gl_trivialize(tc, chi, n: int):
    """h in GL_n(A) with chi * d2(h) = d1(h), i.e. chi = d1(h) d2(h)^{-1}.

    Descent: over a field every nonzero A is faithfully flat, so a
    GL_n-cocycle chi descends A^n to the k-space M = {v in A^n :
    chi * d2(v) = d1(v)}, with M (x) A = A^n; hence dim M = n and the
    columns of any k-basis of M form an invertible h (Hilbert 90).  M is
    one kernel solve in n * dim A unknowns.  A kernel of another
    dimension, or a basis that is not invertible, certifies that chi is
    no cocycle; the answer is re-checked with field arithmetic."""
    A = tc.A
    if not isinstance(A, FinDimAlgebra):
        raise CocycleError("trivialization implemented for finite-dimensional algebras")
    field = A.field
    zero = field.zero()
    cols = []
    for r in range(n):
        for i in A.index_list():
            e = A.basis_element(i)
            d2e = tc.d2(e)
            cols.append([chi[s][r] * d2e - tc.d1(e) if s == r else chi[s][r] * d2e
                         for s in range(n)])
    rows = [[col[s].data.get(key, zero) for col in cols]
            for s in range(n) for key in tc.AA.index_list()]
    ker = linalg.kernel_basis(rows, field, ncols=len(cols))
    if len(ker) != n:
        raise CocycleError(f"not a GL{n}-cocycle: its descent space has dimension "
                           f"{len(ker)}, not {n}")
    m = A.dim
    h = tuple(tuple(A.from_vector(v[s * m:(s + 1) * m]) for v in ker) for s in range(n))
    if not mat_det(h).is_unit():
        raise CocycleError(f"not a GL{n}-cocycle: its descent space has no invertible basis")
    if not mat_eq(mat_mul(chi, tuple(tuple(tc.d2(e) for e in row) for row in h)),
                  tuple(tuple(tc.d1(e) for e in row) for row in h)):
        raise outcome.InternalError("descent trivializer fails chi * d2(h) = d1(h)")
    return h


def gm_trivialize(tc, chi: AlgElement) -> AlgElement:
    """alpha in A^x with chi = alpha^{-1} (x) alpha: the n = 1 descent."""
    return gl_trivialize(tc, ((chi,),), 1)[0][0]


def additive_torsor_algebra(L: DifferenceOperator, a) -> FreePolyAlgebra:
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
    if L.apply(A.gen(0)) != A.from_scalar(a):
        raise outcome.InternalError("additive torsor algebra fails L(y_1) = a")
    return A


# --------------------------------------------------------------------------
# presentations


class GroupPresentation:
    """The family protocol; the defaults are those of matrix values."""

    kind = "abstract"
    torsor_kind: str | None = None

    def __eq__(self, other):
        return type(other) is type(self) and other._key() == self._key()

    def __hash__(self):
        return hash(self._key())

    # -- values: n x n matrices over R, a bare entry for a 1 x 1 matrix

    @property
    def slots(self) -> int:
        return self.n * self.n

    def shape(self, ys):
        n = self.n
        return tuple(ys[i * n:(i + 1) * n] for i in range(n))

    def _matrix(self, x):
        m = _as_matrix(x)
        if len(m) != self.n or any(len(row) != self.n for row in m):
            raise GroupError("matrix shape mismatch")
        return m

    def contains(self, x, R: SigmaAlgebra) -> bool:
        return self.torsor_point(x, None, R)

    def identity(self, R):
        return mat_identity(R, self.n)

    def mul(self, x, y):
        if isinstance(x, tuple) or isinstance(y, tuple):
            return mat_mul(_as_matrix(x), _as_matrix(y))
        return x * y

    def inv(self, x):
        if isinstance(x, tuple):
            return mat_inverse(x)
        return mat_inverse(((x,),))[0][0]

    def equal(self, x, y) -> bool:
        return mat_eq(_as_matrix(x), _as_matrix(y))

    def map(self, func, x):
        """Apply an element transformer through the shape of a value."""
        if isinstance(x, tuple):
            return tuple(tuple(func(e) for e in row) for row in x)
        return func(x)

    def linear_relations(self, target=None):
        """The sigma-semilinear relations implied by membership in the
        torsor of `target` (the group itself for None, whose target is 1),
        as one map from the tuple of slot values to a list of elements of R
        that vanish on its points; None when there are none.  Each is
        F_p-affine: its value at the zero tuple is its constant, and the
        map minus that constant is F_p-linear."""
        return None

    def cocycle_relations(self, tc):
        """The cocycle identity as an F_p-linear map like linear_relations."""
        return None

    def points(self, R: FinDimAlgebra, budget: int, keep, relations=None):
        """The body of enumerate_points for one presentation."""
        return [x for x in map(self.shape, coset_points(self, R, budget, None, relations))
                if self.contains(x, R) and (keep is None or keep(x))]

    def coefficient_twist(self, d: int) -> GroupPresentation:
        """The presentation of ^{sigma^d}G: coefficients move through sigma^d."""
        return self

    def components(self, x):
        """The (factor, component) pairs of a product value, which are
        decided factor by factor; None for a group of one factor."""
        return None

    # -- torsors: the defaults of a family without a classification; a
    # classified family also supplies translate(c, t), equivalent_targets(t1,
    # t2, budget), torsor_point(x, t, R) and rational_point(t, budget)

    def invariant(self, tc, value):
        """The target of the torsor classified by the cocycle `value`; None
        when the family has no invariant."""
        return None

    def classify(self, budget: int):
        """A ClassifyReport of H^1(k, G); None when unsupported."""
        return None

    def canonical_point(self, target, R):
        """A distinguished point over the torsor's own trivializing algebra R."""
        return None

    def point_shape(self, ys):
        """A torsor point from its slot values."""
        return self.shape(ys)


class MatrixGroup(GroupPresentation):
    kind = "matrix"

    def __init__(self, field, n: int, relations):
        self.field = field
        self.n = n
        self.relations = tuple(relations)
        for rel in self.relations:
            if not isinstance(rel, SigmaPolynomial):
                raise GroupError("relations must be sigma-polynomials")
            if rel.nvars != n * n:
                raise GroupError("relation arity must be n^2")

    def _key(self):
        return (self.field, self.n, self.relations)

    def contains(self, x, R):
        m = self._matrix(x)
        entries = tuple(e for row in m for e in row)
        # the relations are cheap; test them before the unit test
        return (all(rel.eval(entries).is_zero() for rel in self.relations)
                and mat_det(m).is_unit())

    def coefficient_twist(self, d):
        rels = [SigmaPolynomial(r.field, r.nvars, {m: c.sigma(d) for m, c in r.terms.items()})
                for r in self.relations]
        return MatrixGroup(self.field, self.n, rels)


class ScalarTorus(MatrixGroup):
    """A rank-one torus as the 1 x 1 matrix group {f_i(y) = 1}, its
    relations numerator(f_i) - denominator(f_i); every torsor method is the
    torus's, with the 1-tuples of its values unwrapped."""

    def __init__(self, torus: DiagonalMult):
        if torus.n != 1:
            raise GroupError("a scalar torus has rank one")
        super().__init__(torus.field, 1, [relation_from_multiplicative(f, torus.field, 1)
                                          for f in torus.functions])
        self.torus = torus

    @property
    def torsor_kind(self):
        return "mu" if self.torus.mu_shaped else "diagonal"

    # membership is the torus's equation at the unit target, not the relations
    contains = GroupPresentation.contains

    def linear_relations(self, target=None):
        return self.torus.linear_relations(target)

    def coefficient_twist(self, d):
        return self

    def invariant(self, tc, value):
        return self.torus.invariant(tc, (_as_matrix(value)[0][0],))

    def translate(self, c, target):
        return self.torus.translate((c,), target)

    def equivalent_targets(self, t1, t2, budget):
        return _first_of_witness(self.torus.equivalent_targets(t1, t2, budget))

    def classify(self, budget):
        return self.torus.classify(budget)

    def torsor_point(self, x, target, R=None):
        return self.torus.torsor_point((self._matrix(x)[0][0],), target, R)

    def rational_point(self, target, budget):
        return _first_of_witness(self.torus.rational_point(target, budget))

    def canonical_point(self, target, R):
        x = self.torus.canonical_point(target, R)
        return None if x is None else x[0]

    def point_shape(self, ys):
        return ys[0]


def _first_of_witness(res: Outcome) -> Outcome:
    return outcome.yes(res.witness[0]) if res else res


class AdditiveKernel(GroupPresentation):
    kind = "additive"
    slots = 1

    def __init__(self, L: DifferenceOperator | None, field=None):
        if L is None and field is None:
            raise GroupError("the full additive group needs an explicit field")
        self.L = L
        self.field = field if L is None else L.field

    def _key(self):
        return (self.field, self.L)

    def shape(self, ys):
        return ys[0]

    def identity(self, R):
        return R.zero()

    def mul(self, x, y):
        return x + y

    def inv(self, x):
        return -x

    def equal(self, x, y):
        return x == y

    def map(self, func, x):
        return func(x)

    def linear_relations(self, target=None):
        """L(y) - a, with a = 0 for the group (target None); None for the
        full additive group."""
        L = self.L
        if L is None:
            return None
        a = self.field.zero() if target is None else target
        return lambda ys: [L.apply(ys[0]) - a]

    def cocycle_relations(self, tc):
        return lambda ys: [tc.dd2(ys[0]) - tc.dd1(ys[0]) - tc.dd3(ys[0])]

    def coefficient_twist(self, d):
        if self.L is None:
            return self
        return AdditiveKernel(DifferenceOperator(self.field, [c.sigma(d) for c in self.L.coeffs]))

    @property
    def torsor_kind(self):
        return None if self.L is None else "additive"

    def invariant(self, tc, value: AlgElement):
        """L(alpha) in k where value = 1(x)alpha - alpha(x)1, alpha read off
        by the contracting homotopy (tc.contract), then checked."""
        if self.L is None:
            return None
        alpha = tc.contract(value)
        if tc.d1(alpha) - tc.d2(alpha) != value:
            raise CocycleError("not an additive cocycle: value != 1(x)alpha - alpha(x)1")
        (a,) = _scalar_parts([self.L.apply(alpha)], "L(alpha)")
        return a

    def translate(self, c, a):
        """a + L(c): x -> x + c carries L(x) = a onto L(x) = a + L(c)."""
        return a + self.L.apply(c)

    def equivalent_targets(self, a1, a2, budget):
        """c in k with L(c) = a2 - a1, so that translate(c, a1) = a2."""
        return solve_additive_full(self.L, a2 - a1, budget)

    def classify(self, budget):
        if self.L is None:
            return None
        h1 = classify_additive_h1(self.L)
        if h1.kind == "finite" or (h1.kind == "scalar" and h1.size == 1):
            return ClassifyReport(kind="finite-list", count=h1.size,
                                  representatives=h1.representatives)
        if h1.kind == "scalar":
            return ClassifyReport(kind="oracle",
                                  note="sigma = id and L = 0: H^1 = k, classes are elements")
        return ClassifyReport(kind="oracle",
                              note="decide a ~ a' via solve_additive(L, a'-a)")

    def torsor_point(self, x, a, R=None):
        """L(x) = a, a = 0 for the group (target None), which is all of R
        when L is None; over an algebra R, x must be an element of R."""
        if R is not None and not isinstance(x, AlgElement):
            raise GroupError("additive elements are algebra scalars")
        if a is None:
            return self.L is None or self.L.apply(x).is_zero()
        return self.L.apply(x) == (a if R is None else R.from_scalar(a))

    def rational_point(self, a, budget):
        return solve_additive_full(self.L, a, budget)

    def canonical_point(self, a, R):
        """The generator of k[y_1..y_n] with L(y_1) = a."""
        return R.gen(0) if R == additive_torsor_algebra(self.L, a) else None


class DiagonalMult(GroupPresentation):
    kind = "diagonal"
    torsor_kind = "diagonal"

    def __init__(self, field, n: int, functions):
        self.field = field
        self.n = n
        self.functions = tuple(functions)
        for f in self.functions:
            if not isinstance(f, MultiplicativeFunction) or f.nvars != n:
                raise GroupError("defining functions must be multiplicative of arity n")
        # the y_i that each function forces to be a unit (see torsor_point)
        self._forcing = tuple(frozenset() if f.factors(-1) else
                              frozenset(i for i, j, _ in f.factors(1) if j == 0)
                              for f in self.functions)
        self._unforced = tuple(i for i in range(n) if not any(i in s for s in self._forcing))

    def _key(self):
        return (self.field, self.n, self.functions)

    @property
    def slots(self):
        return self.n

    def shape(self, ys):
        return tuple(ys)

    def identity(self, R):
        return tuple(R.one() for _ in range(self.n))

    def mul(self, x, y):
        return tuple(a * b for a, b in zip(x, y))

    def inv(self, x):
        return tuple(a.inverse() for a in x)

    def equal(self, x, y):
        return all(a == b for a, b in zip(x, y))

    def map(self, func, x):
        return tuple(func(c) for c in x)

    def linear_relations(self, target=None):
        """sigma^a(y_i) - c * sigma^b(y_j) for each function sigma^a(y_i) /
        sigma^b(y_j) (one exponent +1, one -1, on units) with target c, c = 1
        for the group (target None)."""
        avec = [self.field.one()] * len(self.functions) if target is None else target
        pairs = []
        for f, c in zip(self.functions, avec):
            num, den = f.factors(1), f.factors(-1)
            if len(num) == len(den) == 1 and num[0][2] == den[0][2] == 1:
                (ia, a, _), (ib, b, _) = num[0], den[0]
                pairs.append((ia, a, ib, b, c))
        if not pairs:
            return None
        return lambda ys: [ys[ia].sigma(a) - ys[ib].sigma(b) * c for ia, a, ib, b, c in pairs]

    @property
    def torus(self):
        return self

    @property
    def mu_shaped(self) -> bool:
        """The functions are exactly (y^2, s(y)/y): mu2^sigma as a torus."""
        return self.n == 1 and [f.exps for f in self.functions] == [((2,),), ((-1,), (1,))]

    def invariant(self, tc, value):
        """(f_1(g),...,f_m(g)) in k^m for a trivializing torus point g."""
        gs = tuple(gm_trivialize(tc, comp) for comp in value)
        return tuple(_scalar_parts([f.eval(gs) for f in self.functions], "f_i(g)"))

    def translate(self, lam, v):
        """(v_i * f_i(lambda)): x -> lambda x carries f(x) = v onto f(x) =
        translate(lambda, v); None when lambda has a zero entry."""
        if any(c.is_zero() for c in lam):
            return None
        return tuple(a * f.eval(lam) for a, f in zip(v, self.functions))

    def equivalent_targets(self, v1, v2, budget):
        """lambda in (k^x)^n with translate(lambda, v1) = v2, or a certificate:
        the first of the (q-1)^n units of a finite field (undecided over the
        budget), a square root of a2/a1 over an infinite field when mu-shaped,
        else lambda = (1, ..., 1) when it carries v1 onto v2."""
        field = self.field
        if field.finite:
            try:
                return self._unit_search(lambda lam: self.translate(lam, v1) == v2,
                                         "exhausted-units", budget)
            except BudgetExceeded as e:
                return outcome.undecided("budget-exhausted", space=e.space)
        if not self.mu_shaped:
            ones = (field.one(),) * self.n
            if self.translate(ones, v1) == v2:
                return outcome.yes(ones)
            return outcome.undecided("diagonal-equivalence-undecided")
        r = v2[0] / v1[0]
        lam = field.is_square(r)
        if lam is None:
            return outcome.no("ratio-not-a-square", ratio=str(r))
        if self.translate((lam,), v1) == v2:
            return outcome.yes((lam,))
        return outcome.no("sigma-ratio-mismatch", candidate=str(lam))

    def h1_targets(self, budget):
        """Representatives of the target vectors up to the lambda action over
        a finite field, (q-1)^#functions charged first: of M when
        mu-shaped, else of the vectors meeting the syzygy constraints."""
        field = self.field
        charge((field.size - 1) ** len(self.functions), budget)
        units = list(field.units())
        if self.mu_shaped:
            space = mu_pair_space(field)
        else:
            constraints = diagonal_constraints(self)
            space = [vec for vec in itertools.product(units, repeat=len(self.functions))
                     if _satisfies_constraints(vec, constraints)]
        lams = list(itertools.product(units, repeat=self.n))
        return _orbit_partition(space, lambda v: {self.translate(lam, v) for lam in lams})

    def classify(self, budget):
        mu = self.mu_shaped
        if not self.field.finite:
            note = ("normal form x^2=a, sigma(x)=b*x; decide via isomorphic" if mu
                    else "normal form f_i(x) = a_i; pairwise decider only")
            return ClassifyReport(kind="oracle", note=note)
        reps = self.h1_targets(budget)
        return ClassifyReport(kind="finite-list", count=len(reps), representatives=reps,
                              note=None if mu else "targets constrained by bounded-degree syzygies")

    def torsor_point(self, x, avec, R=None):
        """num(x) = den(x) a_i for each f_i (a = 1 for the group, avec
        None), then the unit test of each entry that no f_i with a_i != 0
        forces.  A unit lemma replaces the others: when f has no
        denominator and y_i occurs unshifted in it, f(x) = a with a a unit
        reads x_i * (a product in R) = a, so x_i is a unit (R is
        commutative)."""
        if not isinstance(x, tuple) or len(x) != self.n or (x and isinstance(x[0], tuple)):
            raise GroupError("shape mismatch for diagonal element")
        # the equations refute most candidates before any unit test
        sides = (f.split_eval(x) for f in self.functions)
        if avec is None:
            if not all(num == den for num, den in sides):
                return False
            unforced = self._unforced
        elif not all(num == den * a for (num, den), a in zip(sides, avec)):
            return False
        else:
            forced = set().union(*(s for s, a in zip(self._forcing, avec) if not a.is_zero()))
            unforced = (i for i in range(self.n) if i not in forced)
        return all(x[i].is_unit() for i in unforced)

    def rational_point(self, avec, budget):
        """Every unit vector of a finite field, undecided when its (q-1)^n
        candidates exceed the budget; over an infinite field, a square root
        of a for mu-shaped functions (both roots have the same
        sigma(x)/x), else (1, ..., 1) when it is a point, else undecided."""
        field = self.field
        if field.finite:
            # a mu-shaped point is a square root of a, sought in k
            exhausted = "exhausted-field" if self.mu_shaped else "exhausted-units"
            try:
                return self._unit_search(lambda x: self.torsor_point(x, avec), exhausted, budget)
            except BudgetExceeded:
                return outcome.undecided("budget-exhausted")
        if not self.mu_shaped:
            ones = (field.one(),) * self.n
            if self.torsor_point(ones, avec):
                return outcome.yes(ones)
            return outcome.undecided("diagonal-points-undecided-over-infinite-field")
        a, b = avec
        lam = field.is_square(a)
        if lam is None:
            return outcome.no("square-obstruction", a=str(a))
        if lam.sigma() == lam * b:
            return outcome.yes((lam,))
        return outcome.no("sigma-ratio-mismatch", root=str(lam),
                          ratio=str(lam.sigma() / lam))

    def _unit_search(self, found, exhausted: str, budget) -> Outcome:
        """The first unit vector in product order that `found` accepts; the
        (q-1)^n candidates are charged first."""
        charge((self.field.size - 1) ** self.n, budget)
        return outcome.first(itertools.product(self.field.units(), repeat=self.n), found, exhausted)

    def canonical_point(self, avec, R):
        """(y,) in the mu-algebra k[y]/(y^2 - a), sigma(y) = b*y, for
        mu-shaped functions."""
        if not self.mu_shaped:
            return None
        try:
            canon = make_mu_algebra(*avec)
        except AlgebraError:
            return None
        return (R.basis_element(1),) if R == canon else None


PSI_SPECS = ("trivial", "id", "transposeinv")


def _sigma_preimage_chain(x, d: int):
    """y with sigma^d(y) = x, or (None, failing step)."""
    y = x
    for step in range(d):
        y2 = x.field.sigma_preimage(y)
        if y2 is None:
            return None, step
        y = y2
    return y, None


class FrobeniusTwist(GroupPresentation):
    kind = "twist"
    torsor_kind = "twist"

    def __init__(self, field, base: str, n: int, d: int, psi: str):
        if base not in ("GL", "SL"):
            raise GroupError("base must be GL or SL")
        if n < 1:
            raise GroupError("n must be >= 1")
        if psi not in PSI_SPECS:
            raise GroupError(f"psi must be one of {PSI_SPECS}")
        if d < 1:
            raise GroupError("d must be >= 1")
        self.field = field
        self.base = base
        self.n = n
        self.d = d
        self.psi = psi

    def _key(self):
        return (self.field, self.base, self.n, self.d, self.psi)

    def psi_apply(self, x, R):
        if self.psi == "trivial":
            return mat_identity(R, self.n)
        if self.psi == "id":
            return x
        return mat_inverse(mat_transpose(x))

    def _psi_inverse(self, x, R):
        """psi(x)^{-1}: 1, x^{-1} or x^T; only psi = id inverts."""
        if self.psi == "trivial":
            return mat_identity(R, self.n)
        if self.psi == "id":
            return mat_inverse(x)
        return mat_transpose(x)

    def linear_relations(self, target=None):
        """sigma^d(x) - a entry by entry when psi = trivial, sigma^d(x) - x a
        when psi = id, with a = 1 for the group (target None); None when psi
        = transposeinv."""
        if self.psi == "transposeinv":
            return None
        d = self.d
        a = mat_identity(self.field, self.n) if target is None else target
        if self.psi == "id":
            return lambda ys: [y.sigma(d) - z for y, z in
                               zip(ys, itertools.chain(*mat_mul(self.shape(ys), a)))]
        consts = [c for row in a for c in row]
        return lambda ys: [y.sigma(d) - c for y, c in zip(ys, consts)]

    def translate(self, c, a):
        """psi(c)^{-1} a sigma^d(c): x -> x c carries sigma^d(x) = psi(x) a
        onto the torsor of that target; None when c lies outside GL_n(k), or
        SL_n(k) for base SL."""
        det = mat_det(c)
        if det.is_zero() or (self.base == "SL" and not det.is_one()):
            return None
        return mat_mul(mat_mul(self._psi_inverse(c, self.field), a), mat_sigma(c, self.d))

    def invariant(self, tc, value):
        """a = psi(h)^{-1} * sigma^d(h) in GL_n(k) for a trivializer h."""
        h = gl_trivialize(tc, _as_matrix(value), self.n)
        a = mat_mul(self._psi_inverse(h, tc.A), mat_sigma(h, self.d))
        return tuple(tuple(_scalar_parts(row, "twist invariant")) for row in a)

    def equivalent_targets(self, a1, a2, budget):
        """c in base(k) with a2 = psi(c)^{-1} a1 sigma^d(c), or a certificate.
        For psi = 1, and psi = id on GL_1, c is exactly a rational point of
        the torsor of a1^{-1} a2."""
        if self.psi == "trivial" or (self.psi == "id" and self.n == 1):
            return self.rational_point(mat_mul(mat_inverse(a1), a2), budget)
        field = self.field
        try:
            if field.finite:
                return self._matrix_search(lambda c: self.translate(c, a1) == a2, budget)
            refusal = outcome.undecided("twist-translation-undecided", psi=self.psi)
        except BudgetExceeded as e:
            refusal = outcome.undecided("budget-exhausted", space=e.space)
        # the search is out of reach, but c = 1 carries a1 onto itself
        return outcome.yes(mat_identity(field, self.n)) if a1 == a2 else refusal

    def classify(self, budget):
        field = self.field
        if self.psi == "trivial" and field.inversive:
            return ClassifyReport(kind="finite-list", count=1,
                                  representatives=[mat_identity(field, self.n)],
                                  note="sigma bijective: every torsor is trivial")
        if not field.finite:
            return ClassifyReport(kind="oracle", note="decide via isomorphic")
        mats = list(_enumerate_field_matrices(field, self.n, self.base == "SL", budget))
        try:
            charge(len(mats) ** 2, budget)
        except BudgetExceeded:
            return ClassifyReport(kind="oracle", note="orbit enumeration exceeds budget")
        reps = _orbit_partition(mats, lambda m: {self.translate(c, m) for c in mats})
        return ClassifyReport(kind="finite-list", count=len(reps), representatives=reps)

    def torsor_point(self, x, a, R=None):
        """sigma^d(m) = psi(m) a for the n x n matrix m of x (a = 1 for the
        group, target None), then det(m) = 1 for SL, then det(m) a unit:
        the cheapest refutation first.  psi = transposeinv is tested as m^T
        sigma^d(m) = a, so that no inverse is taken; on invertible m the two
        agree."""
        m = self._matrix(x)
        ring = self.field if R is None else R
        if R is not None and a is not None:
            a = tuple(tuple(R.from_scalar(e) for e in row) for row in a)
        s = mat_sigma(m, self.d)
        if self.psi == "transposeinv":
            s = mat_mul(mat_transpose(m), s)
        if self.psi == "id":
            rhs = m if a is None else mat_mul(m, a)
        else:
            rhs = mat_identity(ring, self.n) if a is None else a
        if not mat_eq(s, rhs):
            return False
        det = mat_det(m)
        return det == ring.one() if self.base == "SL" else det.is_unit()

    def _matrix_search(self, found, budget) -> Outcome:
        """The first matrix of base(k) that `found` accepts, k finite."""
        mats = _enumerate_field_matrices(self.field, self.n, self.base == "SL", budget)
        return outcome.first(mats, found, "exhausted-rational-points")

    def _checked_point(self, x, a) -> Outcome:
        if not self.torsor_point(x, a):
            raise outcome.InternalError("twist point failed verification")
        return outcome.yes(x)

    def rational_point(self, a, budget):
        """sigma^{-d}(a) entrywise for trivial psi (with the sigma-image
        obstruction when sigma is not onto); every matrix over a finite
        field, undecided when its q^(n^2) candidates exceed the budget; the
        multiplicative solver for psi = id on GL_1."""
        field = self.field
        if self.psi == "trivial":
            pre = [[_sigma_preimage_chain(e, self.d) for e in row] for row in a]
            for e, (y, step) in zip(itertools.chain(*a), itertools.chain(*pre)):
                if y is None:
                    return outcome.no("sigma-image-obstruction", entry=str(e), failing_step=step)
            x = tuple(tuple(y for y, _ in row) for row in pre)
            return self._checked_point(x, a)
        if field.finite:
            try:
                return self._matrix_search(lambda m: self.torsor_point(m, a), budget)
            except BudgetExceeded:
                return outcome.undecided("budget-exhausted")
        if self.psi == "id" and self.n == 1:
            res = solve_sigma_quotient(a[0][0], self.d, budget)
            if res:
                return self._checked_point(((res.witness,),), a)
            if res.status == outcome.NO:
                return outcome.no(res.certificate, **res.detail)
            return res
        return outcome.undecided("twist-points-undecided", psi=self.psi)


class ProductGroup(GroupPresentation):
    kind = "product"

    def __init__(self, factors):
        if not factors:
            raise GroupError("empty product")
        self.factors = tuple(factors)
        fields = {getattr(f, "field") for f in factors}
        if len(fields) != 1:
            raise GroupError("product factors over different fields")
        self.field = factors[0].field

    def _key(self):
        return self.factors

    @property
    def slots(self):
        return sum(f.slots for f in self.factors)

    def contains(self, x, R):
        if not isinstance(x, tuple) or len(x) != len(self.factors):
            raise GroupError("shape mismatch for product element")
        return all(f.contains(c, R) for f, c in zip(self.factors, x))

    def identity(self, R):
        return tuple(f.identity(R) for f in self.factors)

    def mul(self, x, y):
        return tuple(f.mul(a, b) for f, a, b in zip(self.factors, x, y))

    def inv(self, x):
        return tuple(f.inv(a) for f, a in zip(self.factors, x))

    def equal(self, x, y):
        return all(f.equal(a, b) for f, a, b in zip(self.factors, x, y))

    def map(self, func, x):
        return tuple(f.map(func, c) for f, c in zip(self.factors, x))

    def points(self, R, budget, keep, relations=None):
        _charge_space(self, R, budget)
        parts = [enumerate_points(f, R, budget) for f in self.factors]
        return [combo for combo in itertools.product(*parts) if keep is None or keep(combo)]

    def components(self, x):
        return tuple(zip(self.factors, x))

    def classify(self, budget):
        parts = [f.classify(budget) for f in self.factors]
        if any(p is None for p in parts):
            return None
        if all(p.kind == "finite-list" for p in parts):
            reps = [tuple(combo) for combo in
                    itertools.product(*[p.representatives for p in parts])]
            return ClassifyReport(kind="finite-list",
                                  count=math.prod(p.count for p in parts),
                                  representatives=reps)
        return ClassifyReport(kind="oracle", note="some factor lacks a finite listing")


@functools.lru_cache(maxsize=None)
def mu2sigma_group(field) -> ScalarTorus:
    """{g : g^2 = 1, sigma(g) = g} inside Gm, the torus of (y^2, s(y)/y);
    one presentation per field, shared by every caller (fields themselves
    are built once per descriptor)."""
    return ScalarTorus(DiagonalMult(field, 1, [MultiplicativeFunction(1, [(2,)]),
                                               MultiplicativeFunction(1, [(-1,), (1,)])]))


def ambient_gl(field, n: int) -> MatrixGroup:
    return MatrixGroup(field, n, [])


def ambient_ga(field) -> AdditiveKernel:
    return AdditiveKernel(None, field=field)


def kernel_of_sigma_power(field, base: str, n: int, d: int) -> FrobeniusTwist:
    """N = {g : sigma^d(g) = 1} as a twist presentation with trivial psi."""
    return FrobeniusTwist(field, base, n, d, "trivial")


# --------------------------------------------------------------------------
# membership, group law, enumeration


def contains(G: GroupPresentation, x, R: SigmaAlgebra) -> bool:
    return G.contains(x, R)


def group_identity(G: GroupPresentation, R: SigmaAlgebra):
    return G.identity(R)


def group_mul(G: GroupPresentation, x, y):
    return G.mul(x, y)


def group_inv(G: GroupPresentation, x):
    return G.inv(x)


def scalar_value(G, x):
    """Unwrap a 1x1 matrix element."""
    return _as_matrix(x)[0][0] if getattr(G, "n", None) == 1 else x


def enumerate_points(G: GroupPresentation, R: FinDimAlgebra, budget: int = DEFAULT_BUDGET,
                     keep=None, relations=None):
    """Complete list of G(R) for finite base fields: the coset_points of G,
    in their order, that contains() accepts; with a predicate `keep`, only
    the points of G(R) it accepts, so a caller that wants a small subset
    never holds all of G(R) at once.  `relations` (cocycle_relations) is
    solved together with G's own and may only drop points that `keep`
    rejects.  A product is charged its whole space too, then lists the
    product of its factors' lists; it ignores `relations`.
    """
    return G.points(R, budget, keep, relations)


def _charge_space(G: GroupPresentation, R: FinDimAlgebra, budget):
    field = R.field
    if not field.finite:
        raise GroupError("point enumeration needs a finite base field")
    charge(field.size ** (R.dim * G.slots), budget)


def coset_points(G: GroupPresentation, R: FinDimAlgebra, budget, target=None, relations=None):
    """The slot tuples of R^slots that may be points of the torsor of
    `target` (of G itself for None): q^(dim R * slots), all of R^slots, is
    charged when this is called, before any work and whatever the relations
    cut away (BudgetExceeded when it is larger); then the stream of the
    coset on which G.linear_relations(target) and `relations` vanish is
    returned.  Each relation is sigma-semilinear, hence F_p-affine (L(y) =
    a, sigma^a(y_i) = c sigma^b(y_j), sigma^d(x) = a or x a), and every
    point lies in the coset, so checking each tuple against the full
    equations finds the points, and the first point, of the walk over all
    of R^slots.  The stream is in that walk's order: lexicographic in (slot,
    basis index, digit of the GF(p^m) value from the highest), the order of
    itertools.product over the slots, R's basis and field.elements().

    A tuple of slot values is a vector of slots*dim*m digits mod p, sorted
    in that order, and the coset is a particular solution plus the kernel
    of the linear part (empty when the system is inconsistent).  With the
    kernel basis in reduced echelon form for that order and the particular
    solution zero at every leading column (see _kernel_basis), a point's
    digit in the leading column of basis vector i is its coefficient a_i.
    Two coset points first differ in a leading column, so the points come
    in order as the coefficients run through itertools.product; without
    relations the product runs over the field elements directly.
    """
    _charge_space(G, R, budget)
    own = G.linear_relations(target)
    if own is not None and relations is not None:
        extra = relations
        relations = lambda ys: own(ys) + extra(ys)
    return _kernel_points(R, G.slots, relations or own)


def _kernel_points(R: FinDimAlgebra, slots: int, relations):
    """Stream, uncharged, the slot tuples in R^slots on which the F_p-affine
    map `relations` vanishes (all of R^slots when it is None), in the order
    coset_points states."""
    field = R.field
    keys = R.index_list()
    dim = len(keys)
    if relations is None:
        values = [None] + list(field.elements())[1:]
        coords = itertools.product(values, repeat=slots * dim)
    else:
        coords = _kernel_coords(R, slots, relations)
    bounds = [(s * dim, (s + 1) * dim) for s in range(slots)]
    for coord in coords:
        yield tuple(_clean_element(R, {k: c for k, c in zip(keys, coord[lo:hi])
                                       if c is not None})
                    for lo, hi in bounds)


def _kernel_coords(R: FinDimAlgebra, slots: int, relations):
    """The coset points as tuples of slots*dim coordinates, in order: a
    FieldElement per nonzero coordinate, None per zero one."""
    field = R.field
    p, m = field.p, field.m
    size = slots * R.dim * m
    # digit positions from the most significant; a position is
    # (slot * dim + basis index) * m + digit, the digit counted from the lowest
    order = [c * m + k for c in range(slots * R.dim) for k in reversed(range(m))]
    particular, basis = _kernel_basis(R, slots, relations, order)
    if particular is None:
        return
    multiples = [[tuple(a * x % p for x in v) for a in range(p)] for v in basis]
    zero_value, wrap = (0,) * m, field.wrap
    starts = range(0, size, m)
    for combo in itertools.product(*multiples):
        vec = [sum(col) % p for col in zip(particular, *combo)]
        values = [tuple(vec[i:i + m]) for i in starts]
        yield [None if v == zero_value else wrap(v) for v in values]


def _kernel_basis(R: FinDimAlgebra, slots: int, relations, order):
    """(particular, basis): a zero of the F_p-affine map `relations` on the
    digit vectors of R^slots (None when it has none) and the reduced
    echelon basis of the kernel of its linear part, for the significance
    order `order`, most significant leading column first; each relation
    value is read over its own algebra's basis (A(x)A(x)A for the cocycle
    identity).

    linalg.kernel_basis_raw over GF(p) gives, for each free column c, the
    vector with 1 at c, 0 at the other free columns and entries only at
    pivot columns before c.  Eliminating with the least significant digit
    first makes c the leading column of its vector.  The constant b =
    relations(0) is subtracted from each column, leaving the linear part
    M, and b is one more, homogenizing column t, placed most significant:
    M y + b t = 0.  The kernel vector whose leading column is t has t = 1,
    so its digits solve M y + b = 0, a particular solution; like every
    basis vector it is zero at the other leading columns.  If no vector
    leads at t, then t = 0 on the whole kernel and M y = -b is
    inconsistent.  A zero constant makes t a zero column: its vector is t
    alone, the particular solution 0, and the other vectors are the basis
    of the linear map's kernel.
    """
    field = R.field
    p, m = field.p, field.m
    idx = R.index_list()
    gfp = make_field(f"GF({p}^1);frob^1")
    zero_point = [R.zero()] * slots

    def digits(values):
        out = []
        for z in values:
            for r in z.algebra.index_list():
                c = z.data.get(r)
                out.extend(c.value if c is not None else (0,) * m)
        return out

    constant = digits(relations(tuple(zero_point)))
    cols = []
    for pos in reversed(order):
        chunk, k = divmod(pos, m)
        s, b = divmod(chunk, len(idx))
        ys = list(zero_point)
        ys[s] = _clean_element(R, {idx[b]: field.wrap(tuple(int(i == k) for i in range(m)))})
        cols.append([(x - c) % p for x, c in zip(digits(relations(tuple(ys))), constant)])
    cols.append(constant)
    rows = [[(col[r],) for col in cols] for r in range(len(cols[0]))]
    kernel = linalg.kernel_basis_raw(rows, gfp, len(cols))
    if not (kernel and kernel[-1][-1][0]):
        return None, []
    basis = []
    for vec in reversed(kernel):
        v = [0] * len(order)
        for c, (x,) in enumerate(vec[:-1]):
            v[order[-1 - c]] = x
        basis.append(tuple(v))
    return basis[0], basis[1:]
