"""Monic linear difference operators and the decision procedures for L(b) = a.

An operator L = sigma^n + l_{n-1} sigma^(n-1) + ... + l_0 applies to any
element carrying a sigma action.  The solvers decide L(b) = a exactly
but in the last case:

  * over a finite field, L is an F_p-linear map on a finite-dimensional
    F_p-space and the equation is plain linear algebra;
  * over QQ (sigma = id), L is multiplication by the scalar 1 + sum l_i;
  * over QQ(t) with the shift, rational solutions are found by an
    Abramov-style procedure: a universal denominator from the dispersion
    of the trailing/leading coefficients, then a bounded-degree
    polynomial ansatz solved by exact linear algebra;
  * over QQ(t) with a dilation or t -> t^2, the same reduction and ansatz
    search numerators of degree <= SEARCH_DEGREE over up to three denominators;
    a miss is undecided.

The module also solves the first-order multiplicative analogue
sigma^d(x) = a * x over the same fields (Gosper-Petkovsek style over the
shift field); higher-order multiplicative equations are out of scope.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import linalg, outcome, polys
from .fields import (FieldElement, FiniteField, RationalField,
                     RationalFunctionField, make_field)
from .outcome import BudgetExceeded, InternalError, Outcome, charge
from .polys import ONE, ZERO, deg, pdiv_exact, pgcd, plcm, pmul, poly


class OperatorError(ValueError):
    pass


class DifferenceOperator:
    """L = sigma^n + l_{n-1} sigma^(n-1) + ... + l_0 with l_i in k."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = tuple(field.element(c) for c in coeffs)
        if len(self.coeffs) < 1:
            raise OperatorError("operator order must be at least 1")

    @property
    def order(self) -> int:
        return len(self.coeffs)

    @classmethod
    def parse(cls, field, text: str) -> "DifferenceOperator":
        from . import exprs

        class _Dom(exprs.Domain):
            def from_int(self, n):
                return {0: field.element(n)}

            def name(self, name):
                if name == "s":
                    return {1: field.one()}
                return {0: field.named_element(name)}

            def add(self, a, b):
                out = dict(a)
                for k, v in b.items():
                    out[k] = out[k] + v if k in out else v
                return out

            def sub(self, a, b):
                return self.add(a, {k: -v for k, v in b.items()})

            def neg(self, a):
                return {k: -v for k, v in a.items()}

            def mul(self, a, b):
                # composition: (u s^i)(v s^j) = u sigma^i(v) s^(i+j)
                out = {}
                for i, u in a.items():
                    for j, v in b.items():
                        k = i + j
                        w = u * v.sigma(i)
                        out[k] = out[k] + w if k in out else w
                return out

            def div(self, a, b):
                if set(b) - {0}:
                    raise exprs.ExprError("cannot divide by sigma")
                c = b.get(0)
                if c is None or c.is_zero():
                    raise exprs.ExprError("division by zero")
                return {k: v / c for k, v in a.items()}

            def pow(self, a, n):
                if n < 0:
                    raise exprs.ExprError("negative operator power")
                r = {0: field.one()}
                for _ in range(n):
                    r = self.mul(r, a)
                return r

        try:
            d = exprs.parse(text, _Dom())
        except exprs.ExprError as e:
            raise OperatorError(str(e)) from e
        d = {k: v for k, v in d.items() if not v.is_zero()}
        n = max(d, default=0)
        if n < 1:
            raise OperatorError("operator must involve s")
        if d.get(n) != field.one():
            raise OperatorError("operator must be monic in s")
        return cls(field, [d.get(i, field.zero()) for i in range(n)])

    def apply(self, x):
        """L(x) for a field element or an algebra element over k."""
        total = x.sigma(self.order)
        for i, c in enumerate(self.coeffs):
            if not c.is_zero():
                total = total + x.sigma(i) * c
        return total

    def scalar_value(self) -> FieldElement:
        """1 + sum of coefficients: the action on sigma-constants."""
        total = self.field.one()
        for c in self.coeffs:
            total = total + c
        return total

    def __str__(self):
        n = self.order
        parts = ["s" if n == 1 else f"s^{n}"]
        for i in range(n - 1, -1, -1):
            c = self.coeffs[i]
            if c.is_zero():
                continue
            sv = "s" if i == 1 else (f"s^{i}" if i else "")
            cs = str(c)
            if any(ch in cs[1:] for ch in "+-") or "/" in cs:
                cs = f"({cs})"
            parts.append(f"{cs}*{sv}" if sv and cs != "1" else (sv or cs))
        return " + ".join(parts)

    def __eq__(self, other):
        if not isinstance(other, DifferenceOperator):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __repr__(self):
        return f"DifferenceOperator({self})"


def op_apply(L: DifferenceOperator, x):
    return L.apply(x)


# --------------------------------------------------------------------------
# finite-field linear algebra


def _gfp(p: int):
    return make_field(f"GF({p}^1);frob^1")


def _ff_matrix(L: DifferenceOperator):
    """The matrix of L as an F_p-linear map in the polynomial basis."""
    k: FiniteField = L.field
    gfp = _gfp(k.p)
    cols = []
    for i in range(k.m):
        e = k.wrap(tuple(1 if r == i else 0 for r in range(k.m)))
        cols.append(L.apply(e))
    return [[gfp.element(col.value[r]) for col in cols] for r in range(k.m)], gfp


def _solve_finite(L: DifferenceOperator, a: FieldElement) -> Outcome:
    k: FiniteField = L.field
    mat, gfp = _ff_matrix(L)
    rhs = [gfp.element(c) for c in a.value]
    sol = linalg.solve(mat, rhs, gfp)
    if sol is None:
        return outcome.no("not-in-image", operator=str(L))
    b = k.wrap(tuple(c.value[0] for c in sol))
    if L.apply(b) != a:
        raise InternalError("finite-field solution failed verification")
    return outcome.yes(b)


# --------------------------------------------------------------------------
# Abramov over QQ(t) with the shift


def _clear_denominators(L: DifferenceOperator, a: FieldElement):
    """Common-denominator form: polynomial p_0..p_n and right side q."""
    lcd = functools.reduce(plcm, [a.value[1]] + [c.value[1] for c in L.coeffs], ONE)
    ps = [pmul(num, pdiv_exact(lcd, den)) for num, den in (c.value for c in L.coeffs)]
    # the leading coefficient of sigma^n is 1, cleared to lcd
    return ps + [lcd], pmul(a.value[0], pdiv_exact(lcd, a.value[1]))


def _dispersion_window(A, B) -> int:
    # any h with gcd(A(t), B(t+h)) nontrivial is a difference of complex
    # roots, so |h| is bounded by the sum of the Cauchy root bounds
    return int(polys.cauchy_root_bound(A) + polys.cauchy_root_bound(B)) + 1


def _shift_candidates(A, B, start: int, step: int, count: int):
    """The h = start, start + step, ... (count of them) that may have
    deg gcd(A(t), B(t+h)) > 0, lazily and in that order.

    A and B are cleared to primitive integer polynomials once, B(t+h) is
    stepped to B(t+h+step) by an integer Taylor shift, and each h is tested
    by the degree of the gcd of the reductions modulo polys.PRIME.  A shift
    keeps the leading coefficient, so one test per scan finds whether the
    prime divides neither leading coefficient; then the primitive gcd g
    over QQ divides both polynomials in Z[t] (Gauss's lemma), the prime
    does not divide lc(g), and g mod p is a common divisor of the same
    degree: deg gcd mod p >= deg gcd over QQ, so no true h is dropped.
    When the prime divides a leading coefficient every h is a candidate.
    The caller confirms each candidate by its gcd over QQ.
    """
    ia = polys._primitive(polys._cleared(A)[0])
    ib = polys._primitive(polys._cleared(B)[0])
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


def _dispersion_candidates(A, B, budget: float):
    """The mod-p candidates of dispersion_set's window, a superset of the
    dispersion set; the window is charged to the budget first."""
    if deg(A) <= 0 or deg(B) <= 0:
        return []
    top = _dispersion_window(A, B)
    charge(top + 1, budget)
    return _shift_candidates(A, B, 0, 1, top + 1)


def dispersion_set(A, B, budget: float = math.inf) -> list:
    """All h >= 0 with deg gcd(A(t), B(t+h)) > 0; the shifts of the window
    are charged to the budget first (BudgetExceeded).

    The candidates are the nonnegative integer roots of the resultant
    Res_t(A(t), B(t+h)) in h; they live inside the root-bound window.  Only
    the h of the window that pass the mod-p test of _shift_candidates get
    the gcd over QQ that decides them.
    """
    return [h for h in _dispersion_candidates(A, B, budget)
            if deg(pgcd(A, polys.shift(B, h))) > 0]


def dispersion_set_resultant(A, B) -> list:
    """Cross-check oracle: interpolate Res_t(A(t), B(t+h)) as a polynomial
    in h and read off its integer roots in the window."""
    if deg(A) <= 0 or deg(B) <= 0:
        return []
    n = deg(A) * deg(B)
    xs = list(range(n + 1))
    ys = [polys.resultant(A, polys.shift(B, h)) for h in xs]
    res_poly = polys.lagrange_interpolate(xs, ys)
    if not res_poly:
        raise OperatorError("resultant interpolation degenerated")
    top = _dispersion_window(A, B)
    return [h for h in range(top + 1) if polys.peval(res_poly, Fraction(h)) == 0]


def universal_denominator(ps, budget: float = math.inf) -> tuple:
    """Abramov's universal denominator for sum p_i(t) y(t+i) = q(t).

    The loop runs over the mod-p candidates of the dispersion window, a
    superset of the dispersion set (_shift_candidates), largest first, and
    its own gcd of the reduced A and B confirms each one: A and B only lose
    factors, so at an h outside the dispersion set that gcd divides
    gcd(A(t), B(t+h)) = 1 and the h is skipped.  So u is the one the
    dispersion set gives, at one gcd over QQ per candidate.
    """
    n = len(ps) - 1
    A = polys.shift(ps[n], -n)
    B = ps[0]
    u = ONE
    for h in sorted(_dispersion_candidates(A, B, budget), reverse=True):
        g = pgcd(A, polys.shift(B, h))
        if deg(g) <= 0:
            continue
        A = pdiv_exact(A, g)
        B = pdiv_exact(B, polys.shift(g, -h))
        for i in range(h + 1):
            u = pmul(u, polys.shift(g, -i))
    return u


def _binom_poly(v: int) -> tuple:
    """C(d, v) as a polynomial in d."""
    out = ONE
    for i in range(v):
        out = pmul(out, poly([Fraction(-i), Fraction(1)]))
    return tuple(c / Fraction(math.factorial(v)) for c in out)


def degree_bound(ps, qdeg: int):
    """Largest possible degree of a polynomial solution, or -1 if none.

    Walks down the leading coefficients of t -> sum p_i(t) z(t+i): at the
    first level j where the indicial polynomial xi_j(d) is nonzero, the
    candidates are deg(q) - b + j and the nonnegative integer roots of xi_j.
    """
    b = max(deg(p) for p in ps)
    n = len(ps) - 1
    for j in range(b + n + 2):
        xi = ZERO
        for i, p in enumerate(ps):
            for v in range(j + 1):
                idx = b - (j - v)
                if 0 <= idx < len(p) and p[idx] != 0:
                    xi = polys.padd(xi, polys.pscale(_binom_poly(v),
                                                     p[idx] * Fraction(i) ** v))
        if xi:
            cands = [d for d in polys.integer_roots(xi) if d >= 0] if deg(xi) > 0 else []
            if qdeg - b + j >= 0:
                cands.append(qdeg - b + j)
            return max(cands, default=-1)
    raise OperatorError("degree bound cascade failed to terminate")


def _sigma_orbit(k, p, n: int) -> list:
    """[p, sigma(p), ..., sigma^(n-1)(p)] for a polynomial p over k = QQ(t)."""
    out = [p]
    for _ in range(n - 1):
        out.append(k._sigma_poly(out[-1]))
    return out


def _ansatz_system(k, ps, q, bound: int):
    """(rows, scales): sum p_i sigma^i(z) = q for z = sum_{d <= bound} x_d t^d
    as a system over the integers, one row per power of t.

    Row r is (c_0[r], ..., c_bound[r], Q[r]) with Q = D q and
    c_d = sum_i P_i s_i^d in Z[t], where P_i = D p_i for the least positive
    integer D clearing every p_i and q, and s_i = m sigma^i(t) for the least
    positive m clearing every sigma^i(t).  So c_d is m^d D times the column
    of x_d over QQ, and x solves the system over QQ exactly when
    x_d = scales[d] x'_d = m^d x'_d for a solution x' of the integer one.

    m is 1 except for a dilation by a non-integer.  With m = 1 each row is
    D times the row over QQ, a positive row scaling, so
    linalg.row_echelon_int reaches the primitive rows, pivots and
    particular solution of the elimination over QQ.  With m > 1 the
    columns are scaled by m^d > 0 as well, which keeps the pivot columns
    and, through x_d = m^d x'_d, the particular solution: its free
    unknowns are zero on both sides and fix the pivot unknowns.
    """
    sigma_t = _sigma_orbit(k, polys.T, len(ps))
    m = math.lcm(*[c.denominator for s in sigma_t for c in s])
    D = math.lcm(*[c.denominator for p in (*ps, q) for c in p])
    ints = [[c.numerator * (D // c.denominator) for c in p] for p in ps]
    roots = [[c.numerator * (m // c.denominator) for c in s] for s in sigma_t]
    # deg c_d <= max deg p_i + d deg sigma^n(t); a q of higher degree is cut
    nrows = max(deg(p) for p in ps) + bound * deg(sigma_t[-1]) + 1
    powers, cols = [[1]] * len(ps), []
    for d in range(bound + 1):
        if d:
            powers = list(map(polys._mul_ints, roots, powers))
        col = [0] * nrows
        for P, pw in zip(ints, powers):
            if P:
                for r, c in enumerate(polys._mul_ints(P, pw)):
                    col[r] += c
        cols.append(col)
    Q = [c.numerator * (D // c.denominator) for c in q[:nrows]]
    cols.append(Q + [0] * (nrows - len(Q)))
    return [list(row) for row in zip(*cols)], [m ** d for d in range(bound + 1)]


def polynomial_solutions(k, ps, q, bound: int):
    """A particular solution z of sum p_i sigma^i(z) = q with degree <= bound,
    or None."""
    if bound < 0:
        return None if q else ZERO
    rows, scales = _ansatz_system(k, ps, q, bound)
    if deg(q) >= len(rows):
        return None
    rows, pivots = linalg.row_echelon_int(rows)
    if pivots and pivots[-1][1] > bound:
        return None
    x = [0] * (bound + 1)
    for r, c in pivots:
        x[c] = Fraction(rows[r][-1] * scales[c], rows[r][c])
    return poly(x)


def _denominator_reduction(k, ps, q, u):
    """(Ps, Q): b = z/u solves sum p_i sigma^i(b) = q exactly when the
    polynomial z solves sum P_i sigma^i(z) = Q, where
    P_i = p_i lcm_j sigma^j(u) / sigma^i(u) and Q = q lcm_j sigma^j(u)."""
    sigma_u = _sigma_orbit(k, u, len(ps))
    big = functools.reduce(plcm, sigma_u)
    return [pmul(p, pdiv_exact(big, s)) for p, s in zip(ps, sigma_u)], pmul(q, big)


def _abramov_reduction(L: DifferenceOperator, a: FieldElement, budget: float = math.inf):
    """(u, Ps, Q, bound): b = z/u solves L(b) = a over QQ(t);shift exactly
    when the polynomial z solves sum P_i(t) z(t+i) = Q(t), and such z have
    degree <= bound."""
    ps, q = _clear_denominators(L, a)
    u = universal_denominator(ps, budget)
    Ps, Q = _denominator_reduction(L.field, ps, q, u)
    # with Q = 0 no degree is forced by the right side
    return u, Ps, Q, degree_bound(Ps, deg(Q) if Q else -10 ** 9)


def _solve_shift(L: DifferenceOperator, a: FieldElement, budget: float) -> Outcome:
    k: RationalFunctionField = L.field
    u, Ps, Q, bound = _abramov_reduction(L, a, budget)
    # the ansatz matrix has (max deg P_i + bound + 1) x (bound + 1) cells
    charge((max(deg(p) for p in Ps) + bound + 1) * (bound + 1), budget)
    z = polynomial_solutions(k, Ps, Q, bound)
    detail = {"universal_denominator": polys.poly_str(u), "degree_bound": bound}
    if z is None:
        return outcome.no("no-rational-solution", **detail)
    b = k.ratfun(z, u)
    if L.apply(b) != a:
        raise InternalError("Abramov solution failed verification")
    return outcome.yes(b, **detail)


# numerator degree of the budgeted search over QQ(t) without a decision procedure
SEARCH_DEGREE = 4


def _bounded_search(L: DifferenceOperator, a: FieldElement) -> Outcome:
    """Budgeted ansatz for field instances without a full decision procedure.

    Tries numerators of degree <= SEARCH_DEGREE over a short list of
    candidate denominators, each through the denominator reduction and the
    ansatz of the Abramov procedure.
    """
    k = L.field
    ps, q = _clear_denominators(L, a)
    den = a.value[1]
    for u in dict.fromkeys([ONE, den, pmul(den, k._sigma_poly(den))]):
        z = polynomial_solutions(k, *_denominator_reduction(k, ps, q, u), SEARCH_DEGREE)
        if z is not None and L.apply(b := k.ratfun(z, u)) == a:
            return outcome.yes(b)
    return outcome.undecided("budgeted-search-exhausted", max_degree=SEARCH_DEGREE)


def solve_additive_full(L: DifferenceOperator, a: FieldElement,
                        budget: float = math.inf) -> Outcome:
    """Decide L(b) = a with a witness or a nonexistence certificate.

    Over QQ(t);shift the dispersion window and the cells of the Abramov
    ansatz are charged to the budget first, and the solver answers
    undecided "budget-exhausted" when either exceeds it; without a budget
    every instance is decided.
    """
    a = L.field.element(a)
    if a.is_zero():
        return outcome.yes(L.field.zero())
    k = L.field
    if isinstance(k, FiniteField):
        return _solve_finite(L, a)
    if isinstance(k, RationalField):
        c = L.scalar_value()
        if c.is_zero():
            return outcome.no("operator-vanishes-on-constants")
        return outcome.yes(a / c)
    if isinstance(k, RationalFunctionField):
        if k.mode == "shift":
            try:
                return _solve_shift(L, a, budget)
            except BudgetExceeded as e:
                return outcome.undecided("budget-exhausted", space=e.space)
        return _bounded_search(L, a)
    raise OperatorError(f"unsupported field {k.descriptor}")


def solve_additive(L: DifferenceOperator, a: FieldElement):
    """b with L(b) = a, or None when none exists; raises when undecidable."""
    res = solve_additive_full(L, a)
    if res.status == outcome.UNDECIDED:
        raise OperatorError(f"undecided: {res.certificate}")
    return res.witness if res else None


def additive_kernel_basis(L: DifferenceOperator):
    """Basis of {b in k : L(b) = 0} over the sigma-constants (decidable fields)."""
    k = L.field
    if isinstance(k, FiniteField):
        mat, gfp = _ff_matrix(L)
        ker = linalg.kernel_basis(mat, gfp, ncols=k.m)
        return [k.wrap(tuple(c.value[0] for c in vec)) for vec in ker]
    if isinstance(k, RationalField):
        return [] if not L.scalar_value().is_zero() else [k.one()]
    if isinstance(k, RationalFunctionField) and k.mode == "shift":
        u, Ps, _, bound = _abramov_reduction(L, k.zero())
        if bound < 0:
            return []
        # the shift needs no column scales, and the zero right side no pivot
        rows, pivots = linalg.row_echelon_int(_ansatz_system(k, Ps, ZERO, bound)[0])
        out = []
        for free in sorted(set(range(bound + 1)) - {c for _, c in pivots}):
            # linalg.kernel_basis's vector: one at this free column, zero at the others
            x = [0] * (bound + 1)
            x[free] = 1
            for r, c in pivots:
                x[c] = Fraction(-rows[r][free], rows[r][c])
            elt = k.ratfun(poly(x), u)
            if not L.apply(elt).is_zero():
                raise InternalError("Abramov kernel element failed verification")
            out.append(elt)
        return out
    raise OperatorError(f"kernel computation unsupported over {k.descriptor}")


# --------------------------------------------------------------------------
# H^1 = k / L(k)


@dataclass
class AdditiveH1:
    kind: str                      # "finite" | "scalar" | "oracle"
    operator: DifferenceOperator
    size: int | None = None
    representatives: list | None = None

    def equivalent(self, a, a2) -> Outcome:
        """a ~ a2 iff a2 - a lies in L(k)."""
        return solve_additive_full(self.operator, a2 - a)


def classify_additive_h1(L: DifferenceOperator) -> AdditiveH1:
    k = L.field
    if isinstance(k, FiniteField):
        mat, gfp = _ff_matrix(L)
        # rows of the transpose are the images L(e_c); their echelon pivots
        # mark the coordinates covered by the image
        transpose = [[mat[r][c] for r in range(k.m)] for c in range(k.m)]
        _, piv = linalg.row_echelon(transpose, gfp)
        rank = len(piv)
        pivot_rows = sorted({c for _, c in piv})
        free_rows = [r for r in range(k.m) if r not in pivot_rows]
        reps = []
        for coords in itertools.product(range(k.p), repeat=len(free_rows)):
            vec = [0] * k.m
            for r, c in zip(free_rows, coords):
                vec[r] = c
            reps.append(k.wrap(tuple(vec)))
        if len(reps) != k.p ** (k.m - rank):
            raise InternalError("cokernel representatives miss the rank count")
        return AdditiveH1("finite", L, size=len(reps),
                          representatives=sorted(reps, key=lambda x: x.value))
    if isinstance(k, RationalField):
        c = L.scalar_value()
        if not c.is_zero():
            return AdditiveH1("scalar", L, size=1, representatives=[k.zero()])
        return AdditiveH1("scalar", L, size=None, representatives=None)
    if isinstance(k, RationalFunctionField) and k.mode == "shift":
        return AdditiveH1("oracle", L)
    raise OperatorError(f"classification unsupported over {k.descriptor}")


# --------------------------------------------------------------------------
# first-order multiplicative equations sigma^d(x) = a * x


def solve_sigma_quotient(a: FieldElement, d: int = 1, budget: float = math.inf) -> Outcome:
    """x in k^x with sigma^d(x) / x = a, or a certificate that none exists.

    With a budget, the q - 1 units of GF(q), or the gcds of each shift
    window over QQ(t);shift, are charged first: undecided "budget-exhausted"
    when their total exceeds it; without one every instance is decided.
    """
    k = a.field
    if a.is_zero():
        return outcome.no("target-not-a-unit")
    if isinstance(k, RationalField):
        if a.is_one():
            return outcome.yes(k.one())
        return outcome.no("sigma-is-identity")
    try:
        if isinstance(k, FiniteField):
            charge(k.size - 1, budget)
            return outcome.first(k.units(), lambda x: x.sigma(d) == a * x,
                                 "exhausted-finite-field")
        if isinstance(k, RationalFunctionField) and k.mode == "shift":
            return _solve_sigma_quotient_shift(a, d, budget)
    except BudgetExceeded as e:
        return outcome.undecided("budget-exhausted", space=e.space)
    return outcome.undecided("multiplicative-solver-unsupported", field=k.descriptor)


def _first_shift(p, q, d: int, top: int):
    """The first j != 0 in -top..top with deg gcd(p, q(t + j*d)) > 0, and
    that gcd; (None, None) when there is none.  The window is scanned by
    the mod-p test of _shift_candidates, which drops no such j, and stops
    at the first j whose gcd over QQ confirms it.
    """
    for h in _shift_candidates(p, q, -top * d, d, 2 * top + 1):
        if h:
            g = pgcd(p, polys.shift(q, h))
            if deg(g) > 0:
                return h // d, g
    return None, None


def _solve_sigma_quotient_shift(a: FieldElement, d: int, budget: float) -> Outcome:
    k = a.field
    num, den = a.value
    if num[-1] != 1:
        return outcome.no("leading-coefficient-obstruction",
                          leading=str(num[-1]))
    p, q = num, den
    f = k.one()
    spent = 0
    while deg(p) > 0 and deg(q) > 0:
        # one gcd per j of the root-bound window, charged before the search
        top = int((polys.cauchy_root_bound(p) + polys.cauchy_root_bound(q)) / d) + 1
        spent += 2 * top
        charge(spent, budget)
        j, g = _first_shift(p, q, d, top)
        if j is None:
            break
        p = pdiv_exact(p, g)
        q = pdiv_exact(q, polys.shift(g, -j * d))
        if j >= 1:
            w = ONE
            for i in range(1, j + 1):
                w = pmul(w, polys.shift(g, -i * d))
            f = f * k.ratfun(w)
        else:
            w = ONE
            for i in range(0, -j):
                w = pmul(w, polys.shift(g, i * d))
            f = f / k.ratfun(w)
    if p == ONE and q == ONE:
        if f.sigma(d) != a * f:
            raise InternalError("sigma-quotient solution failed verification")
        return outcome.yes(f)
    return outcome.no("multiplicative-obstruction",
                      reduced_numerator=polys.poly_str(p),
                      reduced_denominator=polys.poly_str(q))
