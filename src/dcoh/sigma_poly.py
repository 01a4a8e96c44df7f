"""Polynomials in sigma-variables y_i, sigma(y_i), sigma^2(y_i), ...

A term is a coefficient from the base field times a monomial in the
indexed variables (i, j), where (i, j) stands for sigma^j applied to
y_i.  Monomials are stored as sorted tuples of ((i, j), exponent), so a
polynomial has a unique canonical form and equality is dict equality.

Multiplicative functions on the torus -- finite products
prod_j sigma^j(y^(alpha_j)) with integer exponent vectors alpha_j --
get their own representation since they involve negative exponents.

Text syntax: ``s^j(y_i)`` denotes sigma^j(y_i), e.g. ``s(y1)^2 - 3*y1 + t``.
"""

from __future__ import annotations

from . import exprs
from .fields import FieldElement, FieldError


class SigmaPolyError(ValueError):
    pass


def _check_entries(point):
    if not point:
        raise SigmaPolyError("empty evaluation point")
    first = point[0]
    for x in point[1:]:
        if isinstance(first, FieldElement) != isinstance(x, FieldElement):
            raise SigmaPolyError("mixed evaluation point")
        if isinstance(x, FieldElement):
            if x.field != first.field:
                raise SigmaPolyError("evaluation point mixes fields")
        elif x.algebra != first.algebra:
            raise SigmaPolyError("evaluation point mixes algebras")
    return first


def _scalar_into(context_elt, c: FieldElement):
    if isinstance(context_elt, FieldElement):
        return c
    return context_elt.algebra.from_scalar(c)


class SigmaPolynomial:
    __slots__ = ("field", "nvars", "terms")

    def __init__(self, field, nvars: int, terms: dict):
        self.field = field
        self.nvars = nvars
        clean = {}
        for mono, coeff in terms.items():
            if coeff.is_zero():
                continue
            for (i, j), e in mono:
                if not (0 <= i < nvars) or j < 0 or e <= 0:
                    raise SigmaPolyError(f"bad monomial entry ((y{i+1},s^{j}),{e})")
            clean[tuple(sorted(mono))] = coeff
        self.terms = clean

    @classmethod
    def constant(cls, field, nvars, c) -> "SigmaPolynomial":
        return cls(field, nvars, {(): field.element(c)})

    @classmethod
    def variable(cls, field, nvars, var: int, order: int = 0) -> "SigmaPolynomial":
        return cls(field, nvars, {(((var, order), 1),): field.one()})

    def _compat(self, other):
        if not isinstance(other, SigmaPolynomial):
            other = SigmaPolynomial.constant(self.field, self.nvars, other)
        if other.field != self.field or other.nvars != self.nvars:
            raise SigmaPolyError("arity or field mismatch")
        return other

    def __add__(self, other):
        other = self._compat(other)
        terms = dict(self.terms)
        for mono, c in other.terms.items():
            terms[mono] = terms[mono] + c if mono in terms else c
        return SigmaPolynomial(self.field, self.nvars, terms)

    __radd__ = __add__

    def __neg__(self):
        return SigmaPolynomial(self.field, self.nvars,
                               {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._compat(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._compat(other)
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                exps = dict(m1)
                for var, e in m2:
                    exps[var] = exps.get(var, 0) + e
                mono = tuple(sorted(exps.items()))
                c = c1 * c2
                terms[mono] = terms[mono] + c if mono in terms else c
        return SigmaPolynomial(self.field, self.nvars, terms)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise SigmaPolyError("negative power of a sigma-polynomial")
        r = SigmaPolynomial.constant(self.field, self.nvars, 1)
        b = self
        while n:
            if n & 1:
                r = r * b
            b = b * b
            n >>= 1
        return r

    def __eq__(self, other):
        if not isinstance(other, SigmaPolynomial):
            return NotImplemented
        return (self.field, self.nvars, self.terms) == (other.field, other.nvars, other.terms)

    def __hash__(self):
        return hash((self.field, self.nvars, frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def order(self) -> int:
        """Highest sigma-order occurring (0 for constants)."""
        return max((j for mono in self.terms for (_, j), _ in mono), default=0)

    def shift(self, power: int = 1) -> "SigmaPolynomial":
        """Extend sigma from the coefficients: (i,j) -> (i,j+power), c -> sigma(c)."""
        if power < 0:
            raise SigmaPolyError("negative shift")
        terms = {}
        for mono, c in self.terms.items():
            new_mono = tuple(((i, j + power), e) for (i, j), e in mono)
            terms[new_mono] = c.sigma(power)
        return SigmaPolynomial(self.field, self.nvars, terms)

    def eval(self, point):
        """Substitute sigma^j(y_i) -> sigma_R^j(point[i]); exact result in R."""
        first = _check_entries(point)
        if len(point) != self.nvars:
            raise SigmaPolyError(f"arity mismatch: expected {self.nvars} entries")
        if isinstance(first, FieldElement):
            if first.field != self.field:
                raise SigmaPolyError("field mismatch in evaluation")
        elif first.algebra.field != self.field:
            raise SigmaPolyError("field mismatch in evaluation")
        total = None
        for mono, c in self.terms.items():
            val = _scalar_into(first, c)
            for (i, j), e in mono:
                val = val * point[i].sigma(j) ** e
            total = val if total is None else total + val
        if total is None:
            return _scalar_into(first, self.field.zero())
        return total

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for mono, c in sorted(self.terms.items()):
            factors = []
            for (i, j), e in mono:
                v = f"y{i + 1}"
                if j:
                    v = f"s({v})" if j == 1 else f"s^{j}({v})"
                factors.append(v if e == 1 else f"{v}^{e}")
            cs = str(c)
            if factors and cs == "1":
                parts.append("*".join(factors))
            elif factors:
                if any(ch in cs for ch in "+-") and not cs.startswith("-"):
                    cs = f"({cs})"
                elif cs.startswith("-") and any(ch in cs[1:] for ch in "+-"):
                    cs = f"({cs})"
                parts.append("*".join([cs] + factors))
            else:
                parts.append(cs)
        return " + ".join(parts)

    def __repr__(self):
        return f"SigmaPolynomial({self})"


class _PolyDomain(exprs.Domain):
    def __init__(self, field, nvars):
        self.field = field
        self.nvars = nvars

    def from_int(self, n):
        return SigmaPolynomial.constant(self.field, self.nvars, n)

    def is_function(self, name):
        return name == "s"

    def call(self, name, power, arg):
        return arg.shift(power)

    def name(self, name):
        if name.startswith("y"):
            if name == "y" and self.nvars == 1:
                return SigmaPolynomial.variable(self.field, self.nvars, 0)
            try:
                idx = int(name[1:])
            except ValueError:
                idx = None
            if idx is not None and 1 <= idx <= self.nvars:
                return SigmaPolynomial.variable(self.field, self.nvars, idx - 1)
        try:
            c = self.field.named_element(name)
        except FieldError:
            raise exprs.ExprError(f"unknown name {name!r}")
        return SigmaPolynomial.constant(self.field, self.nvars, c)

    def div(self, a, b):
        if isinstance(b, SigmaPolynomial):
            if set(b.terms) - {()}:
                raise exprs.ExprError("can only divide by a constant")
            b = b.terms.get((), self.field.zero())
        return a * SigmaPolynomial.constant(self.field, self.nvars, self.field.element(b).inv())


def parse_sigma_polynomial(text: str, field, nvars: int) -> SigmaPolynomial:
    try:
        value = exprs.parse(text, _PolyDomain(field, nvars))
    except exprs.ExprError as e:
        raise SigmaPolyError(str(e)) from e
    if isinstance(value, SigmaPolynomial):
        return value
    return SigmaPolynomial.constant(field, nvars, value)


class MultiplicativeFunction:
    """f = y^(a_0) * sigma(y^(a_1)) * ... * sigma^l(y^(a_l)) on Gm^n."""

    __slots__ = ("nvars", "exps")

    def __init__(self, nvars: int, exps):
        exps = [tuple(v) for v in exps]
        while exps and all(e == 0 for e in exps[-1]):
            exps.pop()
        if not exps:
            exps = [(0,) * nvars]
        if any(len(v) != nvars for v in exps):
            raise SigmaPolyError("exponent vector arity mismatch")
        self.nvars = nvars
        self.exps = tuple(exps)

    @property
    def order(self) -> int:
        return len(self.exps) - 1

    def factors(self, sign: int) -> list:
        """(i, j, k) with k > 0 for each exponent sign * k of y_i in layer j:
        sign 1 lists the numerator sigma^j(y_i)^k of f, sign -1 its
        denominator."""
        return [(i, j, e * sign) for j, alpha in enumerate(self.exps)
                for i, e in enumerate(alpha) if e * sign > 0]

    def eval(self, point):
        """prod_j sigma^j(point^(alpha_j)) as num / den from split_eval; the
        denominator must be a unit, and without one nothing is inverted."""
        num, den = self.split_eval(point)
        return num * den.inverse() if self.factors(-1) else num

    def split_eval(self, point):
        """(num, den) with f(point) = num / den on units: the numerator and
        the denominator of f at point.  Only nonnegative powers occur, so no
        entry is inverted and a non-unit point is evaluated too."""
        first = _check_entries(point)
        if len(point) != self.nvars:
            raise SigmaPolyError(f"arity mismatch: expected {self.nvars} entries")
        one = first.field.one() if isinstance(first, FieldElement) else first.algebra.one()
        out = []
        for sign in (1, -1):
            p = None
            for i, j, k in self.factors(sign):
                t = (point[i].sigma(j) if j else point[i]) ** k
                p = t if p is None else p * t
            out.append(one if p is None else p)
        return tuple(out)

    def __eq__(self, other):
        if not isinstance(other, MultiplicativeFunction):
            return NotImplemented
        return (self.nvars, self.exps) == (other.nvars, other.exps)

    def __hash__(self):
        return hash((self.nvars, self.exps))

    def __str__(self):
        parts = []
        for j, alpha in enumerate(self.exps):
            for i, e in enumerate(alpha):
                if e == 0:
                    continue
                v = f"y{i + 1}" if self.nvars > 1 else "y"
                if j:
                    v = f"s({v})" if j == 1 else f"s^{j}({v})"
                parts.append(v if e == 1 else f"{v}^{e}")
        return "*".join(parts) if parts else "1"

    def __repr__(self):
        return f"MultiplicativeFunction({self})"


class _MultDomain(exprs.Domain):
    """Values are dicts (var, order) -> exponent."""

    def __init__(self, nvars):
        self.nvars = nvars

    def from_int(self, n):
        if n != 1:
            raise exprs.ExprError("only the constant 1 is multiplicative")
        return {}

    def is_function(self, name):
        return name == "s"

    def call(self, name, power, arg):
        return {(i, j + power): e for (i, j), e in arg.items()}

    def name(self, name):
        if name == "y" and self.nvars == 1:
            return {(0, 0): 1}
        if name.startswith("y"):
            try:
                idx = int(name[1:])
            except ValueError:
                raise exprs.ExprError(f"unknown variable {name!r}")
            if 1 <= idx <= self.nvars:
                return {(idx - 1, 0): 1}
        raise exprs.ExprError(f"unknown variable {name!r}")

    def mul(self, a, b):
        out = dict(a)
        for k, e in b.items():
            out[k] = out.get(k, 0) + e
        return {k: e for k, e in out.items() if e}

    def div(self, a, b):
        return self.mul(a, {k: -e for k, e in b.items()})

    def pow(self, a, n):
        return {k: e * n for k, e in a.items() if e * n}

    def add(self, a, b):
        raise exprs.ExprError("multiplicative functions admit no addition")

    sub = add

    def neg(self, a):
        raise exprs.ExprError("multiplicative functions admit no negation")


def parse_multiplicative(text: str, nvars: int) -> MultiplicativeFunction:
    try:
        d = exprs.parse(text, _MultDomain(nvars))
    except exprs.ExprError as e:
        raise SigmaPolyError(str(e)) from e
    top = max((j for (_, j) in d), default=0)
    exps = []
    for j in range(top + 1):
        exps.append(tuple(d.get((i, j), 0) for i in range(nvars)))
    return MultiplicativeFunction(nvars, exps)


def relation_from_multiplicative(f: MultiplicativeFunction, field, target) -> SigmaPolynomial:
    """The sigma-polynomial numerator(f) - target * denominator(f).

    Clears the negative exponents of f by the documented convention, so
    f(x) = target becomes a polynomial relation on invertible points.
    """
    num = den = SigmaPolynomial.constant(field, f.nvars, 1)
    for i, j, k in f.factors(1):
        num = num * SigmaPolynomial.variable(field, f.nvars, i, j) ** k
    for i, j, k in f.factors(-1):
        den = den * SigmaPolynomial.variable(field, f.nvars, i, j) ** k
    return num - SigmaPolynomial.constant(field, f.nvars, target) * den


# functional surface matching the operation names

def poly_arith(p: SigmaPolynomial, q: SigmaPolynomial, op: str) -> SigmaPolynomial:
    if op == "add":
        return p + q
    if op == "mul":
        return p * q
    raise SigmaPolyError(f"unknown operation {op!r}")


def poly_shift(p: SigmaPolynomial) -> SigmaPolynomial:
    return p.shift()


def poly_eval(p: SigmaPolynomial, point):
    return p.eval(point)


def mult_eval(f: MultiplicativeFunction, point):
    return f.eval(point)
