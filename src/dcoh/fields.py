"""Concrete difference fields: exact arithmetic plus a ring endomorphism sigma.

Supported field kinds, selected by descriptor string:

    QQ                    rationals, sigma = id
    QQ(t);shift           rational functions, sigma: f(t) -> f(t+1)
    QQ(t);dilate:<q>      rational functions, sigma: f(t) -> f(q*t), q != 0
    QQ(t);subst:t^2       rational functions, sigma: f(t) -> f(t^2)
    GF(p^m);frob^e        finite field, sigma: x -> x^(p^e)

Elements are immutable and kept in a unique canonical form, so equality
is plain coordinate equality:

  * a rational is a Python int when it is integral and otherwise a
    Fraction with denominator > 1, so integral QQ arithmetic never enters
    the fractions module and pays a gcd only where a denominator is
    present (Knuth, TAOCP vol. 2, 4.5.1);
  * rational functions are coprime (numerator, denominator) pairs of
    Fraction-coefficient polynomials with monic denominator;
  * finite field elements are coefficient tuples modulo the
    lexicographically smallest monic irreducible of degree m over GF(p).

The rational normal form is kept by every QQ path that makes a raw value:
_from_int_like, wrap, _add, _mul and _inv (never 1 / a on an int, a float).
It is a matter of speed, not of correctness: an int and a Fraction of the
same value are equal and hash alike (Python's numeric hash, which does not
depend on PYTHONHASHSEED), and str(Fraction(2)) == str(2), so an integral
Fraction that slipped past the normal form would leave equality, hashes,
shared table keys and every printed answer as they are.

A field makes its elements from raw values through `wrap`.  GF(q) with
q <= FiniteField.TABLE_LIMIT builds one canonical FieldElement per value
up front, and every element it hands out (arithmetic results, element(),
elements(), the algebras' coefficients) is that object, so kept answers
share their coefficients.  Equality never relies on this: it compares
values.  Such a field's add, mul, sigma and inverse tables fill on first
use, one entry at a time.

QQ(t) results reach that form without a gcd of the full products; each
operation rests on one lemma, stated at its method: products cancel
across (_mul), sums divide only by a gcd with the denominators' gcd
(_add), and sigma, its inverse, t -> -t and the inverse keep a pair
coprime (_image, _inv).  The gcd of the full products (`_reduce`) is left
for user input and square roots.

GF(q) inverts by the extended Euclidean algorithm in GF(p)[w] modulo the
modulus.

Beyond the arithmetic the module provides the two decidable predicates
the classification procedures rely on: exact square roots (is_square)
and membership in the image of sigma (in_sigma_image).
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

from . import exprs, polys
from .outcome import InternalError
from .polys import ZERO, deg, monic, pdiv_exact, pgcd, pmul, poly, poly_str


class FieldError(ValueError):
    pass


class FieldParseError(FieldError):
    pass


# --------------------------------------------------------------------------
# elements


class FieldElement:
    """Immutable element of a SigmaField; arithmetic via operators."""

    __slots__ = ("field", "value")

    def __init__(self, field, value):
        self.field = field
        self.value = value

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field is not self.field and other.field != self.field:
                raise FieldError(
                    f"field mismatch: {self.field.descriptor} vs {other.field.descriptor}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.element(other)
        return NotImplemented

    # the binary operators coerce only when other is not an element of the
    # very same field object, the common case

    def __add__(self, other):
        if other.__class__ is not FieldElement or other.field is not self.field:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        f = self.field
        return f.wrap(f._add(self.value, other.value))

    __radd__ = __add__

    def __neg__(self):
        f = self.field
        return f.wrap(f._neg(self.value))

    def __sub__(self, other):
        if other.__class__ is not FieldElement or other.field is not self.field:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        f = self.field
        return f.wrap(f._add(self.value, f._neg(other.value)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if other.__class__ is not FieldElement or other.field is not self.field:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        f = self.field
        return f.wrap(f._mul(self.value, other.value))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        return self.field.element(other) / self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        return square_and_multiply(self if n >= 0 else self.inv(), abs(n), self.field.one)

    def inv(self):
        if self.is_zero():
            raise ZeroDivisionError("division by zero field element")
        f = self.field
        return f.wrap(f._inv(self.value))

    # aliases so matrices of field elements and of algebra elements share code
    inverse = inv

    def maybe_inverse(self):
        return None if self.is_zero() else self.inv()

    def is_unit(self) -> bool:
        return not self.is_zero()

    def sigma(self, power: int = 1):
        return self.field.sigma(self, power)

    def is_zero(self) -> bool:
        return self.field._is_zero(self.value)

    def is_one(self) -> bool:
        return self == self.field.one()

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if other.__class__ is FieldElement and other.field is self.field:
            return self.value == other.value
        if isinstance(other, (int, Fraction)):
            try:
                other = self.field.element(other)
            except FieldError:
                return NotImplemented
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.field == other.field and self.value == other.value

    def __hash__(self):
        return hash((self.field.descriptor, self.value))

    def __str__(self):
        return self.field.format(self.value)

    def __repr__(self):
        return f"<{self.field.descriptor}: {self}>"


class _ElementDomain(exprs.Domain):
    def __init__(self, field):
        self.field = field

    def from_int(self, n):
        return self.field.element(n)

    def name(self, name):
        return self.field.named_element(name)


def square_and_multiply(base, n: int, one):
    """base ** n for n >= 0 by square and multiply; one() when n == 0."""
    r = None
    while n:
        if n & 1:
            r = base if r is None else r * base
        n >>= 1
        if n:
            base = base * base
    return one() if r is None else r


# --------------------------------------------------------------------------
# base field


class SigmaField:
    descriptor: str
    characteristic: int
    inversive: bool
    finite: bool

    def element(self, obj) -> FieldElement:
        if isinstance(obj, FieldElement):
            if obj.field != self:
                raise FieldError("element of a different field")
            return obj
        if isinstance(obj, str):
            try:
                return exprs.parse(obj, _ElementDomain(self))
            except ZeroDivisionError:
                raise FieldParseError(f"division by zero in {obj!r}")
            except exprs.ExprError as e:
                raise FieldParseError(str(e)) from e
        return self.wrap(self._from_int_like(obj))

    def wrap(self, value) -> FieldElement:
        """The element whose raw value is `value`."""
        return FieldElement(self, value)

    def named_element(self, name: str) -> FieldElement:
        raise FieldParseError(f"unknown name {name!r} in field {self.descriptor}")

    def zero(self) -> FieldElement:
        return self.element(0)

    def one(self) -> FieldElement:
        return self.element(1)

    def sigma(self, x: FieldElement, power: int = 1) -> FieldElement:
        if power < 0:
            raise FieldError("sigma power must be nonnegative")
        v = self.element(x).value
        for _ in range(power):
            v = self._sigma(v)
        return self.wrap(v)

    def is_square(self, x: FieldElement):
        raise FieldError(f"is_square unsupported over {self.descriptor}")

    def sigma_preimage(self, x: FieldElement):
        raise FieldError(f"in_sigma_image undecided over {self.descriptor}")

    def elements(self):
        raise FieldError(f"{self.descriptor} is not finite")

    def __eq__(self, other):
        return isinstance(other, SigmaField) and other.descriptor == self.descriptor

    def __hash__(self):
        return hash(self.descriptor)

    def __repr__(self):
        return f"SigmaField({self.descriptor!r})"


# --------------------------------------------------------------------------
# QQ


class RationalField(SigmaField):
    descriptor = "QQ"
    characteristic = 0
    inversive = True
    finite = False

    # raw values in normal form (see the module docstring): an int when
    # integral, else a Fraction with denominator > 1

    def _from_int_like(self, obj):
        if isinstance(obj, int):
            return int(obj)
        if isinstance(obj, Fraction):
            return obj.numerator if obj.denominator == 1 else obj
        raise FieldError(f"cannot coerce {obj!r} into QQ")

    def wrap(self, value) -> FieldElement:
        if value.__class__ is not int and value.denominator == 1:
            value = value.numerator
        return FieldElement(self, value)

    def _add(self, a, b):
        s = a + b
        if s.__class__ is int or s.denominator != 1:
            return s
        return s.numerator

    def _neg(self, a):
        return -a

    def _mul(self, a, b):
        s = a * b
        if s.__class__ is int or s.denominator != 1:
            return s
        return s.numerator

    def _inv(self, a):
        # 1/a of an int is a float: the inverse is built from the numerator
        # and denominator, an int exactly when the numerator is a unit
        n, d = a.numerator, a.denominator
        if n == 1 or n == -1:
            return n * d
        return Fraction(d, n)

    def _is_zero(self, a):
        return a == 0

    def _sigma(self, a):
        return a

    def format(self, a):
        return str(a)

    def is_square(self, x):
        r = polys.frac_sqrt(self.element(x).value)
        return None if r is None else self.wrap(r)

    def sigma_preimage(self, x):
        return self.element(x)

    def random_element(self, rng):
        return self.element(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))


# --------------------------------------------------------------------------
# QQ(t) with shift / dilation / substitution


class RationalFunctionField(SigmaField):
    characteristic = 0
    finite = False

    def __init__(self, mode: str, q: Fraction | None = None):
        if mode not in ("shift", "dilate", "subst"):
            raise FieldParseError(f"unknown QQ(t) mode {mode!r}")
        self.mode = mode
        self.q = q
        if mode == "dilate":
            if q is None or q == 0:
                raise FieldParseError("dilation factor must be a nonzero rational")
            self.descriptor = f"QQ(t);dilate:{q}"
        elif mode == "shift":
            self.descriptor = "QQ(t);shift"
        else:
            self.descriptor = "QQ(t);subst:t^2"
        self.inversive = mode != "subst"

    # values are (num, den) with den monic and gcd(num, den) = 1, so a
    # denominator of length 1 is the polynomial 1
    def ratfun(self, num, den=polys.ONE) -> FieldElement:
        num, den = self._reduce(poly(num), poly(den))
        return FieldElement(self, (num, den))

    @staticmethod
    def _reduce(num, den):
        """The canonical pair of num / den for any num, den != 0: user input
        and square roots.  The arithmetic never needs this gcd."""
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            return ZERO, polys.ONE
        g = pgcd(num, den)
        if deg(g) > 0:
            num = pdiv_exact(num, g)
            den = pdiv_exact(den, g)
        return RationalFunctionField._monic_den(num, den)

    @staticmethod
    def _monic_den(num, den):
        """A coprime pair rescaled so that den is monic."""
        c = den[-1]
        if c == 1:
            return num, den
        return tuple([x / c for x in num]), tuple([x / c for x in den])

    def _from_int_like(self, obj):
        if isinstance(obj, (int, Fraction)):
            return (poly([Fraction(obj)]), polys.ONE)
        raise FieldError(f"cannot coerce {obj!r} into {self.descriptor}")

    def named_element(self, name):
        if name == "t":
            return FieldElement(self, (polys.T, polys.ONE))
        return super().named_element(name)

    def _add(self, a, b):
        """a + b by the denominator gcd (Knuth, TAOCP vol. 2, 4.5.1).

        With g = gcd(ad, bd), ad = g ad' and bd = g bd', the sum is
        n / (ad' bd' g) with n = an bd' + bn ad'.  A prime dividing ad'
        divides bn ad' but neither an (coprime to ad) nor bd' (coprime to
        ad'), so n is coprime to ad' bd'; the only common factor left is
        h = gcd(n, g), and n/h, g/h are coprime.  When g = 1 (a polynomial
        summand makes it so for free) nothing is left to cancel.
        """
        an, ad = a
        bn, bd = b
        if len(ad) == 1 and len(bd) == 1:
            return polys.padd(an, bn), polys.ONE
        g = pgcd(ad, bd) if len(ad) > 1 and len(bd) > 1 else polys.ONE
        if len(g) == 1:
            return polys.padd(pmul(an, bd), pmul(bn, ad)), pmul(ad, bd)
        ad = pdiv_exact(ad, g)
        n = polys.padd(pmul(an, pdiv_exact(bd, g)), pmul(bn, ad))
        if not n:
            return ZERO, polys.ONE
        h = pgcd(n, g)
        if len(h) > 1:
            n = pdiv_exact(n, h)
            bd = pdiv_exact(bd, h)
        return n, pmul(ad, bd)

    def _neg(self, a):
        return (polys.pneg(a[0]), a[1])

    def _mul(self, a, b):
        """a * b by cancelling across first (Henrici 1956; Knuth, TAOCP
        vol. 2, 4.5.1).

        With g1 = gcd(an, bd) and g2 = gcd(bn, ad), the product is
        (an/g1)(bn/g2) / ((ad/g2)(bd/g1)).  Each numerator factor is
        coprime to both denominator factors (to its own one as a reduced
        pair, to the other one by the division), so the result is reduced;
        its denominator is monic as a product of monic factors.  A gcd with
        a constant is 1 and is not computed.
        """
        an, ad = a
        bn, bd = b
        if len(ad) == 1 and len(bd) == 1:
            return pmul(an, bn), polys.ONE
        if not an or not bn:
            return ZERO, polys.ONE
        if len(an) > 1 and len(bd) > 1:
            g = pgcd(an, bd)
            if len(g) > 1:
                an = pdiv_exact(an, g)
                bd = pdiv_exact(bd, g)
        if len(bn) > 1 and len(ad) > 1:
            g = pgcd(bn, ad)
            if len(g) > 1:
                bn = pdiv_exact(bn, g)
                ad = pdiv_exact(ad, g)
        return pmul(an, bn), pmul(ad, bd)

    def _inv(self, a):
        # the swapped pair is still coprime: only the monic rescale is left
        if not a[0]:
            raise ZeroDivisionError("zero denominator")
        return self._monic_den(a[1], a[0])

    def _is_zero(self, a):
        return not a[0]

    def _sigma_poly(self, p):
        if self.mode == "shift":
            return polys.shift(p, 1)
        if self.mode == "dilate":
            return polys.compose_linear(p, self.q, Fraction(0))
        return polys.compose_square(p)

    def _image(self, a, f):
        """The value of f(num) / f(den) for an injective ring endomorphism f
        of QQ[t]: u num + v den = 1 gives f(u) f(num) + f(v) f(den) = 1, so
        the pair stays coprime and needs no gcd, only the monic rescale."""
        return self._monic_den(f(a[0]), f(a[1]))

    def _sigma(self, a):
        return self._image(a, self._sigma_poly)

    def format(self, a):
        num, den = a
        if len(den) == 1:
            return poly_str(num)
        ns = poly_str(num)
        if deg(num) > 0:
            ns = f"({ns})"
        return f"{ns}/({poly_str(den)})"

    def is_square(self, x):
        num, den = self.element(x).value
        if not num:
            return FieldElement(self, (ZERO, polys.ONE))
        c = polys.frac_sqrt(num[-1])
        if c is None or c == 0:
            return None
        rnum = polys.poly_sqrt(monic(num))
        if rnum is None:
            return None
        rden = polys.poly_sqrt(den)
        if rden is None:
            return None
        return FieldElement(self, self._reduce(polys.pscale(rnum, c), rden))

    def sigma_preimage(self, x):
        a = self.element(x).value
        if self.mode == "shift":
            return self.wrap(self._image(a, lambda p: polys.shift(p, -1)))
        if self.mode == "dilate":
            qi = 1 / self.q
            return self.wrap(self._image(
                a, lambda p: polys.compose_linear(p, qi, Fraction(0))))
        # substitution t -> t^2: x has a preimage iff x is an even function
        if self._image(a, lambda p: polys.compose_linear(p, Fraction(-1), Fraction(0))) != a:
            return None
        # the halves stay coprime (a common factor f gives the common factor
        # f(t^2)) and den keeps its leading coefficient 1
        return self.wrap((self._halve(a[0]), self._halve(a[1])))

    @staticmethod
    def _halve(p):
        # a reduced even rational function has even numerator and denominator
        if any(p[1::2]):
            raise InternalError("odd coefficient in even rational function")
        return p[0::2]

    def random_element(self, rng, max_deg: int = 2):
        while True:
            num = poly([rng.randint(-3, 3) for _ in range(rng.randint(1, max_deg + 1))])
            den = poly([rng.randint(-3, 3) for _ in range(rng.randint(1, max_deg + 1))])
            if den:
                return self.ratfun(num, den)


# --------------------------------------------------------------------------
# GF(p^m) with a Frobenius power
#
# Internal arithmetic on coefficient tuples mod p (ascending degree,
# fixed length m).  The modulus is monic irreducible of degree m.

def _ip_mulmod(a, b, modulus, p):
    # integer sums; each coefficient is reduced mod p once, when read or at the end
    out = [0] * (len(a) + len(b) - 1 or 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    m = len(modulus) - 1
    inv_lead = pow(modulus[-1], -1, p)
    for i in range(len(out) - 1, m - 1, -1):
        c = out[i] * inv_lead % p
        if c:
            for j in range(m):
                out[i - m + j] -= c * modulus[j]
    return polys._trim([c % p for c in out[:m]])


def _ip_powmod(a, n, modulus, p):
    r = [1]
    b = list(a)
    while n:
        if n & 1:
            r = _ip_mulmod(r, b, modulus, p)
        b = _ip_mulmod(b, b, modulus, p)
        n >>= 1
    return r


def _ip_invmod(a, modulus, p):
    """a^-1 modulo the irreducible modulus over GF(p), a != 0, by the
    extended Euclidean algorithm in GF(p)[w]: O(m^2) operations where
    a^(q-2) takes O(m^3 log p).  It keeps s with s*a = r (mod modulus)
    for each remainder r; the last remainder is a nonzero constant."""
    r0, r1 = list(modulus), a
    s0, s1 = [], [1]
    while len(r1) > 1:
        # r0 = q*r1 + r, and s = s0 - q*s1 goes with r
        inv = pow(r1[-1], -1, p)
        n = len(r1) - 1
        r = list(r0)
        q = [0] * (len(r0) - n)
        for i in range(len(r0) - 1 - n, -1, -1):
            c = r[i + n] * inv % p
            if c:
                q[i] = c
                for j in range(n):
                    r[i + j] = (r[i + j] - c * r1[j]) % p
        del r[n:]
        s = s0 + [0] * max(0, len(q) + len(s1) - 1 - len(s0))
        for i, qi in enumerate(q):
            if qi:
                for j, sj in enumerate(s1):
                    s[i + j] = (s[i + j] - qi * sj) % p
        r0, r1 = r1, polys._trim(r)
        s0, s1 = s1, polys._trim(s)
    c = pow(r1[0], -1, p)
    return [x * c % p for x in s1]


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _ip_sub_x(cs, p):
    # cs - x, padded as needed
    out = list(cs) + [0] * max(0, 2 - len(cs))
    out[1] = (out[1] - 1) % p
    return polys._trim(out)


def _irreducible(modulus, p) -> bool:
    """Is the monic modulus irreducible over GF(p)?  Degree 2 and up only:
    _ip_sub_x does not reduce x mod f, so a linear modulus reads as
    reducible."""
    m = len(modulus) - 1
    x = [0, 1]
    # f is irreducible of degree m iff x^(p^m) == x mod f and
    # gcd(x^(p^(m/q)) - x, f) = 1 for every prime q dividing m
    if _ip_sub_x(_ip_powmod(x, p ** m, modulus, p), p):
        return False
    for q in range(2, m + 1):
        if m % q == 0 and _is_prime(q):
            diff = _ip_sub_x(_ip_powmod(x, p ** (m // q), modulus, p), p)
            if polys._gcd_degree_mod(diff, modulus, p) != 0:
                return False
    return True


def _find_modulus(p: int, m: int):
    """The lexicographically smallest monic irreducible of degree m over
    GF(p), as coefficients in ascending degree."""
    if m == 1:
        return (0, 1)
    for digits in itertools.product(range(p), repeat=m):
        mod = digits[::-1] + (1,)
        if _irreducible(mod, p):
            return mod
    raise FieldError(f"no irreducible modulus found for GF({p}^{m})")


class _LazyTable(dict):
    """A dict that builds a missing entry with build(key) and keeps it."""

    __slots__ = ("build",)

    def __init__(self, build):
        super().__init__()
        self.build = build

    def __missing__(self, key):
        got = self[key] = self.build(key)
        return got


class FiniteField(SigmaField):
    finite = True

    # fields this small memoize add, mul, sigma and inverse, each entry
    # computed by the raw kernel on first use; the limit bounds the memo
    TABLE_LIMIT = 512

    def __init__(self, p: int, m: int, frob_power: int = 1):
        if not _is_prime(p):
            raise FieldParseError(f"{p} is not prime")
        if m < 1:
            raise FieldParseError("extension degree must be positive")
        if frob_power < 0:
            raise FieldParseError("frobenius power must be nonnegative")
        self.p = p
        self.m = m
        self.e = frob_power
        self.size = p ** m
        self.modulus = _find_modulus(p, m)
        self.characteristic = p
        self.inversive = True
        self.descriptor = f"GF({p}^{m});frob^{frob_power}"
        self._zero = (0,) * m
        self._sqrt = None
        if self.size <= self.TABLE_LIMIT:
            # one canonical element per value, handed out by the element
            # operations, elements() and the algebras; wrap is a dict lookup
            canon = {v: FieldElement(self, v)
                     for v in itertools.product(range(p), repeat=m)}
            self.wrap = canon.__getitem__
            add = _LazyTable(lambda a: _LazyTable(lambda b: self._add_raw(a, b)))
            mul = _LazyTable(lambda a: _LazyTable(lambda b: self._mul_raw(a, b)))
            self._add = lambda a, b: add[a][b]
            self._mul = lambda a, b: mul[a][b]
            self._sigma = _LazyTable(self._sigma_raw).__getitem__
            self._inv = _LazyTable(self._inv_raw).__getitem__

    def _from_int_like(self, obj):
        if isinstance(obj, int):
            return (obj % self.p,) + (0,) * (self.m - 1)
        if isinstance(obj, Fraction):
            if obj.denominator % self.p == 0:
                raise ZeroDivisionError("denominator divisible by characteristic")
            v = obj.numerator * pow(obj.denominator, -1, self.p) % self.p
            return (v,) + (0,) * (self.m - 1)
        raise FieldError(f"cannot coerce {obj!r} into {self.descriptor}")

    def named_element(self, name):
        if name == "w" and self.m > 1:
            return self.wrap((0, 1) + (0,) * (self.m - 2))
        return super().named_element(name)

    def _pad(self, cs):
        return tuple(cs) + (0,) * (self.m - len(cs))

    # the raw kernel; above TABLE_LIMIT it is the arithmetic itself

    def _add_raw(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def _neg(self, a):
        return tuple((-x) % self.p for x in a)

    def _mul_raw(self, a, b):
        return self._pad(_ip_mulmod(polys._trim(list(a)), polys._trim(list(b)),
                                    self.modulus, self.p))

    def _inv_raw(self, a):
        if a == self._zero:
            raise ZeroDivisionError("element not invertible")
        return self._pad(_ip_invmod(polys._trim(list(a)), self.modulus, self.p))

    def _sigma_raw(self, a):
        return self._pad(_ip_powmod(polys._trim(list(a)), self.p ** self.e, self.modulus, self.p))

    _add, _mul, _inv, _sigma = _add_raw, _mul_raw, _inv_raw, _sigma_raw

    def _is_zero(self, a):
        return a == self._zero

    def format(self, a):
        if self.m == 1:
            return str(a[0])
        return poly_str(poly([Fraction(c) for c in a]), var="w")

    def elements(self):
        return (self.wrap(d[::-1]) for d in itertools.product(range(self.p), repeat=self.m))

    def units(self):
        for x in self.elements():
            if not x.is_zero():
                yield x

    def is_square(self, x):
        if self.p == 2:
            raise FieldError("is_square is not supported in characteristic 2")
        x = self.element(x)
        if x.is_zero():
            return self.zero()
        if x ** ((self.size - 1) // 2) != self.one():
            return None
        if self._sqrt is None:
            table = {}
            for cand in self.elements():
                sq = (cand * cand).value
                if sq not in table:
                    table[sq] = cand
            self._sqrt = table
        root = self._sqrt.get(x.value)
        if root is None:
            raise InternalError("Euler criterion passed but no square root found")
        return root

    def sigma_order(self) -> int:
        if self.e % self.m == 0:
            return 1
        return self.m // math.gcd(self.m, self.e)

    def sigma_preimage(self, x):
        return self.sigma(self.element(x), self.sigma_order() - 1) if self.sigma_order() > 1 \
            else self.element(x)

    def random_element(self, rng):
        return self.wrap(tuple(rng.randrange(self.p) for _ in range(self.m)))


# --------------------------------------------------------------------------
# descriptor parsing and the functional operation surface


@functools.lru_cache(maxsize=None)
def _make_field_cached(descriptor: str) -> SigmaField:
    text = descriptor.strip()
    if text == "QQ":
        return RationalField()
    if text.startswith("QQ(t)"):
        rest = text[len("QQ(t)"):]
        if not rest.startswith(";"):
            raise FieldParseError(f"bad field descriptor {descriptor!r}")
        mode = rest[1:]
        if mode == "shift":
            return RationalFunctionField("shift")
        if mode == "subst:t^2":
            return RationalFunctionField("subst")
        if mode.startswith("dilate:"):
            try:
                q = Fraction(mode[len("dilate:"):])
            except (ValueError, ZeroDivisionError):
                raise FieldParseError(f"bad dilation factor in {descriptor!r}")
            return RationalFunctionField("dilate", q)
        raise FieldParseError(f"bad field descriptor {descriptor!r}")
    if text.startswith("GF("):
        close = text.find(")")
        if close < 0:
            raise FieldParseError(f"bad field descriptor {descriptor!r}")
        inside = text[3:close]
        rest = text[close + 1:]
        if "^" in inside:
            ps, ms = inside.split("^", 1)
            p, m = int(ps), int(ms)
        else:
            q = int(inside)
            p = 2
            while p <= q:
                if q % p == 0:
                    break
                p += 1
            m = 0
            qq = q
            while qq > 1 and qq % p == 0:
                qq //= p
                m += 1
            if qq != 1 or m == 0:
                raise FieldParseError(f"{q} is not a prime power")
        e = 1
        if rest:
            if not rest.startswith(";frob^"):
                raise FieldParseError(f"bad field descriptor {descriptor!r}")
            e = int(rest[len(";frob^"):])
        return FiniteField(p, m, e)
    raise FieldParseError(f"bad field descriptor {descriptor!r}")


def make_field(descriptor: str) -> SigmaField:
    return _make_field_cached(descriptor)


def field_arith(a: FieldElement, b, op: str):
    """Functional arithmetic surface: add/sub/mul/div/neg/inv/eq."""
    if op == "neg":
        return -a
    if op == "inv":
        return a.inv()
    if op == "eq":
        return a == b
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        return a / b
    raise FieldError(f"unknown operation {op!r}")


def sigma_apply(x: FieldElement, power: int = 1) -> FieldElement:
    return x.field.sigma(x, power)


def is_square(x: FieldElement):
    """A square root of x in its field, or None."""
    return x.field.is_square(x)


def in_sigma_image(x: FieldElement):
    """A preimage y with sigma(y) = x, or None; raises where undecidable."""
    return x.field.sigma_preimage(x)
