"""Computable sigma-algebras over a sigma-field, in two representations.

  * finite-dimensional algebras: a basis, structure constants, a unit
    vector and a sigma-semilinear matrix (TableAlgebra, and TensorAlgebra
    for tensor products); elements map basis indices to coefficients;
  * monomial algebras (MonomialAlgebra): the free polynomial algebra
    k[y_1,...,y_r] (FreePolyAlgebra, sigma(y_i) affine-linear) and its
    Laurent localization k[u_1^{\\pm1},...,u_r^{\\pm1}] (LaurentAlgebra,
    sigma(u_i) a unit monomial); elements map exponent vectors to
    coefficients, and sigma is given by one image element per generator.

Every algebra is nonzero, hence faithfully flat over the base field.
Elements are sparse maps from keys to field elements with no stored
zeros, so equality is dict equality.

Both carry one protocol, the methods below SigmaAlgebra's "protocol"
line, which TensorContext, the morphisms, the groups and the command line
call instead of testing the class.  So only this module knows the key of
a tensor power: an index tuple, or the concatenated exponent vectors.

Finite-dimensional algebras keep their structure constants as raw field
values (the `value` of a FieldElement), as tuples of (index, value) pairs
with the zeros left out.  Products, sigma and unit inverses run on raw
values through the field's own _mul/_add/_is_zero/_sigma, and each
surviving coefficient is wrapped in a FieldElement once, on the way out.
The table self-check (TableAlgebra.validate) compares raw values alone;
tables built here from validated ones (direct_sum, change_basis, the
invariants of a descent) are certified by their lemmas instead.
Equal tensor products share one table, built entry by entry on first use
and dropped when no algebra uses it any more; the cache key it is found by
hashes its entries once.

On top of the algebras the module builds tensor squares and cubes with
their Amitsur face maps and contracting homotopy, the exactness audit of
the complex 0 -> k -> A -> A(x)A -> A(x)A(x)A (exact at A(x)A by the
homotopy's identity, checked on the m^2 basis tensors instead of
eliminating the m^3 x m^2 matrix of the second map), and
finite-dimensional faithfully flat descent: the invariants
B0 = {b : phi(b(x)1) = 1(x)b} of a descent datum, together with the check
that B0 (x) A -> B is an isomorphism.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass

from . import exprs, linalg
from .fields import FieldElement, SigmaField, _LazyTable, square_and_multiply


class AlgebraError(ValueError):
    pass


class NonUnitError(AlgebraError):
    pass


# --------------------------------------------------------------------------
# elements


class AlgElement:
    __slots__ = ("algebra", "data")

    def __init__(self, algebra, data: dict):
        self.algebra = algebra
        self.data = {k: v for k, v in data.items() if not v.is_zero()}

    def _coerce(self, other):
        if isinstance(other, AlgElement):
            if other.algebra is not self.algebra and other.algebra != self.algebra:
                raise AlgebraError("algebra mismatch")
            return other
        if isinstance(other, (int, FieldElement)):
            return self.algebra.from_scalar(self.algebra.field.element(other))
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.data)
        for k, v in other.data.items():
            cur = out.get(k)
            out[k] = v if cur is None else cur + v
        return AlgElement(self.algebra, out)

    __radd__ = __add__

    def __neg__(self):
        return AlgElement(self.algebra, {k: -v for k, v in self.data.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, FieldElement) or isinstance(other, int):
            c = self.algebra.field.element(other)
            return AlgElement(self.algebra, {k: v * c for k, v in self.data.items()})
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _clean_element(self.algebra, self.algebra._mul_data(self.data, other.data))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, n: int):
        return square_and_multiply(self.inverse() if n < 0 else self, abs(n), self.algebra.one)

    def sigma(self, power: int = 1) -> "AlgElement":
        d = self.data
        for _ in range(power):
            d = self.algebra._sigma_data(d)
        return _clean_element(self.algebra, d)

    def maybe_inverse(self):
        d = self.algebra._invert_data(self.data)
        return None if d is None else _clean_element(self.algebra, d)

    def inverse(self) -> "AlgElement":
        inv = self.maybe_inverse()
        if inv is None:
            raise NonUnitError(f"element is not a unit: {self}")
        return inv

    def is_unit(self) -> bool:
        return self.algebra._is_unit_data(self.data)

    def is_zero(self) -> bool:
        return not self.data

    def scalar_part(self):
        """c with self = c * 1, or None."""
        unit = self.algebra.unit_data()
        if not self.data:
            return self.algebra.field.zero()
        k0, u0 = next(iter(unit.items()))
        c = self.data.get(k0)
        if c is None:
            return None
        c = c / u0
        if self == self.algebra.from_scalar(c):
            return c
        return None

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.algebra.from_scalar(self.algebra.field.element(other))
        if not isinstance(other, AlgElement):
            return NotImplemented
        return (self.algebra is other.algebra or self.algebra == other.algebra) \
            and self.data == other.data

    def __hash__(self):
        return hash((self.algebra.cache_key(), frozenset(self.data.items())))

    def __str__(self):
        if not self.data:
            return "0"
        parts = []
        for k in sorted(self.data):
            c = self.data[k]
            label = self.algebra.index_label(k)
            cs = str(c)
            if label == "1":
                parts.append(cs)
            elif cs == "1":
                parts.append(label)
            else:
                if any(ch in cs[1:] for ch in "+-") or "/" in cs:
                    cs = f"({cs})"
                parts.append(f"{cs}*{label}")
        return " + ".join(parts)

    def __repr__(self):
        return f"<{self.algebra.kind}: {self}>"


def _clean_element(algebra, data: dict) -> AlgElement:
    """AlgElement from data that already holds no zero coefficient."""
    x = AlgElement.__new__(AlgElement)
    x.algebra = algebra
    x.data = data
    return x


def _linear_image(images, x: AlgElement, target) -> AlgElement:
    """sum of images[k] * c over the terms c e_k of x, in one dict of raw values."""
    f = target.field
    mul, add, is_zero, wrap = f._mul, f._add, f._is_zero, f.wrap
    out = {}
    for k, c in x.data.items():
        c = c.value
        for r, v in images[k].data.items():
            w = mul(v.value, c)
            out[r] = add(out[r], w) if r in out else w
    return _clean_element(target, {r: wrap(v) for r, v in out.items() if not is_zero(v)})


# --------------------------------------------------------------------------
# algebra base


class SigmaAlgebra:
    __slots__ = ("field",)
    kind = "abstract"
    # whether the generators are units whose inverses are no products of
    # generators (the Laurent algebras)
    monomials_are_units = False
    field: SigmaField

    def element(self, data: dict) -> AlgElement:
        return AlgElement(self, data)

    def zero(self) -> AlgElement:
        return AlgElement(self, {})

    def one(self) -> AlgElement:
        return AlgElement(self, dict(self.unit_data()))

    def from_scalar(self, c) -> AlgElement:
        c = self.field.element(c)
        return AlgElement(self, {k: v * c for k, v in self.unit_data().items()})

    def unit_data(self) -> dict:
        raise NotImplementedError

    def cache_key(self):
        raise NotImplementedError

    def __eq__(self, other):
        return isinstance(other, SigmaAlgebra) and self.cache_key() == other.cache_key()

    def __hash__(self):
        return hash(self.cache_key())

    def index_label(self, k) -> str:
        raise NotImplementedError

    def basis_element(self, k) -> AlgElement:
        return AlgElement(self, {k: self.field.one()})

    # the protocol; see the module docstring

    def tensor_power(self, n: int) -> "SigmaAlgebra":
        raise NotImplementedError

    def join_keys(self, keys):
        """The key of a tensor-power basis element from its factors' keys."""
        raise NotImplementedError

    def split_key(self, key, n: int) -> tuple:
        """The n factor keys of a key of the n-th tensor power."""
        raise NotImplementedError

    def pure_tensor(self, *parts) -> AlgElement:
        """parts[0] (x) parts[1] (x) ... in this tensor product of their algebras."""
        terms = {(k,): c for k, c in parts[0].data.items()}
        for x in parts[1:]:
            terms = {keys + (k,): c * v for keys, c in terms.items() for k, v in x.data.items()}
        join = parts[0].algebra.join_keys
        return _clean_element(self, {join(keys): c for keys, c in terms.items()})

    def generators(self) -> list:
        """The elements a morphism out of this algebra is given on."""
        raise NotImplementedError

    def evaluate(self, images, x: AlgElement, target) -> AlgElement:
        """h(x) for the morphism h into target with h(generators()) = images."""
        raise NotImplementedError

    def named_element(self, name: str):
        """The element a text grammar calls `name` (a basis label or a
        generator name), or None."""
        return None

    def _is_unit_data(self, d) -> bool:
        """Whether the element with data d is a unit: by default, whether
        it has an inverse; an algebra with a cheaper test overrides this."""
        return self._invert_data(d) is not None


class FinDimAlgebra(SigmaAlgebra):
    """Common interface: a finite basis, structure constants, sigma matrix.

    Subclasses set self._tables, the _RawTables shared by all algebras
    equal to this one; it holds the basis, the unit and the cache key too.
    """

    __slots__ = ("_tables",)

    @property
    def dim(self) -> int:
        return len(self._tables.indices)

    def index_list(self) -> list:
        return self._tables.indices

    def cache_key(self):
        return self._tables.key

    def basis_mult(self, i, j) -> dict:
        return self._wrap(self._tables.mult[i][j])

    def basis_sigma(self, i) -> dict:
        return self._wrap(self._tables.sigma[i])

    def tensor_power(self, n):
        return TensorAlgebra([self] * n)

    join_keys = staticmethod(tuple)

    def split_key(self, key, n):
        return key

    def generators(self):
        return [self.basis_element(k) for k in self.index_list()]

    def evaluate(self, images, x, target):
        return _linear_image(dict(zip(self.index_list(), images)), x, target)

    def named_element(self, name):
        for k in self.index_list():
            if self.index_label(k) == name:
                return self.basis_element(k)
        return None

    def _wrap(self, pairs) -> dict:
        wrap = self.field.wrap
        return {r: wrap(v) for r, v in pairs}

    def _wrap_nonzero(self, raw: dict) -> dict:
        f = self.field
        wrap, is_zero = f.wrap, f._is_zero
        return {r: wrap(v) for r, v in raw.items() if not is_zero(v)}

    # data hold no zero coefficients, and a field has no zero divisors and
    # an injective sigma, so c and cs below are never zero
    def _mul_data(self, d1, d2):
        f = self.field
        mul, add = f._mul, f._add
        table = self._tables.mult
        out = {}
        for i, c1 in d1.items():
            a = c1.value
            row = table[i]
            for j, c2 in d2.items():
                c = mul(a, c2.value)
                for r, s in row[j]:
                    v = mul(c, s)
                    cur = out.get(r)
                    out[r] = v if cur is None else add(cur, v)
        return self._wrap_nonzero(out)

    def _sigma_data(self, d):
        f = self.field
        mul, add, sig = f._mul, f._add, f._sigma
        table = self._tables.sigma
        out = {}
        for i, c in d.items():
            cs = sig(c.value)
            for r, s in table[i]:
                v = mul(cs, s)
                cur = out.get(r)
                out[r] = v if cur is None else add(cur, v)
        return self._wrap_nonzero(out)

    def _mult_matrix_raw(self, d) -> list:
        """Rows of raw values of L_x, the matrix of multiplication by x:
        column j is x * e_j."""
        f = self.field
        mul, add = f._mul, f._add
        idx = self.index_list()
        table = self._tables.mult
        cols = []
        for j in idx:
            col = {}
            for i, c in d.items():
                a = c.value
                for r, s in table[i][j]:
                    v = mul(a, s)
                    cur = col.get(r)
                    col[r] = v if cur is None else add(cur, v)
            cols.append(col)
        zero = f.zero().value
        return [[col.get(r, zero) for col in cols] for r in idx]

    def _invert_data(self, d):
        if not d:
            return None
        f = self.field
        zero = f.zero().value
        unit = self.unit_data()
        rhs = [unit[r].value if r in unit else zero for r in self.index_list()]
        sol = linalg.solve_square_raw(self._mult_matrix_raw(d), rhs, f)
        if sol is None:
            return None
        wrap, is_zero = f.wrap, f._is_zero
        return {i: wrap(v) for i, v in zip(self.index_list(), sol) if not is_zero(v)}

    def _is_unit_data(self, d) -> bool:
        """x is a unit exactly when L_x is nonsingular (x y = 1 makes L_x
        L_y the identity), decided without solving for the inverse."""
        return bool(d) and linalg.nonsingular_raw(self._mult_matrix_raw(d), self.field)

    def to_vector(self, x: AlgElement) -> list:
        zero = self.field.zero()
        return [x.data.get(i, zero) for i in self.index_list()]

    def from_vector(self, vec) -> AlgElement:
        return AlgElement(self, {i: c for i, c in zip(self.index_list(), vec)})

    def enumerate_elements(self):
        """All elements, finite base field only, in a fixed order."""
        if not self.field.finite:
            raise AlgebraError("enumeration needs a finite base field")
        idx = self.index_list()
        for coords in itertools.product(*[list(self.field.elements()) for _ in idx]):
            yield AlgElement(self, {i: c for i, c in zip(idx, coords)})


def _raw_pairs(field, vec) -> tuple:
    """Dense vector of raw values -> (index, raw value) pairs without zeros."""
    is_zero = field._is_zero
    return tuple((r, v) for r, v in enumerate(vec) if not is_zero(v))


class TableAlgebra(FinDimAlgebra):
    """Structure constants given as dense tables.

    An instance holds only its field and the _RawTables it shares with
    every equal algebra.  The cache key there keeps the dense tables as
    raw values; labels, _mult, _sigma and _unit are read off it.
    """

    __slots__ = ()
    kind = "findim"

    def __init__(self, field, labels, mult, unit, sigma):
        """mult[i][j], sigma[i]: dense coefficient vectors; unit: dense vector."""
        labels = tuple(labels)
        m = len(labels)
        if m == 0:
            raise AlgebraError("zero algebra (empty basis)")
        if len(mult) != m or any(len(row) != m for row in mult) or len(sigma) != m:
            raise AlgebraError("inconsistent table dimensions")
        raw = lambda vec: tuple(field.element(c).value for c in vec)
        mult = tuple(tuple(raw(mult[i][j]) for j in range(m)) for i in range(m))
        unit = raw(unit)
        sigma = tuple(raw(sigma[i]) for i in range(m))
        if any(len(v) != m for row in mult for v in row) or len(unit) != m \
                or any(len(v) != m for v in sigma):
            raise AlgebraError("inconsistent table dimensions")
        self._set_tables(field, labels, mult, unit, sigma)
        self.validate()

    def _set_tables(self, field, labels, mult, unit, sigma):
        """Share the tables of the dense tuples of raw values given, with no
        check: the constructor validates next, and the module's own builds
        (direct_sum, _transported) certify the tables they pass."""
        self.field = field
        m = len(labels)

        def build():
            tables = _RawTables([[_raw_pairs(field, v) for v in row] for row in mult],
                                [_raw_pairs(field, v) for v in sigma], list(range(m)))
            tables.unit = {r: field.wrap(v) for r, v in _raw_pairs(field, unit)}
            return tables

        self._tables = _shared_tables(("table", field.descriptor, labels, mult, unit, sigma),
                                      build)

    @property
    def labels(self) -> tuple:
        return self._tables.key[2]

    # read-only dense FieldElement views of the constructor's tables

    @property
    def _mult(self):
        wrap = self.field.wrap
        return tuple(tuple(tuple(map(wrap, v)) for v in row) for row in self._tables.key[3])

    @property
    def _unit(self):
        return tuple(map(self.field.wrap, self._tables.key[4]))

    @property
    def _sigma(self):
        wrap = self.field.wrap
        return tuple(tuple(map(wrap, v)) for v in self._tables.key[5])

    def index_label(self, k):
        return self.labels[k]

    def unit_data(self):
        return self._tables.unit

    def validate(self):
        """The unit, commutativity, associativity, sigma(1) = 1 and sigma
        multiplicative, checked in that order on the raw structure constants;
        semilinearity on coefficients holds by construction.

        Each side of an identity is a dict of raw values with no zeros, so
        two sides agree exactly when the elements do.  Associativity is
        checked only at the triples (i, j, k) with i < k.  Commutativity is
        checked first, and given it, (e_i e_j) e_k = e_i (e_j e_k) and its
        mirror (e_k e_j) e_i = e_k (e_j e_i) are one identity: both say
        (e_i e_j) e_k = (e_j e_k) e_i.  For i = k that reads
        (e_i e_j) e_i = (e_j e_i) e_i and holds.  So the first failing
        triple in lexicographic order always has i < k, and the message
        names it.  sigma is checked on unordered pairs for the same reason.
        """
        m = self.dim
        labels = self.labels
        tables = self._tables
        if not tables.unit:
            raise AlgebraError("zero algebra: unit is zero")
        f = self.field
        mul, add, is_zero, sig = f._mul, f._add, f._is_zero, f._sigma
        dense, mult, sigma = tables.key[3], tables.mult, tables.sigma
        one = f.one().value
        unit = [(r, u.value) for r, u in tables.unit.items()]

        def combine(terms) -> dict:
            """sum of c * x over the terms (x, c), x given by its raw pairs,
            as raw values without zeros"""
            out = {}
            for pairs, c in terms:
                for s, v in pairs:
                    w = mul(c, v)
                    out[s] = add(out[s], w) if s in out else w
            return {s: v for s, v in out.items() if not is_zero(v)}

        for i in range(m):
            if combine([(mult[r][i], u) for r, u in unit]) != {i: one}:
                raise AlgebraError(f"unit fails on basis element {labels[i]}")
            for j in range(i, m):
                if dense[i][j] != dense[j][i]:
                    raise AlgebraError(f"multiplication not commutative at ({i},{j})")
        # (e_a e_b) e_c, computed once for (a, b) and (b, a): mult is symmetric now
        prod3 = {}
        for a in range(m):
            for b in range(a, m):
                ab = mult[a][b]
                for c in range(m):
                    prod3[a, b, c] = prod3[b, a, c] = combine([(mult[r][c], v) for r, v in ab])
        for i in range(m):
            for j in range(m):
                for k in range(i + 1, m):
                    if prod3[i, j, k] != prod3[j, k, i]:
                        raise AlgebraError(f"multiplication not associative at ({i},{j},{k})")
        if combine([(sigma[r], sig(u)) for r, u in unit]) != dict(unit):
            raise AlgebraError("sigma does not fix 1")
        for i in range(m):
            for j in range(i, m):
                if combine([(sigma[r], sig(c)) for r, c in mult[i][j]]) != \
                        combine([(mult[a][b], mul(x, y)) for a, x in sigma[i] for b, y in sigma[j]]):
                    raise AlgebraError(f"sigma not multiplicative at ({i},{j})")


class _RawTables:
    """Raw structure constants of one algebra: mult[i][j] and sigma[i] are
    tuples of (index, raw value) pairs without zeros.  The basis, the unit
    (a dict of FieldElements; a tensor product builds it on first use), the
    factors of a tensor product and the cache key of the algebras sharing
    the tables live here too."""

    __slots__ = ("mult", "sigma", "indices", "unit", "factors", "key", "__weakref__")

    def __init__(self, mult, sigma, indices, factors=None):
        self.mult = mult
        self.sigma = sigma
        self.indices = indices
        self.unit = None
        self.factors = factors
        self.key = None


class _TableKey(tuple):
    """A cache key that hashes its entries once: the dense tables of a
    TableAlgebra, or the keys of a tensor product's factors.  It equals and
    hashes as the plain tuple of its entries."""

    def __new__(cls, entries):
        key = super().__new__(cls, entries)
        key._hash = tuple.__hash__(key)
        return key

    def __hash__(self):
        return self._hash


# the tables of the algebras alive, by cache key, so that equal algebras
# share one; an entry lives while some algebra holds it
_TABLES = weakref.WeakValueDictionary()


def _shared_tables(key, build) -> _RawTables:
    key = _TableKey(key)
    tables = _TABLES.get(key)
    if tables is None:
        tables = _TABLES[key] = build()
        tables.key = key
    return tables


def _tensor_pairs(field, parts) -> tuple:
    """Raw pairs of a tensor of basis-vector combinations, one part per factor."""
    mul, is_zero = field._mul, field._is_zero
    out = [((), field.one().value)]
    for part in parts:
        out = [(key + (r,), v) for key, c in out for r, s in part
               for v in (mul(c, s),) if not is_zero(v)]
    return tuple(out)


def _tensor_tables(field, factors) -> _RawTables:
    """Tables of a tensor product; each entry is built on first use."""
    def mult_row(i):
        return _LazyTable(lambda j: _tensor_pairs(
            field, [f._tables.mult[a][b] for f, a, b in zip(factors, i, j)]))

    return _RawTables(
        _LazyTable(mult_row),
        _LazyTable(lambda i: _tensor_pairs(
            field, [f._tables.sigma[a] for f, a in zip(factors, i)])),
        list(itertools.product(*[f.index_list() for f in factors])), factors)


class TensorAlgebra(FinDimAlgebra):
    """Tensor product of finite-dimensional algebras; basis = index tuples.

    Equal tensor products share their tables, and so their factors: the
    factor algebras of the first one built, equal to everyone's own."""

    __slots__ = ()
    kind = "findim"

    def __init__(self, factors):
        if not factors:
            raise AlgebraError("empty tensor product")
        fields = {f.field for f in factors}
        if len(fields) != 1:
            raise AlgebraError("tensor factors over different fields")
        self.field = field = factors[0].field
        factors = tuple(factors)
        self._tables = _shared_tables(("tensor",) + tuple(f.cache_key() for f in factors),
                                      lambda: _tensor_tables(field, factors))

    @property
    def factors(self) -> tuple:
        return self._tables.factors

    def index_label(self, k):
        return "#".join(f.index_label(i) for f, i in zip(self.factors, k))

    def unit_data(self):
        tables = self._tables
        if tables.unit is None:
            out = {(): self.field.one()}
            for f in self.factors:
                nxt = {}
                for key, c in out.items():
                    for i, u in f.unit_data().items():
                        nxt[key + (i,)] = c * u
                out = nxt
            tables.unit = {k: v for k, v in out.items() if not v.is_zero()}
        return tables.unit

    def pure_tensor(self, *parts) -> AlgElement:
        if len(parts) != len(self.factors):
            raise AlgebraError("tensor arity mismatch")
        return super().pure_tensor(*parts)


class MonomialAlgebra(SigmaAlgebra):
    """k[x_1,...,x_r], or its localization at the monomials: an element maps
    exponent vectors to coefficients, and sigma is the ring map that acts on
    coefficients by the field's sigma and sends x_i to images[i].

    A sigma image is given as the data of an element (a dict from exponent
    vectors to coefficients; sigma_images None means sigma(x_i) = x_i) or in
    the subclass's own tuple form.  The subclasses fix the stem of the
    generator names, which monomials are units, and the shape a sigma image
    must have."""

    __slots__ = ("ngens", "images", "_key", "_unit")
    stem = "x"
    generator_noun = "a generator"

    def __init__(self, field, ngens: int, sigma_images=None):
        self.field = field
        self.ngens = ngens
        self._unit = {(0,) * ngens: field.one()}
        if sigma_images is None:
            sigma_images = [self.gen(i).data for i in range(ngens)]
        if any(img is None for img in sigma_images):
            raise AlgebraError(f"missing sigma image for {self.generator_noun}")
        datas = []
        for img in sigma_images:
            data = AlgElement(self, img if isinstance(img, dict) else self._image_data(img)).data
            self._check_image(data)
            datas.append(data)
        if len(datas) != ngens:
            raise AlgebraError("need one sigma image per generator")
        self.images = tuple(_clean_element(self, d) for d in datas)
        self._key = (self.kind, field.descriptor, ngens,
                     tuple(tuple(sorted(d.items())) for d in datas))

    def cache_key(self):
        return self._key

    def index_label(self, k):
        parts = []
        for i, e in enumerate(k):
            if e:
                name = f"{self.stem}{i + 1}" if self.ngens > 1 else self.stem
                parts.append(name if e == 1 else f"{name}^{e}")
        return "*".join(parts) if parts else "1"

    def unit_data(self):
        return self._unit

    def gen(self, i: int) -> AlgElement:
        v = [0] * self.ngens
        v[i] = 1
        return AlgElement(self, {tuple(v): self.field.one()})

    def tensor_power(self, n):
        zero = (0,) * self.ngens
        images = [{self.join_keys([zero] * b + [w] + [zero] * (n - 1 - b)): c
                   for w, c in img.data.items()}
                  for b in range(n) for img in self.images]
        return type(self)(self.field, n * self.ngens, images)

    def join_keys(self, keys):
        return sum(keys, ())

    def split_key(self, key, n):
        r = self.ngens
        return tuple(key[i * r:(i + 1) * r] for i in range(n))

    def generators(self):
        return [self.gen(i) for i in range(self.ngens)]

    def evaluate(self, images, x, target):
        total = target.zero()
        for w, c in x.data.items():
            term = target.from_scalar(c)
            for img, e in zip(images, w):
                if e:
                    term = term * img ** e
            total = total + term
        return total

    def named_element(self, name):
        i = exprs.indexed_name(name, self.stem, self.ngens)
        return None if i is None else self.gen(i)

    def _mul_data(self, d1, d2):
        out = {}
        for w1, c1 in d1.items():
            for w2, c2 in d2.items():
                c = c1 * c2
                key = tuple(a + b for a, b in zip(w1, w2))
                cur = out.get(key)
                out[key] = c if cur is None else cur + c
        return {k: v for k, v in out.items() if not v.is_zero()}

    def _sigma_data(self, d):
        x = _clean_element(self, {w: c.sigma() for w, c in d.items()})
        return self.evaluate(self.images, x, self).data

    def _invert_data(self, d):
        if len(d) != 1:
            return None
        (w, c), = d.items()
        if any(w) and not self.monomials_are_units:
            return None
        return {tuple(-e for e in w): c.inv()}


class LaurentAlgebra(MonomialAlgebra):
    """k[u_1^{\\pm1},...,u_r^{\\pm1}] with sigma(u_i) = c_i * u^(v_i), each
    image given as the pair (c_i, v_i) or as the data of a unit monomial."""

    __slots__ = ()
    kind = "laurent"
    stem = "u"
    generator_noun = "a Laurent generator"
    monomials_are_units = True

    def _image_data(self, img):
        c, v = img
        c, v = self.field.element(c), tuple(v)
        if not c.is_zero() and len(v) != self.ngens:
            raise AlgebraError("sigma image exponent arity mismatch")
        return {} if c.is_zero() else {v: c}

    def _check_image(self, data):
        if not data:
            raise AlgebraError("sigma image of a Laurent generator must be a unit")
        if len(data) > 1:
            raise AlgebraError("Laurent sigma images must be monomials")


class FreePolyAlgebra(MonomialAlgebra):
    """k[y_1,...,y_r] with sigma(y_i) affine-linear over k, each image given
    as the pair (constant, coefficients) or as the data of an element of
    degree at most 1."""

    __slots__ = ()
    kind = "freepoly"
    stem = "y"

    def _image_data(self, img):
        const, coeffs = img
        coeffs = tuple(self.field.element(c) for c in coeffs)
        if len(coeffs) != self.ngens:
            raise AlgebraError("sigma image arity mismatch")
        return sum((g * c for g, c in zip(self.generators(), coeffs)),
                   self.from_scalar(const)).data

    def _check_image(self, data):
        if any(sum(w) > 1 for w in data):
            raise AlgebraError("sigma images must be affine-linear")


# --------------------------------------------------------------------------
# tensor squares, cubes, face maps


def tensor_square(A: SigmaAlgebra) -> SigmaAlgebra:
    return A.tensor_power(2)


def tensor_cube(A: SigmaAlgebra) -> SigmaAlgebra:
    return A.tensor_power(3)


class TensorContext:
    """A, A(x)A, A(x)A(x)A and the Amitsur face maps between them.

    Conventions: d1(a) = 1(x)a, d2(a) = a(x)1, dd1(a(x)b) = 1(x)a(x)b,
    dd2(a(x)b) = a(x)1(x)b, dd3(a(x)b) = a(x)b(x)1.
    """

    __slots__ = ("A", "AA", "AAA")

    def __init__(self, A: SigmaAlgebra):
        self.A = A
        self.AA = tensor_square(A)
        self.AAA = tensor_cube(A)

    def pair(self, x: AlgElement, y: AlgElement) -> AlgElement:
        return self.AA.pure_tensor(x, y)

    def d1(self, x: AlgElement) -> AlgElement:
        return self.pair(self.A.one(), x)

    def d2(self, x: AlgElement) -> AlgElement:
        return self.pair(x, self.A.one())

    def _insert(self, z: AlgElement, pos: int) -> AlgElement:
        """Insert a tensor-1 into slot pos of an AA element."""
        A = self.A
        split, join = A.split_key, A.join_keys
        unit = A.unit_data().items()
        out = {}
        for key, c in z.data.items():
            parts = split(key, 2)
            head, tail = parts[:pos], parts[pos:]
            for r, u in unit:
                out[join(head + (r,) + tail)] = c * u
        return _clean_element(self.AAA, out)

    def untensor_third(self, w: AlgElement) -> AlgElement:
        """Invert dd3 on its image: strip the trailing tensor-1 factor."""
        A = self.A
        split, join = A.split_key, A.join_keys
        r0, u0 = next(iter(A.unit_data().items()))
        out = {}
        for key, c in w.data.items():
            a, b, r = split(key, 3)
            if r == r0:
                out[join((a, b))] = c / u0
        return _clean_element(self.AA, out)

    def homotopy_form(self) -> tuple:
        """(r, u_r) for r the last key of 1 = sum u_k e_k: lambda(x) = x_r / u_r
        is a k-linear form A -> k with lambda(1) = 1, the form of the Amitsur
        contracting homotopy (contract, amitsur_audit)."""
        return list(self.A.unit_data().items())[-1]

    def contract(self, z: AlgElement) -> AlgElement:
        """(lambda(x)id)(z) for lambda of homotopy_form: the Amitsur
        contracting homotopy, 1(x)a - a(x)1 -> a - lambda(a)."""
        A = self.A
        r, u = self.homotopy_form()
        out = {}
        for key, c in z.data.items():
            a, b = A.split_key(key, 2)
            if a == r:
                out[b] = c / u
        return _clean_element(A, out)

    def dd1(self, z: AlgElement) -> AlgElement:
        return self._insert(z, 0)

    def dd2(self, z: AlgElement) -> AlgElement:
        return self._insert(z, 1)

    def dd3(self, z: AlgElement) -> AlgElement:
        return self._insert(z, 2)

    def simplicial_check(self, samples) -> bool:
        """dd3.d2 = dd2.d2, dd2.d1 = dd1.d1, dd3.d1 = dd1.d2 on the samples."""
        for x in samples:
            if self.dd3(self.d2(x)) != self.dd2(self.d2(x)):
                return False
            if self.dd2(self.d1(x)) != self.dd1(self.d1(x)):
                return False
            if self.dd3(self.d1(x)) != self.dd1(self.d2(x)):
                return False
        return True


# --------------------------------------------------------------------------
# constructors


def make_findim(field, labels, mult, unit, sigma) -> TableAlgebra:
    """Validated finite-dimensional algebra from raw tables."""
    return TableAlgebra(field, labels, mult, unit, sigma)


def make_mu_algebra(a: FieldElement, b: FieldElement) -> TableAlgebra:
    """k[y]/(y^2 - a) with sigma(y) = b*y; requires sigma(a) = a*b^2."""
    field = a.field
    b = field.element(b)
    if a.is_zero() or b.is_zero():
        raise AlgebraError("mu-algebra parameters must be units")
    if a.sigma() != a * b * b:
        raise AlgebraError("constraint sigma(a) = a*b^2 violated")
    zero, one = field.zero(), field.one()
    mult = [[[one, zero], [zero, one]],
            [[zero, one], [a, zero]]]
    sigma = [[one, zero], [zero, b]]
    return TableAlgebra(field, ("1", "y"), mult, [one, zero], sigma)


def make_split_algebra(field, m: int, perm=None) -> TableAlgebra:
    """k^m with sigma permuting the idempotent coordinates."""
    if perm is None:
        perm = list(range(m))
    if sorted(perm) != list(range(m)):
        raise AlgebraError("sigma permutation must be a bijection")
    zero, one = field.zero(), field.one()
    ident = lambda i: [one if r == i else zero for r in range(m)]
    mult = [[ident(i) if i == j else [zero] * m for j in range(m)] for i in range(m)]
    sigma = [ident(perm[i]) for i in range(m)]
    return TableAlgebra(field, tuple(f"e{i + 1}" for i in range(m)),
                        mult, [one] * m, sigma)


def make_cyclic_group_algebra(field, n: int, j: int = 1) -> TableAlgebra:
    """Group algebra k[Z/n] with sigma(g) = g^j (j may be 0: sigma collapses g)."""
    zero, one = field.zero(), field.one()
    vec = lambda r: [one if s == r else zero for s in range(n)]
    mult = [[vec((i + k) % n) for k in range(n)] for i in range(n)]
    sigma = [vec(i * j % n) for i in range(n)]
    return TableAlgebra(field, tuple(f"g{i}" for i in range(n)),
                        mult, vec(0), sigma)


def make_truncated_algebra(field, n: int, c) -> TableAlgebra:
    """k[y]/(y^n) with sigma(y) = c*y."""
    c = field.element(c)
    zero, one = field.zero(), field.one()
    vec = lambda r: [one if s == r else zero for s in range(n)]
    mult = [[vec(i + k) if i + k < n else [zero] * n for k in range(n)] for i in range(n)]
    sigma = [[c ** i if s == i else zero for s in range(n)] for i in range(n)]
    return TableAlgebra(field, tuple("1" if i == 0 else f"y^{i}" if i > 1 else "y"
                                     for i in range(n)),
                        mult, vec(0), sigma)


def direct_sum(A: TableAlgebra, B: TableAlgebra) -> TableAlgebra:
    """A x B with componentwise operations, on the basis l.e_i, r.e_j.

    Lemma: the product of two validated sigma-algebras, with unit (1, 1),
    (a, b)(a', b') = (a a', b b') and sigma(a, b) = (sigma a, sigma b), is
    one, since each identity that validate checks holds in each component.
    So the table is certified, not validated (O(m^5)), by reading the built
    raw tables back (O(m^3)): A's blocks in place, B's shifted by dim A,
    and every product across the two blocks zero.
    """
    if A.field != B.field:
        raise AlgebraError("direct sum over different fields")
    field = A.field
    ma, mb = A.dim, B.dim
    za, zb = (field.zero().value,) * ma, (field.zero().value,) * mb
    _, _, a_labels, a_mult, a_unit, a_sigma = A.cache_key()
    _, _, b_labels, b_mult, b_unit, b_sigma = B.cache_key()
    S = TableAlgebra.__new__(TableAlgebra)
    S._set_tables(field, tuple(f"l.{s}" for s in a_labels) + tuple(f"r.{s}" for s in b_labels),
                  tuple(tuple(v + zb for v in row) + (za + zb,) * mb for row in a_mult)
                  + tuple((za + zb,) * ma + tuple(za + v for v in row) for row in b_mult),
                  a_unit + b_unit, tuple(v + zb for v in a_sigma) + tuple(za + v for v in b_sigma))
    ta, tb, ts = A._tables, B._tables, S._tables
    shift = lambda pairs: tuple((r + ma, v) for r, v in pairs)
    if ts.mult != [row + [()] * mb for row in ta.mult] + [[()] * ma + list(map(shift, row))
                                                         for row in tb.mult] \
            or ts.sigma != ta.sigma + list(map(shift, tb.sigma)) \
            or ts.unit != {**ta.unit, **{r + ma: u for r, u in tb.unit.items()}}:
        raise AlgebraError("direct sum tables are not the product's")
    return S


def change_basis(A: FinDimAlgebra, P) -> TableAlgebra:
    """Rewrite A in the basis f_j = sum_i P[i][j] e_i; P invertible over k.

    The table is A's carried over by v -> sum_j v_j f_j, whose matrix is P;
    _transported certifies it by its transport lemma instead of validating
    it: P^-1 P = I (for square matrices, P P^-1 = I), and P maps the new
    coordinates of 1, of each f_i f_j (i <= j, each computed once) and of
    each sigma(f_i) to the old ones.  O(m^4) against validate's O(m^5).
    """
    field = A.field
    idx = A.index_list()
    m = len(idx)
    P = [[field.element(c) for c in row] for row in P]
    Pinv = linalg.invert_matrix(P, field)
    if Pinv is None:
        raise AlgebraError("basis change matrix is singular")
    fs = [AlgElement(A, {idx[i]: P[i][j] for i in range(m) if not P[i][j].is_zero()})
          for j in range(m)]
    return _transported(A, fs, Pinv, tuple(f"f{i + 1}" for i in range(m)), "basis change")


def _to_new(field, cols, n: int, x: AlgElement) -> list:
    """The n raw coordinates left x, for the matrix left given by its
    sparse columns: cols[k] holds the (row, raw value) pairs of the column
    of basis key k of x's algebra."""
    mul, add = field._mul, field._add
    out = [field.zero().value] * n
    for k, c in x.data.items():
        c = c.value
        for r, v in cols[k]:
            out[r] = add(out[r], mul(v, c))
    return out


def _transported(A: FinDimAlgebra, basis: list, left, labels: tuple, name: str) -> TableAlgebra:
    """The algebra on span(basis) in the validated A, with basis[k] as its
    k-th basis element, certified by transport instead of validated.

    T: k^n -> A sends v to sum v_k basis[k]; left, n rows of field elements
    with one column per basis key of A, reads candidate coordinates off an
    element of A (_to_new).  The certificate, each failure an AlgebraError:
      * left T = I, so T is injective;
      * the coordinates v read off x = 1, off each basis[i] basis[j]
        (i <= j; the table is filled symmetrically) and off each
        sigma(basis[i]) satisfy T v = x.

    Lemma (transport of structure).  Given the certificate, T maps the new
    table's unit to 1 and e_i e_j to basis[i] basis[j]; sigma on the table
    is extended semilinearly from sigma(e_i), as on A, so T is a unital
    ring map that commutes with sigma.  Each identity that validate checks
    (unit, commutativity, associativity, sigma(1) = 1, sigma
    multiplicative) is then sent by T to the same identity in A, where it
    holds, and T is injective, so it holds in the table.  The certificate
    costs O(n^2 dim A) products, validate O(n^5).
    """
    f = A.field
    mul, add, is_zero = f._mul, f._add, f._is_zero
    n = len(basis)
    one = f.one().value
    cols = {k: [(r, row[p].value) for r, row in enumerate(left) if not row[p].is_zero()]
            for p, k in enumerate(A.index_list())}
    images = [[(k, c.value) for k, c in b.data.items()] for b in basis]
    for r, b in enumerate(basis):
        if {s: w for s, w in enumerate(_to_new(f, cols, n, b)) if not is_zero(w)} != {r: one}:
            raise AlgebraError(f"{name}: the coordinates do not invert the basis")

    def coords(x: AlgElement) -> tuple:
        v = _to_new(f, cols, n, x)
        out = {}
        for pairs, c in zip(images, v):
            if not is_zero(c):
                for k, s in pairs:
                    w = mul(s, c)
                    out[k] = add(out[k], w) if k in out else w
        if {k: w for k, w in out.items() if not is_zero(w)} != \
                {k: c.value for k, c in x.data.items()}:
            raise AlgebraError(f"{name}: the basis does not carry the table")
        return tuple(v)

    unit = coords(A.one())
    mult = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            mult[i][j] = mult[j][i] = coords(basis[i] * basis[j])
    sigma = tuple(coords(b.sigma()) for b in basis)
    T = TableAlgebra.__new__(TableAlgebra)
    T._set_tables(f, labels, tuple(map(tuple, mult)), unit, sigma)
    return T


def scalar_algebra(field) -> TableAlgebra:
    """k itself as the one-dimensional k-sigma-algebra."""
    return TableAlgebra(field, ("1",), [[[field.one()]]], [field.one()],
                        [[field.one()]])


# --------------------------------------------------------------------------
# Amitsur exactness audit


@dataclass
class AmitsurReport:
    algebra_dim: int
    dim_ker_first: int
    first_kernel: list
    unit_spans_first_kernel: bool
    dim_ker_second: int
    dim_image_first: int
    composite_is_zero: bool
    exact: bool

    @property
    def ok(self) -> bool:
        return (self.exact and self.unit_spans_first_kernel
                and self.composite_is_zero and self.dim_ker_first == 1)


def amitsur_audit(A: FinDimAlgebra) -> AmitsurReport:
    """Exact verification of 0 -> k -> A -> A(x)A -> A(x)A(x)A.

    Checks ker(d2 - d1) = k*1 by exact linear algebra over the base field,
    and ker(dd3 - dd2 + dd1) = im(d2 - d1) by the contracting homotopy.

    Lemma (Amitsur 1959; Waterhouse, Introduction to Affine Group Schemes,
    section 13).  Let lambda: A -> k be k-linear with lambda(1) = 1, and put
    s2(a(x)b) = lambda(a) b and s3(a(x)b(x)c) = lambda(a) b(x)c.  For the
    maps e = d2 - d1 and f = dd3 - dd2 + dd1, s3 f - e s2 = id on A(x)A:
    s3 f(a(x)b) = lambda(a) (b(x)1 - 1(x)b) + lambda(1) a(x)b.  So z in
    ker f gives z = -e(s2 z) in im e, and with f e = 0, ker f = im e and
    dim ker f = m - dim ker e.

    The audit builds the columns of M1 (the matrix of e) and of M2 (that of
    f) through the face maps, reduces M1, and checks the lemma's identity
    on the m^2 basis tensors and f e = 0 on the m columns of M1, both on
    raw values, with lambda from TensorContext.homotopy_form.  If either
    check fails, the maps built are not the Amitsur complex's (a face-map
    bug); only then is the m^3 x m^2 matrix M2 eliminated, so that
    dim_ker_second is measured and `exact` says whether it equals
    dim im e.
    """
    if not isinstance(A, FinDimAlgebra):
        raise AlgebraError("amitsur_audit needs a finite-dimensional algebra")
    field = A.field
    tc = TensorContext(A)
    idxA = A.index_list()
    idxAA = tc.AA.index_list()
    zero = field.zero()

    first_images = {i: tc.d2(A.basis_element(i)) - tc.d1(A.basis_element(i)) for i in idxA}
    m1 = [[img.data.get(r, zero) for img in first_images.values()] for r in idxAA]
    ker1_vecs = linalg.kernel_basis(m1, field, ncols=len(idxA))
    ker1 = [A.from_vector(v) for v in ker1_vecs]
    # the one kernel vector is nonzero, so 1 spans it exactly when it is a scalar
    unit_ok = len(ker1) == 1 and ker1[0].scalar_part() is not None

    def second_map(z: AlgElement) -> AlgElement:
        return tc.dd3(z) - tc.dd2(z) + tc.dd1(z)

    second_images = {}
    for key in idxAA:
        second_images[key] = second_map(AlgElement(tc.AA, {key: field.one()}))

    # f e = 0: each column of M1 as a combination of the columns of M2
    composite_zero = all(_linear_image(second_images, img, tc.AAA).is_zero()
                         for img in first_images.values())
    dim_im1 = len(idxA) - len(ker1_vecs)
    if composite_zero and _homotopy_holds(tc, first_images, second_images):
        dim_ker2 = dim_im1
    else:
        idxAAA = tc.AAA.index_list()
        m2 = [[second_images[c].data.get(r, zero) for c in idxAA] for r in idxAAA]
        dim_ker2 = len(linalg.kernel_basis(m2, field, ncols=len(idxAA)))
    exact = composite_zero and dim_ker2 == dim_im1

    return AmitsurReport(
        algebra_dim=len(idxA),
        dim_ker_first=len(ker1_vecs),
        first_kernel=ker1,
        unit_spans_first_kernel=unit_ok,
        dim_ker_second=dim_ker2,
        dim_image_first=dim_im1,
        composite_is_zero=composite_zero,
        exact=exact,
    )


def _homotopy_holds(tc: TensorContext, first: dict, second: dict) -> bool:
    """Whether s3(f z) - e(s2 z) = z for every basis tensor z = e_a(x)e_b,
    on raw values: first[b] = e(e_b) and second[a, b] = f(e_a(x)e_b) are the
    columns of M1 and M2, lambda(x) = x_r / u_r of tc.homotopy_form.  The
    terms of f z with first slot r, over u_r, are s3(f z); s2 z is e_b / u_r
    when a = r and 0 otherwise."""
    field = tc.A.field
    mul, add, neg, is_zero = field._mul, field._add, field._neg, field._is_zero
    r, u = tc.homotopy_form()
    inv = field._inv(u.value)
    one = field.one().value
    for (a, b), col in second.items():
        out = {(y, w): mul(inv, c.value) for (x, y, w), c in col.data.items() if x == r}
        if a == r:
            for key, c in first[b].data.items():
                v = neg(mul(inv, c.value))
                out[key] = add(out[key], v) if key in out else v
        if {k: v for k, v in out.items() if not is_zero(v)} != {(a, b): one}:
            return False
    return True


# --------------------------------------------------------------------------
# algebra morphisms


class AlgebraMorphism:
    """k-sigma-algebra morphism given by the images of source.generators():
    a basis of a finite-dimensional algebra, the variables of a monomial one."""

    def __init__(self, source, target, images, check: bool = True):
        self.source = source
        self.target = target
        if len(images) != len(source.generators()):
            raise AlgebraError("need one image per generator")
        self.images = list(images)
        if check:
            self.validate()

    @classmethod
    def identity(cls, A):
        return cls(A, A, A.generators(), check=False)

    def apply(self, x: AlgElement) -> AlgElement:
        if x.algebra != self.source:
            raise AlgebraError("element not from the morphism's source")
        return self.source.evaluate(self.images, x, self.target)

    def validate(self):
        """The base field, phi(1) = 1, then sigma and products on the
        generators.

        A unit g goes to a unit with no test of its own: phi(1) = 1 and
        multiplicativity give phi(g) phi(g^-1) = phi(1) = 1.  Products of
        generators span a finite-dimensional source (its basis), so
        multiplicativity on them is multiplicativity everywhere.  The
        inverse of a Laurent generator is no such product: phi(u^-1) is
        phi(u)^-1 by definition, so there the images are tested for units.
        """
        if self.source.field != self.target.field:
            raise AlgebraError("morphism must preserve the base field")
        if self.apply(self.source.one()) != self.target.one():
            raise AlgebraError("morphism does not preserve 1")
        if self.source.monomials_are_units and not all(img.is_unit() for img in self.images):
            raise AlgebraError("morphism must map units to units")
        gens = self.source.generators()
        for g, img in zip(gens, self.images):
            if self.apply(g.sigma()) != img.sigma():
                raise AlgebraError("morphism does not commute with sigma")
            for h, img2 in zip(gens, self.images):
                if self.apply(g * h) != img * img2:
                    raise AlgebraError("morphism is not multiplicative")

    def square_apply(self, ctx_tgt: TensorContext, x: AlgElement) -> AlgElement:
        """Induced map A(x)A -> B(x)B on a tensor-square element."""
        A = self.source
        total = ctx_tgt.AA.zero()
        for key, c in x.data.items():
            a, b = A.split_key(key, 2)
            total = total + ctx_tgt.pair(self.apply(A.basis_element(a)),
                                         self.apply(A.basis_element(b))) * c
        return total


# --------------------------------------------------------------------------
# finite-dimensional faithfully flat descent


class DescentDatum:
    """phi: B(x)A -> A(x)B over the A(x)A-context, with cocycle condition.

    B is a finite-dimensional k-algebra carrying an A-algebra structure
    through iota; phi is stored column-sparse on the tensor basis.
    """

    def __init__(self, A: FinDimAlgebra, B: FinDimAlgebra, iota: AlgebraMorphism,
                 phi_images: dict, check: bool = True):
        self.A = A
        self.B = B
        self.iota = iota
        self.BA = TensorAlgebra([B, A])
        self.AB = TensorAlgebra([A, B])
        self.phi_images = {
            k: (v if isinstance(v, AlgElement) else AlgElement(self.AB, v))
            for k, v in phi_images.items()
        }
        if check:
            self.validate()

    def apply(self, x: AlgElement) -> AlgElement:
        return _linear_image(self.phi_images, x, self.AB)

    def validate(self):
        """phi is unital, multiplicative, sigma-equivariant, A(x)A-linear and
        bijective, and satisfies the cocycle condition, checked in that order.

        e_i (x) e_j in A(x)A acts on B(x)A as multiplication by
        U = iota(e_i) (x) e_j and on A(x)B by V = e_i (x) iota(e_j), so
        linearity is phi(U x) = V phi(x) for every x.  apply is k-linear by
        construction, and the checks before it make phi unital and
        multiplicative: then phi(U x) = phi(U) phi(x), and x = 1 shows that
        linearity holds exactly when phi(U) = V.  That is m^2 checks for
        m = dim A instead of m^2 |B(x)A|.

        Multiplicativity is checked on unordered pairs of basis elements
        (k1 <= k2 in basis order).  B(x)A and A(x)B are tensor products of
        validated commutative algebras, so phi(xy) and phi(x) phi(y) are
        both symmetric in x and y.  Validation as a whole costs
        m^2 + |B(x)A| (|B(x)A| + 1) / 2 products.

        The canonical datum (canonical_descent_datum) is recognized first
        and passes with no further check: B is a TensorAlgebra C0 (x) A,
        iota(e_j) = 1 (x) e_j, and every phi((c, a) (x) a2) is exactly
        a (x) (c, a2).  Lemma (slot swap): a tensor product of validated
        algebras multiplies and applies sigma slot by slot, so a
        permutation of the slots is a bijective, unital sigma-ring map, and
        iota is the coprojection onto the last slot, a sigma-algebra map.
        phi sends iota(e_i) (x) e_j to e_i (x) iota(e_j), which is
        A(x)A-linearity, and both sides of the cocycle condition send
        (c, a, a1, a2) to (a, a1, c, a2).  Every other datum, however
        close, takes the checks above.
        """
        if self._is_canonical_swap():
            return
        self.iota.validate()
        idx_ba = self.BA.index_list()
        if set(self.phi_images) != set(idx_ba):
            raise AlgebraError("phi must be defined on the whole tensor basis")
        if self.apply(self.BA.one()) != self.AB.one():
            raise AlgebraError("phi does not preserve 1")
        basis = {k: self.BA.basis_element(k) for k in idx_ba}
        # unordered pairs: both products are commutative (see the docstring)
        for n, k1 in enumerate(idx_ba):
            for k2 in idx_ba[n:]:
                if self.apply(basis[k1] * basis[k2]) != self.phi_images[k1] * self.phi_images[k2]:
                    raise AlgebraError("phi is not a ring morphism")
        for k in idx_ba:
            if self.apply(basis[k].sigma()) != self.phi_images[k].sigma():
                raise AlgebraError("phi does not commute with sigma")
        # A(x)A-linearity on the m^2 action elements alone (see the docstring)
        pairs = [(e, self.iota.apply(e)) for e in map(self.A.basis_element, self.A.index_list())]
        for e_i, iota_i in pairs:
            for e_j, iota_j in pairs:
                if self.apply(self.BA.pure_tensor(iota_i, e_j)) != self.AB.pure_tensor(e_i, iota_j):
                    raise AlgebraError("phi is not A(x)A-linear")
        zero = self.A.field.zero()
        idx_ab = self.AB.index_list()
        mat = [[self.phi_images[c].data.get(r, zero) for c in idx_ba] for r in idx_ab]
        if linalg.rank(mat, self.A.field) != len(idx_ba):
            raise AlgebraError("phi is not bijective")
        self._check_cocycle()

    def _is_canonical_swap(self) -> bool:
        """Whether this is the canonical datum of validate's slot-swap lemma."""
        A, B, iota = self.A, self.B, self.iota
        if not (isinstance(B, TensorAlgebra) and len(B.factors) == 2 and B.factors[1] == A
                and iota.source == A and iota.target == B):
            return False
        C0 = B.factors[0]
        if iota.images != [B.pure_tensor(C0.one(), e) for e in A.generators()]:
            return False
        one, images, idx_ba = A.field.one(), self.phi_images, self.BA.index_list()
        if len(images) != len(idx_ba):
            return False
        for (c, a), a2 in idx_ba:
            img = images.get(((c, a), a2))
            if img is None or img.algebra != self.AB or img.data != {(a, (c, a2)): one}:
                return False
        return True

    def _check_cocycle(self):
        """phi13 = phi23 . phi12 on every basis element of B(x)A(x)A, where
        phi_ij reads (b, a) from tensor slots i and j and writes each term
        (r, s) of phi(b (x) a) back into the same slots."""
        f = self.A.field
        mul, add, is_zero = f._mul, f._add, f._is_zero

        def phi_at(i, j, data):
            out = {}
            for key, c in data.items():
                slots = list(key)
                for (slots[i], slots[j]), v in self.phi_images[(key[i], key[j])].data.items():
                    new, w = tuple(slots), mul(v.value, c)
                    out[new] = add(out[new], w) if new in out else w
            return {k: v for k, v in out.items() if not is_zero(v)}

        one = f.one().value
        idx_a = self.A.index_list()
        for key in itertools.product(self.B.index_list(), idx_a, idx_a):
            e = {key: one}
            if phi_at(0, 2, e) != phi_at(1, 2, phi_at(0, 1, e)):
                raise AlgebraError("descent cocycle condition phi13 = phi12 . phi23 fails")


def canonical_descent_datum(C0: FinDimAlgebra, A: FinDimAlgebra) -> DescentDatum:
    """The canonical datum on B = C0 (x) A, whose invariants are C0 (x) 1."""
    B = TensorAlgebra([C0, A])
    iota = AlgebraMorphism(
        A, B, [B.pure_tensor(C0.one(), A.basis_element(j)) for j in A.index_list()],
        check=False)
    AB = TensorAlgebra([A, B])
    phi_images = {}
    one = A.field.one()
    for (c, a) in B.index_list():
        for a2 in A.index_list():
            phi_images[((c, a), a2)] = AlgElement(AB, {(a, (c, a2)): one})
    return DescentDatum(A, B, iota, phi_images, check=False)


def mu_twisted_datum(A: FinDimAlgebra, chi: AlgElement) -> DescentDatum:
    """Descent datum on A (x) k[g]/(g^2-1) twisted by a mu2 cocycle chi.

    chi lives in (A(x)A)^x with chi^2 = 1 and sigma(chi) = chi; the datum
    is the coordinate-ring form of 'multiply the torsor by chi'.
    """
    field = A.field
    zero, one = field.zero(), field.one()
    G2 = TableAlgebra(field, ("1", "g"),
                      [[[one, zero], [zero, one]], [[zero, one], [one, zero]]],
                      [one, zero], [[one, zero], [zero, one]])
    B = TensorAlgebra([A, G2])
    iota = AlgebraMorphism(
        A, B, [B.pure_tensor(A.basis_element(i), G2.one()) for i in A.index_list()],
        check=False)
    AB = TensorAlgebra([A, B])
    phi_images = {}
    for ((i, eps), j) in TensorAlgebra([B, A]).index_list():
        src = AlgElement(chi.algebra, {(i, j): one})
        if eps == 1:
            src = src * chi
        img = {}
        for (r, s), v in src.data.items():
            img[(r, (s, eps))] = v
        phi_images[((i, eps), j)] = AlgElement(AB, img)
    return DescentDatum(A, B, iota, phi_images, check=False)


@dataclass
class DescentResult:
    invariants: TableAlgebra
    basis_in_B: list
    base_change_is_isomorphism: bool


def descend_invariants(datum: DescentDatum) -> DescentResult:
    """B0 = {b in B : phi(b(x)1) = 1(x)b} as a k-sigma-algebra, and whether
    the canonical map B0 (x) A -> B is an isomorphism.

    B0's table is carried over from B by v -> sum v_k b_k on the kernel
    basis b_k, and _transported certifies it by its transport lemma instead
    of validating it: the b_k restricted to the free columns form the
    identity (so the map is injective), and the coordinates read off there
    give back 1, each b_i b_j and each sigma(b_i), which is closure too.
    """
    datum.validate()
    A, B = datum.A, datum.B
    field = A.field
    zero = field.zero()
    idxB = B.index_list()
    idxAB = datum.AB.index_list()

    cols = [datum.apply(datum.BA.pure_tensor(b, A.one())) - datum.AB.pure_tensor(A.one(), b)
            for b in map(B.basis_element, idxB)]
    mat = [[col.data.get(r, zero) for col in cols] for r in idxAB]
    ker = linalg.kernel_basis(mat, field, ncols=len(idxB))
    basis = [B.from_vector(v) for v in ker]
    # each kernel vector is one at its free column, its last nonzero entry,
    # and zero at the other free columns (_transported checks it):
    # coordinates are read off there
    free = [max(c for c, v in enumerate(vec) if not v.is_zero()) for vec in ker]
    one = field.one()
    left = [[one if c == fc else zero for c in range(len(idxB))] for fc in free]
    n0 = len(basis)
    B0 = _transported(B, basis, left, tuple(f"b{i}" for i in range(n0)), "descended invariants")

    # canonical map B0 (x) A -> B given by b0 (x) a -> b0 * iota(a)
    image_cols = [b * datum.iota.apply(A.basis_element(j)) for b in basis for j in A.index_list()]
    mat2 = [[col.data.get(r, zero) for col in image_cols] for r in idxB]
    iso = (n0 * A.dim == B.dim) and linalg.rank(mat2, field) == B.dim
    return DescentResult(invariants=B0, basis_in_B=basis, base_change_is_isomorphism=iso)
