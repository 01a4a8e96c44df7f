"""Presentations of sigma-algebraic groups and their points over sigma-algebras.

Four presentation kinds cover every family classified here:

  * MatrixGroup    -- sigma-closed subgroups of GL_n cut out by
                      sigma-polynomial relations (with det^-1 available
                      as an auxiliary variable);
  * AdditiveKernel -- {g : L(g) = 0} for a monic linear difference
                      operator L (L = None is the full additive group);
  * DiagonalMult   -- {g in (R^x)^n : f_i(g) = 1} for multiplicative
                      functions f_i;
  * FrobeniusTwist -- {g in GL_n or SL_n : sigma^d(g) = psi(g)} for psi
                      one of 1, g, (g^T)^-1.

ProductGroup glues presentations into direct products.  Group elements
are plain values: an algebra element, a tuple of them, a matrix of
them, or a tuple of component values for products.

Over a finite base field, enumerate_points lists G(R) for a
finite-dimensional R.  It charges the whole search space
q^(dim R * slots) to the budget first, then solves the relations that are
sigma-semilinear (L(y) = 0, sigma(y) = y, sigma^a(y_i) = sigma^b(y_j),
sigma^d(g) = g) as F_p-linear equations on R^slots and streams only their
kernel, in the order of the full product, through the membership test.
"""

from __future__ import annotations

import functools
import itertools

from . import linalg
from .algebras import AlgElement, FinDimAlgebra, SigmaAlgebra, _clean_element
from .fields import make_field
from .operators import DifferenceOperator
from .sigma_poly import MultiplicativeFunction, SigmaPolynomial


class GroupError(ValueError):
    pass


class BudgetExceeded(GroupError):
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


def _inv_entry(x):
    if isinstance(x, AlgElement):
        return x.maybe_inverse()
    return None if x.is_zero() else x.inv()


def mat_maybe_inverse(x):
    """Adjugate inverse; None when det is not a unit."""
    n = len(x)
    d = mat_det(x)
    dinv = _inv_entry(d)
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


# --------------------------------------------------------------------------
# presentations


class GroupPresentation:
    kind = "abstract"
    name: str | None = None


class MatrixGroup(GroupPresentation):
    kind = "matrix"

    def __init__(self, field, n: int, relations, name: str | None = None):
        self.field = field
        self.n = n
        self.relations = tuple(relations)
        for rel in self.relations:
            if not isinstance(rel, SigmaPolynomial):
                raise GroupError("relations must be sigma-polynomials")
            if rel.nvars not in (n * n, n * n + 1):
                raise GroupError("relation arity must be n^2 (+1 for det inverse)")
        self.name = name


class AdditiveKernel(GroupPresentation):
    kind = "additive"

    def __init__(self, L: DifferenceOperator | None, field=None):
        if L is None and field is None:
            raise GroupError("the full additive group needs an explicit field")
        self.L = L
        self.field = field if L is None else L.field
        self.name = "Ga" if L is None else None


class DiagonalMult(GroupPresentation):
    kind = "diagonal"

    def __init__(self, field, n: int, functions, name: str | None = None):
        self.field = field
        self.n = n
        self.functions = tuple(functions)
        for f in self.functions:
            if not isinstance(f, MultiplicativeFunction) or f.nvars != n:
                raise GroupError("defining functions must be multiplicative of arity n")
        self.name = name


PSI_SPECS = ("trivial", "id", "transposeinv")


class FrobeniusTwist(GroupPresentation):
    kind = "twist"

    def __init__(self, field, base: str, n: int, d: int, psi: str):
        if base not in ("GL", "SL"):
            raise GroupError("base must be GL or SL")
        if psi not in PSI_SPECS:
            raise GroupError(f"psi must be one of {PSI_SPECS}")
        if d < 1:
            raise GroupError("d must be >= 1")
        self.field = field
        self.base = base
        self.n = n
        self.d = d
        self.psi = psi

    def psi_apply(self, x, R):
        if self.psi == "trivial":
            return mat_identity(R, self.n)
        if self.psi == "id":
            return x
        return mat_inverse(mat_transpose(x))


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


@functools.lru_cache(maxsize=None)
def mu2sigma_group(field) -> MatrixGroup:
    """{g : g^2 = 1, sigma(g) = g} inside Gm; one presentation per field,
    shared by every caller (fields themselves are built once per descriptor)."""
    y = SigmaPolynomial.variable(field, 1, 0)
    one = SigmaPolynomial.constant(field, 1, 1)
    return MatrixGroup(field, 1, [y * y - one, y.shift() - y], name="mu2sigma")


def ambient_gl(field, n: int) -> MatrixGroup:
    return MatrixGroup(field, n, [], name=f"GL{n}")


def ambient_ga(field) -> AdditiveKernel:
    return AdditiveKernel(None, field=field)


def kernel_of_sigma_power(field, base: str, n: int, d: int) -> FrobeniusTwist:
    """N = {g : sigma^d(g) = 1} as a twist presentation with trivial psi."""
    return FrobeniusTwist(field, base, n, d, "trivial")


# --------------------------------------------------------------------------
# membership, group law, enumeration


def _as_matrix(x):
    if isinstance(x, tuple) and x and isinstance(x[0], tuple):
        return x
    return ((x,),)


def contains(G: GroupPresentation, x, R: SigmaAlgebra) -> bool:
    if isinstance(G, ProductGroup):
        if not isinstance(x, tuple) or len(x) != len(G.factors):
            raise GroupError("shape mismatch for product element")
        return all(contains(f, c, R) for f, c in zip(G.factors, x))
    if isinstance(G, AdditiveKernel):
        if not isinstance(x, AlgElement):
            raise GroupError("additive elements are algebra scalars")
        if G.L is None:
            return True
        return G.L.apply(x).is_zero()
    if isinstance(G, DiagonalMult):
        if not isinstance(x, tuple) or len(x) != G.n:
            raise GroupError("shape mismatch for diagonal element")
        if not all(e.is_unit() for e in x):
            return False
        return all(f.eval(x) == R.one() for f in G.functions)
    if isinstance(G, MatrixGroup):
        m = _as_matrix(x)
        if len(m) != G.n or any(len(row) != G.n for row in m):
            raise GroupError("matrix shape mismatch")
        entries = tuple(e for row in m for e in row)
        # relations without the det-inverse variable are cheap; test them
        # before paying for the invertibility solve
        need_aux = []
        for rel in G.relations:
            if rel.nvars == G.n * G.n:
                if not rel.eval(entries).is_zero():
                    return False
            else:
                need_aux.append(rel)
        det = mat_det(m)
        det_inv = _inv_entry(det)
        if det_inv is None:
            return False
        for rel in need_aux:
            if not rel.eval(entries + (det_inv,)).is_zero():
                return False
        return True
    if isinstance(G, FrobeniusTwist):
        m = _as_matrix(x)
        if len(m) != G.n or any(len(row) != G.n for row in m):
            raise GroupError("matrix shape mismatch")
        det = mat_det(m)
        det_inv = _inv_entry(det)
        if det_inv is None:
            return False
        if G.base == "SL" and det != R.one():
            return False
        return mat_eq(mat_sigma(m, G.d), G.psi_apply(m, R))
    raise GroupError(f"unknown presentation {G.kind}")


def group_identity(G: GroupPresentation, R: SigmaAlgebra):
    if isinstance(G, ProductGroup):
        return tuple(group_identity(f, R) for f in G.factors)
    if isinstance(G, AdditiveKernel):
        return R.zero()
    if isinstance(G, DiagonalMult):
        return tuple(R.one() for _ in range(G.n))
    return mat_identity(R, G.n)


def group_mul(G: GroupPresentation, x, y):
    if isinstance(G, ProductGroup):
        return tuple(group_mul(f, a, b) for f, a, b in zip(G.factors, x, y))
    if isinstance(G, AdditiveKernel):
        return x + y
    if isinstance(G, DiagonalMult):
        return tuple(a * b for a, b in zip(x, y))
    return mat_mul(_as_matrix(x), _as_matrix(y))


def group_inv(G: GroupPresentation, x):
    if isinstance(G, ProductGroup):
        return tuple(group_inv(f, a) for f, a in zip(G.factors, x))
    if isinstance(G, AdditiveKernel):
        return -x
    if isinstance(G, DiagonalMult):
        return tuple(a.inverse() for a in x)
    return mat_inverse(_as_matrix(x))


def _is_scalar_group(G) -> bool:
    return (isinstance(G, (MatrixGroup, FrobeniusTwist)) and G.n == 1)


def scalar_value(G, x):
    """Unwrap a 1x1 matrix element."""
    if _is_scalar_group(G):
        return _as_matrix(x)[0][0]
    return x


def enumerate_points(G: GroupPresentation, R: FinDimAlgebra, budget: int = 10 ** 6,
                     keep=None):
    """Complete list of G(R) for finite base fields, deterministic order;
    with a predicate `keep`, only the points of G(R) it accepts, so a caller
    that wants a small subset never holds all of G(R) at once.

    The search is charged q^(dim R * slots) against the budget before any
    work, whatever the relations cut away: BudgetExceeded when that is
    larger.  Then the relations of G that are sigma-semilinear, hence
    F_p-linear on R^slots, are solved over the prime field (see
    _linear_relations), and only their kernel is streamed, each point
    still checked by contains() against the full presentation.  The list
    is in lexicographic order of (slot, basis index, coefficient of the
    field value with its highest digit first): the order of
    itertools.product over the slots, over R's basis and over
    field.elements(), filtered by membership.
    """
    if isinstance(G, ProductGroup):
        parts = [enumerate_points(f, R, budget) for f in G.factors]
        return [combo for combo in itertools.product(*parts) if keep is None or keep(combo)]
    field = R.field
    if not field.finite:
        raise GroupError("point enumeration needs a finite base field")
    dim = R.dim
    if isinstance(G, AdditiveKernel):
        slots = 1
    elif isinstance(G, DiagonalMult):
        slots = G.n
    else:
        slots = G.n * G.n
    total = field.size ** (dim * slots)
    if total > budget:
        raise BudgetExceeded(f"search space {total} exceeds budget {budget}")
    if isinstance(G, AdditiveKernel):
        shape = lambda ys: ys[0]
    elif isinstance(G, DiagonalMult):
        shape = tuple
    else:
        n = G.n
        shape = lambda ys: tuple(ys[i * n:(i + 1) * n] for i in range(n))
    out = []
    for ys in _kernel_points(R, slots, _linear_relations(G)):
        x = shape(ys)
        if contains(G, x, R) and (keep is None or keep(x)):
            out.append(x)
    return out


def _linear_relations(G: GroupPresentation):
    """The sigma-semilinear relations implied by membership in G, as one map
    from the tuple of slot values to a list of elements of R that vanish on
    G(R); None when G has none.  Each is F_p-linear:

      * AdditiveKernel with L: L(y);
      * MatrixGroup: its relations of arity n^2 whose monomials are single
        variables to the first power, without a constant term;
      * DiagonalMult: sigma^a(y_i) - sigma^b(y_j) for each function
        sigma^a(y_i) / sigma^b(y_j) (one exponent +1, one -1, on units);
      * FrobeniusTwist with psi = id: sigma^d(g) - g entry by entry.
    """
    if isinstance(G, AdditiveKernel):
        L = G.L
        return None if L is None else (lambda ys: [L.apply(ys[0])])
    if isinstance(G, MatrixGroup):
        rels = [rel for rel in G.relations
                if rel.nvars == G.n * G.n and rel.terms
                and all(len(mono) == 1 and mono[0][1] == 1 for mono in rel.terms)]
        return (lambda ys: [rel.eval(ys) for rel in rels]) if rels else None
    if isinstance(G, DiagonalMult):
        pairs = []
        for f in G.functions:
            entries = sorted((e, i, j) for j, alpha in enumerate(f.exps)
                             for i, e in enumerate(alpha) if e)
            if [e for e, _, _ in entries] == [-1, 1]:
                (_, ib, b), (_, ia, a) = entries
                pairs.append((ia, a, ib, b))
        if not pairs:
            return None
        return lambda ys: [ys[ia].sigma(a) - ys[ib].sigma(b) for ia, a, ib, b in pairs]
    if isinstance(G, FrobeniusTwist) and G.psi == "id":
        d = G.d
        return lambda ys: [y.sigma(d) - y for y in ys]
    return None


def _kernel_points(R: FinDimAlgebra, slots: int, relations):
    """Stream the slot tuples in R^slots on which the F_p-linear map
    `relations` vanishes (all of R^slots when it is None), in the order
    enumerate_points promises.

    A GF(p^m) value is its m-digit coefficient tuple, so a tuple of slot
    values is a vector of slots*dim*m digits mod p; the order sorts these by
    (slot, basis index, digit from the highest).  With the kernel basis in
    reduced echelon form for that order (leading entries 1, each leading
    column zero in the other vectors), the point's digit in the leading
    column of basis vector i is its coefficient a_i, so the points come in
    order when the coefficients run through itertools.product.  Without
    relations the kernel is everything, and the product runs over the
    coordinates' field elements directly, which is the same order.
    """
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
    """The kernel points as tuples of slots*dim coordinates, in order: a
    FieldElement per nonzero coordinate, None per zero one."""
    field = R.field
    p, m = field.p, field.m
    size = slots * R.dim * m
    # digit positions from the most significant; a position is
    # (slot * dim + basis index) * m + digit, the digit counted from the lowest
    order = [c * m + k for c in range(slots * R.dim) for k in reversed(range(m))]
    basis = _kernel_basis(R, slots, relations, order)
    multiples = [[tuple(a * x % p for x in v) for a in range(p)] for v in basis]
    zero, zero_value, wrap = (0,) * size, (0,) * m, field.wrap
    starts = range(0, size, m)
    for combo in itertools.product(*multiples):
        vec = [sum(col) % p for col in zip(zero, *combo)]
        values = [tuple(vec[i:i + m]) for i in starts]
        yield [None if v == zero_value else wrap(v) for v in values]


def _kernel_basis(R: FinDimAlgebra, slots: int, relations, order) -> list:
    """Reduced echelon basis of the kernel of `relations` on the digit
    vectors of R^slots, for the significance order `order`, most
    significant leading column first.

    linalg.kernel_basis over GF(p) gives, for each free column c, the
    vector with 1 at c, 0 at the other free columns and entries only at
    pivot columns before c.  Eliminating with the least significant digit
    first makes c the leading column of its vector.
    """
    field = R.field
    p, m = field.p, field.m
    idx = R.index_list()
    gfp = make_field(f"GF({p}^1);frob^1")
    zero_point = [R.zero()] * slots
    cols = []
    for pos in reversed(order):
        chunk, k = divmod(pos, m)
        s, b = divmod(chunk, len(idx))
        ys = list(zero_point)
        ys[s] = _clean_element(R, {idx[b]: field.wrap(tuple(int(i == k) for i in range(m)))})
        digits = []
        for z in relations(tuple(ys)):
            for r in idx:
                c = z.data.get(r)
                digits.extend(c.value if c is not None else (0,) * m)
        cols.append(digits)
    rows = [[gfp.element(col[r]) for col in cols] for r in range(len(cols[0]))]
    kernel = linalg.kernel_basis(rows, gfp, ncols=len(cols))
    basis = []
    for vec in reversed(kernel):
        v = [0] * len(order)
        for c, x in enumerate(vec):
            v[order[-1 - c]] = x.value[0]
        basis.append(tuple(v))
    return basis
