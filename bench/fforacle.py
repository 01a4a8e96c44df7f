"""Brute-force oracle for the finite-field workload.

It trusts only the base field's arithmetic: addition, multiplication and
sigma of `FieldElement`s are read once into index tables, and everything
else -- tensor powers of an algebra, face maps, group membership, the
cocycle identity, coboundary orbits and orbit counts of H^1(k, G) -- is
recomputed here from the structure constants, without calling the
program's groups, cocycles or torsors code.

Group specs are tuples:
  ("mu",)              g^2 = 1, sigma(g) = g (mu2sigma, and diag:1;y^2,s(y)/y)
  ("add", coeffs)      L(g) = 0 for L = s^n + sum coeffs[i] s^i
  ("gl1", psi, d)      g a unit with sigma^d(g) = g (psi "id") or = 1 ("trivial")
"""

from __future__ import annotations

import itertools


class FieldTables:
    """GF(q) as indices 0..q-1 with add, mul, neg, inv and sigma tables."""

    def __init__(self, field):
        self.field = field
        self.elems = list(field.elements())
        self.q = len(self.elems)
        index = {e.value: i for i, e in enumerate(self.elems)}
        self.index = index
        rng = range(self.q)
        self.add = [[index[(self.elems[a] + self.elems[b]).value] for b in rng] for a in rng]
        self.mul = [[index[(self.elems[a] * self.elems[b]).value] for b in rng] for a in rng]
        self.zero = index[field.zero().value]
        self.one = index[field.one().value]
        self.neg = [index[(-e).value] for e in self.elems]
        self.sig = [index[e.sigma().value] for e in self.elems]
        self.inv = [None if i == self.zero else
                    next(j for j in rng if self.mul[i][j] == self.one) for i in rng]

    def of(self, x) -> int:
        return self.index[x.value]


def mu_algebra_tables(ft: FieldTables, a, b):
    """k[y]/(y^2 - a) with sigma(y) = b*y, basis (1, y)."""
    one, ai, bi = ft.one, ft.of(a), ft.of(b)
    mult = [[[(0, one)], [(1, one)]], [[(1, one)], [(0, ai)]]]
    return mult, [[(0, one)], [(1, bi)]], [(0, one)]


def split_algebra_tables(ft: FieldTables, perm):
    """k^m with sigma(e_i) = e_perm[i], basis of idempotents."""
    m = len(perm)
    one = ft.one
    mult = [[[(i, one)] if i == j else [] for j in range(m)] for i in range(m)]
    return mult, [[(perm[i], one)] for i in range(m)], [(i, one) for i in range(m)]


class TensorPowers:
    """A, A(x)A and A(x)A(x)A of a finite-dimensional algebra, as index vectors.

    The algebra comes as tables over basis positions 0..d-1: mult[i][j] and
    sig[i] are lists of (position, coefficient index), unit likewise.
    """

    def __init__(self, tables, ft: FieldTables):
        mult1, sig1, unit1 = tables
        self.ft = ft
        d = len(mult1)
        self.d = d
        self.basis = {n: list(itertools.product(range(d), repeat=n)) for n in (1, 2, 3)}
        self.pos = {n: {b: i for i, b in enumerate(self.basis[n])} for n in (1, 2, 3)}
        self.mult = {n: [[self._combine([mult1[a][b] for a, b in zip(x, y)], n)
                          for y in self.basis[n]] for x in self.basis[n]]
                     for n in (1, 2, 3)}
        self.sigt = {n: [self._combine([sig1[a] for a in x], n) for x in self.basis[n]]
                     for n in (1, 2, 3)}
        self.unit1 = unit1

    def _combine(self, parts, n):
        """Tensor product of n coefficient lists [(basis index, coeff)]."""
        ft = self.ft
        out = {}
        for combo in itertools.product(*parts):
            c = ft.one
            for _, ci in combo:
                c = ft.mul[c][ci]
            if c == ft.zero:
                continue
            key = self.pos[n][tuple(r for r, _ in combo)]
            out[key] = ft.add[out.get(key, ft.zero)][c]
        return [(k, v) for k, v in out.items() if v != ft.zero]

    # ------------------------------------------------------------ arithmetic

    def mul(self, n, u, v):
        ft = self.ft
        z = ft.zero
        out = [z] * len(u)
        table = self.mult[n]
        for i, a in enumerate(u):
            if a == z:
                continue
            row = table[i]
            for j, b in enumerate(v):
                if b == z:
                    continue
                c = ft.mul[a][b]
                for r, s in row[j]:
                    out[r] = ft.add[out[r]][ft.mul[c][s]]
        return tuple(out)

    def sigma(self, n, u, power=1):
        ft = self.ft
        for _ in range(power):
            out = [ft.zero] * len(u)
            for i, a in enumerate(u):
                if a == ft.zero:
                    continue
                sa = ft.sig[a]
                for r, s in self.sigt[n][i]:
                    out[r] = ft.add[out[r]][ft.mul[sa][s]]
            u = tuple(out)
        return u

    def add(self, u, v):
        return tuple(self.ft.add[a][b] for a, b in zip(u, v))

    def scale(self, c, u):
        return tuple(self.ft.mul[c][a] for a in u)

    def one(self, n):
        """The unit of the n-th tensor power."""
        parts = [self.unit1] * n
        out = [self.ft.zero] * (self.d ** n)
        for k, v in self._combine(parts, n):
            out[k] = v
        return tuple(out)

    def insert_unit(self, z, slot):
        """Face map from A^(x)(n) to A^(x)(n+1): a tensor-1 in `slot`."""
        ft = self.ft
        n = {self.d: 1, self.d ** 2: 2}[len(z)]
        out = [ft.zero] * (self.d ** (n + 1))
        for i, a in enumerate(z):
            if a == ft.zero:
                continue
            b = self.basis[n][i]
            for r, u in self.unit1:
                key = self.pos[n + 1][b[:slot] + (r,) + b[slot:]]
                out[key] = ft.add[out[key]][ft.mul[a][u]]
        return tuple(out)

    def is_unit(self, n, u) -> bool:
        """Left multiplication by u is invertible (Gaussian elimination)."""
        ft = self.ft
        size = len(u)
        cols = [self.mul(n, u, tuple(ft.one if r == c else ft.zero for r in range(size)))
                for c in range(size)]
        m = [[cols[c][r] for c in range(size)] for r in range(size)]
        rank = 0
        for c in range(size):
            piv = next((r for r in range(rank, size) if m[r][c] != ft.zero), None)
            if piv is None:
                return False
            m[rank], m[piv] = m[piv], m[rank]
            inv = ft.inv[m[rank][c]]
            for r in range(size):
                if r != rank and m[r][c] != ft.zero:
                    f = ft.mul[m[r][c]][inv]
                    m[r] = [ft.add[x][ft.neg[ft.mul[f][y]]] for x, y in zip(m[r], m[rank])]
            rank += 1
        return True


def _member(tp: TensorPowers, spec, n, g) -> bool:
    ft = tp.ft
    kind = spec[0]
    if kind == "mu":
        return tp.sigma(n, g) == g and tp.mul(n, g, g) == tp.one(n)
    if kind == "add":
        coeffs = spec[1]
        total = tp.sigma(n, g, len(coeffs))
        for i, c in enumerate(coeffs):
            total = tp.add(total, tp.scale(c, tp.sigma(n, g, i)))
        return all(x == ft.zero for x in total)
    if kind == "gl1":
        _, psi, d = spec
        target = g if psi == "id" else tp.one(n)
        return tp.sigma(n, g, d) == target and tp.is_unit(n, g)
    raise ValueError(f"no oracle for group spec {spec!r}")


def z1_and_classes(ft: FieldTables, tables, spec):
    """(Z^1 as a set of A(x)A index vectors, class id of each, class count)."""
    tp = TensorPowers(tables, ft)
    additive = spec[0] == "add"
    z1 = []
    for g in itertools.product(range(ft.q), repeat=tp.d ** 2):
        if not _member(tp, spec, 2, g):
            continue
        a, b, c = (tp.insert_unit(g, s) for s in (0, 1, 2))
        rhs = tp.add(a, c) if additive else tp.mul(3, a, c)
        if b == rhs:
            z1.append(g)
    points = [x for x in itertools.product(range(ft.q), repeat=tp.d)
              if _member(tp, spec, 1, x)]
    one1 = tp.one(1)
    acts = []
    for x in points:
        d1, d2 = tp.insert_unit(x, 0), tp.insert_unit(x, 1)
        if additive:
            acts.append((d1, tuple(ft.neg[v] for v in d2)))
        else:
            x_inv = next(y for y in points if tp.mul(1, x, y) == one1)
            acts.append((d1, tp.insert_unit(x_inv, 1)))
    class_of = {}
    count = 0
    for g in z1:
        if g in class_of:
            continue
        for left, right in acts:
            h = tp.add(tp.add(left, g), right) if additive else \
                tp.mul(2, tp.mul(2, left, g), right)
            class_of[h] = count
        count += 1
    return set(z1), class_of, count, tp


# ---------------------------------------------------------------- H^1(k, G)


def h1_count(ft: FieldTables, spec) -> int:
    """|H^1(k, G)| over the finite field k by orbit enumeration."""
    units = [i for i in range(ft.q) if i != ft.zero]
    kind = spec[0]
    if kind == "mu":
        # torsors x^2 = a, sigma(x) = b x; (a, b) ~ (l^2 a, sigma(l)/l b)
        space = [(a, b) for a in units for b in units
                 if ft.sig[a] == ft.mul[a][ft.mul[b][b]]]
        return _orbit_count(space, lambda p, l: (
            ft.mul[ft.mul[l][l]][p[0]], ft.mul[ft.mul[ft.sig[l]][ft.inv[l]]][p[1]]), units)
    if kind == "add":
        # k / L(k)
        coeffs = spec[1]

        def L(x):
            s = [x]
            for _ in range(len(coeffs)):
                s.append(ft.sig[s[-1]])
            total = s[-1]
            for c, y in zip(coeffs, s):
                total = ft.add[total][ft.mul[c][y]]
            return total

        image = {L(x) for x in range(ft.q)}
        return ft.q // len(image)
    if kind == "gl1":
        _, psi, d = spec

        def sig_d(x):
            for _ in range(d):
                x = ft.sig[x]
            return x

        if psi == "trivial":
            return 1
        # a ~ c^{-1} a sigma^d(c)
        return _orbit_count(units, lambda a, c: ft.mul[ft.mul[ft.inv[c]][a]][sig_d(c)],
                            units)
    raise ValueError(f"no oracle for group spec {spec!r}")


def _orbit_count(space, act, actors) -> int:
    seen = set()
    count = 0
    for x in space:
        if x in seen:
            continue
        seen.update(act(x, l) for l in actors)
        count += 1
    return count
