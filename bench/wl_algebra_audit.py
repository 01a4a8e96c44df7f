"""algebra-audit: Amitsur audits and canonical descents of random algebras.

Each query builds its algebras from a per-query seed with the public
constructors (`make_mu_algebra`, `make_split_algebra`,
`make_cyclic_group_algebra`, `make_truncated_algebra`, `scalar_algebra`,
`direct_sum`, `change_basis`) and then asks one question:

  audit    `amitsur_audit(A)`;
  descend  `descend_invariants(canonical_descent_datum(C0, A))`.

Fields: QQ, GF(4), GF(9) and QQ(t);shift.  Every round audits one algebra
of each dimension 1..6 per field and descends three (dim C0, dim A) pairs
per field.  A stratum fixes the block decomposition (it alternates between
two shapes from round to round), the basis change's sparsity and the
degrees; the seed draws the nonzero values and the order of the queries.

Oracle: every nonzero algebra over a field is faithfully flat, so the
Amitsur complex is exact (`AmitsurReport.ok`, kernel k*1, the audited
dimension equal to the one built), and canonical descent recovers C0
(descended dimension dim C0, base change an isomorphism).
"""

from __future__ import annotations

import random

NAME = "algebra-audit"
ROUND_SECONDS = 1.7
FIELDS = ("QQ", "GF(4);frob^1", "GF(9);frob^1", "QQ(t);shift")
AUDIT_DIMS = (1, 2, 3, 4, 5, 6)
DESCENT_DIMS = {"QQ(t);shift": ((1, 2), (2, 1), (2, 2))}
DEFAULT_DESCENT_DIMS = ((1, 3), (2, 2), (3, 2))
# block decompositions of each dimension; round r uses shape r % 2
SHAPES = {1: (("scalar",), ("scalar",)),
          2: (("mu",), ("split2",)),
          3: (("mu", "scalar"), ("cyclic3",)),
          4: (("mu", "split2"), ("trunc2", "mu")),
          5: (("cyclic3", "mu"), ("split3", "trunc2")),
          6: (("mu", "mu", "split2"), ("cyclic4", "mu"))}


class Workload:
    def __init__(self, dc, seed: int, n_rounds: int):
        self.dc = dc
        rng = random.Random(seed)
        for desc in FIELDS:
            dc.fields.make_field(desc)
        self.rounds = [self._round(rng, r) for r in range(n_rounds)]

    def _round(self, rng, r):
        out = []
        for desc in FIELDS:
            for dim in AUDIT_DIMS:
                out.append(("audit", desc, (dim,), r % 2, rng.getrandbits(32)))
            for dims in DESCENT_DIMS.get(desc, DEFAULT_DESCENT_DIMS):
                out.append(("descend", desc, dims, r % 2, rng.getrandbits(32)))
        rng.shuffle(out)
        return out

    def stratum(self, query) -> str:
        kind, desc, dims, shape, _ = query
        return f"{kind}:{desc}:dim={'x'.join(map(str, dims))}:shape={shape}"

    def sizes(self, queries) -> dict:
        dims = {}
        for kind, desc, ds, shape, _ in queries:
            key = f"{kind}:{desc}:dim={'x'.join(map(str, ds))}"
            dims[key] = dims.get(key, 0) + 1
        return {"queries_by_field_and_dim": dims}

    # ------------------------------------------------------------ generators
    # A query's shape (blocks, sparsity, degrees) is fixed by its stratum;
    # its seed draws only the nonzero values, so the work is seed-independent.

    def _value(self, F, rng):
        """A nonzero value of fixed shape: a*t + b, a rational, or a unit."""
        if F.descriptor.startswith("QQ(t)"):
            return F.element(f"{rng.choice((1, -1, 2, -2))}*t + {rng.choice((1, -1, 2, -2))}")
        if F.finite:
            while True:
                x = F.random_element(rng)
                if not x.is_zero():
                    return x
        return F.element(rng.choice((1, -1, 2, -2, 3, -3)))

    def _block(self, F, rng, kind):
        A = self.dc.algebras
        if kind == "mu":
            c = self._value(F, rng)
            return A.make_mu_algebra(c * c, c.sigma() / c)
        if kind == "split2":
            return A.make_split_algebra(F, 2, [1, 0])
        if kind == "split3":
            return A.make_split_algebra(F, 3, [1, 2, 0])
        if kind == "cyclic3":
            return A.make_cyclic_group_algebra(F, 3, 2)
        if kind == "cyclic4":
            return A.make_cyclic_group_algebra(F, 4, 3)
        if kind == "trunc2":
            return A.make_truncated_algebra(F, 2, self._value(F, rng))
        return A.scalar_algebra(F)

    def _algebra(self, F, rng, dim, shape):
        """Direct sum of the shape's blocks, then a basis change L*U with unit
        diagonals (determinant 1, so tables stay polynomial) and alternate
        entries next to the diagonal."""
        A = self.dc.algebras
        blocks = [self._block(F, rng, kind) for kind in SHAPES[dim][shape]]
        alg = blocks[0]
        for b in blocks[1:]:
            alg = A.direct_sum(alg, b)
        if dim == 1:
            return alg
        polynomial = F.descriptor.startswith("QQ(t)") and dim <= 3
        one, zero = F.one(), F.zero()

        def const():
            return F.element(rng.choice((1, -1, 2, -2)))

        L = [[one if i == j else (self._value(F, rng) if polynomial else const())
              if i == j + 1 and i % 2 else zero for j in range(dim)] for i in range(dim)]
        U = [[one if i == j else const() if j == i + 1 and i % 2 else zero
              for j in range(dim)] for i in range(dim)]
        P = [[sum((L[i][k] * U[k][j] for k in range(1, dim)), L[i][0] * U[0][j])
              for j in range(dim)] for i in range(dim)]
        return A.change_basis(alg, P)

    # ---------------------------------------------------------------- queries

    def run(self, query):
        kind, desc, dims, shape, subseed = query
        dc = self.dc
        F = dc.fields.make_field(desc)
        rng = random.Random(subseed)
        if kind == "audit":
            rep = dc.algebras.amitsur_audit(self._algebra(F, rng, dims[0], shape))
            return {"ok": rep.ok, "dim": rep.algebra_dim, "ker1": rep.dim_ker_first}
        C0 = self._algebra(F, rng, dims[0], shape)
        A = self._algebra(F, rng, dims[1], 1 - shape)
        res = dc.algebras.descend_invariants(dc.algebras.canonical_descent_datum(C0, A))
        return {"dim": res.invariants.dim, "iso": res.base_change_is_isomorphism}

    def check(self, query, result):
        kind, desc, dims, _, _ = query
        if kind == "audit":
            return result == {"ok": True, "dim": dims[0], "ker1": 1}, False
        return result == {"dim": dims[0], "iso": True}, False
