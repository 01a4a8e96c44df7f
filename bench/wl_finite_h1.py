"""finite-h1: exhaustive cohomology over finite fields.

Each query asks one question a researcher's batch script would ask:

  z1      Z^1(A/k, G) by `enumerate_cocycles`, the torsor<->cocycle round
          trip of every cocycle, and the classes of Z^1 under `equivalent`;
  h1      |H^1(k, G)| by `classify_h1`;
  refuse  Z^1 for a group whose search space exceeds the default budget
          (diag:2 and twist:SL2 over GF(9)); the answer is a refusal.

The groups are mu2sigma, addker:L, diag:1;y^2,s(y)/y and twist:GL1; the
algebras are mu and split algebras over GF(3), GF(4), GF(5), GF(7) and
GF(9).  Every round holds the same strata; a stratum fixes the query, the
field, the group, the operator and the algebra kind.  The mu algebra's
parameters (a, b) change its cost up to fivefold (|Z^1| is 7 or 1 over
GF(7)), so each z1 stratum walks through all of the field's (a, b) pairs,
one per round, from an offset the seed draws; the seed also draws the
order of the queries.  So the work of a run does not depend on the seed.
The group of the h1 queries turns with the round.

Oracle: `fforacle` recomputes Z^1, the coboundary classes and |H^1(k, G)|
by brute force over index tables of the field's arithmetic.
"""

from __future__ import annotations

import random

import fforacle

NAME = "finite-h1"
BUDGET = 10 ** 6
ROUND_SECONDS = 2.5                 # rough time of one round, for input sizing
FIELDS = {q: f"GF({q});frob^1" for q in (3, 4, 5, 7, 9)}
OPERATORS = {"s-1": (-1,), "s+1": (1,), "s^2-1": (-1, 0)}
# z1 strata (q, group, operator, algebra).  A round has 34 queries: 12
# near-instant h1 and refusal queries, then z1 strata from 5 ms to 500 ms.
# The median falls inside the four GF(3) gl1id strata, whose split algebra
# fixes their cost, and the 90th percentile inside the four GF(4) diag
# strata, so neither sits on a step between two costs or on a stratum
# whose cost turns with the mu pair.
Z1_STRATA = (
    (3, "mu", None, "mu"), (3, "mu", None, "swap"), (3, "add", "s-1", "mu"),
    (3, "add", "s^2-1", "id"), (3, "diag", None, "mu"),
    (3, "gl1id", None, "swap"), (3, "gl1id", None, "swap"),
    (3, "gl1id", None, "swap"), (3, "gl1id", None, "swap"),
    (3, "gl1triv", None, "mu"),
    (4, "mu", None, "mu"), (4, "add", "s-1", "swap"), (4, "diag", None, "mu"),
    (4, "diag", None, "mu"), (4, "diag", None, "mu"), (4, "diag", None, "mu"),
    (4, "gl1id", None, "mu"), (4, "gl1triv", None, "id"),
    (5, "mu", None, "swap"), (5, "add", "s+1", "mu"),
    (7, "add", "s-1", "mu"), (9, "add", "s-1", "swap"))
H1_GROUPS = (("mu", None), ("add", "s-1"), ("diag", None), ("gl1id", None),
             ("add", "s^2-1"))
REFUSALS = ("diag2", "sl2")


class Workload:
    def __init__(self, dc, seed: int, n_rounds: int):
        self.dc = dc
        rng = random.Random(seed)
        self.fields = {q: dc.fields.make_field(d) for q, d in FIELDS.items()}
        self.mu_pairs = {}
        for q, F in self.fields.items():
            units = list(F.units())
            self.mu_pairs[q] = [(a, b) for a in units for b in units
                                if a.sigma() == a * b * b]
        self.offsets = [rng.randrange(len(self.mu_pairs[q])) for q, *_ in Z1_STRATA]
        self.rounds = [self._round(rng, r) for r in range(n_rounds)]
        self.tables = {}
        self._z1_oracle = {}
        self._h1_oracle = {}

    def _round(self, rng, r):
        """Round r: every z1 stratum, two h1 queries per field (the groups
        turn with r), and the refusals; mu pairs turn with r, the seed draws the
        offsets, the refusals' pairs and the order."""
        out = []
        for k, (q, group, op, alg) in enumerate(Z1_STRATA):
            pairs = self.mu_pairs[q]
            out.append(("z1", q, group, op,
                        self._alg(alg, pairs[(self.offsets[k] + r) % len(pairs)])))
        for i, q in enumerate(FIELDS):
            for j in (0, 2):
                group, op = H1_GROUPS[(r + i + j) % len(H1_GROUPS)]
                out.append(("h1", q, group, op, None))
        for group in REFUSALS:
            out.append(("refuse", 9, group, None, self._alg("mu", rng.choice(self.mu_pairs[9]))))
        rng.shuffle(out)
        return out

    @staticmethod
    def _alg(alg, pair):
        if alg == "mu":
            return ("mu",) + pair
        return ("split", (0, 1) if alg == "id" else (1, 0))

    def stratum(self, query) -> str:
        kind, q, group, op, alg = query
        return f"{kind}:GF({q}):{group}" + (f":{op}" if op else "") + \
            (f":{alg[0]}" if alg else "")

    def sizes(self, queries) -> dict:
        spaces = {}
        for kind, q, group, op, alg in queries:
            if kind == "z1":
                space = q ** 4          # dim(A (x) A) = 4, one slot
                spaces[space] = spaces.get(space, 0) + 1
        return {"z1_search_space": spaces, "algebra_dim": 2}

    # ------------------------------------------------------------- program

    def _algebra(self, F, alg):
        A = self.dc.algebras
        if alg[0] == "mu":
            return A.make_mu_algebra(alg[1], alg[2])
        return A.make_split_algebra(F, 2, list(alg[1]))

    def _group(self, F, group, op):
        dc = self.dc
        if group == "mu":
            return dc.groups.mu2sigma_group(F)
        if group == "add":
            L = dc.operators.DifferenceOperator(F, [F.element(c) for c in OPERATORS[op]])
            return dc.groups.AdditiveKernel(L)
        if group == "diag":
            fs = [dc.sigma_poly.parse_multiplicative(t, 1) for t in ("y^2", "s(y)/y")]
            return dc.groups.DiagonalMult(F, 1, fs)
        if group == "diag2":
            fs = [dc.sigma_poly.parse_multiplicative(t, 2) for t in ("y1^2", "s(y2)/y2")]
            return dc.groups.DiagonalMult(F, 2, fs)
        if group == "gl1id":
            return dc.groups.FrobeniusTwist(F, "GL", 1, 1, "id")
        if group == "gl1triv":
            return dc.groups.FrobeniusTwist(F, "GL", 1, 1, "trivial")
        if group == "sl2":
            return dc.groups.FrobeniusTwist(F, "SL", 2, 1, "trivial")
        raise ValueError(group)

    def run(self, query):
        kind, q, group, op, alg = query
        dc = self.dc
        F = dc.fields.make_field(FIELDS[q])
        G = self._group(F, group, op)
        if kind == "h1":
            rep = dc.torsors.classify_h1(G, budget=BUDGET)
            return {"kind": rep.kind, "count": rep.count}
        A = self._algebra(F, alg)
        tc = dc.algebras.TensorContext(A)
        if kind == "refuse":
            try:
                dc.cocycles.enumerate_cocycles(G, tc, budget=BUDGET)
            except dc.groups.BudgetExceeded:
                return {"refused": True}
            return {"refused": False}
        z1 = dc.cocycles.enumerate_cocycles(G, tc, budget=BUDGET)
        round_trips = []
        for chi in z1:
            X = dc.torsors.torsor_from_cocycle(chi)
            back = dc.torsors.cocycle_from_point(X, X.canonical_point())
            round_trips.append((back == chi, back))
        reps, verdicts = [], []
        for i, chi in enumerate(z1):
            for r in reps:
                res = dc.cocycles.equivalent(chi, z1[r], budget=BUDGET)
                verdicts.append((i, r, res.status))
                if res:
                    break
            else:
                reps.append(i)
        return {"z1": z1, "round_trips": round_trips,
                "classes": len(reps), "verdicts": verdicts}

    # -------------------------------------------------------------- oracle

    def _spec(self, ft, group, op):
        if group in ("mu", "diag"):
            return ("mu",)
        if group == "add":
            return ("add", tuple(ft.of(ft.field.element(c)) for c in OPERATORS[op]))
        return ("gl1", "id" if group == "gl1id" else "trivial", 1)

    def check(self, query, result):
        """(correct, undecided) for one answer."""
        kind, q, group, op, alg = query
        if kind == "refuse":
            slots = 2 if group == "diag2" else 4
            return result["refused"] == (q ** (4 * slots) > BUDGET), result["refused"]
        if q not in self.tables:
            self.tables[q] = fforacle.FieldTables(self.fields[q])
        ft = self.tables[q]
        spec = self._spec(ft, group, op)
        if kind == "h1":
            key = (q, spec)
            if key not in self._h1_oracle:
                self._h1_oracle[key] = fforacle.h1_count(ft, spec)
            return result["kind"] == "finite-list" and \
                result["count"] == self._h1_oracle[key], False
        key = (q, spec, alg[0], alg[1:])
        if key not in self._z1_oracle:
            tables = fforacle.mu_algebra_tables(ft, alg[1], alg[2]) if alg[0] == "mu" \
                else fforacle.split_algebra_tables(ft, alg[1])
            self._z1_oracle[key] = fforacle.z1_and_classes(ft, tables, spec)
        z1_set, class_of, count, tp = self._z1_oracle[key]
        basis = tp.basis[2]             # TableAlgebra indexes its basis 0..d-1
        zero = self.fields[q].zero()

        def vector(value):
            while isinstance(value, tuple):
                value = value[0]        # 1x1 matrices and 1-tuples
            return tuple(ft.of(value.data.get(b, zero)) for b in basis)

        vecs = [vector(chi.value) for chi in result["z1"]]
        ok = len(vecs) == len(set(vecs)) and set(vecs) == z1_set
        ok = ok and all(same and vector(back.value) == v
                        for (same, back), v in zip(result["round_trips"], vecs))
        if not ok or result["classes"] != count:
            return False, False
        return all(status == ("yes" if class_of[vecs[i]] == class_of[vecs[r]] else "no")
                   for i, r, status in result["verdicts"]), False
