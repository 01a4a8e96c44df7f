"""cli-mix: many small queries through the front door.

Each query calls `dcoh.cli.main(argv)` in process with standard output
captured, then sends the printed line to `dcoh verify --line`.  A round
covers all eleven query subcommands (field-eval, cocycle-check,
cocycle-equiv, classify, iso, torsor-points, normalize, delta,
audit-amitsur, audit-exactness, descend) with seeded parameters, plus two
queries with a small `--budget` that must come back undecided.  The three
descents are the slowest queries of a round (3 of 20), so the 90th
percentile falls inside them rather than on the step below them.

Oracle: a hand-written table gives each template its expected exit code
and verdict, computed from the inputs with field arithmetic alone (orbit
membership, square roots and Frobenius images by enumeration, parity of
substitution-field inputs, Fraction arithmetic).  `verify` may answer
true or unverified for a correct line, never rejected.  Repeats of one
argv must print the same bytes, and the digest of every distinct output
line is recorded so that two runs of one seed can be compared.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction

import fforacle

NAME = "cli-mix"
ROUND_SECONDS = 0.3
MAX_DISTINCT_ROUNDS = 8
GF = {q: f"GF({q});frob^1" for q in (3, 5, 7, 9)}
SHIFT = "QQ(t);shift"
SUBST = "QQ(t);subst:t^2"


def _orbit_has(ft, pair1, pair2):
    """(a, b) ~ (a', b') under l: (l^2 a, sigma(l)/l b), by enumeration."""
    (a1, b1), (a2, b2) = pair1, pair2
    for l in range(ft.q):
        if l == ft.zero:
            continue
        if ft.mul[ft.mul[l][l]][a1] == a2 and \
                ft.mul[ft.mul[ft.sig[l]][ft.inv[l]]][b1] == b2:
            return True
    return False


class Workload:
    def __init__(self, dc, seed: int, n_rounds: int):
        self.dc = dc
        rng = random.Random(seed)
        self.fields = {q: dc.fields.make_field(d) for q, d in GF.items()}
        self.ft = {q: fforacle.FieldTables(F) for q, F in self.fields.items()}
        self.shift = dc.fields.make_field(SHIFT)
        self.mu_pairs = {q: [(a, b) for a in range(ft.q) for b in range(ft.q)
                             if a != ft.zero and b != ft.zero
                             and ft.sig[a] == ft.mul[a][ft.mul[b][b]]]
                         for q, ft in self.ft.items()}
        self.rounds = [self._round(rng, r) for r in range(min(n_rounds, MAX_DISTINCT_ROUNDS))]
        self.seen = {}              # argv -> (line, verify line)

    def _s(self, q, i):
        return str(self.ft[q].elems[i])

    # -------------------------------------------------------- query table
    # each template returns (argv, expected exit code, check kind, expected)

    def _templates(self, rng, r):
        """Round r.  Choices that change the work (field, group, yes or no)
        turn with r; the seed draws the values."""
        qs = list(GF)
        turns = iter(range(r, r + 100))

        def turn(options):
            return options[next(turns) % len(options)]

        out = []
        a, b, c = rng.randint(-9, 9), rng.randint(1, 9), rng.randint(-9, 9)
        out.append((["field-eval", "--field", "QQ", "--expr", f"{a}/{b} + {c}*{c}"],
                    0, "result", str(Fraction(a, b) + c * c)))
        k, n = rng.randint(0, 20), rng.randint(0, 8)
        F9 = self.fields[9]
        out.append((["field-eval", "--field", GF[9], "--expr", f"w^{k} + {n}"],
                    0, "result", str(F9.named_element("w") ** k + F9.element(n))))
        q = turn(qs)
        pa = rng.choice(self.mu_pairs[q])
        mu = f"mu:{self._s(q, pa[0])},{self._s(q, pa[1])}"
        out.append((["cocycle-check", "--field", GF[q], "--algebra", mu, "--group",
                     "mu2sigma", "--chi", "(1/a)*(y#y)"], 0, "result", True))
        ft = self.ft[q]
        trivial = (ft.one, ft.one)
        out.append((["cocycle-equiv", "--field", GF[q], "--algebra", mu, "--group",
                     "mu2sigma", "--chi", "1", "--chi2", "(1/a)*(y#y)"],
                    0, "result", _orbit_has(ft, trivial, pa)))
        out.append((["normalize", "--field", GF[q], "--algebra", mu, "--group",
                     "mu2sigma", "--chi", "(1/a)*(y#y)"], 0, "mu-orbit", (q, pa)))
        q = turn(qs)
        group = turn(("mu2sigma", "addker:s-1"))
        spec = ("mu",) if group == "mu2sigma" else ("add", (self.ft[q].neg[self.ft[q].one],))
        out.append((["classify", "--field", GF[q], "--group", group],
                    0, "classes", fforacle.h1_count(self.ft[q], spec)))
        q = turn(qs)
        ft = self.ft[q]
        p1, p2 = rng.choice(self.mu_pairs[q]), rng.choice(self.mu_pairs[q])
        out.append((["iso", "--field", GF[q], "--family", "mu",
                     "--lhs", f"{self._s(q, p1[0])},{self._s(q, p1[1])}",
                     "--rhs", f"{self._s(q, p2[0])},{self._s(q, p2[1])}"],
                    0, "result", _orbit_has(ft, p1, p2)))
        units = [i for i in range(ft.q) if i != ft.zero]
        a1, a2 = rng.choice(units), rng.choice(units)
        translates = any(ft.mul[ft.mul[ft.inv[c]][a1]][ft.sig[c]] == a2
                         for c in range(ft.q) if c != ft.zero)
        out.append((["iso", "--field", GF[q], "--family", "twist", "--twist",
                     "GL1;d=1;psi=id", "--lhs", self._s(q, a1), "--rhs", self._s(q, a2)],
                    0, "result", translates))
        x0 = self._shift_element(rng, turn((1, 2, 3)))
        yes = turn((True, False))
        rhs = str(x0.sigma() - x0) if yes else f"1/(t+{rng.randint(0, 5)})"
        out.append((["iso", "--field", SHIFT, "--family", "add", "--op", "s-1",
                     "--lhs", "0", "--rhs", rhs], 0, "result", yes))
        x0 = self._shift_element(rng, turn((1, 2, 3)))
        yes = turn((False, True))
        a_txt = str(x0.sigma() - x0) if yes else f"2/(t+{rng.randint(0, 5)})"
        out.append((["torsor-points", "--field", SHIFT, "--torsor", f"add:s-1;{a_txt}"],
                    0, "result", yes))
        q = turn(qs)
        ft = self.ft[q]
        pa = rng.choice(self.mu_pairs[q])
        has_point = any(ft.mul[x][x] == pa[0] and ft.sig[x] == ft.mul[pa[1]][x]
                        for x in range(ft.q))
        out.append((["torsor-points", "--field", GF[q], "--torsor",
                     f"mu:{self._s(q, pa[0])},{self._s(q, pa[1])}"], 0, "result", has_point))
        d = turn((1, 2))
        c0, c1, c2 = rng.randint(1, 5), rng.randint(-5, 5), rng.randint(-5, 5)
        even = turn((True, False, False, True))
        x = f"{c0}*t^{4 if even else 3} + {c1}*t^2 + {c2}" if d == 1 else \
            f"{c0}*t^{8 if even else 6} + {c1}*t^4 + {c2}"
        out.append((["delta", "--field", SUBST, "--d", str(d), "--x", x],
                    0, "delta", even))
        q = turn(qs)
        m = turn((2, 3))
        perm = list(range(m))
        rng.shuffle(perm)
        out.append((["audit-amitsur", "--field", GF[q], "--algebra",
                     f"split:{m};perm={','.join(map(str, perm))}"], 0, "audit", m))
        pa = rng.choice(self.mu_pairs[q])
        out.append((["audit-amitsur", "--field", GF[q], "--algebra",
                     f"mu:{self._s(q, pa[0])},{self._s(q, pa[1])}"], 0, "audit", 2))
        q = turn((3, 5, 9))
        out.append((["audit-exactness", "--field", GF[q], "--d", str(turn((1, 2)))],
                    0, "exactness", True))
        q = turn(qs)
        pa = rng.choice(self.mu_pairs[q])
        out.append((["descend", "--field", GF[q], "--algebra", "split:2;perm=1,0",
                     "--c0", f"mu:{self._s(q, pa[0])},{self._s(q, pa[1])}"],
                    0, "descend", 2))
        q = turn(qs)
        pa = rng.choice(self.mu_pairs[q])
        out.append((["descend", "--field", GF[q], "--algebra", "split:2;perm=0,1",
                     "--c0", f"mu:{self._s(q, pa[0])},{self._s(q, pa[1])}"],
                    0, "descend", 2))
        out.append((["descend", "--field", "QQ", "--algebra", "split:2;perm=1,0",
                     "--c0", f"mu:{rng.choice((2, 3, 5, 7))},{rng.choice((1, -1))}"],
                    0, "descend", 2))
        # small budgets: the search space is (q-1)^2 = 64 > budget
        out.append((["torsor-points", "--field", GF[9], "--torsor",
                     "diag:2;y1^2,y2^2;1,1", "--budget", str(rng.randint(2, 60))],
                    3, "undecided", None))
        out.append((["iso", "--field", GF[9], "--family", "diag", "--diag-arity", "2",
                     "--functions", "y1^2,y2^2", "--lhs", "1,1", "--rhs", "w,1",
                     "--budget", str(rng.randint(2, 60))], 3, "undecided", None))
        return out

    def _shift_element(self, rng, degree):
        """(c0 + c1 t^degree) / (t + c) with a numerator that does not vanish
        at -c, so the fraction keeps its shape."""
        F = self.shift
        t = F.named_element("t")
        while True:
            c0, c1, c = rng.choice((1, -1, 2, -2, 3)), rng.choice((1, 2, -1)), rng.randint(0, 3)
            if c0 + c1 * (-c) ** degree != 0:
                return (F.element(c0) + F.element(c1) * t ** degree) / (t + F.element(c))

    def _round(self, rng, r):
        out = [(tuple(argv), code, kind, expected)
               for argv, code, kind, expected in self._templates(rng, r)]
        rng.shuffle(out)
        return out

    def stratum(self, query) -> str:
        argv = query[0]
        return argv[0] + ":" + argv[argv.index("--field") + 1]

    def sizes(self, queries) -> dict:
        by = {}
        for query in queries:
            key = self.stratum(query)
            by[key] = by.get(key, 0) + 1
        return {"queries_by_subcommand_and_field": by}

    # ---------------------------------------------------------------- queries

    def _call(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.dc.cli.main(list(argv))
        return code, buf.getvalue()

    def run(self, query):
        argv = query[0]
        code, out = self._call(argv)
        vcode, vout = self._call(("verify", "--line", out.strip()))
        return code, out, vcode, vout

    def check(self, query, result):
        argv, want_code, kind, expected = query
        code, out, vcode, vout = result
        if self.seen.setdefault(argv, (out, vout)) != (out, vout):
            return False, False         # the same argv printed other bytes
        line = json.loads(out)
        vline = json.loads(vout)
        if code != want_code or out.count("\n") != 1 or vline["result"] is False:
            return False, False
        res = line["result"]
        if kind == "undecided":
            return line["undecided"] is True, True
        if kind == "result":
            ok = res == expected
        elif kind == "classes":
            ok = res["kind"] == "finite-list" and res["classes"] == expected
        elif kind == "mu-orbit":
            q, pair = expected
            F, ft = self.fields[q], self.ft[q]
            got = (ft.of(F.element(res["a"])), ft.of(F.element(res["b"])))
            ok = res["family"] == "mu" and _orbit_has(ft, pair, got)
        elif kind == "delta":
            ok = res["trivial"] is expected
        elif kind == "audit":
            ok = res["ok"] is True and res["dim"] == expected and res["dim_ker_first"] == 1
        elif kind == "exactness":
            ok = res["ok"] is True
        else:                                   # descend
            ok = res["dimension"] == expected and res["base_change_is_isomorphism"] is True
        return ok and line["undecided"] is False, False

    def verify_counts(self, records) -> dict:
        counts = {"verified": 0, "unverified": 0, "rejected": 0}
        for query, result, err, dt, label in records:
            if err is None and label == "traced":
                v = json.loads(result[3])["result"]
                counts["verified" if v is True else
                       "unverified" if v == "unverified" else "rejected"] += 1
        return counts

    def digest(self) -> str:
        h = hashlib.sha256()
        for argv in sorted(self.seen):
            out, vout = self.seen[argv]
            h.update("\0".join(argv).encode() + b"\n" + out.encode() + vout.encode())
        return h.hexdigest()
