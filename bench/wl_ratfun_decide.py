"""ratfun-decide: decision queries over rational function fields.

Over QQ(t);shift:
  add1, add2  `solve_additive_full(L, a)` for order-1 and order-2 operators;
  quot        `solve_sigma_quotient(a, d)`;
  pts-add, pts-mu, pts-gl1
              `torsor_points` of additive, mu and twist:GL1 torsors.
Over QQ(t);subst:t^2:
  delta       `connecting_delta(k, d, x)`;
  sigimg      `in_sigma_image(x)`.

Yes-instances are built from a seeded x0 (a = L(x0), a = sigma^d(x0)/x0,
x = sigma^d(y0), ...).  No-instances are built where nonexistence is
provable by hand:
  * L(y) = L(x0) + 1/(t+e) for L with constant coefficients and l_0 != 0:
    L(y - x0) = 1/(t+e) would need a rational y - x0 whose poles P give
    L(y - x0) poles at both max(P) and min(P) - n, never a single pole;
  * sigma^d(y)/y = (t+e) sigma^d(x0)/x0 or 2 sigma^d(x0)/x0: sigma^d(y)/y
    has degree 0 and leading coefficient 1 for every rational y;
  * the mu torsor (r c^2, sigma(c)/c) with r in {2, 3, 5, 6, 7}: r is not
    a square in QQ(t); and (c^2, -sigma(c)/c): x = +-c fails sigma(x) = b x;
  * over the substitution field, x with x(t) != x(-t) is not a sigma image.

Numerator degrees run up to 10 (order 1) and 6 (order 2), with up to two
linear denominator factors; these are the sizes where the ansatz
elimination grows, capped so that a round stays near a second.  A stratum
fixes the shape of its input (degrees, poles, operator, which turns with
the round); the seed draws the numerator's coefficients.

Oracle: every witness is checked by substitution with field arithmetic and
sigma only, and every verdict against the construction.
"""

from __future__ import annotations

import random
from fractions import Fraction
from types import SimpleNamespace

NAME = "ratfun-decide"
ROUND_SECONDS = 0.4
MAX_DISTINCT_ROUNDS = 8
SHIFT = "QQ(t);shift"
SUBST = "QQ(t);subst:t^2"
# (text, coefficients l_0..l_{n-1}, constant coefficients with l_0 != 0)
ORDER1 = (("s - 1", ("-1",), True), ("s + 2", ("2",), True),
          ("s - 3", ("-3",), True), ("s - t", ("-t",), False),
          ("s - (t+1)/t", ("-(t+1)/t",), False))
ORDER2 = (("s^2 - 2*s + 1", ("1", "-2"), True), ("s^2 + s - 3", ("-3", "1"), True))
NONSQUARES = (2, 3, 5, 6, 7)
# one round: (kind, verdict, parameters); a stratum fixes the shape of its
# input -- numerator degree, denominator factors t + c for the listed c, the
# extra pole -- and the seed draws the numerator's nonzero coefficients
D1, D2 = (1,), (0, 2)
ROUND = ([("add1", "yes", (nd, den)) for nd in (0, 3, 6, 10) for den in ((), D1, D2)]
         + [("add1", "no", (nd, den)) for nd in (2, 6) for den in (D1, D2)]
         + [("add2", "yes", (nd, den)) for nd in (0, 3, 6) for den in ((), D1)]
         + [("add2", "yes", (2, (0, 1))), ("add2", "no", (2, D1)), ("add2", "no", (4, ()))]
         + [("quot", "yes", (d, nd, den)) for d in (1, 2) for nd, den in ((2, D1), (4, D2))]
         + [("quot", "no", (d, 2, D1)) for d in (1, 2)] + [("quot", "no-lc", (1, 3, D1))]
         + [("pts-add", "yes", (4, D1)), ("pts-add", "no", (3, D1))]
         + [("pts-mu", v, (2, D1)) for v in ("yes", "yes", "no-square", "no-sign")]
         + [("pts-gl1", "trivial", (d, 3, D1)) for d in (1, 2)]
         + [("pts-gl1", "yes", (1, 3, D1)), ("pts-gl1", "no", (1, 3, D1))]
         + [("delta", v, (d, 3, D1)) for d in (1, 2) for v in ("yes", "no")]
         + [("sigimg", v, (3, D1)) for v in ("yes", "yes", "no", "no")])
EXTRA_POLE = 4                      # no-instances add 1/(t + EXTRA_POLE)


def _has_rational_root(coeffs) -> bool:
    """Rational root test for an integer polynomial, low degree first."""
    a0, an = abs(coeffs[0]), abs(coeffs[-1])
    for p in range(1, a0 + 1):
        for q in range(1, an + 1):
            if a0 % p or an % q:
                continue
            for r in (Fraction(p, q), Fraction(-p, q)):
                if sum(c * r ** k for k, c in enumerate(coeffs)) == 0:
                    return True
    return False


def apply_op(coeffs, x):
    """L(x) = sigma^n(x) + sum l_i sigma^i(x), by substitution."""
    total = x.sigma(len(coeffs))
    for i, c in enumerate(coeffs):
        total = total + c * x.sigma(i)
    return total


class Workload:
    def __init__(self, dc, seed: int, n_rounds: int):
        self.dc = dc
        rng = random.Random(seed)
        self.shift = dc.fields.make_field(SHIFT)
        self.subst = dc.fields.make_field(SUBST)
        self.t = {SHIFT: self.shift.element("t"), SUBST: self.subst.element("t")}
        self.rounds = [self._round(rng, r) for r in range(min(n_rounds, MAX_DISTINCT_ROUNDS))]

    # ------------------------------------------------------------ generators

    def _ratfun(self, F, rng, nd, den):
        """Numerator of degree nd over prod (t + c).  The seed draws signs:
        the numerator is +-t^nd + sum +-2 t^k, and has no rational root, so
        nothing cancels, no root adds to the dispersion and its root bound is
        fixed: the shape is the stratum's."""
        while True:
            coeffs = [rng.choice((2, -2)) for _ in range(nd)] + [rng.choice((1, -1))]
            if not _has_rational_root(coeffs):
                break
        t = self.t[F.descriptor]
        num = F.zero()
        for k, c in enumerate(coeffs):
            num = num + F.element(c) * t ** k
        for c in den:
            num = num / (t + F.element(c))
        return num

    def _query(self, kind, verdict, params, rng, turn):
        F, t = self.shift, self.t[SHIFT]
        pole = F.one() / (t + F.element(EXTRA_POLE))
        if kind in ("add1", "add2", "pts-add"):
            nd, den = params
            table = ORDER2 if kind == "add2" else ORDER1
            if verdict == "no":
                table = [op for op in table if op[2]]
            text, coeffs, _ = table[turn % len(table)]
            coeffs = tuple(F.element(c) for c in coeffs)
            a = apply_op(coeffs, self._ratfun(F, rng, nd, den))
            if verdict == "no":
                a = a + pole
            return (kind, verdict, {"op": text, "coeffs": coeffs, "a": a,
                                    "size": (nd, len(den))})
        if kind in ("quot", "pts-gl1"):
            # the cost of the multiplicative solver swings with the root
            # bounds of sigma^d(x0) and x0, so these strata take x0 from a
            # fixed list that turns with the round; the seed only scales x0
            d, nd, den = params
            fixed = random.Random(f"{kind}:{turn % 4}:{nd}:{den}")
            x0 = self._ratfun(F, fixed, nd, den) * F.element(rng.choice((1, -1, 2, 3)))
            if verdict == "trivial":
                return (kind, "yes", {"psi": "trivial", "d": d, "a": x0.sigma(d),
                                      "size": (nd, len(den))})
            a = x0.sigma(d) / x0
            if verdict == "no":
                a = a * (t + F.element(EXTRA_POLE))
            elif verdict == "no-lc":
                a = a * F.element(2)
            return (kind, verdict, {"psi": "id", "a": a, "d": d, "size": (nd, len(den))})
        if kind == "pts-mu":
            nd, den = params
            c = self._ratfun(F, rng, nd, den)
            a, b = c * c, c.sigma() / c
            if verdict == "no-square":
                a = a * F.element(rng.choice(NONSQUARES))
            elif verdict == "no-sign":
                b = -b
            return (kind, verdict, {"a": a, "b": b, "size": (nd, len(den))})
        # substitution field: sigma(f)(t) = f(t^2)
        F, t = self.subst, self.t[SUBST]
        if kind == "delta":
            d, nd, den = params
        else:
            d, (nd, den) = 1, params
        y0 = self._ratfun(F, rng, nd, den)
        if verdict == "yes":
            x = y0.sigma(d)
        else:
            odd = y0.sigma() * (t + F.one())            # x(-t) != x(t)
            x = odd.sigma(d - 1)
        return (kind, verdict, {"x": x, "d": d, "size": (nd, len(den))})

    def _round(self, rng, r):
        """Round r; the operator of each stratum turns with r."""
        out = [self._query(kind, verdict, params, rng, r + i)
               for i, (kind, verdict, params) in enumerate(ROUND)]
        rng.shuffle(out)
        return out

    def stratum(self, query) -> str:
        kind, verdict, p = query
        nd, dd = p["size"]
        return f"{kind}:{verdict}:{p.get('op', p.get('d', ''))}:num_deg={nd}:den_deg={dd}"

    def sizes(self, queries) -> dict:
        by = {}
        for kind, verdict, p in queries:
            nd, dd = p["size"]
            key = f"{kind}:num_deg={nd}:den_deg={dd}"
            by[key] = by.get(key, 0) + 1
        return {"queries_by_kind_and_degree": by}

    # ---------------------------------------------------------------- queries

    def run(self, query):
        kind, verdict, p = query
        dc = self.dc
        if kind in ("add1", "add2"):
            L = dc.operators.DifferenceOperator.parse(self.shift, p["op"])
            return dc.operators.solve_additive_full(L, p["a"])
        if kind == "quot":
            return dc.operators.solve_sigma_quotient(p["a"], p["d"])
        if kind == "pts-add":
            L = dc.operators.DifferenceOperator.parse(self.shift, p["op"])
            return dc.torsors.torsor_points(dc.torsors.AdditiveTorsor(L, p["a"]))
        if kind == "pts-mu":
            return dc.torsors.torsor_points(dc.torsors.MuTorsor(p["a"], p["b"]))
        if kind == "pts-gl1":
            X = dc.torsors.FrobeniusTwistTorsor(self.shift, "GL", 1, p["d"], p["psi"],
                                                ((p["a"],),))
            return dc.torsors.torsor_points(X)
        if kind == "delta":
            return dc.torsors.connecting_delta(self.subst, p["d"], p["x"]).trivial
        y = dc.fields.in_sigma_image(p["x"])
        return SimpleNamespace(status="no" if y is None else "yes", witness=y)

    def check(self, query, res):
        kind, verdict, p = query
        expect = "yes" if verdict == "yes" else "no"
        if res.status != expect:
            return False, res.status == "undecided"
        if expect == "no":
            return True, False
        w = res.witness
        if kind in ("add1", "add2", "pts-add"):
            return apply_op(p["coeffs"], w) == p["a"], False
        if kind == "quot":
            return not w.is_zero() and w.sigma(p["d"]) == p["a"] * w, False
        if kind == "pts-mu":
            return w * w == p["a"] and w.sigma() == p["b"] * w, False
        if kind == "pts-gl1":
            x = w[0][0]
            target = p["a"] if p["psi"] == "trivial" else x * p["a"]
            return not x.is_zero() and x.sigma(p["d"]) == target, False
        return w.sigma(p["d"]) == p["x"], False
