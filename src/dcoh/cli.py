"""Batch command-line front door: every decision procedure, JSON-lines out.

Each invocation prints one JSON object per query with the shape

    {"cmd": ..., "args": {...}, "ok": bool, "result": ...,
     "witness": ..., "certificate": ..., "undecided": bool}

and exits 0 on success, 2 on a parse error, 3 when a query came back
undecided (budget exhaustion or an out-of-scope instance), and 4 on an
internal fault: a solver's self-check of its own witness failed, or any
error that is not a ValueError.
Re-running a command is bit-identical.  Positive answers carry
witnesses in base field terms wherever the mathematics allows it, and
`dcoh verify` re-checks those witnesses using only field arithmetic,
sigma, and operator application -- a deliberately small trusted core.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from typing import Callable, NamedTuple

from . import exprs, outcome
from .algebras import (FinDimAlgebra, FreePolyAlgebra, LaurentAlgebra, TensorContext,
                       amitsur_audit, canonical_descent_datum, descend_invariants,
                       make_mu_algebra, make_split_algebra, mu_twisted_datum)
from .fields import FieldElement, make_field, sigma_apply
from .groups import AdditiveKernel, DiagonalMult, FrobeniusTwist, mu2sigma_group, mu_pair_space
from .cocycles import CocycleError, Cocycle, equivalent, invariant, is_cocycle
from .operators import DifferenceOperator
from .sigma_poly import parse_multiplicative
from .torsors import (NORMAL_FORMS, classify_h1, connecting_delta, exactness_audit,
                      is_point, isomorphic, normalize, torsor_from_cocycle, torsor_points)


class CliError(ValueError):
    pass


# --------------------------------------------------------------------------
# descriptor parsing


def parse_algebra(field, desc: str, budget):
    """The algebra of a descriptor; split:<m> charges its m^3 structure
    constants, laurent:<r> and freepoly:<r> the r^2 exponents of their r
    generator images, to the budget before the algebra is allocated."""
    if desc.startswith("mu:"):
        parts = desc[3:].split(",")
        if len(parts) != 2:
            raise CliError("mu algebra descriptor needs two parameters")
        return make_mu_algebra(field.element(parts[0]), field.element(parts[1]))
    if desc.startswith("split:"):
        rest = desc[len("split:"):]
        if ";" in rest:
            mtxt, ptxt = rest.split(";", 1)
            if not ptxt.startswith("perm="):
                raise CliError("split options: perm=<i0,i1,...>")
            perm = [int(x) for x in ptxt[len("perm="):].split(",")]
        else:
            mtxt, perm = rest, None
        m = int(mtxt)
        outcome.charge(m ** 3, budget)
        return make_split_algebra(field, m, perm)
    for cls in (LaurentAlgebra, FreePolyAlgebra):
        if desc.startswith(cls.kind + ":"):
            return _parse_monomial(field, cls, desc[len(cls.kind) + 1:], budget)
    raise CliError(f"unknown algebra descriptor {desc!r}")


def _parse_monomial(field, cls, rest: str, budget):
    """'<r>;sigma(<stem><i>)=<image>;...': each image is read as an element
    of the algebra of the same kind with sigma = id, and the algebra built
    from the images checks their shape.  The r images carry exponent
    vectors of length r, so r^2 is charged before the first is built."""
    parts = rest.split(";")
    r = int(parts[0])
    outcome.charge(r * r, budget)
    free = cls(field, r)
    images = [None] * r
    pat = re.compile(rf"sigma\({cls.stem}(\d*)\)=(.*)")
    for item in parts[1:]:
        m = pat.fullmatch(item.strip())
        if not m:
            raise CliError(f"bad {cls.kind} clause {item!r}")
        idx = int(m.group(1)) if m.group(1) else 1
        if not 1 <= idx <= r:
            raise CliError(f"{cls.kind} clause {item!r} names a generator "
                           f"outside {cls.stem}1..{cls.stem}{r}")
        images[idx - 1] = parse_literal(free, m.group(2)).data
    return cls(field, r, images)


def parse_matrix(read, text: str):
    """A matrix literal [[..,..],[..,..]] as a tuple of rows, each entry read
    by `read`; a bare entry is the 1x1 matrix."""
    text = text.strip()
    if not text.startswith("["):
        return ((read(text),),)
    if not (text.startswith("[[") and text.endswith("]]")):
        raise CliError("matrix literal must look like [[...],[...]]")
    rows = re.split(r"\]\s*,\s*\[", text[2:-2])
    return tuple(tuple(read(e) for e in row.split(",")) for row in rows)


# --------------------------------------------------------------------------
# torsor families: one record each, with the reader that builds the group
# from its options and the target from its text, and the JSON of its
# torsors and invariants; the torsor is the family's normal form


def _diag_group(field, options: str) -> DiagonalMult:
    n_txt, fs = options.split(";")
    n = int(n_txt)
    return DiagonalMult(field, n, [parse_multiplicative(t, n) for t in fs.split(",")])


def _twist_group(field, options: str) -> FrobeniusTwist:
    base, *items = options.split(";")
    m = re.fullmatch(r"(GL|SL)(\d+)", base)
    opts = dict(item.partition("=")[::2] for item in items)
    if not m or len(items) != 2 or set(opts) != {"d", "psi"}:
        raise CliError("a twist group is <GL|SL><n>;d=<d>;psi=<psi>")
    return FrobeniusTwist(field, m.group(1), int(m.group(2)), int(opts["d"]), opts["psi"])


def _pair(field, text: str):
    a, b = text.split(",")
    return field.element(a), field.element(b)


def _a_item(rest: str):
    items = rest.split(";")
    targets = [item for item in items if item.startswith("a=")]
    if not targets:
        raise CliError("twist torsor descriptor needs a=")
    return ";".join(item for item in items if item != targets[-1]), targets[-1][2:]


def _mu_classes(G, result, budget) -> bool:
    """A class list of mu2^sigma over GF(q): the representatives lie in M =
    {sigma(a) = a*b^2}, their orbits {(lambda^2 a, sigma(lambda)/lambda b)},
    computed here and not by the decider's translate, are pairwise disjoint,
    and their sizes sum to |M|; the (q-1)^2 pairs of M are charged first."""
    field = G.field
    if not field.finite:
        raise CliError("a mu2sigma class list is a list over a finite field")
    outcome.charge((field.size - 1) ** 2, budget)
    texts = result.get("representatives")
    if not isinstance(texts, list) or not all(
            isinstance(r, list) and len(r) == 2 and all(isinstance(t, str) for t in r)
            for r in texts):
        raise CliError("mu2sigma representatives must be pairs of field elements")
    reps = [(field.element(a), field.element(b)) for a, b in texts]
    space = set(mu_pair_space(field))
    if len(reps) != result.get("classes") or not space.issuperset(reps):
        return False
    units = list(field.units())
    orbits = [{(lam * lam * a, lam.sigma() / lam * b) for lam in units} for a, b in reps]
    return sum(map(len, orbits)) == len(set().union(*orbits)) == len(space)


class Family(NamedTuple):
    """Everything the CLI knows of one torsor family."""
    name: str               # its name in torsor descriptors, --family and JSON
    torsor_kind: str        # its groups' torsor_kind, which keys torsors.NORMAL_FORMS
    group_prefix: str       # a group descriptor is this prefix, then the options
    group: Callable         # (field, options) -> the group
    target: Callable        # (field, text) -> a target
    iso_flags: tuple        # the iso flags whose values, joined by ';', are the options
    normal_form: Callable   # normal-form torsor -> its JSON besides "family"
    split: Callable = lambda rest: rest.rpartition(";")[::2]    # torsor '<family>:<rest>'
    # invariant -> cocycle-check's witness; None for a family that ships no
    # invariants (nor cocycle-equiv's detail)
    invariant: Callable = None
    group_json: Callable = lambda G: {}     # G -> cocycle-equiv's detail besides the invariants
    # the key of group_json that holds each iso flag's value, for a family
    # with invariants
    iso_detail: tuple = ()
    classes: Callable = None    # (G, classify result, budget) -> verify's class-list check


FAMILIES = {fam.name: fam for fam in (
    Family("mu", "mu", "mu2sigma", lambda field, _: mu2sigma_group(field), _pair, (),
           lambda X: {"a": str(X.a), "b": str(X.b)}, lambda rest: ("", rest),
           invariant=lambda t: {"type": "mu-invariant", "a": str(t[0]), "b": str(t[1])},
           classes=_mu_classes),
    Family("add", "additive", "addker:",
           lambda field, op: AdditiveKernel(DifferenceOperator.parse(field, op)),
           lambda field, text: field.element(text), ("op",),
           lambda X: {"a": str(X.a), "operator": str(X.L)},
           invariant=lambda t: {"type": "additive-invariant", "a": str(t)},
           group_json=lambda G: {"operator": str(G.L)}, iso_detail=("operator",)),
    Family("diag", "diagonal", "diag:", _diag_group,
           lambda field, text: tuple(field.element(t) for t in text.split(",")),
           ("diag_arity", "functions"), lambda X: {"a": [str(c) for c in X.avec]}),
    Family("twist", "twist", "twist:", _twist_group,
           lambda field, text: parse_matrix(field.element, text), ("twist",),
           lambda X: {"a": ser(X.a)}, _a_item,
           invariant=lambda t: {"type": "twist-invariant", "a": ser(t)},
           group_json=lambda G: {"twist": f"{G.base}{G.n};d={G.d};psi={G.psi}"},
           iso_detail=("twist",)),
)}
BY_KIND = {fam.torsor_kind: fam for fam in FAMILIES.values()}


def parse_group(field, desc: str):
    name, colon, options = desc.partition(":")
    for fam in FAMILIES.values():
        if fam.group_prefix == name + colon:
            return fam.group(field, options)
    raise CliError(f"unknown group descriptor {desc!r}")


def _normal_forms(fam: Family, field, options: str, *texts):
    """The normal-form torsors of fam's group, one per target text."""
    G = fam.group(field, options)
    return [NORMAL_FORMS[fam.torsor_kind](G, fam.target(field, text)) for text in texts]


def parse_torsor(field, desc: str):
    name, colon, rest = desc.partition(":")
    fam = FAMILIES.get(name) if colon else None
    if fam is None:
        raise CliError(f"unknown torsor descriptor {desc!r}")
    (X,) = _normal_forms(fam, field, *fam.split(rest))
    return X


def _family(name) -> Family:
    fam = FAMILIES.get(str(name))
    if fam is None:
        raise CliError(f"unknown family {name!r}")
    return fam


def iso_torsors(field, fam: Family, q):
    """The torsors X, Y of an iso query of family fam's --lhs and --rhs,
    from q, its arguments by name (parsed, or those of a line verify
    reads)."""
    if any(q.get(flag) in (None, "") for flag in fam.iso_flags):
        raise CliError(f"{fam.name} isomorphism needs " +
                       " and ".join("--" + flag.replace("_", "-") for flag in fam.iso_flags))
    return _normal_forms(fam, field, ";".join(str(q[flag]) for flag in fam.iso_flags),
                         q["lhs"], q["rhs"])


class _TensorDomain(exprs.Domain):
    """Literal elements of A, or with A's TensorContext of A(x)A, where '#'
    is the tensor separator and a bare A-element lifts as v (x) 1.  Names
    are looked up in env, then among A's named elements, then in the field;
    division is by units."""

    def __init__(self, A, env: dict, tc: TensorContext = None):
        self.A = A
        self.tc = tc
        self.env = env
        self.field = A.field

    def _lift(self, v, level):
        # level: 0 scalar, 1 A, 2 AA
        cur = self._level(v)
        while cur < level:
            if cur == 0:
                v = self.A.from_scalar(v)
            else:
                v = self.tc.pair(v, self.A.one())
            cur += 1
        return v

    def _level(self, v):
        if isinstance(v, FieldElement):
            return 0
        return 1 if v.algebra == self.A else 2

    def from_int(self, n):
        return self.field.element(n)

    def name(self, name):
        if name in self.env:
            return self.env[name]
        x = self.A.named_element(name)
        return self.field.named_element(name) if x is None else x

    def _binop(self, a, b, op):
        lvl = max(self._level(a), self._level(b))
        a, b = self._lift(a, lvl), self._lift(b, lvl)
        return op(a, b)

    def add(self, a, b):
        return self._binop(a, b, lambda x, y: x + y)

    def sub(self, a, b):
        return self._binop(a, b, lambda x, y: x - y)

    def mul(self, a, b):
        return self._binop(a, b, lambda x, y: x * y)

    def div(self, a, b):
        return self.mul(a, b.inv() if self._level(b) == 0 else b.inverse())

    def tensor(self, a, b):
        if self.tc is None:
            return super().tensor(a, b)
        if self._level(a) > 1 or self._level(b) > 1:
            raise exprs.ExprError("tensor separator takes two A-elements")
        return self.tc.pair(self._lift(a, 1), self._lift(b, 1))


def parse_literal(A, text: str, env: dict = None, tc: TensorContext = None):
    """An element of A, or of A(x)A when A's TensorContext tc is given."""
    dom = _TensorDomain(A, env or {}, tc)
    return dom._lift(exprs.parse(text, dom), 1 if tc is None else 2)


def parse_chi(tc: TensorContext, text: str, env: dict):
    """A --chi value: an element of A(x)A, or a matrix literal of them."""
    read = lambda e: parse_literal(tc.A, e, env, tc)
    return parse_matrix(read, text) if text.lstrip().startswith("[") else read(text)


def algebra_env(field, desc: str) -> dict:
    env = {}
    if desc.startswith("mu:"):
        a_txt, b_txt = desc[3:].split(",")
        env["a"] = field.element(a_txt)
        env["b"] = field.element(b_txt)
    return env


# --------------------------------------------------------------------------
# serialization


def ser(v):
    if v is None or isinstance(v, (bool, int, str)):
        return v
    if isinstance(v, FieldElement):
        return str(v)
    if isinstance(v, tuple) or isinstance(v, list):
        return [ser(x) for x in v]
    if isinstance(v, dict):
        return {str(k): ser(x) for k, x in v.items()}
    return str(v)


def witness_json(w):
    if w is None:
        return None
    if isinstance(w, FieldElement):
        return {"type": "scalar", "value": str(w)}
    if isinstance(w, tuple) and w and isinstance(w[0], tuple):
        return {"type": "matrix", "value": [[str(e) for e in row] for row in w]}
    if isinstance(w, tuple):
        return {"type": "tuple", "value": [str(e) for e in w]}
    return {"type": "algebra-element", "value": str(w)}


def outcome_json(res: outcome.Outcome) -> dict:
    return {
        "result": res.status == outcome.YES,
        "witness": witness_json(res.witness),
        "certificate": res.certificate,
        "undecided": res.status == outcome.UNDECIDED,
        "detail": ser(res.detail) if res.detail else None,
    }


# --------------------------------------------------------------------------
# subcommands


def _print_line(cmd: str, args: dict, code: int = 0, **fields) -> int:
    """Print a query's JSON line, `fields` over an answerless line; return `code`."""
    print(json.dumps({"cmd": cmd, "args": args, "ok": True, "result": None, "witness": None,
                      "certificate": None, "undecided": False, **fields}, sort_keys=True))
    return code


def _emit(payload: dict, base: dict) -> int:
    return _print_line(**base, code=3 if payload.get("undecided") else 0, **payload)


def cmd_field_eval(args, base):
    field = make_field(args.field)
    val = field.element(args.expr)
    return _emit({"result": str(val), "witness": {"type": "scalar", "value": str(val)}}, base)


def _cocycle_args(args):
    """(G, tc, env) for the --field, --algebra and --group of a cocycle query."""
    field = make_field(args.field)
    A = parse_algebra(field, args.algebra, args.budget)
    return parse_group(field, args.group), TensorContext(A), algebra_env(field, args.algebra)


def _checked_cocycles(args, *texts):
    """G and the cocycles of the --chi texts: all are read, then each is checked once."""
    G, tc, env = _cocycle_args(args)
    values = [parse_chi(tc, text, env) for text in texts]
    for value in values:
        chk = is_cocycle(G, tc, value)
        if not chk:
            raise CliError(f"--chi value is not a cocycle: {chk.certificate}")
    return G, [Cocycle(G, tc, value, checked=True) for value in values]


def _invariants(G, *chis):
    """G's family and the invariants of chis; None if the family ships none or a chi has none."""
    fam = BY_KIND.get(G.torsor_kind)
    if fam is None or fam.invariant is None:
        return None
    try:
        return fam, [invariant(chi) for chi in chis]
    except CocycleError:
        return None


def cmd_cocycle_check(args, base):
    G, tc, env = _cocycle_args(args)
    value = parse_chi(tc, args.chi, env)
    res = is_cocycle(G, tc, value)
    payload = outcome_json(res)
    found = _invariants(G, Cocycle(G, tc, value)) if res else None
    if found:
        fam, (t,) = found
        payload["witness"] = fam.invariant(t)
    return _emit(payload, base)


def cmd_cocycle_equiv(args, base):
    G, (c1, c2) = _checked_cocycles(args, args.chi, args.chi2)
    payload = outcome_json(equivalent(c1, c2, budget=args.budget))
    found = _invariants(G, c1, c2)
    if found:
        fam, (t1, t2) = found
        payload["detail"] = {"family": fam.name, **fam.group_json(G),
                             "lhs_invariant": ser(t1), "rhs_invariant": ser(t2)}
    return _emit(payload, base)


def cmd_classify(args, base):
    field = make_field(args.field)
    G = parse_group(field, args.group)
    rep = classify_h1(G, budget=args.budget)
    result = {"kind": rep.kind, "classes": rep.count,
              "representatives": ser(rep.representatives), "note": rep.note}
    return _emit({"result": result}, base)


def cmd_iso(args, base):
    X, Y = iso_torsors(make_field(args.field), _family(args.family), vars(args))
    return _emit(outcome_json(isomorphic(X, Y, budget=args.budget)), base)


def cmd_torsor_points(args, base):
    field = make_field(args.field)
    X = parse_torsor(field, args.torsor)
    R = parse_algebra(field, args.algebra, args.budget) if args.algebra else None
    res = torsor_points(X, R, budget=args.budget)
    return _emit(outcome_json(res), base)


def cmd_normalize(args, base):
    _, (chi,) = _checked_cocycles(args, args.chi)
    nf = normalize(torsor_from_cocycle(chi))
    fam = BY_KIND[nf.kind]
    return _emit({"result": {"family": fam.name, **fam.normal_form(nf)}}, base)


def cmd_delta(args, base):
    field = make_field(args.field)
    x = field.element(args.x)
    if args.d >= 1 and not x.is_zero():
        # the lift algebra's d sigma-images are exponent vectors of length d
        outcome.charge(args.d * args.d, args.budget)
    res = connecting_delta(field, args.d, x)
    payload = outcome_json(res.trivial)
    payload["result"] = {"trivial": bool(res.trivial),
                         "cocycle": str(res.cocycle.value[0][0])}
    payload["undecided"] = False
    return _emit(payload, base)


def cmd_audit_amitsur(args, base):
    field = make_field(args.field)
    A = parse_algebra(field, args.algebra, args.budget)
    if isinstance(A, FinDimAlgebra):
        # the audit builds the dim^3 basis tensors of the tensor cube
        outcome.charge(A.dim ** 3, args.budget)
    rep = amitsur_audit(A)
    result = {
        "ok": rep.ok, "dim": rep.algebra_dim,
        "dim_ker_first": rep.dim_ker_first,
        "dim_ker_second": rep.dim_ker_second,
        "dim_image_first": rep.dim_image_first,
        "first_kernel": [str(x) for x in rep.first_kernel],
    }
    return _emit({"result": result}, base)


def cmd_audit_exactness(args, base):
    field = make_field(args.field)
    rep = exactness_audit(field, args.d, budget=args.budget)
    result = {
        "ok": rep.ok, "kernel_points": rep.n_points,
        "image_size": rep.image_size,
        "delta_trivial_count": rep.delta_trivial_count,
        "kernel_matches": rep.kernel_matches,
        "delta_matches_lifting": rep.delta_matches_lifting,
        "torsors_all_trivial": rep.torsors_all_trivial,
    }
    return _emit({"result": result}, base)


def cmd_descend(args, base):
    field = make_field(args.field)
    A = parse_algebra(field, args.algebra, args.budget)
    if args.chi:
        tc = TensorContext(A)
        env = algebra_env(field, args.algebra)
        chi = parse_literal(tc.A, args.chi, env, tc)
        datum = mu_twisted_datum(A, chi)
    elif args.c0:
        C0 = parse_algebra(field, args.c0, args.budget)
        datum = canonical_descent_datum(C0, A)
    else:
        raise CliError("descend needs --c0 (canonical datum) or --chi (mu twist)")
    res = descend_invariants(datum)
    result = {
        "dimension": res.invariants.dim,
        "base_change_is_isomorphism": res.base_change_is_isomorphism,
        "labels": list(res.invariants.labels),
    }
    return _emit({"result": result}, base)


# --------------------------------------------------------------------------
# verify: re-check witnesses with field arithmetic only


class _Line(dict):
    """A JSON object of the line verify reads; a key it lacks is a parse error."""

    def __missing__(self, key):
        raise CliError(f"the line verify reads has no {key!r}")


def _read_point(G, R, w):
    """The point of G over R (over k when R is None) that the witness w
    names, or None when w does not parse or does not have the shape of G's
    points."""
    ring = G.field if R is None else R
    ref = G.point_shape((ring.one(),) * G.slots)

    def read(v, like):
        if isinstance(like, tuple):
            if not (isinstance(v, list) and len(v) == len(like)):
                raise ValueError("the witness has another shape")
            return tuple(map(read, v, like))
        if not isinstance(v, str):
            raise ValueError("witness entries are strings")
        return ring.element(v) if R is None else parse_literal(R, v)
    try:
        x = read(w.get("value"), ref)
    except (ValueError, ZeroDivisionError):
        return None
    return x if w.get("type") == witness_json(ref)["type"] else None


def _carries(X, Y, w):
    """Does the witness w name a point c of the group over k with
    translate(c, target of X) = target of Y?  None when it names no point."""
    G = X.presentation
    c = _read_point(G, None, w)
    return None if c is None else G.translate(c, X.target) == Y.target


def _invariant_text(v) -> str:
    """A target's text from the JSON of a cocycle-equiv invariant: a field
    element, a list of them, or a matrix as a list of rows."""
    if isinstance(v, list) and v and all(isinstance(row, list) for row in v):
        return "[" + ",".join(f"[{_invariant_text(row)}]" for row in v) + "]"
    texts = v if isinstance(v, list) else [v]
    if not all(isinstance(t, str) for t in texts):
        raise CliError("an invariant is a field element, a list of them or a list of rows")
    return ",".join(texts)


def cmd_verify(args, base):
    line = json.loads(args.line) if args.line else json.loads(sys.stdin.read())
    qargs = line.get("args") if isinstance(line, dict) else None
    if not (isinstance(qargs, dict) and isinstance(qargs.get("field"), str)
            and isinstance(line.get("witness") or {}, dict)):
        raise CliError("verify reads one output line: a JSON object whose args name "
                       "the field and whose witness is an object")
    line, qargs = _Line(line), _Line(qargs)
    cmd = line.get("cmd")
    field = make_field(qargs["field"])
    w = line.get("witness")
    ok = None
    unverified = "witness-kind-unsupported"
    if not line.get("result") and not w:
        # a "no" (or an undecided or failed query) carries no witness to re-check
        unverified = "negative-answer-not-rechecked"
    elif cmd == "field-eval":
        ok = str(field.element(qargs["expr"])) == line["result"]
    elif cmd == "iso" and w:
        ok = _carries(*iso_torsors(field, _family(qargs["family"]), qargs), w)
    elif cmd == "cocycle-equiv" and w and isinstance(line.get("detail"), dict):
        # the witness carries the lhs invariant onto the rhs invariant: the
        # detail reads as an iso query of its family
        detail = _Line(line["detail"])
        fam = _family(detail["family"])
        # a family without invariants writes no detail, so it has no keys
        flags = zip(fam.iso_flags, fam.iso_detail, strict=True) if fam.invariant else ()
        ok = _carries(*iso_torsors(field, fam, {
            **{flag: detail.get(key) for flag, key in flags},
            "lhs": _invariant_text(detail["lhs_invariant"]),
            "rhs": _invariant_text(detail["rhs_invariant"])}), w)
    elif cmd == "torsor-points" and w:
        # a point over k or over an algebra R satisfies the torsor's equations
        X = parse_torsor(field, qargs["torsor"])
        R = parse_algebra(field, qargs["algebra"], args.budget) if qargs.get("algebra") else None
        x = _read_point(X.presentation, R, w)
        ok = None if x is None else is_point(X, x, R)
    elif cmd == "delta" and w and w.get("type") == "scalar":
        y = field.element(w["value"])
        x = field.element(qargs["x"])
        ok = sigma_apply(y, int(qargs["d"])) == x
    elif cmd == "classify":
        G = parse_group(field, str(qargs["group"]))
        result = line["result"]
        fam = BY_KIND.get(G.torsor_kind)
        if fam and fam.classes and isinstance(result, dict) \
                and result.get("kind") == "finite-list":
            ok = fam.classes(G, result, args.budget)
    if ok is None:
        payload = {"result": "unverified", "certificate": unverified, "undecided": True}
    else:
        payload = {"result": bool(ok), "certificate": None if ok else "witness-rejected"}
    return _print_line("verify", {"target": cmd}, 0 if ok else (3 if ok is None else 1), **payload)


# --------------------------------------------------------------------------
# argument parsing


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and shared by every later one."""
    ap = argparse.ArgumentParser(prog="dcoh",
                                 description="difference-algebraic cohomology and torsors")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def command(name, handler, *required):
        """Subcommand `name` run by `handler`, with --field, --budget, `required`."""
        p = sub.add_parser(name)
        p.add_argument("--field", required=True)
        p.add_argument("--budget", type=int, default=outcome.DEFAULT_BUDGET)
        for flag in required:
            p.add_argument(flag, required=True)
        p.set_defaults(handler=handler)
        return p

    command("field-eval", cmd_field_eval, "--expr")
    command("cocycle-check", cmd_cocycle_check, "--algebra", "--group", "--chi")
    command("cocycle-equiv", cmd_cocycle_equiv, "--algebra", "--group", "--chi", "--chi2")
    command("classify", cmd_classify, "--group")

    p = command("iso", cmd_iso)
    p.add_argument("--family", required=True, choices=list(FAMILIES))
    for flag in ("--op", "--twist", "--functions"):
        p.add_argument(flag)
    p.add_argument("--diag-arity", type=int)
    for flag in ("--lhs", "--rhs"):
        p.add_argument(flag, required=True)

    command("torsor-points", cmd_torsor_points, "--torsor").add_argument("--algebra")
    command("normalize", cmd_normalize, "--algebra", "--group", "--chi")
    p = command("delta", cmd_delta)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--x", required=True)
    command("audit-amitsur", cmd_audit_amitsur, "--algebra")
    command("audit-exactness", cmd_audit_exactness).add_argument("--d", type=int, required=True)

    p = command("descend", cmd_descend)
    p.add_argument("--algebra", required=True, help="the faithfully flat algebra A")
    p.add_argument("--c0", help="descend the canonical datum on C0 (x) A")
    p.add_argument("--chi", help="descend the mu-twist datum for this cocycle")

    p = sub.add_parser("verify")
    p.add_argument("--line", help="a JSON output line; stdin when omitted")
    p.add_argument("--budget", type=int, default=outcome.DEFAULT_BUDGET)
    p.set_defaults(handler=cmd_verify)
    return ap


# every package error is a ValueError; anything else is a fault (exit 4)
PARSE_ERRORS = (ValueError, ZeroDivisionError)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    base = {"cmd": args.cmd,
            "args": {k: v for k, v in sorted(vars(args).items())
                     if k not in ("cmd", "handler") and v is not None}}
    try:
        return args.handler(args, base)
    except outcome.BudgetExceeded as e:
        certificate, code = f"budget-exhausted: {e}", 3
    except PARSE_ERRORS as e:
        certificate, code = f"error: {e}", 2
    except Exception as e:
        certificate, code = f"internal-error: {e}", 4
    # a query that ended without an answer: exit 3 (budget exhausted) is an
    # undecided answer; exits 2 (parse error) and 4 (internal error) are not ok
    return _print_line(**base, code=code, ok=code == 3, certificate=certificate,
                       undecided=code == 3)


if __name__ == "__main__":
    sys.exit(main())
