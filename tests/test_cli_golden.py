"""Golden CLI lines: the exact stdout and exit code of every subcommand.

Any change to an answer, a witness, a certificate or a JSON byte shows up
here as a failed string comparison.  `verify` re-checks five of the
lines.
"""

import io
from contextlib import redirect_stdout

import pytest

from dcoh.cli import main


GOLDEN = [
    (["field-eval", "--field", "QQ(t);shift", "--expr", "1/t - 1/(t+1)"],
     0,
     '{"args": {"budget": 1000000, "expr": "1/t - 1/(t+1)", "field": "QQ(t);shift"}, "certificate": null, "cmd": "field-eval", "ok": true, "result": "1/(t^2 + t)", "undecided": false, "witness": {"type": "scalar", "value": "1/(t^2 + t)"}}'),
    (["field-eval", "--field", "GF(9);frob^1", "--expr", "w^5 + 2"],
     0,
     '{"args": {"budget": 1000000, "expr": "w^5 + 2", "field": "GF(9);frob^1"}, "certificate": null, "cmd": "field-eval", "ok": true, "result": "w + 2", "undecided": false, "witness": {"type": "scalar", "value": "w + 2"}}'),
    (["cocycle-check", "--field", "GF(9);frob^1", "--algebra", "mu:w,w", "--group", "mu2sigma", "--chi", "(1/a)*(y#y)"],
     0,
     '{"args": {"algebra": "mu:w,w", "budget": 1000000, "chi": "(1/a)*(y#y)", "field": "GF(9);frob^1", "group": "mu2sigma"}, "certificate": null, "cmd": "cocycle-check", "detail": null, "ok": true, "result": true, "undecided": false, "witness": {"a": "w", "b": "w", "type": "mu-invariant"}}'),
    (["cocycle-check", "--field", "QQ(t);shift", "--algebra", "freepoly:1;sigma(y1)=y1+1/t", "--group", "addker:s-1", "--chi", "1#y - y#1"],
     0,
     '{"args": {"algebra": "freepoly:1;sigma(y1)=y1+1/t", "budget": 1000000, "chi": "1#y - y#1", "field": "QQ(t);shift", "group": "addker:s-1"}, "certificate": null, "cmd": "cocycle-check", "detail": null, "ok": true, "result": true, "undecided": false, "witness": {"a": "1/(t)", "type": "additive-invariant"}}'),
    (["cocycle-equiv", "--field", "GF(9);frob^1", "--algebra", "mu:1,2", "--group", "mu2sigma", "--chi", "1", "--chi2", "y#y"],
     0,
     '{"args": {"algebra": "mu:1,2", "budget": 1000000, "chi": "1", "chi2": "y#y", "field": "GF(9);frob^1", "group": "mu2sigma"}, "certificate": "exhausted-units", "cmd": "cocycle-equiv", "detail": {"family": "mu", "lhs_invariant": ["1", "1"], "rhs_invariant": ["1", "2"]}, "ok": true, "result": false, "undecided": false, "witness": null}'),
    (["cocycle-equiv", "--field", "GF(9);frob^1", "--algebra", "mu:1,1", "--group", "mu2sigma", "--chi", "1", "--chi2", "y#y"],
     0,
     '{"args": {"algebra": "mu:1,1", "budget": 1000000, "chi": "1", "chi2": "y#y", "field": "GF(9);frob^1", "group": "mu2sigma"}, "certificate": null, "cmd": "cocycle-equiv", "detail": {"family": "mu", "lhs_invariant": ["1", "1"], "rhs_invariant": ["1", "1"]}, "ok": true, "result": true, "undecided": false, "witness": {"type": "scalar", "value": "1"}}'),
    (["classify", "--field", "GF(9);frob^1", "--group", "mu2sigma"],
     0,
     '{"args": {"budget": 1000000, "field": "GF(9);frob^1", "group": "mu2sigma"}, "certificate": null, "cmd": "classify", "ok": true, "result": {"classes": 4, "kind": "finite-list", "note": null, "representatives": [["1", "1"], ["1", "2"], ["w + 1", "w + 1"], ["w + 1", "2*w + 2"]]}, "undecided": false, "witness": null}'),
    (["classify", "--field", "GF(5);frob^1", "--group", "addker:s-1"],
     0,
     '{"args": {"budget": 1000000, "field": "GF(5);frob^1", "group": "addker:s-1"}, "certificate": null, "cmd": "classify", "ok": true, "result": {"classes": 5, "kind": "finite-list", "note": null, "representatives": ["0", "1", "2", "3", "4"]}, "undecided": false, "witness": null}'),
    (["iso", "--field", "QQ(t);shift", "--family", "add", "--op", "s-1", "--lhs", "0", "--rhs", "1/t"],
     0,
     '{"args": {"budget": 1000000, "family": "add", "field": "QQ(t);shift", "lhs": "0", "op": "s-1", "rhs": "1/t"}, "certificate": "no-rational-solution", "cmd": "iso", "detail": {"degree_bound": 0, "universal_denominator": "1"}, "ok": true, "result": false, "undecided": false, "witness": null}'),
    (["iso", "--field", "GF(9);frob^1", "--family", "mu", "--lhs", "1,1", "--rhs", "w^2,w^2"],
     0,
     '{"args": {"budget": 1000000, "family": "mu", "field": "GF(9);frob^1", "lhs": "1,1", "rhs": "w^2,w^2"}, "certificate": null, "cmd": "iso", "detail": null, "ok": true, "result": true, "undecided": false, "witness": {"type": "scalar", "value": "w"}}'),
    (["torsor-points", "--field", "QQ(t);shift", "--torsor", "add:s-1;1/(t*(t+1))"],
     0,
     '{"args": {"budget": 1000000, "field": "QQ(t);shift", "torsor": "add:s-1;1/(t*(t+1))"}, "certificate": null, "cmd": "torsor-points", "detail": {"degree_bound": 1, "universal_denominator": "t"}, "ok": true, "result": true, "undecided": false, "witness": {"type": "scalar", "value": "-1/(t)"}}'),
    (["torsor-points", "--field", "GF(9);frob^1", "--torsor", "diag:2;y1^2,y2^2;1,1", "--budget", "10"],
     3,
     '{"args": {"budget": 10, "field": "GF(9);frob^1", "torsor": "diag:2;y1^2,y2^2;1,1"}, "certificate": "budget-exhausted", "cmd": "torsor-points", "detail": null, "ok": true, "result": false, "undecided": true, "witness": null}'),
    (["normalize", "--field", "GF(9);frob^1", "--algebra", "mu:w,w", "--group", "mu2sigma", "--chi", "(1/a)*(y#y)"],
     0,
     '{"args": {"algebra": "mu:w,w", "budget": 1000000, "chi": "(1/a)*(y#y)", "field": "GF(9);frob^1", "group": "mu2sigma"}, "certificate": null, "cmd": "normalize", "ok": true, "result": {"a": "w", "b": "w", "family": "mu"}, "undecided": false, "witness": null}'),
    (["delta", "--field", "QQ(t);subst:t^2", "--d", "1", "--x", "t"],
     0,
     '{"args": {"budget": 1000000, "d": 1, "field": "QQ(t);subst:t^2", "x": "t"}, "certificate": "not-in-sigma-image", "cmd": "delta", "detail": {"failing_step": 0, "obstruction": "parity"}, "ok": true, "result": {"cocycle": "u1^-1*u2", "trivial": false}, "undecided": false, "witness": null}'),
    (["audit-amitsur", "--field", "GF(9);frob^1", "--algebra", "split:3;perm=1,2,0"],
     0,
     '{"args": {"algebra": "split:3;perm=1,2,0", "budget": 1000000, "field": "GF(9);frob^1"}, "certificate": null, "cmd": "audit-amitsur", "ok": true, "result": {"dim": 3, "dim_image_first": 2, "dim_ker_first": 1, "dim_ker_second": 2, "first_kernel": ["e1 + e2 + e3"], "ok": true}, "undecided": false, "witness": null}'),
    (["audit-amitsur", "--field", "QQ", "--algebra", "mu:2,1"],
     0,
     '{"args": {"algebra": "mu:2,1", "budget": 1000000, "field": "QQ"}, "certificate": null, "cmd": "audit-amitsur", "ok": true, "result": {"dim": 2, "dim_image_first": 1, "dim_ker_first": 1, "dim_ker_second": 1, "first_kernel": ["1"], "ok": true}, "undecided": false, "witness": null}'),
    (["audit-exactness", "--field", "GF(4);frob^1", "--d", "1"],
     0,
     '{"args": {"budget": 1000000, "d": 1, "field": "GF(4);frob^1"}, "certificate": null, "cmd": "audit-exactness", "ok": true, "result": {"delta_matches_lifting": true, "delta_trivial_count": 3, "image_size": 3, "kernel_matches": true, "kernel_points": 1, "ok": true, "torsors_all_trivial": true}, "undecided": false, "witness": null}'),
    (["descend", "--field", "GF(9);frob^1", "--algebra", "mu:w,w", "--chi", "(1/a)*(y#y)"],
     0,
     '{"args": {"algebra": "mu:w,w", "budget": 1000000, "chi": "(1/a)*(y#y)", "field": "GF(9);frob^1"}, "certificate": null, "cmd": "descend", "ok": true, "result": {"base_change_is_isomorphism": true, "dimension": 2, "labels": ["b0", "b1"]}, "undecided": false, "witness": null}'),
    (["descend", "--field", "QQ", "--algebra", "split:2;perm=1,0", "--c0", "mu:2,1"],
     0,
     '{"args": {"algebra": "split:2;perm=1,0", "budget": 1000000, "c0": "mu:2,1", "field": "QQ"}, "certificate": null, "cmd": "descend", "ok": true, "result": {"base_change_is_isomorphism": true, "dimension": 2, "labels": ["b0", "b1"]}, "undecided": false, "witness": null}'),
    (["field-eval", "--field", "GF(6)", "--expr", "1"],
     2,
     '{"args": {"budget": 1000000, "expr": "1", "field": "GF(6)"}, "certificate": "error: 6 is not a prime power", "cmd": "field-eval", "ok": false, "result": null, "undecided": false, "witness": null}'),
    # the monomial algebras: the Laurent lift of delta, free-polynomial
    # additive cocycles and points, Laurent sigma images with inverses and
    # divisions, and two rejected descriptors with their error texts
    (["delta", "--field", "QQ(t);subst:t^2", "--d", "2", "--x", "t^4+1"],
     0,
     '{"args": {"budget": 1000000, "d": 2, "field": "QQ(t);subst:t^2", "x": "t^4+1"}, "certificate": null, "cmd": "delta", "detail": null, "ok": true, "result": {"cocycle": "1", "trivial": true}, "undecided": false, "witness": {"type": "scalar", "value": "t + 1"}}'),
    (["cocycle-equiv", "--field", "QQ(t);shift", "--algebra", "freepoly:1;sigma(y1)=y1+1/t", "--group", "addker:s-1", "--chi", "1#y - y#1", "--chi2", "0"],
     0,
     '{"args": {"algebra": "freepoly:1;sigma(y1)=y1+1/t", "budget": 1000000, "chi": "1#y - y#1", "chi2": "0", "field": "QQ(t);shift", "group": "addker:s-1"}, "certificate": "no-rational-solution", "cmd": "cocycle-equiv", "detail": {"family": "add", "lhs_invariant": "1/(t)", "operator": "s + -1", "rhs_invariant": "0"}, "ok": true, "result": false, "undecided": false, "witness": null}'),
    (["normalize", "--field", "QQ(t);shift", "--algebra", "freepoly:1;sigma(y1)=y1+1/t", "--group", "addker:s-1", "--chi", "1#y - y#1"],
     0,
     '{"args": {"algebra": "freepoly:1;sigma(y1)=y1+1/t", "budget": 1000000, "chi": "1#y - y#1", "field": "QQ(t);shift", "group": "addker:s-1"}, "certificate": null, "cmd": "normalize", "ok": true, "result": {"a": "1/(t)", "family": "add", "operator": "s + -1"}, "undecided": false, "witness": null}'),
    (["torsor-points", "--field", "QQ(t);shift", "--torsor", "add:s-1;1/t", "--algebra", "freepoly:1;sigma(y1)=y1+1/t"],
     0,
     '{"args": {"algebra": "freepoly:1;sigma(y1)=y1+1/t", "budget": 1000000, "field": "QQ(t);shift", "torsor": "add:s-1;1/t"}, "certificate": null, "cmd": "torsor-points", "detail": null, "ok": true, "result": true, "undecided": false, "witness": {"type": "algebra-element", "value": "y"}}'),
    (["torsor-points", "--field", "GF(3);frob^1", "--torsor", "twist:GL1;d=1;psi=id;a=-1", "--algebra", "split:2;perm=1,0"],
     0,
     '{"args": {"algebra": "split:2;perm=1,0", "budget": 1000000, "field": "GF(3);frob^1", "torsor": "twist:GL1;d=1;psi=id;a=-1"}, "certificate": null, "cmd": "torsor-points", "detail": null, "ok": true, "result": true, "undecided": false, "witness": {"type": "matrix", "value": [["e1 + 2*e2"]]}}'),
    (["cocycle-check", "--field", "QQ(t);shift", "--algebra", "laurent:2;sigma(u1)=t*u2^-1;sigma(u2)=u1", "--group", "twist:GL1;d=2;psi=id", "--chi", "u1^-1#u1"],
     0,
     '{"args": {"algebra": "laurent:2;sigma(u1)=t*u2^-1;sigma(u2)=u1", "budget": 1000000, "chi": "u1^-1#u1", "field": "QQ(t);shift", "group": "twist:GL1;d=2;psi=id"}, "certificate": "not-a-group-element", "cmd": "cocycle-check", "detail": null, "ok": true, "result": false, "undecided": false, "witness": null}'),
    (["cocycle-check", "--field", "QQ(t);subst:t^2", "--algebra", "laurent:1;sigma(u)=t/u", "--group", "mu2sigma", "--chi", "u^-1#u"],
     0,
     '{"args": {"algebra": "laurent:1;sigma(u)=t/u", "budget": 1000000, "chi": "u^-1#u", "field": "QQ(t);subst:t^2", "group": "mu2sigma"}, "certificate": "not-a-group-element", "cmd": "cocycle-check", "detail": null, "ok": true, "result": false, "undecided": false, "witness": null}'),
    (["cocycle-check", "--field", "QQ(t);shift", "--algebra", "laurent:1;sigma(u)=u+1", "--group", "mu2sigma", "--chi", "1"],
     2,
     '{"args": {"algebra": "laurent:1;sigma(u)=u+1", "budget": 1000000, "chi": "1", "field": "QQ(t);shift", "group": "mu2sigma"}, "certificate": "error: Laurent sigma images must be monomials", "cmd": "cocycle-check", "ok": false, "result": null, "undecided": false, "witness": null}'),
    (["cocycle-check", "--field", "QQ(t);shift", "--algebra", "freepoly:1;sigma(y1)=y1*y1", "--group", "addker:s-1", "--chi", "0"],
     2,
     '{"args": {"algebra": "freepoly:1;sigma(y1)=y1*y1", "budget": 1000000, "chi": "0", "field": "QQ(t);shift", "group": "addker:s-1"}, "certificate": "error: sigma images must be affine-linear", "cmd": "cocycle-check", "ok": false, "result": null, "undecided": false, "witness": null}'),
    # mu2sigma over a Laurent algebra over QQ: a cocycle without an
    # invariant ships no witness and no detail
    (["cocycle-check", "--field", "QQ", "--algebra", "laurent:1;sigma(u)=u", "--group", "mu2sigma", "--chi", "1"],
     0,
     '{"args": {"algebra": "laurent:1;sigma(u)=u", "budget": 1000000, "chi": "1", "field": "QQ", "group": "mu2sigma"}, "certificate": null, "cmd": "cocycle-check", "detail": null, "ok": true, "result": true, "undecided": false, "witness": null}'),
    (["cocycle-equiv", "--field", "QQ", "--algebra", "laurent:1;sigma(u)=u", "--group", "mu2sigma", "--chi", "1", "--chi2", "1"],
     0,
     '{"args": {"algebra": "laurent:1;sigma(u)=u", "budget": 1000000, "chi": "1", "chi2": "1", "field": "QQ", "group": "mu2sigma"}, "certificate": null, "cmd": "cocycle-equiv", "detail": null, "ok": true, "result": true, "undecided": false, "witness": {"type": "matrix", "value": [["1"]]}}'),
]

# (index of the verified line in GOLDEN, exit code, verify's line)
VERIFY = [
    (10, 0,
     '{"args": {"target": "torsor-points"}, "certificate": null, "cmd": "verify", "ok": true, "result": true, "undecided": false, "witness": null}'),
    (9, 0,
     '{"args": {"target": "iso"}, "certificate": null, "cmd": "verify", "ok": true, "result": true, "undecided": false, "witness": null}'),
    (5, 0,
     '{"args": {"target": "cocycle-equiv"}, "certificate": null, "cmd": "verify", "ok": true, "result": true, "undecided": false, "witness": null}'),
]

# torsor-points lines found over an algebra, which `verify` checks with the
# family's torsor equations over that algebra
VERIFY_OVER_ALGEBRA = [23, 24]


def run_raw(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


@pytest.mark.parametrize("argv,code,line", GOLDEN,
                         ids=[f"{i}-{g[0][0]}" for i, g in enumerate(GOLDEN)])
def test_golden_line(argv, code, line):
    assert run_raw(argv) == (code, line + "\n")


@pytest.mark.parametrize("target,code,line", VERIFY,
                         ids=[GOLDEN[v[0]][0][0] for v in VERIFY])
def test_golden_verify(target, code, line):
    assert run_raw(["verify", "--line", GOLDEN[target][2]]) == (code, line + "\n")


@pytest.mark.parametrize("target", VERIFY_OVER_ALGEBRA,
                         ids=[GOLDEN[i][0][-1] for i in VERIFY_OVER_ALGEBRA])
def test_golden_verify_over_an_algebra(target):
    assert run_raw(["verify", "--line", GOLDEN[target][2]]) == (
        0, '{"args": {"target": "torsor-points"}, "certificate": null, "cmd": "verify", '
           '"ok": true, "result": true, "undecided": false, "witness": null}\n')
