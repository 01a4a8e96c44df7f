"""The command-line front door: JSON lines, determinism, exit codes, verify."""

import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest

from dcoh.cli import FAMILIES, main
from dcoh.groups import DiagonalMult


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    lines = [json.loads(line) for line in buf.getvalue().splitlines() if line]
    return code, lines


def test_classify_gf9_mu2():
    code, lines = run_cli(["classify", "--field", "GF(9);frob^1",
                           "--group", "mu2sigma"])
    assert code == 0
    out = lines[0]
    assert out["ok"] and out["result"]["classes"] == 4
    assert len(out["result"]["representatives"]) == 4


def test_iso_abramov_example():
    code, lines = run_cli(["iso", "--field", "QQ(t);shift", "--family", "add",
                           "--op", "s-1", "--lhs", "0", "--rhs", "1/t"])
    assert code == 0
    out = lines[0]
    assert out["ok"] is True
    assert out["result"] is False
    assert out["certificate"] == "no-rational-solution"


def test_cocycle_check_trivial():
    code, lines = run_cli(["cocycle-check", "--field", "QQ",
                           "--algebra", "mu:1,1", "--group", "mu2sigma",
                           "--chi", "1"])
    assert code == 0
    assert lines[0]["result"] is True


def test_cocycle_check_paper_cocycle():
    code, lines = run_cli(["cocycle-check", "--field", "GF(9);frob^1",
                           "--algebra", "mu:w,w", "--group", "mu2sigma",
                           "--chi", "(1/a)*(y#y)"])
    assert code == 0
    out = lines[0]
    assert out["result"] is True
    assert out["witness"]["type"] == "mu-invariant"


TWIST_GL3 = ["--field", "GF(3);frob^1", "--algebra", "split:2",
             "--group", "twist:GL3;d=1;psi=id"]


@pytest.mark.parametrize("chi", ["[[1,0,0],[0,1,0],[0,0,1]]",
                                 "[[1, 1#e2 - e2#1, 0], [0, 1, 0], [0, 0, 1]]"])
def test_cocycle_check_reads_matrix_literals(chi):
    """--chi takes [[..],..] with tensor-expression entries; the second is
    d1(g) d2(g)^{-1} for g = [[1,e2,0],[0,1,0],[0,0,1]], which sigma fixes,
    so both normalize to the identity target."""
    code, lines = run_cli(["cocycle-check"] + TWIST_GL3 + ["--chi", chi])
    assert code == 0 and lines[0]["result"] is True
    code, lines = run_cli(["normalize"] + TWIST_GL3 + ["--chi", chi])
    assert code == 0
    assert lines[0]["result"] == {"family": "twist",
                                  "a": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}


@pytest.mark.parametrize("group,chi", [
    ("twist:GL3;d=1;psi=id", "[[1,0],[0,1]]"),
    ("twist:GL3;d=1;psi=id", "[[1,0,0],[0,1],[0,0,1]]"),
    ("twist:GL3;d=1;psi=id", "1"),
    ("twist:GL2;d=1;psi=id", "[[1,0],[0,1]"),
    ("diag:1;y^2", "[[1]]")])
def test_cocycle_check_refuses_a_literal_of_another_shape(group, chi):
    code, lines = run_cli(["cocycle-check", "--field", "GF(3);frob^1",
                           "--algebra", "split:2", "--group", group, "--chi", chi])
    assert code == 2 and len(lines) == 1
    assert lines[0]["ok"] is False and lines[0]["certificate"].startswith("error: ")


@pytest.mark.parametrize("field,chi,bad", [
    ("QQ", "[[1, 1#e2 - e2#1], [0, 1]]", "0"),
    ("GF(9);frob^1", "[[1, 1#e2 - e2#1, 0], [0, 1, 0], [0, 0, 1]]", "w")])
def test_twist_cocycle_equiv_carries_its_invariants_to_verify(field, chi, bad):
    """A coboundary against the trivial cocycle, out of the search's reach
    (QQ is infinite, 9^9 exceeds the budget): c = 1 is the witness, and the
    detail lets verify re-check it."""
    n = chi.count("[") - 1
    ident = [["1" if i == j else "0" for j in range(n)] for i in range(n)]
    group = ["--field", field, "--algebra", "split:2", "--group", f"twist:GL{n};d=1;psi=id"]
    code, lines = run_cli(["cocycle-check"] + group + ["--chi", chi])
    assert code == 0 and lines[0]["witness"] == {"type": "twist-invariant", "a": ident}
    code, lines = run_cli(["cocycle-equiv"] + group +
                          ["--chi", chi, "--chi2", json.dumps(ident).replace('"', "")])
    out = lines[0]
    assert code == 0 and out["result"] is True and out["witness"]["value"] == ident
    assert out["detail"] == {"family": "twist", "twist": f"GL{n};d=1;psi=id",
                             "lhs_invariant": ident, "rhs_invariant": ident}
    vcode, vlines = run_cli(["verify", "--line", json.dumps(out)])
    assert vcode == 0 and vlines[0]["result"] is True
    # c = diag(bad, 1, ..): singular over QQ; over GF(9) sigma(w)/w = w^2 moves the identity
    doctored = [[bad if (i, j) == (0, 0) else e for j, e in enumerate(row)]
                for i, row in enumerate(ident)]
    vcode, vlines = run_cli(["verify", "--line", json.dumps(
        dict(out, witness={"type": "matrix", "value": doctored}))])
    assert vcode == 1 and vlines[0]["certificate"] == "witness-rejected"


def test_cocycle_equiv():
    code, lines = run_cli(["cocycle-equiv", "--field", "GF(9);frob^1",
                           "--algebra", "mu:w,w", "--group", "mu2sigma",
                           "--chi", "(1/a)*(y#y)", "--chi2", "(1/a)*(y#y)"])
    assert code == 0
    assert lines[0]["result"] is True


def test_cocycle_equiv_verify_round_trip():
    # y#y is the coboundary of y over mu:1,1, hence equivalent to 1
    code, lines = run_cli(["cocycle-equiv", "--field", "GF(9);frob^1",
                           "--algebra", "mu:1,1", "--group", "mu2sigma",
                           "--chi", "1", "--chi2", "y#y"])
    assert code == 0
    out = lines[0]
    assert out["result"] is True
    assert out["detail"]["family"] == "mu"
    vcode, vlines = run_cli(["verify", "--line", json.dumps(out)])
    assert vcode == 0 and vlines[0]["result"] is True

    # inequivalent pair gets a certificate: (1, 2) is not in the orbit of
    # (1, 1), since sigma(l)/l = l^2 is a square and 2 is not
    code2, lines2 = run_cli(["cocycle-equiv", "--field", "GF(9);frob^1",
                             "--algebra", "mu:1,2", "--group", "mu2sigma",
                             "--chi", "1", "--chi2", "y#y"])
    assert code2 == 0 and lines2[0]["result"] is False
    assert lines2[0]["certificate"] == "exhausted-units"


def test_torsor_points_and_verify_round_trip():
    code, lines = run_cli(["torsor-points", "--field", "QQ(t);shift",
                           "--torsor", "add:s-1;1/(t*(t+1))"])
    assert code == 0
    out = lines[0]
    assert out["result"] is True and out["witness"]["type"] == "scalar"
    vcode, vlines = run_cli(["verify", "--line", json.dumps(out)])
    assert vcode == 0 and vlines[0]["result"] is True

    # tampered witness is rejected
    bad = dict(out)
    bad["witness"] = {"type": "scalar", "value": "t"}
    vcode2, vlines2 = run_cli(["verify", "--line", json.dumps(bad)])
    assert vcode2 == 1 and vlines2[0]["result"] is False


def test_verify_mu_iso_witness():
    code, lines = run_cli(["iso", "--field", "GF(9);frob^1", "--family", "mu",
                           "--lhs", "1,1", "--rhs", "w^2,w^2/w"])
    # (w^2, w^2/w = w) is lambda = w applied to (1,1): sigma(w)/w = w^3/w = w^2
    out = lines[0]
    if out["result"]:
        vcode, vlines = run_cli(["verify", "--line", json.dumps(out)])
        assert vcode == 0 and vlines[0]["result"] is True


def test_delta_verify():
    code, lines = run_cli(["delta", "--field", "QQ(t);subst:t^2",
                           "--d", "1", "--x", "t^2"])
    assert code == 0
    out = lines[0]
    assert out["result"]["trivial"] is True
    vcode, vlines = run_cli(["verify", "--line", json.dumps(out)])
    assert vcode == 0 and vlines[0]["result"] is True

    code2, lines2 = run_cli(["delta", "--field", "QQ(t);subst:t^2",
                             "--d", "1", "--x", "t"])
    assert code2 == 0
    assert lines2[0]["result"]["trivial"] is False
    assert lines2[0]["certificate"] == "not-in-sigma-image"


def test_delta_charges_its_lift_algebra_before_building_it():
    """The lift algebra of delta has d sigma-images of length d: d*d is
    charged to the budget before any is built; d < 1 stays a parse error."""
    start = time.perf_counter()
    code, lines = run_cli(["delta", "--field", "QQ(t);shift", "--d", "1000000000",
                           "--x", "t", "--budget", "1000"])
    assert time.perf_counter() - start < 1
    assert code == 3 and len(lines) == 1
    assert lines[0]["certificate"].startswith("budget-exhausted")
    code, lines = run_cli(["delta", "--field", "QQ(t);shift", "--d", "0", "--x", "t"])
    assert code == 2 and len(lines) == 1 and lines[0]["certificate"] == "error: d must be >= 1"



def test_audit_amitsur_charges_its_tables_before_building_them():
    """split:<m> charges its m^3 structure constants at parse time, before
    the dense table exists, and audit-amitsur charges the dim^3 basis
    tensors of the tensor cube before the audit."""
    start = time.perf_counter()
    code, lines = run_cli(["audit-amitsur", "--field", "QQ", "--algebra", "split:40",
                           "--budget", "1000"])
    assert time.perf_counter() - start < 1
    assert code == 3 and len(lines) == 1
    assert lines[0]["undecided"] is True
    assert lines[0]["certificate"].startswith("budget-exhausted")
    # mu:2,1 costs nothing to parse; its audit's cube has 2^3 = 8 basis tensors
    code, lines = run_cli(["audit-amitsur", "--field", "QQ", "--algebra", "mu:2,1",
                           "--budget", "7"])
    assert code == 3 and len(lines) == 1
    assert lines[0]["certificate"] == "budget-exhausted: search space 8 exceeds budget 7"
    code, lines = run_cli(["audit-amitsur", "--field", "QQ", "--algebra", "mu:2,1",
                           "--budget", "8"])
    assert code == 0 and lines[0]["result"]["ok"] is True


@pytest.mark.parametrize("algebra", ["laurent:100000", "freepoly:100000"])
def test_monomial_descriptors_charge_their_generators_before_building_them(algebra):
    """laurent:<r> and freepoly:<r> charge the r^2 exponents of their r
    generator images at parse time, before any image is allocated."""
    start = time.perf_counter()
    code, lines = run_cli(["audit-amitsur", "--field", "QQ", "--algebra", algebra,
                           "--budget", "1000"])
    assert time.perf_counter() - start < 1
    assert code == 3 and len(lines) == 1
    assert lines[0]["undecided"] is True
    assert lines[0]["certificate"] == \
        "budget-exhausted: search space 10000000000 exceeds budget 1000"


# the budgeted search over QQ(t) with a dilation or t -> t^2: witnesses and
# the exhausted search's detail, byte for byte
BOUNDED_SEARCH_LINES = [
    (["iso", "--field", "QQ(t);dilate:2", "--family", "add", "--op", "s-1",
      "--lhs", "0", "--rhs", "3*t^2"], 0,
     '{"args": {"budget": 1000000, "family": "add", "field": "QQ(t);dilate:2", "lhs": "0", "op": "s-1", "rhs": "3*t^2"}, "certificate": null, "cmd": "iso", "detail": null, "ok": true, "result": true, "undecided": false, "witness": {"type": "scalar", "value": "t^2"}}'),
    (["iso", "--field", "QQ(t);subst:t^2", "--family", "add", "--op", "s-1",
      "--lhs", "0", "--rhs", "t^2-t"], 0,
     '{"args": {"budget": 1000000, "family": "add", "field": "QQ(t);subst:t^2", "lhs": "0", "op": "s-1", "rhs": "t^2-t"}, "certificate": null, "cmd": "iso", "detail": null, "ok": true, "result": true, "undecided": false, "witness": {"type": "scalar", "value": "t"}}'),
    (["torsor-points", "--field", "QQ(t);dilate:2", "--torsor", "add:s-t;1/(t+1)"], 3,
     '{"args": {"budget": 1000000, "field": "QQ(t);dilate:2", "torsor": "add:s-t;1/(t+1)"}, "certificate": "budgeted-search-exhausted", "cmd": "torsor-points", "detail": {"max_degree": 4}, "ok": true, "result": false, "undecided": true, "witness": null}'),
]


@pytest.mark.parametrize("argv,code,line", BOUNDED_SEARCH_LINES)
def test_bounded_search_lines(argv, code, line):
    buf = io.StringIO()
    with redirect_stdout(buf):
        got = main(argv)
    assert (got, buf.getvalue()) == (code, line + "\n")


def test_additive_invariant_over_a_laurent_algebra_line():
    """The additive invariant is read off over any algebra, so a Laurent
    coboundary gets its witness (it had none while the invariant needed a
    finite span to solve over)."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        got = main(["cocycle-check", "--field", "QQ(t);shift", "--algebra",
                    "laurent:1;sigma(u1)=u1", "--group", "addker:s-1", "--chi", "1#u - u#1"])
    assert (got, buf.getvalue()) == (0, '{"args": {"algebra": "laurent:1;sigma(u1)=u1", "budget": 1000000, "chi": "1#u - u#1", "field": "QQ(t);shift", "group": "addker:s-1"}, "certificate": null, "cmd": "cocycle-check", "detail": null, "ok": true, "result": true, "undecided": false, "witness": {"a": "0", "type": "additive-invariant"}}\n')


def test_audits():
    code, lines = run_cli(["audit-amitsur", "--field", "QQ",
                           "--algebra", "mu:1,1"])
    assert code == 0 and lines[0]["result"]["ok"] is True

    code, lines = run_cli(["audit-amitsur", "--field", "GF(9);frob^1",
                           "--algebra", "split:3;perm=1,2,0"])
    assert code == 0 and lines[0]["result"]["ok"] is True

    code, lines = run_cli(["audit-exactness", "--field", "GF(4);frob^1",
                           "--d", "1"])
    assert code == 0 and lines[0]["result"]["ok"] is True


def test_descend():
    code, lines = run_cli(["descend", "--field", "QQ",
                           "--algebra", "split:2;perm=1,0", "--c0", "mu:2,1"])
    assert code == 0
    out = lines[0]["result"]
    assert out["dimension"] == 2 and out["base_change_is_isomorphism"] is True

    code, lines = run_cli(["descend", "--field", "GF(9);frob^1",
                           "--algebra", "mu:w,w", "--chi", "(1/a)*(y#y)"])
    assert code == 0
    assert lines[0]["result"]["dimension"] == 2


def test_normalize_cli():
    code, lines = run_cli(["normalize", "--field", "GF(9);frob^1",
                           "--algebra", "mu:w,w", "--group", "mu2sigma",
                           "--chi", "(1/a)*(y#y)"])
    assert code == 0
    out = lines[0]["result"]
    assert out["family"] == "mu"


def test_field_eval():
    code, lines = run_cli(["field-eval", "--field", "QQ(t);shift",
                           "--expr", "1/t - 1/(t+1)"])
    assert code == 0
    assert lines[0]["result"] == "1/(t^2 + t)"


def test_parse_error_exit_2():
    code, lines = run_cli(["field-eval", "--field", "GF(6)", "--expr", "1"])
    assert code == 2
    assert lines[0]["ok"] is False

    code, lines = run_cli(["classify", "--field", "QQ", "--group", "nonsense"])
    assert code == 2


def test_undecided_exit_3():
    # diagonal torsor points over an infinite field are undecided
    code, lines = run_cli(["torsor-points", "--field", "QQ(t);shift",
                           "--torsor", "diag:1;y^3;t"])
    assert code == 3
    assert lines[0]["undecided"] is True


def test_large_finite_field_searches_are_refused_by_budget():
    # (q-1)^2 mu pairs and q field elements are charged before searching
    code, lines = run_cli(["classify", "--field", "GF(3^12);frob^1",
                           "--group", "mu2sigma"])
    assert code == 3 and lines[0]["undecided"] is True
    assert lines[0]["certificate"].startswith("budget-exhausted")
    code, lines = run_cli(["torsor-points", "--field", "GF(3^30);frob^1",
                           "--torsor", "mu:-1,1"])
    assert code == 3 and lines[0]["undecided"] is True
    assert lines[0]["certificate"].startswith("budget-exhausted")


def test_determinism():
    args = ["classify", "--field", "GF(9);frob^1", "--group", "mu2sigma"]
    _, first = run_cli(args)
    _, second = run_cli(args)
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    args2 = ["audit-exactness", "--field", "GF(9);frob^1", "--d", "2"]
    _, a = run_cli(args2)
    _, b = run_cli(args2)
    assert a == b


def test_laurent_and_freepoly_descriptors():
    code, lines = run_cli(["cocycle-check", "--field", "QQ(t);shift",
                           "--algebra", "laurent:1;sigma(u1)=t*u1",
                           "--group", "addker:s-1", "--chi", "0"])
    assert code == 0 and lines[0]["result"] is True

    code, lines = run_cli(["cocycle-check", "--field", "QQ(t);shift",
                           "--algebra", "freepoly:1;sigma(y1)=y1+1/t",
                           "--group", "addker:s-1",
                           "--chi", "1#y - y#1"])
    assert code == 0 and lines[0]["result"] is True


# searches whose candidates far exceed the default budget: each is charged
# before any work and refused at once
BUDGET_PROBES = [
    ["torsor-points", "--field", "GF(3^12);frob^1", "--torsor", "diag:1;y^2;1",
     "--algebra", "split:2"],
    ["torsor-points", "--field", "GF(3^12);frob^1", "--torsor", "twist:GL1;d=1;psi=id;a=1",
     "--algebra", "split:2"],
    ["torsor-points", "--field", "GF(3^8);frob^1", "--torsor",
     "twist:GL2;d=1;psi=id;a=[[1,0],[0,1]]"],
    ["classify", "--field", "GF(3^8);frob^1", "--group", "twist:GL2;d=1;psi=id"],
    ["audit-exactness", "--field", "GF(3^12);frob^1", "--d", "1"],
    # a pole far from the origin: shift windows of about 2*10^9 gcds
    ["iso", "--field", "QQ(t);shift", "--family", "add", "--op", "s - 1", "--lhs", "0",
     "--rhs", "1/(t+1000000000)"],
    ["torsor-points", "--field", "QQ(t);shift", "--torsor",
     "twist:GL1;d=1;psi=id;a=(t+1000000000)/t"],
]


@pytest.mark.parametrize("argv", BUDGET_PROBES, ids=[" ".join(a[:1] + a[3:4]) for a in BUDGET_PROBES])
def test_budget_is_charged_before_the_search(argv):
    code, lines = run_cli(argv)
    assert code == 3 and lines[0]["undecided"] is True
    assert lines[0]["certificate"].startswith("budget-exhausted")


@pytest.mark.parametrize("group", ["twist:GL0;d=1;psi=id", "twist:SL0;d=1;psi=trivial"])
def test_twist_of_size_zero_is_a_parse_error(group):
    code, lines = run_cli(["classify", "--field", "GF(5)", "--group", group])
    assert code == 2 and len(lines) == 1
    assert lines[0]["ok"] is False and lines[0]["certificate"] == "error: n must be >= 1"


def test_a_fault_in_a_decider_exits_4_with_one_line(monkeypatch):
    """An error that is no ValueError is a fault, not a parse error."""
    def fault(self, budget):
        raise KeyError("lost")

    monkeypatch.setattr(DiagonalMult, "classify", fault)
    code, lines = run_cli(["classify", "--field", "GF(9);frob^1", "--group", "mu2sigma"])
    assert code == 4 and len(lines) == 1
    assert lines[0]["ok"] is False and lines[0]["certificate"].startswith("internal-error:")


def test_verify_does_not_pass_unchecked_negatives():
    # s - 1 reaches 1/(t*(t+1)) (witness -1/t), so this "no" is false; a
    # negative line carries nothing verify could re-check
    false_no = {"cmd": "iso", "ok": True, "result": False, "witness": None,
                "certificate": "no-rational-solution", "undecided": False,
                "args": {"budget": 1000000, "family": "add", "field": "QQ(t);shift",
                         "lhs": "0", "op": "s-1", "rhs": "1/(t*(t+1))"}}
    vcode, vlines = run_cli(["verify", "--line", json.dumps(false_no)])
    assert vcode == 3 and vlines[0]["result"] == "unverified"
    assert vlines[0]["undecided"] is True

    # a true "no" is not passed either
    code, lines = run_cli(["iso", "--field", "QQ(t);shift", "--family", "add",
                           "--op", "s-1", "--lhs", "0", "--rhs", "1/t"])
    assert code == 0 and lines[0]["result"] is False
    vcode, vlines = run_cli(["verify", "--line", json.dumps(lines[0])])
    assert vcode == 3 and vlines[0]["result"] == "unverified"


def test_verify_checks_mu2sigma_class_counts():
    code, lines = run_cli(["classify", "--field", "GF(9);frob^1", "--group", "mu2sigma"])
    true_line = lines[0]
    assert code == 0 and true_line["result"]["classes"] == 4
    vcode, vlines = run_cli(["verify", "--line", json.dumps(true_line)])
    assert vcode == 0 and vlines[0]["result"] is True

    # one class: its orbit misses 12 of the 16 pairs of M
    one_class = json.loads(json.dumps(true_line))
    one_class["result"].update(classes=1, representatives=[["1", "1"]])
    vcode, vlines = run_cli(["verify", "--line", json.dumps(one_class)])
    assert vcode == 1 and vlines[0]["result"] is False

    # four classes, two of them one orbit: (w^2, w^2) is lambda = w on (1, 1)
    same_orbit = json.loads(json.dumps(true_line))
    same_orbit["result"]["representatives"][3] = ["w^2", "w^2"]
    vcode, vlines = run_cli(["verify", "--line", json.dumps(same_orbit)])
    assert vcode == 1 and vlines[0]["result"] is False


def test_verify_recomputes_mu2sigma_orbits_without_the_deciders_action(monkeypatch):
    """verify computes the orbits {(lambda^2 a, sigma(lambda)/lambda b)}
    itself: with the torus's translate broken to the identity, a list that
    claims all 16 pairs of M as classes (the true count is 4) is rejected."""
    from dcoh.fields import make_field
    from dcoh.groups import mu_pair_space
    pairs = [[str(a), str(b)] for a, b in mu_pair_space(make_field("GF(9);frob^1"))]
    line = {"cmd": "classify", "args": {"field": "GF(9);frob^1", "group": "mu2sigma"},
            "result": {"kind": "finite-list", "classes": 16, "representatives": pairs}}
    monkeypatch.setattr(DiagonalMult, "translate", lambda self, lam, v: v)
    vcode, vlines = run_cli(["verify", "--line", json.dumps(line)])
    assert len(pairs) == 16 and vcode == 1 and vlines[0]["result"] is False


def test_verify_reports_malformed_lines_as_errors():
    """A doctored line is a parse error (exit 2, one JSON line), never a
    traceback; a non-object result is no class list to check."""
    code, lines = run_cli(["classify", "--field", "GF(9);frob^1", "--group", "mu2sigma"])
    true_line = lines[0]
    no_list = dict(true_line, result=True)
    vcode, vlines = run_cli(["verify", "--line", json.dumps(no_list)])
    assert vcode == 3 and vlines[0]["result"] == "unverified"

    for reps in ([["1"]], [5], [["1", "1", "1"]], "1,1", [["x", "1"]]):
        bad = json.loads(json.dumps(true_line))
        bad["result"].update(classes=1, representatives=reps)
        vcode, vlines = run_cli(["verify", "--line", json.dumps(bad)])
        assert vcode == 2 and vlines[0]["ok"] is False, reps

    for doctored in ("true", "[1, 2]", json.dumps(dict(true_line, args=[])),
                     json.dumps(dict(true_line, witness="1"))):
        vcode, vlines = run_cli(["verify", "--line", doctored])
        assert vcode == 2 and vlines[0]["ok"] is False, doctored


def test_verify_of_a_class_list_with_an_unknown_group_is_a_parse_error():
    line = {"cmd": "classify", "args": {"field": "GF(9);frob^1", "group": "nonsense"},
            "result": {"kind": "finite-list", "classes": 1, "representatives": [["1", "1"]]}}
    vcode, vlines = run_cli(["verify", "--line", json.dumps(line)])
    assert vcode == 2 and len(vlines) == 1 and vlines[0]["ok"] is False
    assert vlines[0]["certificate"] == "error: unknown group descriptor 'nonsense'"


def test_verify_reads_class_lists_over_finite_fields_only():
    line = {"cmd": "classify", "args": {"field": "QQ", "group": "mu2sigma"},
            "result": {"kind": "finite-list", "classes": 1, "representatives": [["1", "1"]]}}
    vcode, vlines = run_cli(["verify", "--line", json.dumps(line)])
    assert vcode == 2 and len(vlines) == 1 and vlines[0]["ok"] is False


def test_missing_arguments_are_parse_errors():
    """iso without its family's --op or --twist, and verify of a line that
    lacks an argument its check reads, print one JSON line and exit 2."""
    no_lhs = {"cmd": "iso", "args": {"field": "GF(9);frob^1", "family": "mu"},
              "result": True, "witness": {"type": "scalar", "value": "1"}}
    for argv in (["iso", "--field", "QQ", "--family", "add", "--lhs", "0", "--rhs", "1"],
                 ["iso", "--field", "GF(9);frob^1", "--family", "twist", "--lhs", "1",
                  "--rhs", "1"],
                 ["verify", "--line", json.dumps(no_lhs)]):
        code, lines = run_cli(argv)
        assert code == 2 and len(lines) == 1 and lines[0]["ok"] is False, argv


def test_verify_rejects_a_twist_witness_outside_the_base_group():
    code, lines = run_cli(["iso", "--field", "GF(9);frob^1", "--family", "twist",
                           "--twist", "SL2;d=1;psi=id", "--lhs", "[[1,0],[0,1]]",
                           "--rhs", "[[1,0],[0,1]]"])
    assert code == 0 and lines[0]["witness"]["value"] == [["0", "1"], ["2", "0"]]
    vcode, vlines = run_cli(["verify", "--line", json.dumps(lines[0])])
    assert vcode == 0 and vlines[0]["result"] is True
    # det 2: the relation holds, but the witness is not in SL2
    doctored = dict(lines[0], witness={"type": "matrix", "value": [["2", "0"], ["0", "1"]]})
    vcode, vlines = run_cli(["verify", "--line", json.dumps(doctored)])
    assert vcode == 1 and vlines[0]["result"] is False


# torsor-points answers over an algebra, each with a doctored witness that
# is not a point
ALGEBRA_POINTS = [
    (["torsor-points", "--field", "GF(3);frob^1", "--torsor", "twist:GL1;d=1;psi=id;a=-1",
      "--algebra", "split:2;perm=1,0"], {"type": "matrix", "value": [["e1"]]}),
    (["torsor-points", "--field", "QQ(t);shift", "--torsor", "add:s-1;1/t",
      "--algebra", "freepoly:1;sigma(y1)=y1+1/t"], {"type": "algebra-element", "value": "2*y"}),
    (["torsor-points", "--field", "GF(3);frob^1", "--torsor", "diag:2;y1^2,s(y2)/y2;1,1",
      "--algebra", "split:2;perm=1,0"], {"type": "tuple", "value": ["e1", "e1 + e2"]}),
]


@pytest.mark.parametrize("argv,doctored", ALGEBRA_POINTS, ids=[a[4] for a, _ in ALGEBRA_POINTS])
def test_verify_checks_points_over_an_algebra(argv, doctored):
    code, lines = run_cli(argv)
    assert code == 0 and lines[0]["result"] is True
    vcode, vlines = run_cli(["verify", "--line", json.dumps(lines[0])])
    assert vcode == 0 and vlines[0]["result"] is True
    vcode, vlines = run_cli(["verify", "--line", json.dumps(dict(lines[0], witness=doctored))])
    assert vcode == 1 and vlines[0]["result"] is False
    # a witness that does not parse, or has another shape, stays unverified
    for bad in (dict(doctored, value=["e9"] if doctored["type"] == "tuple" else "e9"),
                {"type": "scalar" if doctored["type"] != "scalar" else "tuple", "value": "1"}):
        vcode, vlines = run_cli(["verify", "--line", json.dumps(dict(lines[0], witness=bad))])
        assert vcode == 3 and vlines[0]["result"] == "unverified", bad


# cocycle-equiv answers for equal cocycles, whose witness is the identity
# of G(A), with a doctored alpha that verify must reject and whether it
# lies in G(A)
GROUP_POINTS = [
    (["cocycle-equiv", "--field", "GF(9)", "--algebra", "mu:1,1", "--group", "mu2sigma",
      "--chi", "y#y", "--chi2", "y#y"], [["1"]], [["y"]], True),
    (["cocycle-equiv", "--field", "GF(3)", "--algebra", "split:2;perm=1,0",
      "--group", "twist:GL1;d=1;psi=id", "--chi", "1", "--chi2", "1"],
     [["e1 + e2"]], [["e1"]], False),
]


@pytest.mark.parametrize("argv,alpha,doctored,member", GROUP_POINTS,
                         ids=[a[6] for a, *_ in GROUP_POINTS])
def test_verify_checks_witnesses_in_the_group_over_the_algebra(argv, alpha, doctored, member):
    from dcoh.cli import parse_algebra, parse_group, parse_literal, parse_matrix
    from dcoh.fields import make_field
    from dcoh.groups import contains
    code, lines = run_cli(argv)
    assert code == 0 and lines[0]["witness"] == {"type": "matrix", "value": alpha}
    vcode, vlines = run_cli(["verify", "--line", json.dumps(lines[0])])
    assert vcode == 0 and vlines[0]["result"] is True
    # y is in mu2sigma(A) but carries y#y to y^-1#y; e1 is no unit
    field = make_field(argv[2])
    A = parse_algebra(field, argv[4], 100)
    value = parse_matrix(lambda e: parse_literal(A, e), f"[[{doctored[0][0]}]]")
    assert contains(parse_group(field, argv[6]), value, A) is member
    witness = {"type": "matrix", "value": doctored}
    vcode, vlines = run_cli(["verify", "--line", json.dumps(dict(lines[0], witness=witness))])
    assert vcode == 1 and vlines[0]["result"] is False
    # the cocycles are read as the query read them: a non-cocycle is a parse error
    args = dict(lines[0]["args"], chi2="-1")
    vcode, vlines = run_cli(["verify", "--line", json.dumps(dict(lines[0], args=args))])
    assert vcode == 2 and "not a cocycle" in vlines[0]["certificate"]


def test_verify_checks_alpha_on_cocycle_equiv_lines_without_detail():
    """A family that ships invariants writes no detail when a cocycle has
    none; the witness is then alpha in G(A), and verify checks it as such.
    diag ships no invariants: its lines stay unverified."""
    from dcoh.cli import parse_algebra, parse_group, parse_literal, parse_matrix
    from dcoh.fields import make_field
    from dcoh.groups import contains
    argv = ["cocycle-equiv", "--field", "QQ", "--algebra", "laurent:1;sigma(u)=u",
            "--group", "mu2sigma", "--chi", "1", "--chi2", "1"]
    code, lines = run_cli(argv)
    assert code == 0 and lines[0]["detail"] is None
    assert lines[0]["witness"] == {"type": "matrix", "value": [["1"]]}
    vcode, vlines = run_cli(["verify", "--line", json.dumps(lines[0])])
    assert vcode == 0 and vlines[0]["result"] is True
    # 2 squares to 4, so it lies outside mu2sigma(A)
    field = make_field("QQ")
    A = parse_algebra(field, argv[4], 100)
    assert contains(parse_group(field, "mu2sigma"),
                    parse_matrix(lambda e: parse_literal(A, e), "[[2]]"), A) is False
    outside = dict(lines[0], witness={"type": "matrix", "value": [["2"]]})
    vcode, vlines = run_cli(["verify", "--line", json.dumps(outside)])
    assert vcode == 1 and vlines[0]["result"] is False
    diag = dict(lines[0], args=dict(lines[0]["args"], group="diag:1;y^2"),
                witness={"type": "tuple", "value": ["1"]})
    vcode, vlines = run_cli(["verify", "--line", json.dumps(diag)])
    assert vcode == 3 and vlines[0]["result"] == "unverified"


# a "yes" iso and a torsor-points answer over the base field for each
# family, and an additive cocycle-equiv answer, with a doctored witness that
# verify must reject and a witness of another shape that it must leave
# unverified
FIELD_WITNESSES = [
    (["iso", "--field", "GF(9);frob^1", "--family", "mu", "--lhs", "1,1", "--rhs", "w^2,w^2"],
     {"type": "scalar", "value": "1"}, {"type": "tuple", "value": ["w"]}),
    (["torsor-points", "--field", "GF(9);frob^1", "--torsor", "mu:w^2,w^2"],
     {"type": "scalar", "value": "1"}, {"type": "tuple", "value": ["w"]}),
    (["iso", "--field", "QQ(t);shift", "--family", "add", "--op", "s-1", "--lhs", "0",
      "--rhs", "1/(t*(t+1))"],
     {"type": "scalar", "value": "t"}, {"type": "tuple", "value": ["-1/t"]}),
    (["torsor-points", "--field", "QQ(t);shift", "--torsor", "add:s-1;1/(t*(t+1))"],
     {"type": "scalar", "value": "t"}, {"type": "tuple", "value": ["-1/t"]}),
    (["iso", "--field", "GF(9);frob^1", "--family", "diag", "--diag-arity", "2",
      "--functions", "y1^2,y2^2", "--lhs", "1,1", "--rhs", "w^2,1"],
     {"type": "tuple", "value": ["1", "1"]}, {"type": "scalar", "value": "w"}),
    (["torsor-points", "--field", "GF(9);frob^1", "--torsor", "diag:2;y1^2,y2^2;w^2,1"],
     {"type": "tuple", "value": ["1", "1"]}, {"type": "scalar", "value": "w"}),
    (["iso", "--field", "GF(9);frob^1", "--family", "twist", "--twist", "SL2;d=1;psi=id",
      "--lhs", "[[1,0],[0,1]]", "--rhs", "[[1,0],[0,1]]"],
     {"type": "matrix", "value": [["1", "w"], ["0", "1"]]}, {"type": "scalar", "value": "1"}),
    (["torsor-points", "--field", "GF(9);frob^1", "--torsor",
      "twist:GL2;d=1;psi=id;a=[[1,0],[0,1]]"],
     {"type": "matrix", "value": [["w", "0"], ["0", "1"]]}, {"type": "scalar", "value": "1"}),
    (["cocycle-equiv", "--field", "QQ(t);shift", "--algebra", "freepoly:1;sigma(y1)=y1+1/(t*(t+1))",
      "--group", "addker:s-1", "--chi", "1#y - y#1", "--chi2", "0"],
     {"type": "scalar", "value": "t"}, {"type": "tuple", "value": ["1/t"]}),
]


@pytest.mark.parametrize("argv,doctored,misshapen", FIELD_WITNESSES,
                         ids=[f"{a[0]}-{a[4].split(':')[0]}" for a, _, _ in FIELD_WITNESSES])
def test_verify_checks_witnesses_over_the_base_field(argv, doctored, misshapen):
    code, lines = run_cli(argv)
    assert code == 0 and lines[0]["result"] is True
    vcode, vlines = run_cli(["verify", "--line", json.dumps(lines[0])])
    assert vcode == 0 and vlines[0]["result"] is True
    vcode, vlines = run_cli(["verify", "--line", json.dumps(dict(lines[0], witness=doctored))])
    assert vcode == 1 and vlines[0]["result"] is False
    vcode, vlines = run_cli(["verify", "--line", json.dumps(dict(lines[0], witness=misshapen))])
    assert vcode == 3 and vlines[0]["result"] == "unverified"


def test_verify_leaves_witnesses_of_another_length_unverified():
    code, lines = run_cli(["torsor-points", "--field", "GF(9);frob^1", "--torsor",
                           "diag:2;y1^2,y2^2;w^2,1"])
    assert code == 0 and lines[0]["witness"]["value"] == ["w", "1"]
    for value in (["w"], ["w", "1", "1"]):
        line = dict(lines[0], witness={"type": "tuple", "value": value})
        vcode, vlines = run_cli(["verify", "--line", json.dumps(line)])
        assert vcode == 3 and vlines[0]["result"] == "unverified", value


@pytest.mark.parametrize("algebra", ["laurent:1;sigma(u2)=u",
                                     "laurent:2;sigma(u0)=t*u1;sigma(u1)=u1",
                                     "freepoly:2;sigma(y3)=y1"])
def test_monomial_clauses_name_an_existing_generator(algebra):
    code, lines = run_cli(["cocycle-check", "--field", "QQ(t);shift", "--algebra", algebra,
                           "--group", "mu2sigma", "--chi", "1"])
    assert code == 2 and len(lines) == 1
    assert lines[0]["ok"] is False and "outside" in lines[0]["certificate"]


def test_abramov_ansatz_is_charged_to_the_budget():
    t0 = time.perf_counter()
    code, lines = run_cli(["iso", "--field", "QQ(t);shift", "--family", "add",
                           "--op", "s - 1", "--lhs", "0", "--rhs", "t^200000"])
    assert code == 3 and len(lines) == 1
    assert lines[0]["undecided"] is True and lines[0]["certificate"] == "budget-exhausted"
    assert time.perf_counter() - t0 < 20
    # the same shape within the budget is decided: t^20 = L(b) for a degree-21 b
    code, lines = run_cli(["iso", "--field", "QQ(t);shift", "--family", "add",
                           "--op", "s - 1", "--lhs", "0", "--rhs", "t^20"])
    assert code == 0 and lines[0]["result"] is True


SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
# an Abramov query run under python -O; with --doctor its polynomial ansatz
# returns a wrong numerator, which the solver's self-check must still catch;
# with --doctor-twist the sigma-preimages of a trivial-psi twist point are
# wrong, which the twist's self-check must catch
OPTIMIZED_QUERY = """
import sys
from dcoh import groups, operators, polys
from dcoh.cli import main
if "--doctor" in sys.argv:
    solve = operators.polynomial_solutions
    operators.polynomial_solutions = lambda *a: polys.padd(solve(*a), polys.ONE)
print(sys.flags.optimize, file=sys.stderr)
if "--doctor-twist" in sys.argv:
    groups._sigma_preimage_chain = lambda x, d: (x, None)
    sys.exit(main(["torsor-points", "--field", "QQ(t);shift", "--torsor",
                   "twist:GL1;d=1;psi=trivial;a=t"]))
sys.exit(main(["iso", "--field", "QQ(t);shift", "--family", "add", "--op", "s-1",
               "--lhs", "0", "--rhs", "1/(t*(t+1))"]))
"""
DOCTOR_FLAGS = {False: [], True: ["--doctor"], "twist": ["--doctor-twist"]}


@pytest.mark.parametrize("doctor", list(DOCTOR_FLAGS))
def test_witness_self_checks_fire_under_python_O(doctor):
    env = dict(os.environ, PYTHONPATH=SRC)
    argv = [sys.executable, "-O", "-c", OPTIMIZED_QUERY] + DOCTOR_FLAGS[doctor]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
    assert proc.stderr.strip() == "1"
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(lines) == 1
    if doctor:
        assert proc.returncode == 4
        assert lines[0]["ok"] is False
        assert lines[0]["certificate"].startswith(
            "internal-error: " + ("twist" if doctor == "twist" else "Abramov"))
    else:
        assert proc.returncode == 0
        assert lines[0]["result"] is True and lines[0]["witness"]["value"] == "-1/(t)"


def test_classify_prints_twist_representatives_as_matrices():
    classify = ["classify", "--field", "GF(3)", "--group"]
    code, lines = run_cli(classify + ["twist:GL1;d=1;psi=id"])
    assert code == 0 and lines[0]["result"] == {
        "classes": 2, "kind": "finite-list", "note": None,
        "representatives": [[["1"]], [["2"]]]}
    code, lines = run_cli(classify + ["twist:GL2;d=1;psi=id"])
    assert code == 0 and lines[0]["result"]["classes"] == 8
    assert lines[0]["result"]["representatives"] == [
        [["0", "1"], ["1", "0"]], [["0", "1"], ["1", "1"]], [["0", "1"], ["1", "2"]],
        [["0", "1"], ["2", "0"]], [["0", "1"], ["2", "1"]], [["0", "1"], ["2", "2"]],
        [["1", "0"], ["0", "1"]], [["2", "0"], ["0", "2"]]]


FIELD_EVAL_LINE = ('{"args": {"budget": 1000000, "expr": "1/2 + 3", "field": "QQ"}, '
                   '"certificate": null, "cmd": "field-eval", "ok": true, "result": "7/2", '
                   '"undecided": false, "witness": {"type": "scalar", "value": "7/2"}}')
GF9 = "GF(9);frob^1"
# every subcommand, then argparse usage errors (exit 2 with usage text on
# stderr), a parse error of a descriptor, --budget overrides and --help
PARSER_REUSE_ARGVS = [
    ["field-eval", "--field", "QQ", "--expr", "1/2 + 3"],
    ["cocycle-check", "--field", GF9, "--algebra", "mu:w,w", "--group", "mu2sigma",
     "--chi", "(1/a)*(y#y)"],
    ["cocycle-equiv", "--field", GF9, "--algebra", "mu:w,w", "--group", "mu2sigma",
     "--chi", "1", "--chi2", "(1/a)*(y#y)"],
    ["classify", "--field", GF9, "--group", "mu2sigma"],
    ["iso", "--field", "QQ(t);shift", "--family", "add", "--op", "s-1",
     "--lhs", "0", "--rhs", "1/(t*(t+1))"],
    ["torsor-points", "--field", GF9, "--torsor", "mu:w,w"],
    ["normalize", "--field", GF9, "--algebra", "mu:w,w", "--group", "mu2sigma",
     "--chi", "(1/a)*(y#y)"],
    ["delta", "--field", "QQ(t);subst:t^2", "--d", "1", "--x", "t^4 + 1"],
    ["audit-amitsur", "--field", GF9, "--algebra", "split:2;perm=1,0"],
    ["audit-exactness", "--field", "GF(4);frob^1", "--d", "1"],
    ["descend", "--field", "QQ", "--algebra", "split:2;perm=1,0", "--c0", "mu:2,1"],
    ["verify", "--line", FIELD_EVAL_LINE],
    ["field-eval", "--field", "QQ"],
    ["iso", "--field", "QQ", "--family", "nope", "--lhs", "0", "--rhs", "1"],
    ["frobnicate"],
    [],
    ["classify", "--field", "QQ", "--group", "nonsense"],
    ["torsor-points", "--field", GF9, "--torsor", "diag:2;y1^2,y2^2;1,1", "--budget", "5"],
    ["field-eval", "--field", "QQ", "--expr", "1", "--budget", "many"],
    ["verify", "--line", FIELD_EVAL_LINE, "--budget", "7"],
    ["--help"],
    ["descend", "--help"],
]


def _in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue()


def _fresh_process(argv):
    env = dict(os.environ, PYTHONPATH=SRC, COLUMNS="80")
    proc = subprocess.run([sys.executable, "-m", "dcoh.cli", *argv], capture_output=True,
                          text=True, env=env, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


def test_one_parser_serves_every_call_of_a_process(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    first = [_in_process(argv) for argv in PARSER_REUSE_ARGVS]
    again = [_in_process(argv) for argv in PARSER_REUSE_ARGVS]
    fresh = [_fresh_process(argv) for argv in PARSER_REUSE_ARGVS]
    assert first == again == fresh
    codes = [code for code, _, _ in fresh]
    assert codes == [0] * 12 + [2, 2, 2, 2, 2, 3, 2, 0, 0, 0]
    assert fresh[12][2] == ("usage: dcoh field-eval [-h] --field FIELD [--budget BUDGET] "
                            "--expr EXPR\ndcoh field-eval: error: the following arguments "
                            "are required: --expr\n")
    assert fresh[-2][1] == DCOH_HELP and fresh[-1][1] == DESCEND_HELP


# `dcoh --help` and `dcoh descend --help` at 80 columns (Python 3.11's argparse)
DCOH_HELP = """\
usage: dcoh [-h]
            {field-eval,cocycle-check,cocycle-equiv,classify,iso,torsor-points,normalize,delta,audit-amitsur,audit-exactness,descend,verify}
            ...

difference-algebraic cohomology and torsors

positional arguments:
  {field-eval,cocycle-check,cocycle-equiv,classify,iso,torsor-points,normalize,delta,audit-amitsur,audit-exactness,descend,verify}

options:
  -h, --help            show this help message and exit
"""
DESCEND_HELP = """\
usage: dcoh descend [-h] --field FIELD [--budget BUDGET] --algebra ALGEBRA
                    [--c0 C0] [--chi CHI]

options:
  -h, --help         show this help message and exit
  --field FIELD
  --budget BUDGET
  --algebra ALGEBRA  the faithfully flat algebra A
  --c0 C0            descend the canonical datum on C0 (x) A
  --chi CHI          descend the mu-twist datum for this cocycle
"""


def test_normalize_checks_its_cocycle_once(monkeypatch):
    """normalize runs is_cocycle once, in the command; torsor_from_cocycle
    takes the checked cocycle as it is.  A non-cocycle still ends with the
    same error line and user-error exit code."""
    from dcoh import cli, torsors
    calls = []
    is_cocycle = torsors.is_cocycle
    counted = lambda *args: calls.append(args) or is_cocycle(*args)
    monkeypatch.setattr(cli, "is_cocycle", counted)
    monkeypatch.setattr(torsors, "is_cocycle", counted)
    argv = ["normalize", "--field", "GF(9);frob^1", "--algebra", "mu:w,w", "--group", "mu2sigma",
            "--chi"]
    code, lines = run_cli(argv + ["(1/a)*(y#y)"])
    assert code == 0 and lines[0]["result"] == {"a": "w", "b": "w", "family": "mu"}
    assert len(calls) == 1
    code, lines = run_cli(argv + ["y#1"])
    assert code == 2 and lines[0]["certificate"] == \
        "error: --chi value is not a cocycle: not-a-group-element"


# torsor-points over an algebra is charged q^(dim R * slots), all of
# R^slots, however small the coset of the torsor's equations: the search
# below streams one candidate, yet over the budget it is refused
SPLIT_POINTS = ["torsor-points", "--field", "GF(9);frob^1", "--algebra", "split:2;perm=1,0"]


@pytest.mark.parametrize("torsor,witness", [
    ("twist:GL1;d=1;psi=trivial;a=w", '{"type": "matrix", "value": [["2*w*e1 + 2*w*e2"]]}'),
    ("add:s-1;w", '{"type": "algebra-element", "value": "2*w*e2"}')])
def test_torsor_points_over_an_algebra_charge_all_of_r_slots(torsor, witness):
    args = '"algebra": "split:2;perm=1,0", "budget": %d, "field": "GF(9);frob^1", "torsor": "' \
        + torsor + '"'
    for budget, code, line in (
            (80, 3, '{"args": {%s}, "certificate": "budget-exhausted: search space 81 exceeds '
                    'budget 80", "cmd": "torsor-points", "ok": true, "result": null, '
                    '"undecided": true, "witness": null}\n'),
            (81, 0, '{"args": {%s}, "certificate": null, "cmd": "torsor-points", "detail": null, '
                    '"ok": true, "result": true, "undecided": false, "witness": ' + witness + '}\n')):
        buf = io.StringIO()
        with redirect_stdout(buf):
            got = main(SPLIT_POINTS + ["--torsor", torsor, "--budget", str(budget)])
        assert (got, buf.getvalue()) == (code, line % (args % budget)), budget


# one cocycle-equiv "yes" line for each family that ships invariants
EQUIV_LINES = {
    "mu": ["--field", "GF(9);frob^1", "--algebra", "mu:1,1", "--group", "mu2sigma",
           "--chi", "1", "--chi2", "y#y"],
    "add": ["--field", "QQ(t);shift", "--algebra", "freepoly:1;sigma(y1)=y1+1/(t*(t+1))",
            "--group", "addker:s-1", "--chi", "1#y - y#1", "--chi2", "0"],
    "twist": ["--field", "QQ", "--algebra", "split:2", "--group", "twist:GL2;d=1;psi=id",
              "--chi", "[[1, 1#e2 - e2#1], [0, 1]]", "--chi2", "[[1, 0], [0, 1]]"],
}


@pytest.mark.parametrize("name", sorted(EQUIV_LINES))
def test_verify_reads_each_familys_group_from_the_cocycle_equiv_detail(name):
    """verify rebuilds the iso query from the detail keys the family names
    for its iso flags, and re-checks the witness."""
    assert set(EQUIV_LINES) == {fam.name for fam in FAMILIES.values() if fam.invariant}
    code, lines = run_cli(["cocycle-equiv"] + EQUIV_LINES[name])
    detail = lines[0]["detail"]
    assert code == 0 and lines[0]["result"] is True and detail["family"] == name
    assert set(detail) - {"family", "lhs_invariant", "rhs_invariant"} == \
        set(FAMILIES[name].iso_detail)
    vcode, vlines = run_cli(["verify", "--line", json.dumps(lines[0])])
    assert vcode == 0 and vlines[0]["result"] is True
