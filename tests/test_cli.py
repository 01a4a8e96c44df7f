"""The command-line front door: JSON lines, determinism, exit codes, verify."""

import io
import json
from contextlib import redirect_stdout

from dcoh.cli import main


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
