import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ppv import cli, jsonio
from ppv.cli import main
from ppv.descent import GaloisDatum, standard_sl2_decomposition
from ppv.errors import VerificationFailed
from ppv.groups import FiniteCyclic, GaSub
from ppv.ore import OrePoly
from ppv.parser import parse_k, parse_operator
from ppv.rationals import k_const, t_var
from ppv.scalars import rational
from ppv.series import TruncLaurent, TwoVarLaurent


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_ore_divmod(capsys):
    code, out = run(capsys, "ore", "divmod", "t*Dt + 1", "Dt")
    assert code == 0
    assert "quotient:  t" in out
    assert "remainder: 1" in out


def test_ore_mul_and_gcrd(capsys):
    code, out = run(capsys, "ore", "mul", "Dt", "t")
    assert code == 0 and "t*Dt + 1" in out
    code, out = run(capsys, "ore", "gcrd", "(t*Dt - 1)*Dt", "(Dt + 1)*Dt")
    assert code == 0 and "gcrd: Dt" in out


def test_ore_apply(capsys):
    code, out = run(capsys, "ore", "apply", "t*Dt + 1", "t")
    assert code == 0 and "2*t" in out


def test_ore_apply_refuses_an_operator_argument(capsys):
    code = main(["ore", "apply", "Dt", "Dt"])
    err = capsys.readouterr().err
    assert code == 2
    assert "element of K or K(x)" in err and "internal error" not in err


def test_decompose(capsys):
    code, out = run(capsys, "decompose", "(x+1)/(x*(x-1))")
    assert code == 0
    assert "logarithmic part" in out
    assert "antiderivative" in out


@pytest.mark.parametrize("expr, field", [("1/(x^2+1)", "over Q,"),
                                         ("1/(x^2+zeta(3))", "over Q(zeta_3),")],
                         ids=["q", "q_zeta3"])
def test_decompose_names_the_field_it_searched(capsys, expr, field):
    code = main(["decompose", expr])
    err = capsys.readouterr().err
    assert code == 2
    assert "no further roots" in err and field in err and "internal error" not in err
    # over Q(zeta_4) the same denominator splits
    assert run(capsys, "decompose", "zeta(4)/(x^2+1)")[0] == 0


def test_decompose_json(capsys):
    code, out = run(capsys, "decompose", "(x+1)/(x*(x-1))", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["type"] == "pf_decomp"
    assert len(doc["terms"]) == 2


def test_realize_and_check(tmp_path, capsys):
    out_file = tmp_path / "real.json"
    code, out = run(
        capsys, "realize", "--kind", "gm", "--op", "Dt", "--basis", "1,t", "--json"
    )
    assert code == 0
    out_file.write_text(out)
    code, out = run(
        capsys, "check", "--membership", "--realization", str(out_file), "--op", "Dt"
    )
    assert code == 0 and "yes" in out
    code, out = run(
        capsys, "check", "--membership", "--realization", str(out_file), "--op", "1"
    )
    assert code == 1 and "no" in out


def test_realize_refusal_exit_code(capsys):
    code, _ = run(capsys, "realize", "--kind", "gm", "--op", "t*Dt + 1", "--basis", "1,t")
    assert code == 2  # basis does not solve L o Dt: a PpvError


def test_realize_failure_text_is_in_the_grammar(capsys):
    code = main(["realize", "--kind", "ga", "--op", "t*Dt - zeta(8)", "--basis", "t"])
    err = capsys.readouterr().err
    assert code == 2
    assert "candidate t is not annihilated by L" in err
    assert "RatFunc(" not in err and "Scalar(" not in err


def test_block_verbs(capsys):
    code, out = run(capsys, "block", "--kind", "ga", "--q", "1", "--h", "t", "--e", "2",
                    "--order", "8")
    assert code == 0
    assert "pass" in out and "FAIL" not in out
    code, out = run(capsys, "block", "--kind", "cyclic", "--q", "0", "--r", "2", "--e", "1",
                    "--order", "6")
    assert code == 0
    code, out = run(capsys, "block", "--kind", "gmconst", "--q", "2", "--e", "1",
                    "--order", "6")
    assert code == 0


@pytest.mark.parametrize("q", ["x/x", "(x+1)/(x+1)"])
def test_block_refuses_a_point_in_k_of_x(capsys, q):
    code = main(["block", "--kind", "ga", "--q", q, "--h", "t"])
    err = capsys.readouterr().err
    assert code == 2
    assert "parameter field" in err and "internal error" not in err


def test_block_reads_a_constant_of_k_as_its_coefficient(capsys):
    argv = ["block", "--kind", "ga", "--h", "t", "--e", "1", "--order", "6", "--json"]
    assert run(capsys, *argv, "--q", "t/t") == run(capsys, *argv, "--q", "1")
    code = main(argv + ["--q", "t"])
    assert code == 2 and "constant point" in capsys.readouterr().err


def test_block_refuses_an_e_that_its_decoder_refuses(capsys):
    # every node the encoder writes decodes, so --e stops where jsonio stops
    argv = ["block", "--kind", "gmconst", "--q", "1", "--order", "1", "--json"]
    code, out = run(capsys, *argv, "--e", "1024")
    assert code == 0 and jsonio.decode(json.loads(out)).e == 1024
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--e", "1025"])
    assert exc.value.code == 2 and "1..1024" in capsys.readouterr().err


@pytest.mark.parametrize("model", [
    TwoVarLaurent(rational(1), {0: TruncLaurent("w", {0: rational(1)}, 4)}, 4),
    rational(1),
    t_var(),
], ids=["two_var", "scalar", "ratfunc"])
def test_check_refuses_a_model_that_is_not_logext(tmp_path, capsys, model):
    assert main(["realize", "--kind", "ga", "--op", "t*Dt - 1", "--basis", "t", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    doc["realization"]["model"] = jsonio.encode(model)
    path = tmp_path / "real.json"
    path.write_text(json.dumps(doc))
    code = main(["check", "--membership", "--realization", str(path), "--op", "Dt"])
    err = capsys.readouterr().err
    assert code == 2
    assert "model must be a 'logext' node" in err and "internal error" not in err


def test_check_refuses_a_model_that_names_a_point_twice(tmp_path, capsys):
    # t*log(x-1) - t*log(x-1) is zero, a member of every group; read as
    # -t*log(x-1), it would not be a member of Ga^Dt
    assert main(["realize", "--kind", "ga", "--op", "t*Dt - 1", "--basis", "t", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    logs = doc["realization"]["model"]["logs"]
    logs.append({"point": logs[0]["point"], "coeff": jsonio.encode(-t_var())})
    path = tmp_path / "real.json"
    path.write_text(json.dumps(doc))
    code = main(["check", "--membership", "--realization", str(path), "--op", "Dt"])
    err = capsys.readouterr().err
    assert code == 2
    assert "names a point twice" in err and "internal error" not in err


def test_orbits_verb(tmp_path, capsys):
    gd_path = tmp_path / "gd.json"
    gd_path.write_text(json.dumps(jsonio.encode(GaloisDatum.ramified(2))))
    code, out = run(capsys, "orbits", "--gd", str(gd_path), "--count", "2")
    assert code == 0
    assert "{1, -1}" in out and "{2, -2}" in out


def test_orbits_on_odd_field_e2_datum(tmp_path, capsys):
    # the group table closes, and the automorphism moves the scanned
    # points c + zeta_3, so a free orbit of all four elements is found
    gd_path = tmp_path / "gd.json"
    gd = GaloisDatum.build(2, field_order=3, generators=[(2, 0)])
    gd_path.write_text(json.dumps(jsonio.encode(gd)))
    code = main(["orbits", "--gd", str(gd_path), "--count", "1", "--json"])
    captured = capsys.readouterr()
    assert code == 0 and "not closed" not in captured.err
    [orbit] = json.loads(captured.out)
    assert len(orbit["points"]) == 4


@pytest.mark.parametrize("e, field_order", [(3, 3), (1, 4), (2, 4)])
def test_orbits_on_data_that_move_the_field(tmp_path, capsys, e, field_order):
    # complex conjugation fixes every rational point; the scan over
    # c + zeta_N finds free orbits of the full group
    gd = GaloisDatum.build(e, field_order=field_order, generators=[(field_order - 1, 0)])
    gd_path = tmp_path / "gd.json"
    gd_path.write_text(json.dumps(jsonio.encode(gd)))
    code = main(["orbits", "--gd", str(gd_path), "--count", "2", "--json"])
    orbits = json.loads(capsys.readouterr().out)
    assert code == 0
    assert [len(o["points"]) for o in orbits] == [gd.order()] * 2


@pytest.mark.parametrize("field, value", [
    ("field_order", True), ("base_order", "1"), ("e", 2.0), ("generators", [[1, "1"]]),
])
def test_orbits_refuses_galois_fields_that_are_not_integers(tmp_path, capsys, field, value):
    # a boolean once decoded as the integer 1 and was written back as "order": true
    datum = {"type": "galois", "e": 2, "field_order": 1, "base_order": 1, "generators": []}
    gd_path = tmp_path / "gd.json"
    gd_path.write_text(json.dumps({**datum, field: value}))
    assert main(["orbits", "--gd", str(gd_path), "--count", "1", "--json"]) == 2
    assert "must be a JSON integer" in capsys.readouterr().err


def test_certify_verb(tmp_path, capsys):
    group, parts = standard_sl2_decomposition()
    group_path = tmp_path / "group.json"
    gd_path = tmp_path / "gd.json"
    out_path = tmp_path / "cert.json"
    group_path.write_text(json.dumps({
        "group": jsonio.encode(group),
        "decomposition": [jsonio.encode(p) for p in parts],
    }))
    gd_path.write_text(json.dumps(jsonio.encode(GaloisDatum.trivial())))
    code, out = run(
        capsys, "certify", "--group", str(group_path), "--galois", str(gd_path),
        "--trunc", "8", "--samples", "5", "--out", str(out_path),
    )
    assert code == 0
    assert "all passed" in out
    cert = json.loads(out_path.read_text())
    assert cert["all_exact_checks_passed"] is True
    assert len(cert["blocks"]) == 4


def _sl2_input() -> dict:
    group, parts = standard_sl2_decomposition()
    return {"group": jsonio.encode(group), "decomposition": [jsonio.encode(p) for p in parts]}


def _certify_doc(tmp_path, capsys, doc, gd, *flags):
    group_path, gd_path = tmp_path / "group.json", tmp_path / "gd.json"
    group_path.write_text(json.dumps(doc))
    gd_path.write_text(json.dumps(jsonio.encode(gd)))
    code = main(["certify", "--group", str(group_path), "--galois", str(gd_path), *flags])
    return code, capsys.readouterr().err


def _set(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


_POLY = jsonio.encode(t_var().num)
_SCALAR = jsonio.encode(rational(3))


@pytest.mark.parametrize("path, node, message", [
    (("decomposition", 0, "h"), _POLY, "decomposition[0].h must be an element of K, got a 'poly'"),
    (("decomposition", 1, "h"), _SCALAR, "decomposition[1].h must be an element of K, got a 'scalar'"),
    (("decomposition", 0, "group", "operator"), _SCALAR,
     "decomposition[0].group.operator must be an operator, got a 'scalar' node"),
    (("decomposition", 0, "embedding", 0, 0), _POLY,
     "decomposition[0].embedding[0][0] must be an element of K, got a 'poly' node"),
    (("group", "parts", 2, "embedding", 1, 0), _POLY,
     "group.parts[2].embedding[1][0] must be an element of K, got a 'poly' node"),
], ids=["h_poly", "h_scalar", "operator_scalar", "embedding_poly", "target_embedding_poly"])
def test_certify_refuses_a_mistyped_child_with_its_path(tmp_path, capsys, path, node, message):
    # before typed decoding the first two exited 3 (AttributeError) and the others certified
    doc = _sl2_input()
    _set(doc, path, node)
    code, err = _certify_doc(tmp_path, capsys, doc, GaloisDatum.trivial(), "--trunc", "4",
                             "--samples", "2")
    assert code == 2 and message in err and "internal error" not in err


@pytest.mark.parametrize("e", [0, -2])
def test_certify_refuses_an_operator_e_below_1(tmp_path, capsys, e):
    # e = 0 exited 3 (ZeroDivisionError) and -2 blamed the target group
    doc = _sl2_input()
    _set(doc, ("decomposition", 0, "group", "operator", "e"), e)
    code, err = _certify_doc(tmp_path, capsys, doc, GaloisDatum.trivial(), "--trunc", "4",
                             "--samples", "2")
    assert code == 2 and "internal error" not in err
    assert "decomposition[0].group.operator.e %d is outside 1..1024" % e in err


def test_check_refuses_a_log_point_that_is_not_in_k(tmp_path, capsys):
    assert main(["realize", "--kind", "ga", "--op", "t*Dt - 1", "--basis", "t", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    doc["realization"]["model"]["logs"][0]["point"] = _POLY
    path = tmp_path / "real.json"
    path.write_text(json.dumps(doc))
    assert main(["check", "--membership", "--realization", str(path), "--op", "t*Dt - 1"]) == 2
    err = capsys.readouterr().err
    assert "realization.model.logs[0].point must be an element of K, got a 'poly' node" in err


def _claim(doc, group):
    """Part 0 and the target's part 0 both claim group."""
    node = jsonio.encode(group)
    doc["decomposition"][0]["group"] = node
    doc["group"]["parts"][0]["group"] = node


@pytest.mark.parametrize("change, message", [
    (lambda doc: _claim(doc, GaSub(parse_operator("Dt - 1"))),
     "part 0: additive part must claim Ga^L with L of order 1 and L(h) = 0"),
    (lambda doc: _claim(doc, GaSub(OrePoly.constant(k_const(3)))),
     "part 0: additive part must claim Ga^L with L of order 1 and L(h) = 0"),
    (lambda doc: _set(doc, ("group", "parts", 0, "group"), jsonio.encode(FiniteCyclic(5))),
     "part 0 does not match the target group"),
], ids=["ga_dt_minus_1", "ga_scalar_3", "target_z5"])
def test_certify_refuses_groups_it_does_not_verify(tmp_path, capsys, change, message):
    # each of these once certified with exit 0, "exact checks: all passed"
    doc = _sl2_input()
    change(doc)
    code, err = _certify_doc(tmp_path, capsys, doc, GaloisDatum.ramified(2), "--trunc", "4",
                             "--samples", "2")
    assert code == 2 and message in err


def test_certify_refuses_a_target_that_is_not_its_single_part(tmp_path, capsys):
    doc = {"group": jsonio.encode(FiniteCyclic(3)),
           "decomposition": [jsonio.encode(p) for p in standard_sl2_decomposition()[1][:1]]}
    code, err = _certify_doc(tmp_path, capsys, doc, GaloisDatum.trivial(), "--trunc", "4")
    assert code == 2 and "part 0 does not match the target group" in err
    doc["group"] = doc["decomposition"][0]["group"]
    assert _certify_doc(tmp_path, capsys, doc, GaloisDatum.trivial(), "--trunc", "4")[0] == 0


@pytest.mark.parametrize("h, e, field_order, generators, field", [
    ("zeta(9)", 2, 4, [(3, 0)], 9),
    ("zeta(5)", 2, 4, [(3, 0)], 5),
    ("zeta(9)", 3, 3, [(2, 0)], 9),
    ("zeta(8)", 2, 4, [(3, 0)], 8),
], ids=["zeta9_exit3", "zeta5_exit1", "zeta9_e3_exit1", "zeta8_exit0"])
def test_certify_refuses_a_part_outside_k_when_gamma_moves_k(tmp_path, capsys, h, e,
                                                             field_order, generators, field):
    # the ids name the exit code each probe had before the refusal; the last one
    # certified on an arbitrary extension of sigma to the larger field
    doc = _sl2_input()
    _set(doc, ("decomposition", 0, "h"), jsonio.encode(parse_k(h)))
    gd = GaloisDatum.build(e, field_order=field_order, generators=generators)
    code, err = _certify_doc(tmp_path, capsys, doc, gd, "--trunc", "4", "--samples", "2")
    assert code == 2 and "internal error" not in err
    assert "part 0: h has a coefficient written in Q(zeta_%d), not in k = Q(zeta_%d)" % (
        field, field_order) in err


def test_exit_1_on_failed_verification(monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise VerificationFailed("block at 1 failed exact checks: y(t=0) = 1")

    monkeypatch.setattr(cli, "make_block", fail)
    code = main(["block", "--kind", "gmconst", "--q", "1"])
    assert code == 1
    assert "y(t=0) = 1" in capsys.readouterr().err


def test_exit_2_on_malformed_input(tmp_path, capsys):
    code = main(["ore", "divmod", "Dt", "0"])
    assert code == 2
    assert "zero operator" in capsys.readouterr().err
    bad = tmp_path / "gd.json"
    for text in ('{"type": "bogus"}', '{"type": "galois"}', "[1, 2]", "{not json"):
        bad.write_text(text)
        assert main(["orbits", "--gd", str(bad), "--count", "1"]) == 2
    group = tmp_path / "group.json"
    group.write_text('{"decomposition": []}')
    code = main(["certify", "--group", str(group), "--galois", str(bad)])
    assert code == 2
    assert "'group'" in capsys.readouterr().err
    assert main(["orbits", "--gd", str(tmp_path / "missing.json"), "--count", "1"]) == 2
    # an empty decomposition would certify nothing
    sl2, _ = standard_sl2_decomposition()
    group.write_text(json.dumps({"group": jsonio.encode(sl2), "decomposition": []}))
    z2 = tmp_path / "z2.json"
    z2.write_text(json.dumps(jsonio.encode(GaloisDatum.ramified(2))))
    assert main(["certify", "--group", str(group), "--galois", str(z2)]) == 2
    assert "empty decomposition" in capsys.readouterr().err
    # a realization of an unknown kind
    real = tmp_path / "real.json"
    assert main(["realize", "--kind", "gm", "--op", "Dt", "--basis", "1,t", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    doc["realization"]["kind"] = "bogus"
    real.write_text(json.dumps(doc))
    assert main(["check", "--membership", "--realization", str(real), "--op", "t*Dt - 1"]) == 2
    assert "realization kind" in capsys.readouterr().err
    # a kind that contradicts the claimed group's kind
    doc["realization"]["kind"] = "ga"
    real.write_text(json.dumps(doc))
    assert main(["check", "--membership", "--realization", str(real), "--op", "Dt"]) == 2
    assert "contradicts its claimed group 'gm'" in capsys.readouterr().err
    # counts and orders below 1 and unknown criteria are refused by argparse
    for argv in (["block", "--kind", "cyclic", "--q", "1", "--r", "0"],
                 ["block", "--kind", "cyclic", "--q", "1", "--r", "-2"],
                 ["block", "--kind", "gmconst", "--q", "1", "--e", "0"],
                 ["block", "--kind", "gmconst", "--q", "1", "--e", "-1"],
                 ["block", "--kind", "gmconst", "--q", "1", "--order", "0"],
                 ["block", "--kind", "gmconst", "--q", "1", "--order", "\u0663"],
                 ["orbits", "--gd", str(bad), "--count", "0"],
                 ["certify", "--group", str(group), "--galois", str(bad), "--samples", "0"],
                 ["certify", "--group", str(group), "--galois", str(bad), "--trunc", "0"],
                 ["selftest", "--criteria", "abc"],
                 ["selftest", "--criteria", "99"],
                 ["selftest", "--criteria", "1,0"],
                 ["selftest", "--trunc", "-1", "--criteria", "1"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
    assert "criteria are numbered 1 to 8" in capsys.readouterr().err


def test_exit_3_on_internal_error(monkeypatch, capsys):
    def crash(*args, **kwargs):
        raise RuntimeError("unexpected\nstate")

    monkeypatch.setattr(cli, "make_block", crash)
    code = main(["block", "--kind", "gmconst", "--q", "1"])
    assert code == 3
    err = capsys.readouterr().err
    assert err == "internal error: RuntimeError: unexpected state\n"


@pytest.mark.parametrize("expr, col", [("\u00b2", 1), ("\u0663/(x-1)", 1), ("t\u00b2", 2),
                                       ("\u00e9", 1), ("3\u0663", 2), ("zeta(\uff18)", 6)])
def test_non_ascii_digits_and_letters_are_refused(capsys, expr, col):
    assert main(["decompose", expr]) == 2
    err = capsys.readouterr().err
    assert "unexpected character" in err and "(line 1, column %d)" % col in err


def test_a_closed_stdout_exits_141_quietly():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    read_end, write_end = os.pipe()
    os.close(read_end)  # nobody reads: the first write fails with EPIPE
    try:
        done = subprocess.run(
            [sys.executable, "-c", "import sys; from ppv.cli import main; sys.exit(main())",
             "ore", "mul", "Dt", "t"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, text=True, timeout=60)
    finally:
        os.close(write_end)
    assert done.returncode == 141
    assert done.stderr == ""


def test_parse_error_reported(capsys):
    code = main(["ore", "divmod", "t*Dt + ", "Dt"])
    captured = capsys.readouterr()
    assert code == 2
    assert "column 8" in captured.err


def test_selftest_subset(capsys):
    code, out = run(capsys, "selftest", "--criteria", "5", "--trunc", "8")
    assert code == 0
    assert "[PASS] criterion 5" in out


def test_trunc_env_var_controls_default_order(monkeypatch, capsys):
    monkeypatch.setenv("PPV_TRUNC", "6")
    code, out = run(capsys, "block", "--kind", "gmconst", "--q", "0", "--e", "1",
                    "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["order"] == 6
    for bad in ("0", "-1", "ten", "\u0663"):
        monkeypatch.setenv("PPV_TRUNC", bad)
        assert main(["block", "--kind", "gmconst", "--q", "0"]) == 2
        assert "PPV_TRUNC must be an integer >= 1" in capsys.readouterr().err


def _replace_first_scalar(node, by):
    """Put by in place of the first 'scalar' node found depth first; True once done."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        if isinstance(child, dict) and child.get("type") == "scalar":
            node[key] = by
            return True
        if isinstance(child, (dict, list)) and _replace_first_scalar(child, by):
            return True
    return False


@pytest.mark.parametrize("expr", ["(" * 400 + "x" + ")" * 400, "-" * 5000 + "x",
                                  "1/(" * 400 + "x" + ")" * 400],
                         ids=["parentheses", "unary_minus", "quotients"])
def test_deeply_nested_expressions_exit_2(capsys, expr):
    code = main(["decompose", "--", expr])
    err = capsys.readouterr().err
    assert code == 2
    assert "nested too deeply (line 1, column" in err and "internal error" not in err
    # shallow nesting still parses
    assert run(capsys, "decompose", "(" * 50 + "x" + ")" * 50)[0] == 0


def test_deeply_nested_json_exits_2(tmp_path, capsys):
    gd = tmp_path / "gd.json"
    gd.write_text(json.dumps(jsonio.encode(GaloisDatum.trivial())))
    group = tmp_path / "group.json"
    # too deep for the JSON reader itself
    group.write_text("[" * 100000 + "]" * 100000)
    code = main(["certify", "--group", str(group), "--galois", str(gd)])
    err = capsys.readouterr().err
    assert code == 2
    assert "JSON nested too deeply to read" in err and "internal error" not in err
    # readable, but a chain of polynomials too deep to decode inside a valid group
    chain = {"type": "scalar", "order": 1, "terms": []}
    for _ in range(400):
        chain = {"type": "poly", "var": "t", "coeffs": [chain]}
    sl2, parts = standard_sl2_decomposition()
    doc = {"group": jsonio.encode(sl2), "decomposition": [jsonio.encode(p) for p in parts]}
    assert _replace_first_scalar(doc["group"], chain)
    group.write_text(json.dumps(doc))
    code = main(["certify", "--group", str(group), "--galois", str(gd)])
    err = capsys.readouterr().err
    assert code == 2
    assert "nested too deeply to decode" in err and "internal error" not in err
