import json

from ppv import cli, jsonio
from ppv.cli import main
from ppv.descent import GaloisDatum, standard_sl2_decomposition
from ppv.errors import VerificationFailed


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


def test_decompose(capsys):
    code, out = run(capsys, "decompose", "(x+1)/(x*(x-1))")
    assert code == 0
    assert "logarithmic part" in out
    assert "antiderivative" in out


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


def test_orbits_verb(tmp_path, capsys):
    gd_path = tmp_path / "gd.json"
    gd_path.write_text(json.dumps(jsonio.encode(GaloisDatum.ramified(2))))
    code, out = run(capsys, "orbits", "--gd", str(gd_path), "--count", "2")
    assert code == 0
    assert "{1, -1}" in out and "{2, -2}" in out


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


def test_exit_3_on_internal_error(monkeypatch, capsys):
    def crash(*args, **kwargs):
        raise RuntimeError("unexpected\nstate")

    monkeypatch.setattr(cli, "make_block", crash)
    code = main(["block", "--kind", "gmconst", "--q", "1"])
    assert code == 3
    err = capsys.readouterr().err
    assert err == "internal error: RuntimeError: unexpected state\n"


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
