"""Byte-identity guard: sha256 of the JSON the CLI writes for fixed inputs.

A refactor must leave every one of these outputs unchanged.  A change
that alters an output on purpose re-pins its digest here and says why.
"""

import hashlib
import json

import pytest

from ppv import jsonio
from ppv.cli import main
from ppv.descent import DecompositionPart, GaloisDatum, standard_sl2_decomposition
from ppv.groups import FiniteCyclic, closure_of_additive
from ppv.parser import parse_xrat
from ppv.partial_fractions import decompose, reassemble
from ppv.rationals import RatFunc, t_var
from ppv.scalars import Scalar

GOLDEN = {
    "block_cyclic": "18e50b1a0d85f41a6f61f7b529ba7fb21ad4a3e289c7619132b530492b771dfa",
    "block_ga": "1a1ddb99d8e9e86a7011f4b9c4f37405b8098cbbb85c9a7f09675aade4afb441",
    "block_gmconst": "55b8b1f150401866862d4d2eacc26f2a681f10d30354e9cb3d2cbecf4edcc799",
    "certify_sl2_order10": "b4d9764d0c54607e65123e741f8518d8d03a7fc58ab7d7fe0b5407b7e7155f94",
    "certify_z2_cyclic_order8": "92ddbfd27275730880f2bf4673d5c7699609124f97af138bf0a2a22404c0ff52",
    "certify_z3_ga_zeta3_order8": "6acca8aea52928c6992cdc932a2bcd61409b170c83fdb98054fc2f164251c137",
    "decompose_zeta8_double_poles": "052f595556f2311e243d83ef7f82f04c092f8f2c4d8a9393a80affeb3fd36feb",
    "ore_divmod_zeta8": "6453d1f076c55405809d304f81cfa34fa1ad6c792e7fdea6bd23b56545d973ff",
    "ore_gcrd_zeta8": "265f643130cd34d964befcf77cc4a8275335632b3cf99dab053515db759144dc",
    "ore_mul_cube": "0c8c3ce3eff679e5f890132be90d19bfe742438ab3ad2c695825abacf4438b44",
    "realize_ga": "7c720f0f9d569749af4132fa33e21abd4eec170e3092ce83616aa7a28e62883e",
    "realize_gm": "092ae11ce176f55be94f21ef05f68d2b43bfc4cb5aa32021d26be73d7a9ceecb",
    "reassemble_t_double_pole": "7253898db39efbb4687864d28f1afe6f98c512539923de7176b27251cc88be55",
    "reassemble_zeta8_repeated_pole": "ed3a046b2445795dc17919e5a7efca67dd6789bb11696cb07af77560917f3da9",
}


def _certify(tmp_path, capsys, group, parts, gd, *flags) -> str:
    group_path = tmp_path / "group.json"
    gd_path = tmp_path / "galois.json"
    out_path = tmp_path / "certificate.json"
    group_path.write_text(json.dumps({
        "group": jsonio.encode(group),
        "decomposition": [jsonio.encode(p) for p in parts],
    }))
    gd_path.write_text(json.dumps(jsonio.encode(gd)))
    code = main(["certify", "--group", str(group_path), "--galois", str(gd_path),
                 "--out", str(out_path), *flags])
    capsys.readouterr()
    assert code == 0
    return out_path.read_text()


def _stdout(capsys, *argv) -> str:
    code = main(list(argv))
    assert code == 0
    return capsys.readouterr().out


def _output(case, tmp_path, capsys) -> str:
    if case == "certify_sl2_order10":
        group, parts = standard_sl2_decomposition()
        return _certify(tmp_path, capsys, group, parts, GaloisDatum.trivial(), "--trunc", "10")
    if case == "certify_z2_cyclic_order8":
        parts = [DecompositionPart(FiniteCyclic(2), "cyclic", r=2)]
        return _certify(tmp_path, capsys, FiniteCyclic(2), parts, GaloisDatum.ramified(2),
                        "--trunc", "8", "--samples", "20")
    if case == "block_cyclic":
        return _stdout(capsys, "block", "--kind", "cyclic", "--q", "1", "--r", "2",
                       "--e", "2", "--order", "8", "--json")
    if case == "block_ga":
        return _stdout(capsys, "block", "--kind", "ga", "--q", "2", "--h", "(t + 1)/t",
                       "--e", "2", "--order", "8", "--json")
    if case == "block_gmconst":
        return _stdout(capsys, "block", "--kind", "gmconst", "--q", "3", "--e", "1",
                       "--order", "8", "--json")
    if case == "realize_gm":
        return _stdout(capsys, "realize", "--kind", "gm", "--op", "t*Dt - 1",
                       "--basis", "1,t^2", "--json")
    if case == "realize_ga":
        return _stdout(capsys, "realize", "--kind", "ga", "--op", "Dt^2",
                       "--basis", "1,t", "--json")
    if case == "certify_z3_ga_zeta3_order8":
        # a Z/3 descent over Q(zeta_3) whose h = zeta_3 * t is not rational
        h = t_var(3) * RatFunc.constant("t", Scalar.zeta(3))
        group = closure_of_additive(h, 3)
        parts = [DecompositionPart(group, "ga", h=h)]
        return _certify(tmp_path, capsys, group, parts, GaloisDatum.ramified(3),
                        "--trunc", "8", "--samples", "6")
    if case == "ore_gcrd_zeta8":
        return _stdout(capsys, "ore", "gcrd", "--json", "(t*Dt - 1)*(Dt + zeta(8)/t)",
                       "(Dt^2 + t)*(Dt + zeta(8)/t)")
    if case == "ore_divmod_zeta8":
        return _stdout(capsys, "ore", "divmod", "--json", "t*Dt^3 + zeta(8)*Dt + 1/t",
                       "(t+1)*Dt^2 - zeta(8)")
    if case == "ore_mul_cube":
        return _stdout(capsys, "ore", "mul", "--json", "(Dt + t)^3", "zeta(8)*t*Dt - 1")
    if case == "decompose_zeta8_double_poles":
        return _stdout(capsys, "decompose", "--json", "(x+3)/(x^2*(x - zeta(8))*(x-2)^2)")
    # sums of partial fractions: the JSON records each coefficient's field
    # order, which a different reduction of the sums would change
    if case == "reassemble_zeta8_repeated_pole":
        return _reassembled("(x^2 - 3*x + 1)/((x + 2)*(x - 3*zeta(8)^3)^2)")
    if case == "reassemble_t_double_pole":
        return _reassembled("(x + 1)/((x - 1)*(x - (2*t + 1))^2)")
    raise KeyError(case)


def _reassembled(src: str) -> str:
    g = parse_xrat(src)
    out = reassemble(decompose(g))
    assert out == g
    return json.dumps(jsonio.encode(out), sort_keys=True)


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_output_digest(case, tmp_path, capsys):
    text = _output(case, tmp_path, capsys)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[case]
