import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ppv import jsonio
from ppv.descent import (
    DecompositionPart,
    GaloisDatum,
    run_criterion,
    standard_sl2_decomposition,
)
from ppv.groups import FiniteCyclic, GaSub, GmConst
from ppv.errors import DecodeError
from ppv.local_blocks import block_ga_closure
from ppv.logext import LogExtElem
from ppv.ore import OrePoly
from ppv.rationals import f_const, k_const, t_var, x_var
from ppv.realization import realize_gm
from ppv.scalars import Scalar, rational
from ppv.series import INF, TruncLaurent, TwoVarLaurent


def round_trip(obj):
    blob = json.dumps(jsonio.encode(obj))
    return jsonio.decode(json.loads(blob))


def test_scalar_round_trip():
    for s in (rational(0), rational(-3), Scalar(4, ["1/2", 2]), Scalar.zeta(8) ** 3):
        assert round_trip(s) == s


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 16),
       st.lists(st.tuples(st.integers(-9, 9), st.integers(1, 9),
                          st.one_of(st.just(None), st.integers(-30, 3000))), max_size=4))
def test_scalar_decode_matches_sum_of_powers(order, terms):
    node = {"type": "scalar", "order": order, "terms": [
        {"num": str(n), "den": str(d), "zeta_pow": [] if k is None else [k]} for n, d, k in terms]}
    want = Scalar(order, [])
    for n, d, k in terms:
        mono = Scalar.from_rational(1, order) if k is None else Scalar.zeta(order) ** k
        want = want + mono * Fraction(n, d)
    got = jsonio.decode(node)
    assert got == want and got.coeffs == want.coeffs and got.order == order


def test_scalar_terms_use_exact_integer_strings():
    enc = jsonio.encode(Scalar(4, ["-3/2", 1]))
    assert enc["terms"][0] == {"num": "-3", "den": "2", "zeta_pow": []}
    assert enc["terms"][1] == {"num": "1", "den": "1", "zeta_pow": [1]}


def test_ratfunc_round_trip():
    t = t_var()
    x = x_var()
    for f in (t, (t**2 + 1) / (t - 2), (x + 1) / (x * (x - 1)), f_const(t) / (x - 2)):
        assert round_trip(f) == f


def test_ore_round_trip():
    t = t_var()
    one = k_const(1)
    for l in (OrePoly.dt_gen(), OrePoly([one, t]), OrePoly([one / t, t**2], e=2)):
        assert round_trip(l) == l


def test_series_round_trip():
    f = TruncLaurent("t", {-1: rational(2), 3: rational(5)}, 9)
    assert round_trip(f) == f
    exact = TruncLaurent("w", {0: rational(1)})
    assert round_trip(exact).trunc == INF
    two = TwoVarLaurent(rational(1), {2: TruncLaurent("w", {-2: rational(3)}, 7)}, 11)
    assert round_trip(two) == two


def test_logext_round_trip():
    t = t_var()
    model = LogExtElem(1 / (x_var() - 1), {k_const(2): t})
    assert round_trip(model) == model


def test_logext_refuses_a_point_named_twice():
    # t*log(x-2) - t*log(x-2) is zero; keeping the last coefficient would read -t*log(x-2)
    t = t_var()
    node = jsonio.encode(LogExtElem(f_const(t.zero_like()), {k_const(2): t}))
    node["logs"].append({"point": node["logs"][0]["point"], "coeff": jsonio.encode(-t)})
    with pytest.raises(DecodeError, match="'logs' of a 'logext' node names a point twice"):
        jsonio.decode(node)


def test_group_round_trip():
    t = t_var()
    one = k_const(1)
    for g in (GaSub(OrePoly([-one, t])), GmConst(), FiniteCyclic(4)):
        assert round_trip(g) == g


def test_galois_round_trip_rebuilds_elements():
    gd = GaloisDatum.build(2, field_order=4, generators=[(3, 0)])
    blob = jsonio.encode(gd)
    back = jsonio.decode(blob)
    assert back.e == gd.e and back.field_order == gd.field_order
    assert set(back.elements) == set(gd.elements)


def test_part_round_trip():
    t = t_var()
    part = DecompositionPart(
        group=GaSub(OrePoly([-k_const(1), t])),
        kind="ga",
        h=t,
        embedding=((k_const(0), k_const(1)), (k_const(0), k_const(0))),
        representation="upper",
    )
    back = round_trip(part)
    assert back == part


def test_realization_round_trip():
    t = t_var()
    real = realize_gm(OrePoly.dt_gen(), [k_const(1), t])
    back = round_trip(real)
    assert back.kind == "gm"
    assert back.model == real.model
    assert back.equation_datum == real.equation_datum


def test_block_and_certificate_encode():
    blk = block_ga_closure(rational(1), t_var(), 1, order=6)
    enc = jsonio.encode(blk)
    assert enc["kind"] == "ga" and enc["order"] == 6
    assert all("passed" in c for c in enc["checks"])

    cert = run_criterion(
        FiniteCyclic(2),
        [DecompositionPart(FiniteCyclic(2), "cyclic", r=2)],
        GaloisDatum.ramified(2),
        order=6,
        samples=3,
        seed=0,
    )
    doc = jsonio.encode(cert)
    blob = json.dumps(doc)
    parsed = json.loads(blob)
    assert parsed["schema_version"] == "1"
    assert parsed["all_exact_checks_passed"] is True
    assert [a["kind"] for a in parsed["assumptions"]] == [
        "density", "patching", "adjustment", "descent",
    ]
    assert "0." not in blob and "e-" not in blob  # no floats anywhere


def test_sl2_decomposition_document():
    group, parts = standard_sl2_decomposition()
    doc = {
        "group": jsonio.encode(group),
        "decomposition": [jsonio.encode(p) for p in parts],
    }
    back_parts = [jsonio.decode(p) for p in doc["decomposition"]]
    assert [p.kind for p in back_parts] == ["ga"] * 4
    assert [str(p.h) for p in back_parts] == ["1", "1", "t", "1/t"]


def _pf_doc():
    from ppv.parser import parse_xrat
    from ppv.partial_fractions import decompose

    return jsonio.encode(decompose(parse_xrat("1/((x - 1)^2*(x + 2))")))


@pytest.mark.parametrize("mult", [0, -1])
def test_decode_refuses_a_multiplicity_below_one(mult):
    # reassemble read mult 0 as a constant term and mult -1 as an inverse
    doc = _pf_doc()
    assert [t.mult for t in jsonio.decode(doc).terms] == [term["mult"] for term in doc["terms"]]
    doc["terms"][1]["mult"] = mult
    with pytest.raises(DecodeError) as info:
        jsonio.decode(doc)
    assert str(info.value) == "pf_decomp.terms[1].mult %d is below 1" % mult


def _integer_fields():
    """(name, node builder) for every integer field the decoder reads."""
    galois = {"type": "galois", "e": 2, "field_order": 4, "base_order": 1, "generators": [[3, 0]]}
    ore = jsonio.encode(OrePoly([k_const(1), t_var()]))
    part = jsonio.encode(DecompositionPart(FiniteCyclic(2), "cyclic", r=2))
    one = TruncLaurent("w", {0: rational(1)}, 5)
    series = jsonio.encode(one)
    two = jsonio.encode(TwoVarLaurent(rational(1), {0: one}, 5))
    pf = _pf_doc()
    return [
        ("scalar order", lambda v: {"type": "scalar", "order": v, "terms": []}),
        ("galois e", lambda v: {**galois, "e": v}),
        ("galois field_order", lambda v: {**galois, "field_order": v}),
        ("galois base_order", lambda v: {**galois, "base_order": v}),
        ("generator aut", lambda v: {**galois, "generators": [[v, 0]]}),
        ("generator n", lambda v: {**galois, "generators": [[3, v]]}),
        ("ore e", lambda v: {**ore, "e": v}),
        ("cyclic r", lambda v: {"type": "group", "kind": "cyclic", "r": v}),
        ("part r", lambda v: {**part, "r": v}),
        ("trunc_laurent trunc", lambda v: {**series, "trunc": v}),
        ("two_var trunc", lambda v: {**two, "trunc": v}),
        ("pf_decomp mult", lambda v: {**pf, "terms": [{**pf["terms"][0], "mult": v}]}),
    ]


@pytest.mark.parametrize("value", [True, "3", 2.5, None], ids=["bool", "str", "float", "null"])
@pytest.mark.parametrize("field,node", _integer_fields(), ids=[f for f, _ in _integer_fields()])
def test_decode_refuses_integer_fields_that_are_not_integers(field, node, value):
    jsonio.decode(node(1 if field != "galois e" else 2))  # the node decodes with an integer
    with pytest.raises(DecodeError):
        jsonio.decode(node(value))


def test_absent_field_order_and_part_r_keep_their_defaults():
    gd = jsonio.decode({"type": "galois", "e": 3, "generators": [[1, 1]]})
    assert gd == GaloisDatum.build(3, generators=[(1, 1)]) and gd.field_order == 3
    part = jsonio.encode(DecompositionPart(FiniteCyclic(2), "cyclic"))
    assert "r" not in part and jsonio.decode(part).r is None


@pytest.mark.parametrize("key", [" 3", "3 ", "+3", "03", "-0", "-03", "3.0", "1e1", "0x3", "\u0663", ""])
@pytest.mark.parametrize("kind", ["trunc_laurent", "two_var"])
def test_decode_refuses_series_exponents_not_written_as_integers(kind, key):
    inner = TruncLaurent("w", {0: rational(1)})
    node = jsonio.encode(inner if kind == "trunc_laurent" else TwoVarLaurent(rational(1), {0: inner}))
    coeff = node["coeffs"]["0"]
    assert jsonio.decode({**node, "coeffs": {"-3": coeff, "0": coeff, "12": coeff}})
    with pytest.raises(DecodeError, match="exponent"):
        jsonio.decode({**node, "coeffs": {key: coeff}})


def test_cli_exits_2_on_a_series_trunc_that_is_not_an_integer(tmp_path, capsys):
    from ppv.cli import main

    assert main(["realize", "--kind", "ga", "--op", "t*Dt - 1", "--basis", "t", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    inner = TruncLaurent("w", {0: rational(1)}, 4)
    path = tmp_path / "real.json"
    for trunc in (2.5, True, "4"):
        model = jsonio.encode(TwoVarLaurent(rational(1), {0: inner}, 4))
        model["trunc"] = trunc
        doc["realization"]["model"] = model
        path.write_text(json.dumps(doc))
        assert main(["check", "--membership", "--realization", str(path), "--op", "Dt"]) == 2
        assert "trunc must be a JSON integer" in capsys.readouterr().err


def _integer_string_fields():
    """(name, node builder) for the integer strings of a scalar term."""
    def term(**fields):
        return {"type": "scalar", "order": 4, "terms": [{"num": "3", "den": "2", "zeta_pow": [1],
                                                        **fields}]}
    return [("scalar num", lambda v: term(num=v)), ("scalar den", lambda v: term(den=v))]


@pytest.mark.parametrize("value", [True, 3, " 3", "3 ", "+3", "03", "-0", "1_000", "3.0", "",
                                   "٣", None], ids=repr)
@pytest.mark.parametrize("field,node", _integer_string_fields(),
                         ids=[f for f, _ in _integer_string_fields()])
def test_decode_refuses_scalar_integers_not_in_the_encoder_form(field, node, value):
    want = Fraction(-12, 2) if field == "scalar num" else Fraction(3, -12)
    assert jsonio.decode(node("-12")) == Scalar.zeta(4) * want
    with pytest.raises(DecodeError, match="must be a decimal integer string"):
        jsonio.decode(node(value))


def test_decode_refuses_a_zero_denominator():
    with pytest.raises(DecodeError, match="den must not be 0"):
        jsonio.decode({"type": "scalar", "order": 1, "terms": [{"num": "1", "den": "0"}]})


def _outermost_nodes(doc):
    if isinstance(doc, dict) and "type" in doc:
        yield doc
    elif isinstance(doc, (dict, list)):
        for child in doc.values() if isinstance(doc, dict) else doc:
            yield from _outermost_nodes(child)


def _row_keys(doc):
    """The (tag, discriminator) key of every tagged node inside doc."""
    if isinstance(doc, dict) and "type" in doc:
        yield jsonio._row_of(doc).key
    for child in doc.values() if isinstance(doc, dict) else doc if isinstance(doc, list) else ():
        yield from _row_keys(child)


def test_every_row_round_trips_byte_for_byte(tmp_path, capsys):
    # the golden outputs hold certificates (with transported blocks), blocks of
    # all three kinds, realizations with their necessary reports and a pf_decomp
    from test_golden import GOLDEN, _output

    seen, transported = set(), 0
    for case in sorted(GOLDEN):
        text = _output(case, tmp_path, capsys)
        doc = json.loads(text)
        for node in _outermost_nodes(doc):
            back = jsonio.encode(jsonio.decode(node))
            assert json.dumps(back, sort_keys=True) == json.dumps(node, sort_keys=True), case
            seen.update(_row_keys(node))
        if case.startswith("certify"):
            # the file certify writes, byte for byte
            assert json.dumps(jsonio.encode(jsonio.decode(doc)), indent=2) + "\n" == text
            transported += sum(b["block"]["transported_by"] != "" for b in doc["blocks"])
    assert transported > 0
    missing = set(jsonio._BY_KEY) - seen
    assert not missing, "rows with no round-trip case: %s" % sorted(missing)


def _table_words():
    """Every tag, discriminator and field key of the node table."""
    words = {"order", "terms", "num", "den", "zeta_pow"}  # the hand-written scalar form

    def walk(kind):
        while getattr(kind, "inner", None) is not None:
            kind = kind.inner
        if isinstance(kind, jsonio._Row):
            words.update(w for w in (kind.sub, *kind.key) if w)
            for key, _attr, field_kind, _mode, _get in kind.fields:
                words.add(key)
                walk(field_kind)

    for row in jsonio._ROWS:
        walk(row)
    return words


def test_docs_name_every_tag_and_field_key():
    from pathlib import Path

    text = (Path(__file__).parent.parent / "docs" / "formats.md").read_text()
    assert {"galois", "generators", "coefficients_compared", "ga"} <= _table_words()
    assert sorted(w for w in _table_words() if '"%s"' % w not in text) == []


def test_decode_recomputes_what_encode_computes():
    cert = run_criterion(FiniteCyclic(2), [DecompositionPart(FiniteCyclic(2), "cyclic", r=2)],
                         GaloisDatum.ramified(2), order=4, samples=2)
    doc = jsonio.encode(cert)
    assert doc["all_exact_checks_passed"] is True
    assert jsonio.decode({**doc, "all_exact_checks_passed": False}).all_exact_checks_passed()
    doc["blocks"][0]["block"]["checks"][0]["passed"] = False
    back = jsonio.decode(doc)
    assert not back.all_exact_checks_passed()
    assert jsonio.encode(back)["all_exact_checks_passed"] is False
    series = jsonio.encode(TruncLaurent("w", {-2: rational(3)}, 5))
    assert jsonio.encode(jsonio.decode({**series, "valuation": 7}))["valuation"] == -2


@pytest.mark.parametrize("node, message", [
    ({"type": "ratfunc", "var": "t", "num": jsonio.encode(x_var().num),
      "den": jsonio.encode(x_var().den)},
     "ratfunc.num must be a polynomial in t, got a 'poly' node with var 'x'"),
    ({**jsonio.encode(OrePoly.dt_gen()), "coeffs": [jsonio.encode(rational(1))]},
     "ore.coeffs[0] must be an element of K, got a 'scalar' node"),
    ({**jsonio.encode(TwoVarLaurent(rational(1), {})), "coeffs": {"0": jsonio.encode(rational(1))}},
     "two_var.coeffs[0] must be a 'trunc_laurent' node, got a 'scalar' node"),
    ({"type": "group", "kind": "generated", "parts": [{"group": jsonio.encode(GmConst()),
                                                      "embedding": [[{"type": "scalar"}]]}]},
     "group.parts[0].embedding[0][0] must be an element of K, got a 'scalar' node"),
    ({"type": "group", "kind": "ga", "operator": jsonio.encode(GmConst())},
     "group.operator must be an operator, got a 'group' node with kind 'gm_const'"),
    ({"type": "part", "kind": "cyclic", "group": jsonio.encode(rational(2))},
     "part.group must be a group, got a 'scalar' node"),
], ids=["ratfunc_num", "ore_coeff", "two_var_coeff", "embedding", "operator", "part_group"])
def test_decode_refuses_a_mistyped_child_with_its_path(node, message):
    with pytest.raises(DecodeError) as info:
        jsonio.decode(node)
    assert str(info.value) == message


def test_decode_checks_the_expected_tag():
    node = jsonio.encode(FiniteCyclic(2))
    assert jsonio.decode(node, "group") == FiniteCyclic(2)
    with pytest.raises(DecodeError, match=r"^decomposition\[3\] must be a 'part' node, got a "):
        jsonio.decode(node, "part", "decomposition[3]")


def _documented_values():
    """The JSON values of the json blocks in docs/formats.md, read with each
    placeholder (<kind>, a trailing ", ..." or "[...]") as null or empty."""
    from pathlib import Path

    text = (Path(__file__).parent.parent / "docs" / "formats.md").read_text()
    decoder = json.JSONDecoder()
    for block in re.findall(r"```json\n(.*?)```", text, re.S):
        block = re.sub(r"<[^<>]*>", "null", block)
        block = re.sub(r",\s*\.\.\.", "", block).replace("[...]", "[]").strip()
        pos = 0
        while pos < len(block):
            value, pos = decoder.raw_decode(block, pos)
            pos += len(block[pos:]) - len(block[pos:].lstrip())
            yield value


def _check_keys(node: dict, row, where: str) -> int:
    """node lists exactly the keys row writes, in order (a field that is
    omitted when empty may be left out), and so does each object inside it;
    returns the number of objects checked."""
    if row.key == ("scalar", None):  # the hand-written scalar form
        written = jsonio.encode(Scalar(8, [1, 0, 0, 1]))
        assert list(node) == list(written), where
        assert all(list(term) == list(written["terms"][0]) for term in node["terms"]), where
        return 1 + len(node["terms"])
    expected = (["type"] if row.key[0] else []) + ([row.sub] if row.sub else [])
    expected += [key for key, _a, _k, mode, _g in row.fields
                 if mode != "in" and (mode != "omit" or key in node)]
    assert list(node) == expected, where
    kinds = {key: kind for key, _a, kind, _m, _g in row.fields}
    return 1 + sum(_check_value(value, kinds.get(key), "%s.%s" % (where, key))
                   for key, value in node.items())


def _check_value(value, kind, where: str) -> int:
    """Check every documented object in value, a field that holds kind (None when unknown)."""
    inner = getattr(kind, "inner", None)
    if isinstance(value, list):
        return sum(_check_value(v, inner, where) for v in value)
    if not isinstance(value, dict):
        return 0
    if "type" in value:
        row = jsonio._row_of(value)
        assert row is not None, "%s: no row for %r" % (where, value["type"])
        return _check_keys(value, row, value["type"])
    if isinstance(kind, jsonio._Row):  # an untagged sub-record
        return _check_keys(value, kind, where)
    return sum(_check_value(v, inner, where) for v in value.values())  # an exponent map


def test_docs_field_tables_list_each_row_in_written_order():
    checked = sum(_check_value(value, None, "docs") for value in _documented_values())
    assert checked >= 30
