"""The input boundary: any JSON node or short expression gives a value or a PpvError.

Strategies also draw exponents and cyclotomic orders past the bounds the
parser and the decoder enforce (64 and 1024): such input (t^99999999,
zeta(100000)) would not finish, so it must be refused with an error.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from ppv import jsonio
from ppv.cli import main
from ppv.descent import GaloisDatum, standard_sl2_decomposition
from ppv.errors import DecodeError, ParseError, PpvError
from ppv.groups import FiniteCyclic, GaSub, Generated, GeneratedPart
from ppv.logext import LogExtElem
from ppv.parser import parse_basis, parse_expr, parse_k, parse_operator, parse_xrat
from ppv.rationals import f_const, k_const, t_var, x_var
from ppv.realization import realize_gm
from ppv.scalars import Scalar
from ppv.series import TruncLaurent, TwoVarLaurent

TAGS = ["scalar", "poly", "ratfunc", "ore", "trunc_laurent", "two_var", "logext", "group",
        "galois", "part", "realization", "identity_check", "membership_check", "orbit",
        "transcript", "assumption", "local_block", "certificate", "necessary_report",
        "pf_decomp", "bogus"]
FIELDS = ["order", "terms", "num", "den", "zeta_pow", "var", "coeffs", "czero", "e", "trunc",
          "q", "tail", "logs", "point", "coeff", "kind", "operator", "r", "parts", "group",
          "embedding", "representation", "field_order", "base_order", "generators",
          "elements", "h", "basis", "equation_datum", "claimed_group", "model", "checks",
          "name", "passed", "note", "label", "representative", "points", "block", "blocks",
          "pole", "mult", "statement", "schema_version"]

leaves = (
    st.none()
    | st.booleans()
    | st.integers(-12, 12)
    | st.integers(1025, 10**12)
    | st.floats(-20, 20, allow_nan=False)
    | st.sampled_from(["t", "x", "w", "0", "1", "-3", "7", "inf", "ga", "cyclic", "", "?"])
)


def _extend(children):
    fields = st.dictionaries(st.sampled_from(FIELDS), children, max_size=5)
    tagged = st.builds(lambda tag, body: {**body, "type": tag}, st.sampled_from(TAGS), fields)
    return st.lists(children, max_size=4) | fields | tagged


json_values = st.recursive(leaves, _extend, max_leaves=30)


@settings(max_examples=400, deadline=None)
@given(json_values)
def test_decode_gives_a_value_or_a_ppv_error(doc):
    try:
        jsonio.decode(doc)
    except PpvError:
        pass


@pytest.mark.parametrize("doc", [
    {"type": "bogus"},
    {"type": "poly"},
    {"type": "ratfunc", "num": 1},
    {"type": "scalar", "terms": [{"num": "1", "den": "0"}]},
    {"type": "group", "kind": "nope"},
    {"type": "scalar", "order": 8, "terms": [{"num": "1", "den": "1", "zeta_pow": [1, 5]}]},
    {**jsonio.encode(realize_gm(parse_operator("Dt"), parse_basis("1,t"))), "kind": "bogus"},
    {**jsonio.encode(realize_gm(parse_operator("Dt"), parse_basis("1,t"))), "kind": "ga"},
    [1, 2],
    "scalar",
])
def test_decode_rejects_malformed_nodes(doc):
    with pytest.raises(DecodeError):
        jsonio.decode(doc)


# token soup for syntax errors: single digits (a trailing space keeps two
# of them from fusing into one large number), so exponents stay small
TOKENS = ["t", "x", "z", "Dt", "zeta(", "zeta(8)", "(", ")", "+", "-", "*", "/", "^",
          "0 ", "1 ", "2 ", "3 ", ",", " ", "\n", "y", "@"]
ATOMS = ["t", "x", "Dt", "0", "1", "2", "7", "zeta(8)", "zeta(3)", "zeta(0)", "z"]
past_exponents = st.integers(65, 10**12) | st.integers(-10**12, -65)
past_orders = st.integers(1025, 10**12)


def _grow(children):
    binary = st.tuples(children, st.sampled_from("+-*/"), children).map("".join)
    exponents = st.sampled_from(["^2", "^0", "^-1", "^-2"]) | past_exponents.map("^{}".format)
    power = st.tuples(children, exponents)
    return (binary | children.map("-{}".format) | children.map("({})".format)
            | power.map(lambda p: "(%s)%s" % p))


atoms = st.sampled_from(ATOMS) | past_orders.map("zeta({})".format)
expressions = (st.lists(st.sampled_from(TOKENS), max_size=12).map("".join)
               | st.recursive(atoms, _grow, max_leaves=6))


@pytest.mark.parametrize("parse", [parse_expr, parse_operator, parse_k, parse_xrat])
@settings(max_examples=250, deadline=None)
@given(src=expressions)
def test_parsers_give_a_value_or_a_ppv_error(parse, src):
    try:
        parse(src)
    except PpvError:
        pass


@pytest.mark.parametrize("parse", [parse_expr, parse_operator, parse_k, parse_xrat])
@settings(max_examples=50, deadline=None)
@given(base=st.sampled_from(["t", "(t + 1)", "Dt", "2", "zeta(8)"]), k=past_exponents)
def test_parsers_refuse_exponents_past_the_bound(parse, base, k):
    with pytest.raises(ParseError):
        parse("%s^%d" % (base, k))


def test_parser_refuses_integers_past_the_digit_limit():
    for src in ["t^" + "9" * 5000, "9" * 5000, "zeta(%s)" % ("9" * 5000)]:
        with pytest.raises(ParseError):
            parse_expr(src)


@settings(max_examples=50, deadline=None)
@given(n=past_orders)
def test_parser_refuses_zeta_orders_past_the_bound(n):
    with pytest.raises(ParseError):
        parse_expr("zeta(%d) + 1" % n)


def _bounded_doc(field, n):
    """A node whose field (a galois field, a scalar's order, an operator's e) is n."""
    if field == "order":
        return {"type": "scalar", "order": n, "terms": [{"num": "1", "den": "1", "zeta_pow": [1]}]}
    if field == "ore":
        return {"type": "ore", "e": n, "coeffs": [jsonio.encode(k_const(1))]}
    return {"type": "galois", "e": 2, "field_order": 4, "base_order": 1, field: n}


@settings(max_examples=80, deadline=None)
@given(n=past_orders | st.integers(-10**12, 0),
       field=st.sampled_from(["order", "e", "field_order", "base_order", "ore"]))
@example(n=0, field="ore")
@example(n=-1, field="e")
def test_decode_refuses_orders_past_the_bound(n, field):
    jsonio.decode(_bounded_doc(field, 2))  # inside 1..1024 the node decodes
    with pytest.raises(DecodeError, match=r"%d is outside 1\.\.1024" % n):
        jsonio.decode(_bounded_doc(field, n))


# ---------------------------------------------------------------------------
# substitution probe: one typed node of a golden input replaced by a
# well-formed node of another type must give exit 0, 1 or 2, never 3

def _replacements():
    t = t_var(8)
    w = TruncLaurent("w", {-1: Scalar.zeta(8)}, 3)
    objs = [Scalar.zeta(8) + 2, t.num, t / (t + 1), x_var(8) / (x_var(8) - f_const(t)),
            parse_operator("t*Dt - zeta(8)"), GaSub(parse_operator("Dt")), FiniteCyclic(2), w,
            TwoVarLaurent(Scalar.zeta(8), {0: w}, 2),
            LogExtElem(f_const(t.zero_like()), {k_const(2, 8): t}),
            GaloisDatum.ramified(2)]
    return [jsonio.encode(o) for o in objs]


REPLACEMENTS = _replacements()


def _key(node):
    return jsonio._row_of(node).key


def _typed_paths(doc, path=()):
    if isinstance(doc, dict) and "type" in doc:
        yield path
    for key, child in doc.items() if isinstance(doc, dict) else enumerate(doc) \
            if isinstance(doc, list) else ():
        yield from _typed_paths(child, path + (key,))


def _substitute(doc, data):
    paths = list(_typed_paths(doc))
    path = data.draw(st.sampled_from(paths))
    at = doc
    for key in path[:-1]:
        at = at[key]
    original = at[path[-1]] if path else doc
    node = data.draw(st.sampled_from([r for r in REPLACEMENTS if _key(r) != _key(original)]))
    if not path:
        return node
    at[path[-1]] = node
    return doc


def _exit_code(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def _readme_realization() -> dict:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["realize", "--kind", "ga", "--op", "t*Dt - 1", "--basis", "t", "--json"]) == 0
    return json.loads(out.getvalue())


def _sl2_two_part_input() -> dict:
    _, parts = standard_sl2_decomposition()
    group = Generated(tuple(GeneratedPart(p.group, p.embedding, p.representation)
                            for p in parts[:2]))
    return {"group": {"group": jsonio.encode(group),
                      "decomposition": [jsonio.encode(p) for p in parts[:2]]},
            "galois": jsonio.encode(GaloisDatum.trivial())}


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_check_never_exits_3_on_a_substituted_node(data):
    doc = _substitute(_readme_realization(), data)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "real.json"
        path.write_text(json.dumps(doc))
        code = _exit_code(["check", "--membership", "--realization", str(path),
                           "--op", "t*Dt - 1"])
    assert code in (0, 1, 2)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_certify_never_exits_3_on_a_substituted_node(data):
    doc = _substitute(_sl2_two_part_input(), data)
    with tempfile.TemporaryDirectory() as tmp:
        group_path, gd_path = Path(tmp) / "group.json", Path(tmp) / "gd.json"
        group_path.write_text(json.dumps(doc["group"]))
        gd_path.write_text(json.dumps(doc["galois"]))
        code = _exit_code(["certify", "--group", str(group_path), "--galois", str(gd_path),
                           "--trunc", "4", "--samples", "2"])
    assert code in (0, 1, 2)
