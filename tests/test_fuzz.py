"""The input boundary: any JSON node or short expression gives a value or a PpvError.

Strategies also draw exponents and cyclotomic orders past the bounds the
parser and the decoder enforce (64 and 1024): such input (t^99999999,
zeta(100000)) would not finish, so it must be refused with an error.
"""

import pytest
from hypothesis import given, settings, strategies as st

from ppv import jsonio
from ppv.errors import DecodeError, ParseError, PpvError
from ppv.parser import parse_expr, parse_k, parse_operator, parse_xrat

TAGS = ["scalar", "poly", "ratfunc", "ore", "trunc_laurent", "two_var", "logext", "group",
        "galois", "part", "realization", "identity_check", "bogus"]
FIELDS = ["order", "terms", "num", "den", "zeta_pow", "var", "coeffs", "czero", "e", "trunc",
          "q", "tail", "logs", "point", "coeff", "kind", "operator", "r", "parts", "group",
          "embedding", "representation", "field_order", "base_order", "generators",
          "elements", "h", "basis", "equation_datum", "claimed_group", "model", "checks",
          "name", "passed", "note"]

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


@settings(max_examples=50, deadline=None)
@given(n=past_orders, field=st.sampled_from(["order", "e", "field_order", "base_order"]))
def test_decode_refuses_orders_past_the_bound(n, field):
    if field == "order":
        doc = {"type": "scalar", "order": n, "terms": [{"num": "1", "den": "1", "zeta_pow": [1]}]}
    else:
        doc = {"type": "galois", "e": 2, "field_order": 4, "base_order": 1, field: n}
    with pytest.raises(DecodeError):
        jsonio.decode(doc)
