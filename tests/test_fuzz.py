"""The input boundary: any JSON node or short expression gives a value or a PpvError.

Strategies bound integers, exponents and zeta orders: huge ones are
valid input that is slow to evaluate (t^99999999, zeta(100000)), not
malformed input.
"""

import pytest
from hypothesis import given, settings, strategies as st

from ppv import jsonio
from ppv.errors import DecodeError, PpvError
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


def _grow(children):
    binary = st.tuples(children, st.sampled_from("+-*/"), children).map("".join)
    power = st.tuples(children, st.sampled_from(["^2", "^0", "^-1", "^-2"]))
    return (binary | children.map("-{}".format) | children.map("({})".format)
            | power.map(lambda p: "(%s)%s" % p))


expressions = (st.lists(st.sampled_from(TOKENS), max_size=12).map("".join)
               | st.recursive(st.sampled_from(ATOMS), _grow, max_leaves=6))


@pytest.mark.parametrize("parse", [parse_expr, parse_operator, parse_k, parse_xrat])
@settings(max_examples=250, deadline=None)
@given(src=expressions)
def test_parsers_give_a_value_or_a_ppv_error(parse, src):
    try:
        parse(src)
    except PpvError:
        pass
