"""JSON encoding and decoding for every externally visible object.

All numbers are exact: rationals travel as integer strings, never
floats.  Each node carries a "type" tag; see docs/formats.md for the
full schema.  The format is stated once, in the node table at the end:
a row per tag gives the class and its fields in written order, and both
`encode` and `decode` walk it.  Rows that share a tag differ in one
discriminating key: the `kind` of a group, the `var` of a polynomial or
rational function.  A field names its JSON key, the attribute it holds
(also its constructor keyword) and the kind of its value, so a child of
the wrong kind is refused with its path.  Computed fields are written
and rebuilt, never read back.  Only the scalar's own form is written by
hand.
"""

from __future__ import annotations

import math
import re
from functools import partial
from operator import attrgetter, itemgetter, methodcaller

from .checks import CheckRecord
from .descent import (Assumption, Certificate, DecompositionPart, GaloisDatum, PointOrbit,
                      Transcript)
from .errors import DecodeError
from .groups import FiniteCyclic, GaSub, Generated, GeneratedPart, GmConst, GmSub
from .local_blocks import LocalBlock
from .logext import LogExtElem
from .ore import OrePoly
from .partial_fractions import PFDecomp, PFTerm
from .rationals import Poly, RatFunc
from .realization import NecessaryReport, Realization
from .scalars import _MAX_INPUT_ORDER, Scalar, _scalar
from .series import INF, TruncLaurent, TwoVarLaurent

# what a missing or ill-typed field raises inside the constructors
_MALFORMED = (KeyError, IndexError, TypeError, AttributeError, ValueError, ZeroDivisionError)

# an integer string as encode writes it: no sign but a minus, no leading zero, no space
_INTEGER = re.compile(r"0|-?[1-9][0-9]*")


def encode(obj):
    """The JSON node of obj, written field by field from its row."""
    write = _WRITERS.get(type(obj))
    if write is None:
        raise TypeError("no JSON encoding for %s" % type(obj).__name__)
    return write(obj)


def decode(data, tag: str | None = None, path: str | None = None):
    """Rebuild an object from its JSON node; DecodeError when the node is malformed.

    tag is the node type the caller expects (any, when None); path names
    the node in messages and defaults to its type tag.  A child is decoded
    before its kind is checked, one recursion per level, so a node nested
    deeper than the interpreter's stack allows is refused as such.
    """
    kind = _ANY if tag is None else _OF_TAG[tag]
    row = _row_of(data)
    if row is None or row.key not in kind.keys:
        _refuse(path or "input", kind.name, data)
    path = path or row.key[0]
    try:
        return row.dec(data, path)
    except _MALFORMED as exc:
        raise DecodeError("malformed %r node: %s: %s"
                          % (data.get("type"), type(exc).__name__, exc)) from None
    except RecursionError:
        raise DecodeError("%s is nested too deeply to decode" % path) from None


def _row_of(node):
    """The row of a node by its type tag (and discriminator), else None."""
    tag = node.get("type") if type(node) is dict else None
    entry = _BY_TAG.get(tag) if type(tag) is str else None
    if type(entry) is tuple:
        value = node.get(entry[0])
        return entry[1].get(value) if type(value) is str else None
    return entry


def _got(node) -> str:
    if not isinstance(node, dict):
        return "a list" if isinstance(node, list) else repr(node)
    tag = node.get("type")
    entry = _BY_TAG.get(tag) if type(tag) is str else None
    if type(entry) is tuple:
        return "a %r node with %s %r" % (tag, entry[0], node.get(entry[0]))
    return "a %r node" % (tag,) if "type" in node else "an untagged object"


def _refuse(path: str, name: str, node):
    raise DecodeError("%s must be %s, got %s" % (path, name, _got(node)))


# ---------------------------------------------------------------------------
# the scalar form, written by hand


def _enc_scalar(s: Scalar) -> dict:
    terms = [{"num": str(num), "den": str(den), "zeta_pow": [k] if k else []}
             for k, num, den in s.terms()]
    return {"type": "scalar", "order": s.order, "terms": terms}


def _integer_string(text, path: str) -> int:
    if type(text) is not str or not _INTEGER.fullmatch(text):
        raise DecodeError("%s must be a decimal integer string, got %r" % (path, text))
    return int(text)


def _dec_scalar(node: dict, path: str) -> Scalar:
    order = _dec_bounded(node.get("order", 1), path + ".order")
    vec, den = [0] * order, 1  # zeta^k sits at k mod order; _scalar reduces mod Phi_N
    for i, term in enumerate(node.get("terms", [])):
        at = "%s.terms[%d]" % (path, i)
        pows = term.get("zeta_pow", [])
        if not (pows == [] or type(pows) is list and len(pows) == 1 and type(pows[0]) is int):
            raise DecodeError("%s: zeta_pow must be [] or [k] with an integer k, got %r"
                              % (at, pows))
        num = _integer_string(term["num"], at + ".num")
        d = _integer_string(term.get("den", "1"), at + ".den")
        if not d:
            raise DecodeError("%s.den must not be 0" % at)
        lcm = math.lcm(den, d)
        if lcm != den:
            vec = [c * (lcm // den) for c in vec]
            den = lcm
        vec[pows[0] % order if pows else 0] += num * (den // d)
    return _scalar(order, vec, den)


# ---------------------------------------------------------------------------
# value kinds


class _Kind:
    """What a field holds: a name for messages, enc(value), dec(node, path), the
    kind a list or map holds, and the (tag, discriminator) keys a node accepts."""

    __slots__ = ("name", "enc", "dec", "inner", "keys")

    def __init__(self, name, enc, dec, inner=None, keys=()):
        self.name, self.enc, self.dec, self.inner = name, enc, dec, inner
        self.keys = frozenset(keys)


def _plain(name: str, test, dec=None) -> _Kind:
    def check(node, path):
        return node if test(node) else _refuse(path, name, node)

    return _Kind(name, lambda value: value, dec or check)


def _dec_bounded(node, path):
    """A cyclotomic order or ramification index from input, refused outside 1.._MAX_INPUT_ORDER."""
    if not 1 <= _INT.dec(node, path) <= _MAX_INPUT_ORDER:
        raise DecodeError("%s %d is outside 1..%d" % (path, node, _MAX_INPUT_ORDER))
    return node


def _dec_positive(node, path):
    """A multiplicity from input, refused below 1."""
    if _INT.dec(node, path) < 1:
        raise DecodeError("%s %d is below 1" % (path, node))
    return node


_INT = _plain("a JSON integer", lambda v: type(v) is int)
_STR = _plain("a string", lambda v: type(v) is str)
_BOOL = _plain("true or false", lambda v: type(v) is bool)
_BOUNDED = _plain("a JSON integer", None, _dec_bounded)
_POSITIVE = _plain("a JSON integer", None, _dec_positive)
_ORDER = _Kind('"inf" or a JSON integer', lambda x: "inf" if x == INF else int(x),
               lambda node, path: INF if node == "inf" else _INT.dec(node, path))


def _list(kind: _Kind) -> _Kind:
    enc, dec = kind.enc, kind.dec

    def dec_list(node, path):
        if type(node) is not list:
            _refuse(path, "a list", node)
        return tuple(dec(x, "%s[%d]" % (path, i)) for i, x in enumerate(node))

    return _Kind("a list", lambda v: [enc(x) for x in v], dec_list, kind)


def _exponents(kind: _Kind) -> _Kind:
    """A series coefficient map; each key is an exponent written as str(n)."""
    enc, dec = kind.enc, kind.dec

    def dec_map(node, path):
        if type(node) is not dict:
            _refuse(path, "an exponent map", node)
        coeffs = {}
        for key, c in node.items():
            if not _INTEGER.fullmatch(key):
                raise DecodeError("%s: series exponent must be a decimal integer, got %r"
                                  % (path, key))
            coeffs[int(key)] = dec(c, "%s[%s]" % (path, key))
        return coeffs

    return _Kind("an exponent map", lambda v: {str(n): enc(c) for n, c in sorted(v.items())},
                 dec_map, kind)


def _nullable(kind: _Kind) -> _Kind:
    enc, dec = kind.enc, kind.dec
    return _Kind(kind.name + " or null", lambda v: None if v is None else enc(v),
                 lambda node, path: None if node is None else dec(node, path), kind)


def _node(name: str, *keys, enc=encode) -> _Kind:
    """A tagged node of one of the rows keyed (tag, discriminator value)."""

    def dec(node, path):
        row = _row_of(node)
        if row is None:
            _refuse(path, name, node)
        value = row.dec(node, path)  # a malformed node is refused as such first
        return value if row.key in kind.keys else _refuse(path, name, node)

    kind = _Kind(name, enc, dec, keys=keys)
    return kind


def _tagged(tag: str) -> _Kind:
    return _node("a %r node" % tag, (tag, None))


_SCALAR = _node("a 'scalar' node", ("scalar", None), enc=_enc_scalar)
_K = _node("an element of K", ("ratfunc", "t"))
_KX = _node("an element of K(x)", ("ratfunc", "x"))
_POLY_T = _node("a polynomial in t", ("poly", "t"))
_POLY_X = _node("a polynomial in x", ("poly", "x"))
_ORE = _node("an operator", ("ore", None))
_GROUP = _node("a group", *(("group", k) for k in ("ga", "gm", "gm_const", "cyclic", "generated")))
_CHECK = _node("a check record", ("identity_check", None), ("membership_check", None))


# ---------------------------------------------------------------------------
# rows

# a field's mode: "" read and written; "opt" may be absent on input; "omit"
# may be absent on input and is not written when None or ""; "out" is
# computed, written and never read; "in" is read and never written


def _f(key: str, kind: _Kind, mode: str = "", attr: str | None = None, get=None) -> tuple:
    return key, attr or key, kind, mode, get or attrgetter(attr or key)


class _Row:
    """One node shape: its tag (None for an untagged sub-record, which is
    also the kind of the fields that hold it), the discriminating (key,
    value) it shares a tag under, the class it encodes, its constructor
    and its fields in written order."""

    __slots__ = ("key", "sub", "cls", "enc", "dec", "name", "fields")

    def __init__(self, tag, cls, *fields, make=None, sub=None, enc=None, dec=None):
        self.key, self.sub, self.cls = (tag, sub and sub[1]), sub and sub[0], cls
        self.name, self.fields = "an object", fields
        make = make or cls
        head = dict(([("type", tag)] if tag else []) + ([sub] if sub else []))
        writes = [(key, get, kind.enc) for key, _a, kind, mode, get in fields if mode != "in"]
        omitted = {key for key, _a, _k, mode, _g in fields if mode == "omit"}
        reads = [(key, attr, kind.dec, mode) for key, attr, kind, mode, _g in fields
                 if mode != "out"]

        def write(obj):
            out = head.copy()
            for key, get, enc_value in writes:
                value = get(obj)
                if not (key in omitted and (value is None or value.__class__ is str and not value)):
                    out[key] = enc_value(value)
            return out

        def read(node, path):
            if type(node) is not dict:
                raise DecodeError("%s must be an object, got %s" % (path, _got(node)))
            kw = {}
            for key, attr, dec_value, mode in reads:
                if key in node:
                    kw[attr] = dec_value(node[key], path + "." + key)
                elif not mode:
                    raise DecodeError("%s needs the field %r" % (path, key))
            return make(**kw)

        self.enc = enc or write
        self.dec = dec or read


def _pairs(key0: str, kind0: _Kind, key1: str, kind1: _Kind) -> _Kind:
    """A list of (a, b) pairs, each written as the object {key0: a, key1: b}."""
    row = _Row(None, tuple, _f(key0, kind0, get=itemgetter(0)),
               _f(key1, kind1, get=itemgetter(1)), make=lambda **kw: tuple(kw.values()))
    return _list(row)


def _czero(p: Poly):
    # written only for the zero polynomial; otherwise read off the coefficients
    return None if p.coeffs else p.czero


def _galois(e, field_order=None, base_order=1, elements=(), generators=None):
    # any list of group elements generates the group, so a written table reads back
    gens = elements if generators is None else generators
    return GaloisDatum.build(e, field_order=field_order, base_order=base_order, generators=gens)


def _logext(tail, logs=()):
    # encode writes each point once; a repeated one would keep only its last coefficient
    points = dict(logs)
    if len(points) != len(logs):
        raise DecodeError("the field 'logs' of a 'logext' node names a point twice")
    return LogExtElem(tail, points)


def _enc_check(c: CheckRecord) -> dict:
    # three encodings of the one record: realization checks have no window,
    # membership checks name their clearing factor
    if c.outer_order is None:
        return _REALIZATION_CHECK.enc(c)
    return _BY_KEY["identity_check" if c.clearing_factor is None else "membership_check",
                   None].enc(c)


_REALIZATION_CHECK = _Row(None, CheckRecord, _f("name", _STR), _f("passed", _BOOL),
                          _f("note", _STR, "opt"))
_WINDOW = (_f("passed", _BOOL), _f("outer_order", _INT), _f("inner_order", _INT),
           _f("coefficients_compared", _INT))
_MATRIX_K = _list(_list(_K))
_GAMMA = _list(_list(_INT))

_ROWS = (
    _Row("scalar", Scalar, enc=_enc_scalar, dec=_dec_scalar),
    _Row("poly", Poly, _f("coeffs", _list(_SCALAR)), _f("czero", _SCALAR, "omit", get=_czero),
         make=partial(Poly, "t"), sub=("var", "t")),
    _Row("poly", Poly, _f("coeffs", _list(_K)), _f("czero", _K, "omit", get=_czero),
         make=partial(Poly, "x"), sub=("var", "x")),
    _Row("ratfunc", RatFunc, _f("num", _POLY_T), _f("den", _POLY_T), sub=("var", "t")),
    _Row("ratfunc", RatFunc, _f("num", _POLY_X), _f("den", _POLY_X), sub=("var", "x")),
    _Row("ore", OrePoly, _f("e", _BOUNDED, "opt"), _f("coeffs", _list(_K))),
    _Row("trunc_laurent", TruncLaurent, _f("var", _STR),
         _f("valuation", _nullable(_INT), "out", get=lambda s: min(s.coeffs) if s.coeffs else None),
         _f("trunc", _ORDER, "opt"), _f("coeffs", _exponents(_SCALAR))),
    _Row("two_var", TwoVarLaurent, _f("q", _SCALAR), _f("trunc", _ORDER, "opt"),
         _f("coeffs", _exponents(_tagged("trunc_laurent")))),
    _Row("logext", LogExtElem, _f("tail", _KX),
         _f("logs", _pairs("point", _K, "coeff", _K), "opt", get=lambda m: m.logs.items()),
         make=_logext),
    _Row("group", GaSub, _f("operator", _ORE), sub=("kind", "ga")),
    _Row("group", GmSub, _f("operator", _ORE), sub=("kind", "gm")),
    _Row("group", GmConst, sub=("kind", "gm_const")),
    _Row("group", FiniteCyclic, _f("r", _INT, attr="order"), sub=("kind", "cyclic")),
    _Row("group", Generated, _f("parts", _list(_Row(
        None, GeneratedPart, _f("group", _GROUP), _f("embedding", _MATRIX_K),
        _f("representation", _STR, "opt")))), sub=("kind", "generated")),
    _Row("galois", GaloisDatum, _f("e", _BOUNDED), _f("field_order", _BOUNDED, "opt"),
         _f("base_order", _BOUNDED, "opt"), _f("zeta_e", _SCALAR, "out"),
         _f("elements", _GAMMA, "opt", get=lambda gd: [(g.aut, g.n) for g in gd.elements]),
         _f("generators", _GAMMA, "in"), make=_galois),
    _Row("orbit", PointOrbit, _f("representative", _SCALAR), _f("points", _list(_SCALAR)),
         _f("stabilizer_trivial", _BOOL)),
    _Row("part", DecompositionPart, _f("kind", _STR), _f("group", _GROUP), _f("h", _K, "omit"),
         _f("r", _INT, "omit"), _f("embedding", _MATRIX_K, "omit"),
         _f("representation", _STR, "omit")),
    _Row("membership_check", CheckRecord, _f("label", _STR, attr="name"),
         _f("clearing_factor", _STR), *_WINDOW),
    _Row("identity_check", CheckRecord, _f("name", _STR), *_WINDOW, _f("note", _STR)),
    _Row("transcript", Transcript, _f("name", _STR), _f("passed", _BOOL), _f("samples", _INT),
         _f("coefficients_compared", _INT), _f("order", _list(_INT)),
         _f("failures", _list(_STR))),
    _Row("assumption", Assumption, _f("kind", _STR), _f("statement", _STR)),
    _Row("local_block", LocalBlock, _f("point", _SCALAR, attr="q"), _f("kind", _STR),
         _f("e", _BOUNDED), _f("order", _INT), _f("r", _nullable(_INT)), _f("h", _nullable(_K)),
         _f("claimed_group", _GROUP),
         _f("fundamental_matrix", _list(_list(_tagged("two_var")))),
         _f("equation_matrix", _list(_list(_tagged("two_var")))), _f("checks", _list(_CHECK)),
         _f("transported_by", _STR)),
    _Row("certificate", Certificate, _f("schema_version", _STR), _f("group", _GROUP),
         _f("decomposition", _list(_tagged("part"))), _f("galois", _tagged("galois")),
         _f("orbits", _list(_tagged("orbit"))),
         _f("blocks", _pairs("point", _SCALAR, "block", _tagged("local_block"))),
         _f("transcripts", _list(_tagged("transcript"))), _f("completeness", _list(_CHECK)),
         _f("assumptions", _list(_tagged("assumption"))), _f("order", _INT),
         _f("all_exact_checks_passed", _BOOL, "out",
            get=methodcaller("all_exact_checks_passed"))),
    _Row("realization", Realization, _f("kind", _STR), _f("operator", _ORE),
         _f("basis", _list(_K)), _f("equation_datum", _KX), _f("claimed_group", _GROUP),
         _f("model", _tagged("logext")),
         _f("checks", _list(_REALIZATION_CHECK), "opt"), _f("window_note", _STR, "opt")),
    _Row("necessary_report", NecessaryReport, _f("kind", _STR), _f("operator_order", _INT),
         _f("residues", _pairs("pole", _K, "coeff", _K)), _f("annihilated", _list(_BOOL)),
         _f("all_annihilated", _BOOL), _f("witness_order", _INT), _f("minimal", _BOOL),
         _f("poles_dt_constant", _BOOL), _f("note", _STR)),
    _Row("pf_decomp", PFDecomp, _f("poly_part", _POLY_X), _f("terms", _list(_Row(
        None, PFTerm, _f("pole", _K), _f("mult", _POSITIVE), _f("coeff", _K))))),
)

# ---------------------------------------------------------------------------
# the indexes both directions walk

_BY_KEY = {row.key: row for row in _ROWS}
_BY_TAG: dict = {row.key[0]: row for row in _ROWS if not row.sub}
for _row in _ROWS:
    if _row.sub:
        _BY_TAG.setdefault(_row.key[0], (_row.sub, {}))[1][_row.key[1]] = _row
_WRITERS = {row.cls: row.enc for row in _ROWS}
_WRITERS.update({
    Poly: lambda p: _BY_KEY["poly", p.var].enc(p),
    RatFunc: lambda f: _BY_KEY["ratfunc", f.var].enc(f),
    CheckRecord: _enc_check,
})
_ANY = _node("a ppv node", *_BY_KEY)
_OF_TAG = {t: _node("a %r node" % t, *(k for k in _BY_KEY if k[0] == t)) for t, _ in _BY_KEY}
