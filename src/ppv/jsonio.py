"""JSON encoding and decoding for every externally visible object.

All numbers are exact: rationals travel as integer strings, never
floats.  Each node carries a "type" tag; see docs/formats.md for the
full schema.  Objects that only ever leave the tool (certificates,
blocks, transcripts) have encoders only.
"""

from __future__ import annotations

from fractions import Fraction

from .checks import CheckRecord
from .descent import (
    Assumption,
    Certificate,
    DecompositionPart,
    GaloisDatum,
    PointOrbit,
    Transcript,
)
from .errors import DecodeError
from .groups import FiniteCyclic, GaSub, Generated, GeneratedPart, GmConst, GmSub
from .local_blocks import LocalBlock
from .logext import LogExtElem
from .ore import OrePoly
from .partial_fractions import PFDecomp
from .rationals import Poly, RatFunc
from .realization import NecessaryReport, Realization
from .scalars import _MAX_INPUT_ORDER, Scalar
from .series import INF, TruncLaurent, TwoVarLaurent


# ---------------------------------------------------------------------------
# encoding


def encode(obj):
    if isinstance(obj, Scalar):
        return _enc_scalar(obj)
    if isinstance(obj, Poly):
        out = {"type": "poly", "var": obj.var, "coeffs": [encode(c) for c in obj.coeffs]}
        if not obj.coeffs:
            out["czero"] = encode(obj.czero)
        return out
    if isinstance(obj, RatFunc):
        return {"type": "ratfunc", "var": obj.var, "num": encode(obj.num), "den": encode(obj.den)}
    if isinstance(obj, OrePoly):
        return {"type": "ore", "e": obj.e, "coeffs": [encode(c) for c in obj.coeffs]}
    if isinstance(obj, TruncLaurent):
        return {
            "type": "trunc_laurent",
            "var": obj.var,
            "valuation": None if not obj.coeffs else min(obj.coeffs),
            "trunc": _enc_order(obj.trunc),
            "coeffs": {str(n): encode(c) for n, c in sorted(obj.coeffs.items())},
        }
    if isinstance(obj, TwoVarLaurent):
        return {
            "type": "two_var",
            "q": encode(obj.q),
            "trunc": _enc_order(obj.trunc),
            "coeffs": {str(n): encode(c) for n, c in sorted(obj.coeffs.items())},
        }
    if isinstance(obj, LogExtElem):
        return {
            "type": "logext",
            "tail": encode(obj.tail),
            "logs": [
                {"point": encode(b), "coeff": encode(c)} for b, c in obj.logs.items()
            ],
        }
    if isinstance(obj, (GaSub, GmSub, GmConst, FiniteCyclic, Generated)):
        return _enc_group(obj)
    if isinstance(obj, GaloisDatum):
        return {
            "type": "galois",
            "e": obj.e,
            "field_order": obj.field_order,
            "base_order": obj.base_order,
            "zeta_e": encode(obj.zeta_e),
            "elements": [[g.aut, g.n] for g in obj.elements],
        }
    if isinstance(obj, PointOrbit):
        return {
            "type": "orbit",
            "representative": encode(obj.representative),
            "points": [encode(p) for p in obj.points],
            "stabilizer_trivial": obj.stabilizer_trivial,
        }
    if isinstance(obj, DecompositionPart):
        out = {"type": "part", "kind": obj.kind, "group": encode(obj.group)}
        if obj.h is not None:
            out["h"] = encode(obj.h)
        if obj.r is not None:
            out["r"] = obj.r
        if obj.embedding is not None:
            out["embedding"] = [[encode(x) for x in row] for row in obj.embedding]
        if obj.representation:
            out["representation"] = obj.representation
        return out
    if isinstance(obj, CheckRecord):
        return _enc_check(obj)
    if isinstance(obj, Transcript):
        return {
            "type": "transcript",
            "name": obj.name,
            "passed": obj.passed,
            "samples": obj.samples,
            "coefficients_compared": obj.coefficients_compared,
            "order": list(obj.order),
            "failures": list(obj.failures),
        }
    if isinstance(obj, Assumption):
        return {"type": "assumption", "kind": obj.kind, "statement": obj.statement}
    if isinstance(obj, LocalBlock):
        return {
            "type": "local_block",
            "point": encode(obj.q),
            "kind": obj.kind,
            "e": obj.e,
            "order": obj.order,
            "r": obj.r,
            "h": encode(obj.h) if obj.h is not None else None,
            "claimed_group": encode(obj.claimed_group),
            "fundamental_matrix": [[encode(x) for x in row] for row in obj.fundamental_matrix],
            "equation_matrix": [[encode(x) for x in row] for row in obj.equation_matrix],
            "checks": [encode(c) for c in obj.checks],
            "transported_by": obj.transported_by,
        }
    if isinstance(obj, Certificate):
        return {
            "type": "certificate",
            "schema_version": obj.schema_version,
            "group": encode(obj.group),
            "decomposition": [encode(p) for p in obj.decomposition],
            "galois": encode(obj.galois),
            "orbits": [encode(o) for o in obj.orbits],
            "blocks": [
                {"point": encode(q), "block": encode(b)} for q, b in obj.blocks
            ],
            "transcripts": [encode(t) for t in obj.transcripts],
            "completeness": [encode(c) for c in obj.completeness],
            "assumptions": [encode(a) for a in obj.assumptions],
            "order": obj.order,
            "all_exact_checks_passed": obj.all_exact_checks_passed(),
        }
    if isinstance(obj, Realization):
        return {
            "type": "realization",
            "kind": obj.kind,
            "operator": encode(obj.operator),
            "basis": [encode(b) for b in obj.basis],
            "equation_datum": encode(obj.equation_datum),
            "claimed_group": encode(obj.claimed_group),
            "model": encode(obj.model),
            "checks": [encode(c) for c in obj.checks],
            "window_note": obj.window_note,
        }
    if isinstance(obj, NecessaryReport):
        return {
            "type": "necessary_report",
            "kind": obj.kind,
            "operator_order": obj.operator_order,
            "residues": [
                {"pole": encode(p), "coeff": encode(c)} for p, c in obj.residues
            ],
            "annihilated": list(obj.annihilated),
            "all_annihilated": obj.all_annihilated,
            "witness_order": obj.witness_order,
            "minimal": obj.minimal,
            "poles_dt_constant": obj.poles_dt_constant,
            "note": obj.note,
        }
    if isinstance(obj, PFDecomp):
        return {
            "type": "pf_decomp",
            "poly_part": encode(obj.poly_part),
            "terms": [
                {"pole": encode(t.pole), "mult": t.mult, "coeff": encode(t.coeff)}
                for t in obj.terms
            ],
        }
    raise TypeError("no JSON encoding for %s" % type(obj).__name__)


def _enc_order(x):
    return "inf" if x == INF else int(x)


def _enc_check(c: CheckRecord) -> dict:
    # three encodings of the one record: realization checks have no window,
    # membership checks name their clearing factor
    if c.outer_order is None:
        return {"name": c.name, "passed": c.passed, "note": c.note}
    window = {
        "passed": c.passed,
        "outer_order": c.outer_order,
        "inner_order": c.inner_order,
        "coefficients_compared": c.coefficients_compared,
    }
    if c.clearing_factor is not None:
        return {"type": "membership_check", "label": c.name,
                "clearing_factor": c.clearing_factor, **window}
    return {"type": "identity_check", "name": c.name, **window, "note": c.note}


def _enc_scalar(s: Scalar) -> dict:
    terms = []
    for k, c in enumerate(s.coeffs):
        if c:
            terms.append(
                {
                    "num": str(c.numerator),
                    "den": str(c.denominator),
                    "zeta_pow": [k] if k else [],
                }
            )
    return {"type": "scalar", "order": s.order, "terms": terms}


def _enc_group(g) -> dict:
    if isinstance(g, GaSub):
        return {"type": "group", "kind": "ga", "operator": encode(g.operator)}
    if isinstance(g, GmSub):
        return {"type": "group", "kind": "gm", "operator": encode(g.operator)}
    if isinstance(g, GmConst):
        return {"type": "group", "kind": "gm_const"}
    if isinstance(g, FiniteCyclic):
        return {"type": "group", "kind": "cyclic", "r": g.order}
    if isinstance(g, Generated):
        return {
            "type": "group",
            "kind": "generated",
            "parts": [
                {
                    "group": encode(p.group),
                    "embedding": [[encode(x) for x in row] for row in p.embedding],
                    "representation": p.representation,
                }
                for p in g.parts
            ],
        }
    raise TypeError("unknown group spec %r" % (g,))


# ---------------------------------------------------------------------------
# decoding (for the object kinds the CLI consumes)

# what a missing or ill-typed field raises inside the constructors
_MALFORMED = (KeyError, IndexError, TypeError, AttributeError, ValueError, ZeroDivisionError)


def decode(data):
    """Rebuild an object from its JSON node; DecodeError when the node is malformed."""
    if not isinstance(data, dict):
        raise DecodeError("expected a JSON object with a type tag, got %s" % type(data).__name__)
    try:
        return _decode(data)
    except _MALFORMED as exc:
        raise DecodeError(
            "malformed %r node: %s: %s" % (data.get("type"), type(exc).__name__, exc)
        ) from None


def _decode(data):
    tag = data.get("type")
    if tag == "scalar":
        return _dec_scalar(data)
    if tag == "poly":
        coeffs = [decode(c) for c in data["coeffs"]]
        if not coeffs:
            if "czero" not in data:
                raise DecodeError("zero polynomial needs a czero coefficient sample")
            return Poly(data["var"], [], decode(data["czero"]))
        return Poly(data["var"], coeffs, coeffs[0].zero_like())
    if tag == "ratfunc":
        return RatFunc(decode(data["num"]), decode(data["den"]))
    if tag == "ore":
        coeffs = [decode(c) for c in data["coeffs"]]
        if not coeffs:
            raise DecodeError("the zero operator has no JSON form")
        return OrePoly(coeffs, coeffs[0].zero_like(), data.get("e", 1))
    if tag == "trunc_laurent":
        trunc = data.get("trunc", "inf")
        return TruncLaurent(
            data["var"],
            {int(n): decode(c) for n, c in data["coeffs"].items()},
            INF if trunc == "inf" else int(trunc),
        )
    if tag == "two_var":
        trunc = data.get("trunc", "inf")
        return TwoVarLaurent(
            decode(data["q"]),
            {int(n): decode(c) for n, c in data["coeffs"].items()},
            INF if trunc == "inf" else int(trunc),
        )
    if tag == "logext":
        tail = decode(data["tail"])
        logs = {decode(e["point"]): decode(e["coeff"]) for e in data.get("logs", [])}
        return LogExtElem(tail, logs)
    if tag == "group":
        return _dec_group(data)
    if tag == "galois":
        gens = [
            (int(a), int(n))
            for a, n in data.get("generators", data.get("elements", []))
        ]
        return GaloisDatum.build(
            _bounded(data["e"], "e"),
            field_order=_bounded(data.get("field_order"), "field_order"),
            base_order=_bounded(data.get("base_order", 1), "base_order"),
            generators=gens,
        )
    if tag == "part":
        return DecompositionPart(
            group=decode(data["group"]),
            kind=data["kind"],
            h=decode(data["h"]) if "h" in data else None,
            r=data.get("r"),
            embedding=tuple(
                tuple(decode(x) for x in row) for row in data["embedding"]
            )
            if "embedding" in data
            else None,
            representation=data.get("representation", ""),
        )
    if tag == "realization":
        checks = tuple(
            CheckRecord(c["name"], c["passed"], note=c.get("note", ""))
            for c in data.get("checks", [])
        )
        return Realization(
            kind=data["kind"],
            operator=decode(data["operator"]),
            basis=tuple(decode(b) for b in data["basis"]),
            equation_datum=decode(data["equation_datum"]),
            claimed_group=decode(data["claimed_group"]),
            model=decode(data["model"]),
            checks=checks,
            window_note=data.get("window_note", ""),
        )
    raise DecodeError("cannot decode type tag %r" % (tag,))


def _bounded(order, field: str):
    """A cyclotomic order or ramification index from input, refused past the bound."""
    if isinstance(order, int) and order > _MAX_INPUT_ORDER:
        raise DecodeError("%s %d is beyond the bound %d" % (field, order, _MAX_INPUT_ORDER))
    return order


def _dec_scalar(data) -> Scalar:
    order = _bounded(data.get("order", 1), "order")
    acc = Scalar(order, [])
    zeta = Scalar.zeta(order)
    for term in data.get("terms", []):
        c = Fraction(int(term["num"]), int(term.get("den", "1")))
        pows = term.get("zeta_pow", [])
        mono = zeta ** pows[0] if pows else Scalar.from_rational(1, order)
        acc = acc + mono * c
    return acc


def _dec_group(data):
    kind = data["kind"]
    if kind == "ga":
        return GaSub(decode(data["operator"]))
    if kind == "gm":
        return GmSub(decode(data["operator"]))
    if kind == "gm_const":
        return GmConst()
    if kind == "cyclic":
        return FiniteCyclic(data["r"])
    if kind == "generated":
        parts = tuple(
            GeneratedPart(
                decode(p["group"]),
                tuple(tuple(decode(x) for x in row) for row in p["embedding"]),
                p.get("representation", ""),
            )
            for p in data["parts"]
        )
        return Generated(parts)
    raise DecodeError("unknown group kind %r" % (kind,))
