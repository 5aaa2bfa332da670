"""Plain-text rendering.

Scalars, rational functions and operators print in the same grammar the
CLI parses, so parse(format(X)) == X.  Series print with an explicit
O(..) marker for the truncation; that form is for reading, not parsing.
"""

from __future__ import annotations

import re

# what a coefficient may print as without parentheses: t, x, Dt, an
# integer, zeta(N) or zeta(N)^k
_ATOM = re.compile(r"t|x|Dt|-?\d+|zeta\(\d+\)(\^\d+)?")


def _wrap(s: str) -> str:
    return s if _ATOM.fullmatch(s) else "(%s)" % s


def _series_wrap(s: str) -> str:
    # series text also leaves any zeta-led coefficient bare; certificates
    # carry this text, so it stays as it is although it does not re-parse
    return s if s.startswith("zeta(") else _wrap(s)


def _join(parts: list[str]) -> str:
    out = parts[0]
    for p in parts[1:]:
        if p.startswith("-") and not p.startswith("-("):
            out += " - " + p[1:]
        else:
            out += " + " + p
    return out


def format_scalar(s) -> str:
    parts = []
    for k, num, den in reversed(tuple(s.terms())):  # highest power first
        c = str(num) if den == 1 else "%d/%d" % (num, den)
        if k == 0:
            parts.append(c)
            continue
        z = "zeta(%d)" % s.order if k == 1 else "zeta(%d)^%d" % (s.order, k)
        if c == "1":
            parts.append(z)
        elif c == "-1":
            parts.append("-" + z)
        else:
            parts.append("%s*%s" % (_wrap(c), z))
    return _join(parts) if parts else "0"


def _coeff_str(c) -> str:
    from .scalars import Scalar

    if isinstance(c, Scalar):
        return format_scalar(c)
    return format_ratfunc(c)


def _format_dense(coeffs, var: str, constant) -> str:
    """sum c_k var^k, highest power first; constant prints the c_0 text."""
    parts = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c.is_zero():
            continue
        v = var if k == 1 else "%s^%d" % (var, k)
        if k == 0:
            parts.append(constant(_coeff_str(c)))
        elif c.is_one():
            parts.append(v)
        else:
            parts.append("%s*%s" % (_wrap(_coeff_str(c)), v))
    return _join(parts) if parts else "0"


def format_poly(p) -> str:
    return _format_dense(p.coeffs, p.var, str)


def format_ratfunc(f) -> str:
    num = format_poly(f.num)
    if f.den.degree() == 0:
        return num
    return "%s/%s" % (_wrap(num), _wrap(format_poly(f.den)))


def format_ore(op) -> str:
    return _format_dense(op.coeffs, "Dt", _wrap)


def format_trunc_laurent(f, symbol: str | None = None) -> str:
    sym = symbol or f.var
    if not f.coeffs and f.trunc == float("inf"):
        return "0"
    parts = []
    for n in sorted(f.coeffs):
        cs = _series_wrap(_coeff_str(f.coeffs[n]))
        if n == 0:
            parts.append(cs)
        elif n == 1:
            parts.append("%s*%s" % (cs, sym))
        else:
            parts.append("%s*%s^%d" % (cs, sym, n))
    if f.trunc != float("inf"):
        parts.append("O(%s^%d)" % (sym, f.trunc))
    return " + ".join(parts) if parts else "0"


def format_two_var(f) -> str:
    w = "(z-%s)" % format_scalar(f.q) if not f.q.is_zero() else "z"
    parts = []
    for n in sorted(f.coeffs):
        inner = format_trunc_laurent(f.coeffs[n], symbol=w)
        if n == 0:
            parts.append("(%s)" % inner)
        else:
            parts.append("(%s)*t^%d" % (inner, n))
    if f.trunc != float("inf"):
        parts.append("O(t^%s)" % f.trunc)
    return " + ".join(parts) if parts else "0"
