"""Partial fraction decomposition over K(x) and the logarithmic part.

The denominator must factor into linear factors over K.  Supported pole
searches: every rational root, every root of the form zeta^j * r with r
rational when the coefficients are constants of a cyclotomic field, and
any root of a degree-one factor (which may involve t).  Anything else
raises SplitFieldError: the input has left the supported split regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import SplitFieldError
from .rationals import Poly, RatFunc
from .scalars import Scalar


# ---------------------------------------------------------------------------
# root finding


def _int_divisors(n: int) -> list[int]:
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def _rational_roots(coeffs: list[Fraction]) -> list[Fraction]:
    """All rational roots of a polynomial with rational coefficients."""
    denlcm = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * denlcm) for c in coeffs]
    while ints and ints[-1] == 0:
        ints.pop()
    if len(ints) <= 1:
        return []
    shift = 0
    while ints[shift] == 0:
        shift += 1
    ints = ints[shift:]
    roots = [Fraction(0)] if shift else []
    content = math.gcd(*ints)
    ints = [c // content for c in ints]
    lead_divisors = _int_divisors(ints[-1])
    for p in _int_divisors(ints[0]):
        for q in lead_divisors:
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if cand in roots:
                    continue
                acc = Fraction(0)
                for c in reversed(ints):
                    acc = acc * cand + c
                if acc == 0:
                    roots.append(cand)
    return roots


def _cyclotomic_roots(coeffs: list[Scalar]) -> list[Scalar]:
    """Roots of the form zeta^j * r (r rational) of a Q(zeta_N)-polynomial.

    For each power of zeta, substitute x = zeta^j * u and take the norm
    (the product over all field automorphisms), which has rational
    coefficients; rational roots of the norm yield candidates that are
    then verified exactly against the original polynomial.
    """
    # the field of the constant coefficient comes first, so that the roots
    # keep the field order they reach the JSON with; a zero constant may sit
    # in Q while the others do not, so then the field of all coefficients
    order = coeffs[0].order
    found = _roots_in_field(coeffs, order)
    field = math.lcm(*(c.order for c in coeffs))
    if not found and field != order:
        found = _roots_in_field(coeffs, field)
    return found


def _roots_in_field(coeffs: list[Scalar], order: int) -> list[Scalar]:
    poly = Poly("x", coeffs)
    found: list[Scalar] = []
    units = [a for a in range(1, order + 1) if math.gcd(a, order) == 1]
    zeta = Scalar.zeta(order)
    for j in range(order):
        zj = zeta**j
        subst = [c * zj**k for k, c in enumerate(coeffs)]
        norm = Poly.constant("x", coeffs[0].one_like())
        for a in units:
            norm = norm * Poly("x", [c.galois(a) for c in subst])
        if any(not c.is_rational() for c in norm.coeffs):
            continue
        for r in _rational_roots([c.as_fraction() for c in norm.coeffs]):
            cand = zj * r
            if cand in found:
                continue
            if poly.eval(cand).is_zero():
                found.append(cand)
    return found


def _squarefree_factors(p: Poly) -> list[tuple[Poly, int]]:
    """Yun's algorithm: [(factor, multiplicity)] with factors square-free."""
    out = []
    g = p.gcd(p.deriv())
    c = p.divmod(g)[0]
    d = p.deriv().divmod(g)[0] - c.deriv()
    i = 1
    while c.degree() > 0:
        a = c.gcd(d)
        if a.degree() > 0:
            out.append((a, i))
        c = c.divmod(a)[0]
        d = d.divmod(a)[0] - c.deriv()
        i += 1
    return out


def _roots_of_squarefree(s: Poly) -> list:
    """All K-roots of a square-free polynomial, or SplitFieldError."""
    s = s.monic()
    roots = []
    while s.degree() >= 1:
        if s.degree() == 1:
            roots.append(-s.coeff(0) / s.coeff(1))
            break
        consts = []
        for k in range(s.degree() + 1):
            c = s.coeff(k)
            if not c.is_constant():
                raise SplitFieldError(
                    "denominator factor of degree %d with non-constant coefficients "
                    "does not split over the supported field" % s.degree()
                )
            consts.append(c.as_coefficient())
        cands = _cyclotomic_roots(consts)
        if not cands:
            raise SplitFieldError(
                "no further roots of the supported shape (rational, or rational "
                "times a root of unity) in a factor of degree %d" % s.degree()
            )
        for r in cands:
            rk = _as_k(s, r)
            roots.append(rk)
            lin = Poly(s.var, [-rk, s.czero.one_like()], s.czero)
            s = s.divmod(lin)[0]
    return roots


def _as_k(p: Poly, value):
    """Coerce a Scalar root into the coefficient field of p."""
    if isinstance(value, type(p.czero)):
        return value
    return p.czero.one_like() * value


def linear_roots(p: Poly) -> list[tuple[object, int]]:
    """Factor p into linear factors over K: [(root, multiplicity)].

    Raises SplitFieldError when a nonlinear factor resists the supported
    root searches.
    """
    if p.degree() < 1:
        return []
    out = []
    for s, mult in _squarefree_factors(p.monic()):
        for root in _roots_of_squarefree(s):
            out.append((root, mult))
    total = sum(m for _, m in out)
    if total != p.degree():
        raise SplitFieldError(
            "found only %d of %d linear factors" % (total, p.degree())
        )
    return out


# ---------------------------------------------------------------------------
# decomposition


@dataclass(frozen=True)
class PFTerm:
    """The summand coeff/(x - pole)^mult."""

    pole: RatFunc
    mult: int
    coeff: RatFunc


@dataclass(frozen=True)
class PFDecomp:
    poly_part: Poly
    terms: tuple[PFTerm, ...]

    def logarithmic_part(self) -> list[tuple[RatFunc, RatFunc]]:
        return [(t.pole, t.coeff) for t in self.terms if t.mult == 1]


def _shifted_coeffs(p: Poly, beta, upto: int) -> list:
    """Coefficients of p(beta + u) modulo u^upto, by Horner."""
    zero = p.czero
    out = [zero] * upto
    for c in reversed(list(p.coeffs) or [zero]):
        new = [zero] * upto
        for i in range(upto):
            term = out[i] * beta
            if i > 0:
                term = term + out[i - 1]
            new[i] = term
        new[0] = new[0] + c
        out = new
    return out


def _series_quotient(num: list, den: list, upto: int):
    """Power series division modulo u^upto; den[0] must be invertible."""
    inv0 = den[0].one_like() / den[0]
    out = []
    for k in range(upto):
        acc = num[k]
        for j in range(k):
            acc = acc - out[j] * den[k - j]
        out.append(acc * inv0)
    return out


def decompose(g: RatFunc) -> PFDecomp:
    """Unique partial fraction decomposition of g in K(x).

    The coefficients at a pole beta of multiplicity m are the first m
    Taylor coefficients at beta of the input with the pole cleared,
    computed by exact power series division.  reassemble(decompose(g))
    reproduces g exactly.
    """
    if g.var != "x":
        raise ValueError("decompose expects a rational function in x")
    poly_part, rem = g.num.divmod(g.den)
    roots = linear_roots(g.den)
    terms = []
    for beta, m in roots:
        lin = Poly(g.num.var, [-beta, g.num.czero.one_like()], g.num.czero)
        others = g.den
        for _ in range(m):
            others = others.divmod(lin)[0]
        num_u = _shifted_coeffs(rem, beta, m)
        den_u = _shifted_coeffs(others, beta, m)
        taylor = _series_quotient(num_u, den_u, m)
        for k in range(m):
            gamma = taylor[k]
            if not gamma.is_zero():
                terms.append(PFTerm(beta, m - k, gamma))
    return PFDecomp(poly_part, tuple(terms))


def reassemble(d: PFDecomp) -> RatFunc:
    out = RatFunc.from_poly(d.poly_part)
    for t in d.terms:
        lin = Poly(d.poly_part.var, [-t.pole, t.pole.one_like()], t.pole.zero_like())
        out = out + RatFunc(Poly.constant(d.poly_part.var, t.coeff), lin**t.mult)
    return out


def logarithmic_part(d: PFDecomp) -> list[tuple[RatFunc, RatFunc]]:
    """The multiplicity-one terms (pole, residue)."""
    return d.logarithmic_part()


def has_antiderivative(g: RatFunc) -> bool:
    """True iff g = dx(h) for some h in K(x): the logarithmic part vanishes."""
    return not decompose(g).logarithmic_part()
