"""Partial fraction decomposition over K(x) and the logarithmic part.

The denominator must factor into linear factors over K.  Supported pole
searches: every rational root, every root of the form zeta^j * r with r
rational when the coefficients are constants of a cyclotomic field, and
any root of a degree-one factor (which may involve t).  Anything else
raises SplitFieldError: the input has left the supported split regime.

Rational roots are found p-adically: take the primitive square-free part
f over Z, find its roots modulo the least prime p that keeps f square-free
and its leading coefficient nonzero, lift each by Newton's iteration past
2 |f(0)| |lead(f)|, and read it back as a fraction by rational
reconstruction.  A candidate is kept only when it is an exact root.  The
cost grows with the degree and with that prime, not with the number of
divisors of f(0) and lead(f).  Roots zeta^j * r come from the rational roots of the norms of
f(zeta^j u), which are often not square-free.

reassemble sums the terms over their known common denominator, the
product of (x - pole)^M over the poles with M the highest multiplicity,
in Q(zeta_N)[t][x] after clearing the coefficients' denominators, and
puts the sum in lowest terms once.  It does so when every Scalar of the
decomposition has one order; in mixed orders it adds the terms one at a
time to a reduced running sum, the only sequence of operations that
keeps each output coefficient in the field it has always been written in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import SplitFieldError
from .rationals import Poly, RatFunc, _cleared, _coprime, _is_prime, _mod_coprime, _orders
from .scalars import Scalar


# ---------------------------------------------------------------------------
# root finding


def _primitive(f: list[int]) -> list[int]:
    """f over its content, with a positive leading coefficient."""
    g = math.gcd(*f)
    if f[-1] < 0:
        g = -g
    return [c // g for c in f]


def _pseudo_divmod(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """(q, r) with lead(b)^k * a = q * b + r and deg r < deg b, over Z."""
    lead, db = b[-1], len(b) - 1
    q, r = [0] * max(len(a) - db, 0), list(a)
    for k in range(len(a) - 1, db - 1, -1):
        c = r[k]
        q = [lead * x for x in q]
        q[k - db] = c
        r = [lead * x for x in r]
        for i, d in enumerate(b, k - db):
            r[i] -= c * d
    del r[db:]
    while r and not r[-1]:
        r.pop()
    return q, r


def _squarefree_part(f: list[int]) -> list[int]:
    """The primitive part of f / gcd(f, f'), by a primitive remainder sequence."""
    a, b = f, [i * c for i, c in enumerate(f)][1:]
    while len(b) > 1:
        r = _pseudo_divmod(a, b)[1]
        a, b = b, (_primitive(r) if r else r)
    if b:  # the sequence ends in a nonzero constant: gcd(f, f') = 1
        return f
    return _primitive(_pseudo_divmod(f, _primitive(a))[0])


def _eval_mod(f: list[int], x: int, m: int) -> int:
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % m
    return acc


def _hensel_prime(f: list[int]) -> int:
    """The least prime that keeps the leading coefficient and keeps f square-free.

    f must be square-free: then only the primes dividing lead(f) * disc(f)
    are refused.
    """
    p = 1
    while True:
        p += 1
        if not _is_prime(p) or f[-1] % p == 0:
            continue
        fp = [c % p for c in f]
        dfp = [i * c % p for i, c in enumerate(fp)][1:]
        while dfp and not dfp[-1]:
            dfp.pop()
        if dfp and _mod_coprime(fp, dfp, p):
            return p


def _rational_roots(coeffs: list[Fraction]) -> list[Fraction]:
    """All rational roots of a polynomial with rational coefficients.

    0 comes first, then the others sorted by (|numerator|, denominator),
    + before -.  The roots modulo a prime p that keeps the square-free part
    f square-free are lifted p-adically past 2 |f(0)| |lead(f)|, and each
    lift is read back as the one a/b with |a| <= |f(0)|, 0 < b <= |lead(f)|
    that it can be, by rational reconstruction (R. Loos, SIAM J. Comput.
    12, 1983).  Every rational root lifts from its residue mod p, and a
    candidate is kept only when f(a/b) = 0 exactly, so the search misses no
    root and adds no false one.
    """
    denlcm = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * denlcm) for c in coeffs]
    while ints and ints[-1] == 0:
        ints.pop()
    if len(ints) <= 1:
        return []
    shift = 0
    while ints[shift] == 0:
        shift += 1
    roots = [Fraction(0)] if shift else []
    if len(ints) - shift == 1:
        return roots
    f = _squarefree_part(_primitive(ints[shift:]))
    df = [i * c for i, c in enumerate(f)][1:]
    a0, lead = abs(f[0]), f[-1]
    p = _hensel_prime(f)
    found = []
    for r in range(p):
        if _eval_mod(f, r, p):
            continue
        m = p
        while m <= 2 * a0 * lead:  # Newton steps double the p-adic precision
            m *= m
            r = (r - _eval_mod(f, r, m) * pow(_eval_mod(df, r, m), -1, m)) % m
        # the first remainder of the Euclidean sequence of (m, r) that is <= a0
        r0, r1, s0, s1 = m, r, 0, 1
        while r1 > a0:
            q = r0 // r1
            r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
        num, den = (r1, s1) if s1 > 0 else (-r1, -s1)
        if not 0 < den <= lead:
            continue
        # sum f_i num^i den^(n-i), in integers
        acc, power = f[-1], 1
        for c in reversed(f[:-1]):
            power *= den
            acc = acc * num + c * power
        if acc == 0:
            found.append(Fraction(num, den))
    found.sort(key=lambda r: (abs(r.numerator), r.denominator, r < 0))
    return roots + found


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
    """Yun's algorithm: [(factor, multiplicity)] with factors square-free, for p of degree >= 1.

    In one field order a coprimality certificate for p and p' comes
    first: then p is square-free, and Yun's steps would divide by a unit.
    """
    if len(_orders(p)) == 1 and _coprime(p, p.deriv()):
        return [(p.monic(), 1)]
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
            # the last field searched is that of all the coefficients
            field = math.lcm(*(c.order for c in consts))
            raise SplitFieldError(
                "no further roots of the supported shape (rational, or rational "
                "times a root of unity) in a factor of degree %d; the search ran "
                "over %s, the field of its coefficients"
                % (s.degree(), "Q" if field == 1 else "Q(zeta_%d)" % field)
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
    """poly_part + sum coeff/(x - pole)^mult as one element of K(x), in lowest terms.

    When every Scalar of the decomposition has one order, the sum is taken
    over its known denominator (M. Bronstein, Symbolic Integration I, 2nd
    ed., 2005, section 1.7).  The poles b_i = p_i/q_i are taken in the
    order they first appear (equal poles by ==), M_i is the highest
    multiplicity at b_i, and the coefficients of equal (pole, mult) are
    summed.  The polynomial part P and the coefficients c_(i,m) are cleared
    over the lcm Delta of their denominators (_cleared), P = P' / Delta and
    c_(i,m) = c'_(i,m) / Delta, and each factor is written l_i = q_i x - p_i,
    so the sum runs in Q(zeta_N)[t][x], where no fraction and no gcd arises:

      D = prod_i l_i^M_i,   N = P' D + sum_i H_i prod_(j != i) l_j^M_j,
      H_i = sum_m c'_(i,m) q_i^m l_i^(M_i - m)   (by Horner),

    with a multiplicity that has no term skipped.  Then the element is
    (N / Delta) / D.  Each coefficient of N / Delta is put in lowest terms
    in K, by a gcd in t only where a coprimality certificate fails, and the
    constructor makes D monic (it is monic already when no pole has a
    denominator).  Its certificate decides whether a gcd over K[x] runs: on
    the output of decompose the top coefficient at each pole is nonzero, so
    none does, while a hand-built decomposition whose terms share a factor
    is still reduced.  In one field a value has one representation, so the
    result is written as the running sum (_running_sum) writes it.

    Mixed orders take the running sum: there each partial sum lands in the
    field that the rule of the rationals module gives its operands, and
    only that sequence of sums reproduces the fields of the output.
    """
    if len(_orders(d.poly_part, *(v for t in d.terms for v in (t.pole, t.coeff)))) > 1:
        return _running_sum(d)
    var, part = d.poly_part.var, d.poly_part.coeffs
    groups: list[tuple[RatFunc, dict]] = []  # (pole, {mult: coeff})
    for t in d.terms:
        for b, cs in groups:
            if b == t.pole:
                break
        else:
            cs = {}
            groups.append((t.pole, cs))
        cs[t.mult] = cs[t.mult] + t.coeff if t.mult in cs else t.coeff
    values = [*part, *(c for _, cs in groups for c in cs.values())]
    if not values:
        return RatFunc.from_poly(d.poly_part)
    nums, delta = _cleared(values)
    cleared = iter(nums[len(part):])
    zero, one = delta.zero_like(), delta.one_like()
    # num / den is P' plus the groups summed so far, den the product of their l^M
    num, den = Poly(var, nums[: len(part)], zero), Poly(var, [one], zero)
    for b, cs in groups:
        c = {m: next(cleared) for m in cs}  # c'_(i,m)
        lin = Poly(var, [-b.num, b.den], zero)
        top = max(c)
        h, qm = Poly(var, [], zero), one
        for m in range(1, top + 1):
            h, qm = h * lin, qm * b.den
            if m in c:
                h = h + Poly(var, [c[m] * qm], zero)
        power = lin**top
        num, den = num * power + h * den, den * power
    return RatFunc(Poly(var, [RatFunc(n, delta) for n in num.coeffs], d.poly_part.czero),
                   Poly(var, [RatFunc.from_poly(p) for p in den.coeffs], d.poly_part.czero))


def _running_sum(d: PFDecomp) -> RatFunc:
    """poly_part + sum coeff/(x - pole)^mult, adding one term at a time to a reduced sum."""
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
