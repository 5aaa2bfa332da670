"""Dense polynomials and rational functions over an exact coefficient field.

The same two classes build the whole tower used here: K = Q(zeta_N)(t)
as Poly/RatFunc in ``t`` over Scalar, and F = K(x) as Poly/RatFunc in
``x`` whose coefficients are themselves K-elements.  The variable tag
decides how the two derivations act:

  var 't':  dt is d/dt, dx is zero             (parameter direction)
  var 'x':  dx is d/dx, dt acts coefficient-wise  (main direction)

so x is dt-constant and t is dx-constant, as required of commuting
derivations on K(x).

Field orders.  Each Scalar is written in its own field Q(zeta_N), and N
reaches the JSON, so every result's field is part of its output.  The
coefficient-by-coefficient loops of Poly.__mul__ and Poly.divmod state the
rule: a product's coefficient k is czero + a_i * b_j + ... over i + j = k
with zero a_i skipped, a division subtracts c * d_i from the running
remainder for each nonzero quotient coefficient c, and each Scalar sum or
product lands in the lcm of its operands' orders.  Every faster path is
taken only where it cannot change a field: when every Scalar the loop reads
has one order (_orders: the coefficients with the zeros beneath them, and a
product's czero), arithmetic stays in that field, and a field has one
representation per value.  Then a product over scalars or a division goes
to scalars.poly_mul or scalars.poly_divmod, a product over K starts
each output at its first term instead of at czero, a composition or
right division of operators in ore reads Leibniz's rule off a table of
derivatives and reduces each output coefficient once, and
partial_fractions.reassemble sums a partial fraction decomposition over
its product denominator and reduces each output coefficient once.  A
product over scalars with a one-coefficient factor goes to poly_mul in any
fields: it takes each output's lcm itself.  Two constants of K (denominator
1, numerator of degree <= 0) whose Scalars, czeros included, all share one
order are summed, multiplied or inverted as one Scalar; any other pair of
constants takes the general RatFunc path.

Gcds.  Poly.gcd over the constants (Q(zeta_N)[t]) is Euclid's algorithm,
_euclid.  Over K[x] it clears both operands to numerators over
Q(zeta_N)[t] and runs the subresultant remainder sequence there
(_subresultant_gcd), so that no remainder coefficient is reduced by a gcd
in t; only the monic result is written in lowest terms.  The one helper
that clears a list of RatFuncs over the lcm of their denominators,
_cleared, and the one exact division, _exact, serve it, the
fraction-free elimination of linalg, OrePoly.apply on K, the Leibniz
composition of ore and partial_fractions.reassemble.  The lcm of two
denominators whose Scalars share one order is their product, with no
gcd, when _coprime certifies them coprime.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .errors import CoefficientFieldMismatch
from .scalars import Scalar, _power, poly_divmod, poly_mul


def _as_coeff(sample, value):
    """Coerce value into the coefficient field of sample."""
    if isinstance(value, type(sample)):
        return value
    if isinstance(value, (int, Fraction)):
        return sample.one_like() * value if value else sample.zero_like()
    if isinstance(value, Scalar) and isinstance(sample, RatFunc):
        return RatFunc.constant(sample.var, value, sample.czero)
    raise CoefficientFieldMismatch(
        "cannot coerce %r into coefficients of type %s" % (value, type(sample).__name__)
    )


# ---------------------------------------------------------------------------
# the dense kernel: one trimming constructor and one set of coefficient-wise
# operations for Poly and OrePoly.  A dense polynomial p has ascending
# coeffs without trailing zeros and the zero coefficient czero;
# p._new(coeffs) builds one of the same kind (same variable or twist), and
# p._check(q) refuses an operand that does not mix with p.


def _strip(coeffs, czero, what: str):
    """(coeffs, czero) with trailing zeros dropped, czero read off the first coefficient if None."""
    coeffs = list(coeffs)
    if czero is None:
        if not coeffs:
            raise ValueError("zero %s needs an explicit coefficient sample" % what)
        czero = coeffs[0].zero_like()
    while coeffs and coeffs[-1].is_zero():
        coeffs.pop()
    return tuple(coeffs), czero


def _coeff(p, k: int):
    if 0 <= k < len(p.coeffs):
        return p.coeffs[k]
    return p.czero


def _leading(p):
    return p.coeffs[-1] if p.coeffs else p.czero


def _is_zero(p) -> bool:
    return not p.coeffs


def _zero_like(p):
    return p._new([])


def _add(a, b):
    if not isinstance(b, type(a)):
        return NotImplemented
    a._check(b)
    n = max(len(a.coeffs), len(b.coeffs))
    return a._new([a.coeff(i) + b.coeff(i) for i in range(n)])


def _neg(a):
    return a._new([-c for c in a.coeffs])


def _sub(a, b):
    if not isinstance(b, type(a)):
        return NotImplemented
    return a + (-b)


def _scale(a, c):
    """c * x for every coefficient x; for an operator, left multiplication by c.

    c stands on the left because a product keeps the zero coefficient, and
    so the field order, of its left factor, and that order reaches the JSON.
    """
    return a._new([c * x for x in a.coeffs])


def _monic(a):
    if a.is_zero():
        return a
    lead = a.leading()
    if lead.is_one():
        return a
    return a.scale(lead.one_like() / lead)


def _orders(*values) -> set:
    """The order of every Scalar beneath the values (Scalars, Polys, RatFuncs), zeros included."""
    out = set()
    for v in values:
        if isinstance(v, Scalar):
            out.add(v.order)
        elif isinstance(v, Poly):
            out |= _orders(v.czero, *v.coeffs)
        elif isinstance(v, RatFunc):
            out |= _orders(v.num, v.den)
    return out


def _constant_order(f: "RatFunc"):
    """The order of every Scalar of f when f is a constant of K and they share one, else None.

    A constant of K has denominator 1 (monic of degree 0), a numerator of
    degree <= 0 and Scalar czeros.
    """
    num, den = f.num, f.den
    zero = num.czero
    if len(den.coeffs) != 1 or len(num.coeffs) > 1 or type(zero) is not Scalar:
        return None
    n = zero.order
    if den.czero.order != n or den.coeffs[0].order != n or (num.coeffs and num.coeffs[0].order != n):
        return None
    return n


def _euclid(a, b, divide):
    """The monic last nonzero remainder of a and b; divide returns (q, r).

    Each divisor is made monic first: a unit factor does not change the
    remainder, and normalizing keeps the coefficients reduced when they
    are themselves fractions.  This is Poly.gcd over the constants
    (polynomials over Q(zeta_N)) and the right gcd of operators; over
    K[x] Poly.gcd runs _subresultant_gcd instead.
    """
    while not b.is_zero():
        b = b.monic()
        a, b = b, divide(a, b)[1]
    return a.monic()


def _exact(a, b):
    """a / b for a polynomial b that divides a; a nonzero remainder raises ArithmeticError."""
    q, r = a.divmod(b)
    if not r.is_zero():
        raise ArithmeticError("exact division: %r does not divide %r" % (b, a))
    return q


def _lcm(a, b):
    """The monic lcm of two monic polynomials; a gcd only when neither divides the other.

    In one field order a coprimality certificate comes first: then the lcm
    is a * b, which is what a * (b / 1) writes there.
    """
    if a == b or b.degree() == 0:
        return a
    if len(_orders(a, b)) == 1 and _coprime(a, b):
        return a * b
    if b.divmod(a)[1].is_zero():
        return b
    if a.divmod(b)[1].is_zero():
        return a
    return a * _exact(b, a.gcd(b))


def _cleared(values) -> tuple[list, "Poly"]:
    """(numerators, lcm) with values[i] = numerators[i] / lcm, lcm the monic lcm of the denominators.

    values is a nonempty sequence of RatFuncs in one variable.
    """
    lcm = values[0].den
    for x in values[1:]:
        lcm = _lcm(lcm, x.den)
    return [x.num if x.den == lcm else x.num * _exact(lcm, x.den) for x in values], lcm


def _prem(a: list, b: list) -> list:
    """The pseudo-remainder of a by b: lead(b)^(deg a - deg b + 1) * a mod b.

    a and b are ascending coefficient lists over an integral domain,
    without trailing zeros, b nonempty; only +, - and * are used.
    """
    lead, n = b[-1], len(b) - 1
    r = list(a)
    for k in range(len(r) - 1, n - 1, -1):
        c = r.pop()
        r = [lead * x for x in r]
        if not c.is_zero():
            for i, d in enumerate(b[:-1], k - n):
                r[i] = r[i] - c * d
    while r and r[-1].is_zero():
        r.pop()
    return r


def _subresultants(a: list, b: list):
    """Yield the subresultant remainder sequence of a and b after them, up to signs.

    a and b are coefficient lists over an integral domain as in _prem, b
    nonempty and deg a >= deg b.  The sequence of Collins and of Brown and
    Traub (G. E. Collins, J. ACM 14, 1967; W. S. Brown and J. F. Traub,
    J. ACM 18, 1971): with delta = deg a - deg b, the next remainder r is
    prem(a, b) / (g h^delta), an exact division; then (a, b) becomes
    (b, r), g = lead(a) and h = g^delta / h^(delta - 1), with g = h = 1
    at first.  It stops after a constant remainder: the next one is zero.
    """
    g = h = None  # 1
    while True:
        delta = len(a) - len(b)
        r = _prem(a, b)
        if not r:
            return
        if g is not None:
            div = g * h**delta
            r = [_exact(c, div) for c in r]
        yield r
        if len(r) == 1:
            return
        a, b = b, r
        g = a[-1]
        if delta == 1:
            h = g
        elif h is None:
            h = g**delta
        elif delta > 1:
            h = _exact(g**delta, h ** (delta - 1))


def _subresultant_gcd(a: "Poly", b: "Poly") -> "Poly":
    """The monic gcd of a and b over K[x], K the fractions of a ring D.

    Each operand is cleared to numerators over D (for K = Q(zeta_N)(t),
    D = Q(zeta_N)[t]) and _subresultants runs over D, so no fraction and
    no gcd over D arises in the sequence.  Its last remainder S is an
    associate of the gcd in K[x], made monic at the end: each coefficient
    is RatFunc(S_i, lead(S)), whose constructor reduces by a gcd over D
    only where its coprimality certificate fails.  The remainders are
    _euclid's up to unit factors, and each takes the zero coefficient
    Euclid's would take (that of the remainder two steps back), so the
    result is written as Euclid writes it whenever every Scalar shares
    one field order.
    """
    a._check(b)
    za, zb = a.czero, b.czero
    if a.degree() < b.degree():
        a, b, za, zb = b, a, zb, za
    if a.is_zero():
        return a
    big = _cleared(a.coeffs)[0]
    if b.is_zero():
        return _monic_from(a.var, big, za)
    last, zlast, zother = _cleared(b.coeffs)[0], zb, za
    for r in _subresultants(big, last):
        last, zlast, zother = r, zother, zlast
    return _monic_from(a.var, last, zlast)


def _monic_from(var: str, coeffs: list, czero) -> "Poly":
    """The Poly in var with coefficients coeffs[i] / coeffs[-1], each a reduced RatFunc."""
    lead = coeffs[-1]
    one = RatFunc.constant(lead.var, lead.leading().one_like())
    return Poly(var, [RatFunc(c, lead) for c in coeffs[:-1]] + [one], czero)


class Poly:
    """Dense polynomial, ascending coefficients, trailing zeros stripped."""

    __slots__ = ("var", "coeffs", "czero")

    def __init__(self, var: str, coeffs, czero=None):
        coeffs, czero = _strip(coeffs, czero, "polynomial")
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "czero", czero)

    def __setattr__(self, *a):
        raise AttributeError("Poly is immutable")

    def _new(self, coeffs) -> "Poly":
        return Poly(self.var, coeffs, self.czero)

    @classmethod
    def constant(cls, var: str, c) -> "Poly":
        return cls(var, [c], c.zero_like())

    @classmethod
    def gen(cls, var: str, one) -> "Poly":
        return cls(var, [one.zero_like(), one])

    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    is_zero = _is_zero
    leading = _leading
    coeff = _coeff
    zero_like = _zero_like

    def one_like(self) -> "Poly":
        return Poly.constant(self.var, self.czero.one_like())

    def _check(self, other: "Poly"):
        if self.var != other.var:
            raise CoefficientFieldMismatch(
                "polynomial variables differ: %s vs %s" % (self.var, other.var)
            )

    __add__ = _add
    __neg__ = _neg
    __sub__ = _sub
    scale = _scale
    monic = _monic
    __pow__ = _power

    def __mul__(self, other):
        if not isinstance(other, Poly):
            other = Poly.constant(self.var, _as_coeff(self.czero.one_like(), other))
        self._check(other)
        if self.is_zero() or other.is_zero():
            return self.zero_like()
        zero = self.czero
        scalars = isinstance(zero, Scalar) and isinstance(other.czero, Scalar)
        if scalars and (len(self.coeffs) == 1 or len(other.coeffs) == 1):
            return self._new(poly_mul(self.coeffs, other.coeffs, zero))
        one_field = len(_orders(zero, *self.coeffs, *other.coeffs)) == 1
        if scalars and one_field:
            return self._new(poly_mul(self.coeffs, other.coeffs, zero))
        # the loop; in one field czero + p is p, so each output starts at its first product
        start = None if one_field else zero
        out = [start] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs, i):
                cur = out[j]
                out[j] = a * b if cur is None else cur + a * b
        return self._new([zero if c is None else c for c in out])

    __rmul__ = __mul__

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        # the division reads no czero
        if (isinstance(self.czero, Scalar) and isinstance(other.czero, Scalar)
                and len(_orders(*self.coeffs, *other.coeffs)) == 1):
            q, r = poly_divmod(self.coeffs, other.coeffs)
            return self._new(q), self._new(r)
        rem = list(self.coeffs)
        dn = len(other.coeffs)
        lead_inv = other.leading().one_like() / other.leading()
        q = [self.czero] * max(len(rem) - dn + 1, 0)
        for k in range(len(q) - 1, -1, -1):
            c = rem[k + dn - 1] * lead_inv
            q[k] = c
            if not c.is_zero():
                # the top position cancels, and nothing reads it again
                for i, d in enumerate(other.coeffs[:-1]):
                    rem[k + i] = rem[k + i] - c * d
        return self._new(q), self._new(rem[: dn - 1])

    def gcd(self, other: "Poly") -> "Poly":
        """The monic gcd: subresultants over K[x], Euclid over the constants."""
        if isinstance(self.czero, RatFunc):
            return _subresultant_gcd(self, other)
        return _euclid(self, other, Poly.divmod)

    def deriv(self) -> "Poly":
        """Formal derivative with respect to the polynomial's own variable."""
        return self._new([self.coeffs[i] * i for i in range(1, len(self.coeffs))])

    def map_coeffs(self, fn) -> "Poly":
        return Poly(self.var, [fn(c) for c in self.coeffs], fn(self.czero).zero_like())

    def eval(self, point):
        """Horner evaluation of a nonzero polynomial at a point its coefficients multiply."""
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * point + c
        return acc

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.var == other.var and self.coeffs == other.coeffs

    def __hash__(self):
        # a constant equals its coefficient as a RatFunc, so it hashes as one
        if self.degree() <= 0:
            return hash(self.coeff(0))
        return hash((self.var, self.coeffs))

    def __repr__(self):
        return "Poly(%r, %r)" % (self.var, list(self.coeffs))


# ---------------------------------------------------------------------------
# prime-field images.  A list of ints is a dense polynomial over F_p,
# ascending, with a nonzero last entry.
#
# A ring map phi from the coefficients onto F_p that keeps the leading
# coefficients of f and g nonzero sends Res(f, g) to Res(phi f, phi g)
# (von zur Gathen and Gerhard, Modern Computer Algebra, ch. 6).  Coprime
# images therefore prove Res(f, g) != 0, that is gcd(f, g) = 1; images
# with a common factor prove nothing.  The map sends zeta_L to a primitive
# L-th root of unity w modulo a prime p = 1 (mod L), where L is the lcm of
# the scalar orders, and t to the fixed integer _T0.

_PRIME_FLOOR = 1 << 30
# any fixed t works; a large one avoids the small integers where the
# denominators met in practice (t, t + 1, ...) vanish
_T0 = 271828183
# Miller-Rabin with these bases decides primality below 3.3 * 10^24
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for a in _WITNESSES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def _prime_field(order: int) -> tuple[int, int]:
    """(p, w): the least prime p = 1 (mod order) above 2^30, w of order exactly order mod p."""
    p = _PRIME_FLOOR // order * order + 1
    while p < _PRIME_FLOOR or not _is_prime(p):
        p += order
    factors = [q for q in range(2, order + 1) if order % q == 0 and _is_prime(q)]
    g = 2
    while True:
        w = pow(g, (p - 1) // order, p)
        if all(pow(w, order // q, p) != 1 for q in factors):
            return p, w
        g += 1


def _mod_rem(f: list, g: list, p: int) -> list:
    """f mod g over F_p."""
    f = list(f)
    dg = len(g) - 1
    inv = pow(g[-1], -1, p)
    for k in range(len(f) - 1, dg - 1, -1):
        c = f[k] * inv % p
        if c:
            for i, d in enumerate(g, k - dg):
                f[i] = (f[i] - c * d) % p
    del f[dg:]
    while f and not f[-1]:
        f.pop()
    return f


def _mod_coprime(f: list, g: list, p: int) -> bool:
    """True when the nonzero f and g have no common factor over F_p."""
    while g:
        f, g = g, _mod_rem(f, g, p)
    return len(f) == 1


def _coeff_image(c, p: int, roots: dict):
    """c in F_p, or None when a denominator vanishes there or c has another type."""
    if isinstance(c, Scalar):
        return c.residue(p, roots[c.order])
    if isinstance(c, RatFunc):
        num = _value_image(c.num, p, roots)
        den = _value_image(c.den, p, roots)
        if num is None or not den:
            return None
        return num * pow(den, -1, p) % p
    return None


def _value_image(f: "Poly", p: int, roots: dict):
    """f(_T0) in F_p, or None."""
    acc = 0
    for c in reversed(f.coeffs):
        v = _coeff_image(c, p, roots)
        if v is None:
            return None
        acc = (acc * _T0 + v) % p
    return acc


def _poly_image(f: "Poly", p: int, roots: dict):
    """The coefficients of f in F_p, or None unless each maps and the leading one survives."""
    out = [_coeff_image(c, p, roots) for c in f.coeffs]
    return out if out and out[-1] and None not in out else None


def _coprime(f: "Poly", g: "Poly") -> bool:
    """True when gcd(f, g) is provably a unit: a constant side, or coprime images.

    False proves nothing; the caller then reduces by the exact gcd.
    """
    if f.degree() == 0 or g.degree() == 0:
        return True
    orders = _orders(f, g)
    order = math.lcm(*orders)
    p, w = _prime_field(order)
    roots = {n: pow(w, order // n, p) for n in orders}
    a = _poly_image(f, p, roots)
    if a is None:
        return False
    b = _poly_image(g, p, roots)
    return b is not None and _mod_coprime(a, b, p)


def _lowest_terms(num: Poly, den: Poly, coprime: bool) -> tuple[Poly, Poly]:
    """num/den with the gcd cancelled and the denominator made monic.

    coprime=True says gcd(num, den) is known to be a unit, and skips
    only the gcd; the zero test and the monic scaling always run.
    """
    if num.is_zero():
        return num, Poly.constant(num.var, num.czero.one_like())
    if not coprime:
        g = num.gcd(den)
        if g.degree() > 0:
            num = num.divmod(g)[0]
            den = den.divmod(g)[0]
    lead = den.leading()
    if not lead.is_one():
        inv = lead.one_like() / lead
        num = num.scale(inv)
        den = den.scale(inv)
    return num, den


class RatFunc:
    """Quotient of two Polys; denominator monic and coprime to the numerator.

    Sums, products and inverses of reduced operands use Henrici's rule
    (Knuth, TAOCP vol. 2, 4.5.1): a/b + c/d is already reduced when
    gcd(b, d) = 1, (a/b)(c/d) when gcd(a, d) = gcd(c, b) = 1, and b/a
    always.  Each of those coprimality decisions is a prime-field
    certificate (_coprime), never an exact gcd, and so is the test an
    unreduced pair gets in the constructor.  When a certificate fails, the
    reducing gcd of the whole numerator and denominator runs (Poly.gcd:
    Euclid over Q(zeta_N)[t], the subresultant sequence over K[x]): the
    only exact gcd here.  A failed Henrici test goes to it straight, since a
    factor shared by b and d (or by a and d) divides the new numerator and
    denominator too.  The full reduction is taken unchanged rather than
    dividing the parts first: the JSON keeps each coefficient's field
    order, which follows the operands of every product and division (the
    rule in the module docstring), so only the full reduction keeps the
    output byte for byte what it was.  A certificate skips a gcd only when
    it would be 1, and a gcd of 1 divides nothing, so the certificates
    change no output.

    Constants of K skip all of this when every Scalar of both operands
    (coefficients and czeros of numerators and denominators) has one
    order: a sum or product is one Scalar sum or product, an inverse one
    Scalar inverse, written over the same constant 1 (_constant_order).
    The field cannot change there, so the result is the one the general
    path builds.  Constants in mixed orders take the general path.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly, reduced: bool = False):
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        num._check(den)
        if not reduced:
            num, den = _lowest_terms(num, den, _coprime(num, den))
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):
        raise AttributeError("RatFunc is immutable")

    @property
    def var(self) -> str:
        return self.num.var

    @property
    def czero(self):
        return self.num.czero

    @classmethod
    def constant(cls, var: str, c, czero=None) -> "RatFunc":
        czero = c.zero_like() if czero is None else czero
        one = Poly.constant(var, czero.one_like())
        return cls(Poly(var, [c], czero), one, reduced=True)

    @classmethod
    def from_poly(cls, p: Poly) -> "RatFunc":
        return cls(p, Poly.constant(p.var, p.czero.one_like()), reduced=True)

    @classmethod
    def gen(cls, var: str, one) -> "RatFunc":
        return cls.from_poly(Poly.gen(var, one))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self.den.degree() == 0 and self.num.degree() == 0 and self.num.leading().is_one()

    def is_polynomial(self) -> bool:
        return self.den.degree() == 0

    def is_constant(self) -> bool:
        return self.is_polynomial() and self.num.degree() <= 0

    def as_coefficient(self):
        """The underlying coefficient when this is a constant."""
        if not self.is_constant():
            raise ValueError("not a constant: %r" % (self,))
        return self.num.leading() if not self.num.is_zero() else self.num.czero

    def zero_like(self) -> "RatFunc":
        return RatFunc.constant(self.var, self.czero)

    def one_like(self) -> "RatFunc":
        return RatFunc.constant(self.var, self.czero.one_like())

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            if other.var == self.var:
                return other
            # a parameter-field element is a constant of the main field
            if self.var == "x" and other.var == "t":
                return RatFunc.constant(self.var, other, self.czero)
            raise CoefficientFieldMismatch(
                "cannot mix rational functions in %s and %s" % (self.var, other.var)
            )
        if isinstance(other, Poly):
            return RatFunc.from_poly(other) if other.var == self.var else self._coerce(RatFunc.from_poly(other))
        if isinstance(other, (int, Fraction, Scalar)):
            return RatFunc.constant(self.var, _as_coeff(self.czero, other))
        return None

    def _as_constant(self, c) -> "RatFunc":
        """The constant c of K in the field of self, itself a one-field constant of K."""
        return RatFunc(Poly(self.var, [c], self.czero), self.den, reduced=True)

    def __add__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        n = _constant_order(self)
        if n is not None and _constant_order(b) == n:
            return self._as_constant(self.num.coeff(0) + b.num.coeff(0))
        num = self.num * b.den + b.num * self.den
        coprime = num.is_zero() or _coprime(self.den, b.den)
        return RatFunc(*_lowest_terms(num, self.den * b.den, coprime), reduced=True)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den, reduced=True)

    def __sub__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        return self + (-b)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        n = _constant_order(self)
        if n is not None and _constant_order(b) == n:
            return self._as_constant(self.num.coeff(0) * b.num.coeff(0))
        num = self.num * b.num
        coprime = num.is_zero() or (_coprime(self.num, b.den) and _coprime(b.num, self.den))
        return RatFunc(*_lowest_terms(num, self.den * b.den, coprime), reduced=True)

    __rmul__ = __mul__

    def inv(self) -> "RatFunc":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero rational function")
        if _constant_order(self) is not None:
            c = self.num.coeffs[0]
            return self if c.is_one() else self._as_constant(c.inv())
        return RatFunc(*_lowest_terms(self.den, self.num, True), reduced=True)

    def __truediv__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        return self * b.inv()

    def __rtruediv__(self, other):
        return self.inv() * other

    __pow__ = _power

    def __eq__(self, other):
        # an element of K meeting one of K(x): Python then asks the K(x) side,
        # which reads this one as a constant, so == agrees both ways
        if isinstance(other, RatFunc) and self.var == "t" and other.var == "x":
            return NotImplemented
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        return self.num == b.num and self.den == b.den

    def __hash__(self):
        # with denominator 1 this equals its numerator, and a constant
        # numerator hashes as its coefficient, one level down the tower
        if self.den.degree() == 0:
            return hash(self.num)
        return hash((self.num, self.den))

    def deriv(self) -> "RatFunc":
        """Derivative with respect to the function's own variable, in lowest terms.

        With n/d reduced, g = gcd(d, d'), s = d/g and u = d'/g, the
        derivative (n's - nu)/(ds) needs no further reduction: a factor p
        of d of multiplicity m divides d' exactly m - 1 times (the
        derivation is d/dx or d/dt, in characteristic 0), so p divides s
        but neither u nor n, hence not n's - nu.  Only g is computed, and
        not even g when _coprime(d, d') certifies g = 1.
        """
        n, d = self.num, self.den
        dd = d.deriv()
        if _coprime(d, dd):
            s, u = d, dd
        else:
            g = d.gcd(dd)
            s, u = _exact(d, g), _exact(dd, g)
        return RatFunc(*_lowest_terms(n.deriv() * s - n * u, d * s, True), reduced=True)

    def _coeff_deriv(self, fn) -> "RatFunc":
        # quotient rule with fn applied to the coefficients of num and den,
        # reduced by the full gcd: deriv's shortcut fails here, since a
        # factor of d with dt-constant coefficients (x - c) divides dt(d)
        # as often as d itself, and then (n's - nu)/(ds) need not be reduced
        num = self.num.map_coeffs(fn) * self.den - self.num * self.den.map_coeffs(fn)
        return RatFunc(num, self.den * self.den)

    def dx(self) -> "RatFunc":
        if self.var == "x":
            return self.deriv()
        return self.zero_like()

    def dt(self) -> "RatFunc":
        if self.var == "t":
            return self.deriv()
        return self._coeff_deriv(lambda c: c.dt())

    def dt0(self, e: int) -> "RatFunc":
        """The parameter derivation through t = t0^(1/e), scaling by t^(1-e)/e."""
        if e == 1:
            return self.dt()
        if self.var == "t":
            t = RatFunc.gen(self.var, self.czero.one_like())
            return self.deriv() * t ** (1 - e) / e
        return self._coeff_deriv(lambda c: c.dt0(e))

    def __repr__(self):
        return "RatFunc(%r, %r)" % (self.num, self.den)

    def __str__(self):
        from .render import format_ratfunc

        return format_ratfunc(self)


# ---------------------------------------------------------------------------
# convenience constructors for the two levels of the tower


def k_const(value, order: int = 1) -> RatFunc:
    """Element of K = Q(zeta_order)(t) from a rational or Scalar."""
    if isinstance(value, Scalar):
        return RatFunc.constant("t", value)
    return RatFunc.constant("t", Scalar.from_rational(value, order))


def t_var(order: int = 1) -> RatFunc:
    """The generator t of K."""
    return RatFunc.gen("t", Scalar.from_rational(1, order))


def x_var(order: int = 1) -> RatFunc:
    """The generator x of F = K(x), with K-coefficients."""
    return RatFunc.gen("x", k_const(1, order))


def f_const(value) -> RatFunc:
    """Constant of F = K(x) from a K-element, Scalar, or rational."""
    if isinstance(value, RatFunc) and value.var == "t":
        return RatFunc.constant("x", value)
    return RatFunc.constant("x", k_const(value))
