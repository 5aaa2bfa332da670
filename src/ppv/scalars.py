"""Exact arithmetic in cyclotomic fields Q(zeta_N).

A Scalar is the residue of a rational-coefficient polynomial modulo the
N-th cyclotomic polynomial Phi_N, stored as phi(N) integer numerators
over one positive denominator with no common factor, so equal values in
one field have equal fields.  Phi_N is monic with integer coefficients,
so reduction stays in integers, and the inverse is the extended Euclidean
algorithm modulo Phi_N on integer vectors.  N = 1 gives plain rationals.
Scalars are the constants of every ring in this package, so they carry
no derivation; the rings above them differentiate only their variables.

+, -, == and * of two Scalars of one order take a same-field lane: no
coercion, and a rational (one numerator over Q) is built with one gcd.
For +, - and ==, mixed orders, ints and Fractions are coerced at the front
of the method and then take the same arithmetic; * scales by an int or a
Fraction directly and multiplies two orders in their lcm without promoted
copies.

Only this module reads the integer representation.  The kernel of dense
polynomials over Q(zeta_N) lives here beside it: poly_mul and poly_divmod
build each output coefficient of a product or a division from one integer
vector.  So do the integer maps the series layer calls, scaled (k x / d) and
combination (a sum of k x y over d): each builds one Scalar from the
integers of the Scalars it reads, in the lcm field of their orders, the
field the same expression takes as a chain of Scalar operations.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .errors import CoefficientFieldMismatch

# largest cyclotomic order read from input (parser, jsonio): Phi_N is
# built by repeated division, which costs about 13x more at 4096 than at 1024
_MAX_INPUT_ORDER = 1024


def _trim(coeffs: list) -> list:
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


@lru_cache(maxsize=None)
def cyclotomic_coeffs(n: int) -> tuple[int, ...]:
    """Integer coefficients (ascending) of the n-th cyclotomic polynomial."""
    if n < 1:
        raise ValueError("cyclotomic order must be >= 1")
    if n == 1:
        return (-1, 1)
    poly = [-1] + [0] * (n - 1) + [1]  # X^n - 1
    for d in range(1, n):
        if n % d == 0:
            quot = _reduce(poly, d)
            assert not any(poly[:euler_phi(d)]), "inexact division"
            poly = quot
    return tuple(poly)


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    return len(cyclotomic_coeffs(n)) - 1


@lru_cache(maxsize=None)
def _phi_tail(n: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """phi(n) and the nonzero (i, c) of Phi_n below its leading term."""
    cs = cyclotomic_coeffs(n)
    return len(cs) - 1, tuple((i, c) for i, c in enumerate(cs[:-1]) if c)


def _reduce(vec: list, n: int) -> list:
    """Divide the integer list vec (ascending) in place by the monic Phi_n.

    Returns the quotient; the remainder is left in vec[:phi(n)].
    """
    phi, tail = _phi_tail(n)
    quot = [0] * max(len(vec) - phi, 0)
    for k in range(len(vec) - 1, phi - 1, -1):
        c = vec[k]
        if c:
            base = k - phi
            quot[base] = c
            for i, p in tail:
                vec[base + i] -= c * p
    return quot


@lru_cache(maxsize=None)
def _trace_weights(n: int) -> tuple[Fraction, ...]:
    """Tr(zeta_n^k) / phi(n) for the basis powers k, a field-independent value.

    zeta_n^k is a primitive m-th root of unity, m = n / gcd(n, k), so its
    normalized trace is the sum of the primitive m-th roots, mu(m), over
    phi(m); that sum is minus the second-highest coefficient of Phi_m.
    """
    out = []
    for k in range(euler_phi(n)):
        phi_m = cyclotomic_coeffs(n // math.gcd(n, k))
        out.append(Fraction(-phi_m[-2], len(phi_m) - 1))
    return tuple(out)


def _power(x, n: int):
    """x**n by square-and-multiply; a negative n inverts x first."""
    if n < 0:
        x, n = x.inv(), -n
    out = x.one_like()
    while n:
        if n & 1:
            out = out * x
        n >>= 1
        if n:
            x = x * x
    return out


def _scalar(order: int, vec: list, den: int) -> "Scalar":
    """The Scalar (sum vec[k] zeta^k) / den, for integers vec and den != 0.

    Every Scalar is built here: vec is reduced modulo Phi_order, padded to
    phi(order) entries and divided by its common factor with den > 0.  A
    rational, one numerator over Q, takes one gcd and no phi lookup.
    """
    if order == 1 and len(vec) == 1:
        num = vec[0]
        g = math.gcd(num, den)
        if den < 0:
            g = -g
        if g != 1:
            num //= g
            den //= g
        out = object.__new__(Scalar)
        _set_order(out, 1)
        _set_nums(out, (num,))
        _set_den(out, den)
        return out
    phi = euler_phi(order)
    if len(vec) > phi:
        _reduce(vec, order)
        del vec[phi:]
    elif len(vec) < phi:
        vec = vec + [0] * (phi - len(vec))
    g = math.gcd(den, *vec)
    if den < 0:
        g = -g
    if g != 1:
        vec = [c // g for c in vec]
        den //= g
    out = object.__new__(Scalar)
    _set_order(out, order)
    _set_nums(out, tuple(vec))
    _set_den(out, den)
    return out


class Scalar:
    """Element of Q(zeta_N), reduced modulo the N-th cyclotomic polynomial."""

    __slots__ = ("order", "_nums", "_den")

    def __new__(cls, order: int, coeffs):
        fracs = [Fraction(c) for c in coeffs]
        den = math.lcm(*(f.denominator for f in fracs))
        return _scalar(order, [f.numerator * (den // f.denominator) for f in fracs], den)

    def __setattr__(self, *a):
        raise AttributeError("Scalar is immutable")

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Power-basis coefficients, one Fraction per basis power below phi(N)."""
        den = self._den
        return tuple(Fraction(c, den) for c in self._nums)

    def terms(self):
        """(power, num, den) of each nonzero coefficient, in lowest terms, den > 0."""
        den = self._den
        for k, c in enumerate(self._nums):
            if c:
                g = math.gcd(c, den)
                yield k, c // g, den // g

    def residue(self, p: int, zeta: int):
        """The image in F_p under zeta_N -> zeta, or None when p divides the denominator.

        zeta must be a root of Phi_N modulo the prime p; then this is the
        ring map Z[zeta_N][1/den] -> F_p.
        """
        den = self._den % p
        if not den:
            return None
        acc = 0
        for c in reversed(self._nums):
            acc = (acc * zeta + c) % p
        return acc if den == 1 else acc * pow(den, -1, p) % p

    # constructors

    @classmethod
    def from_rational(cls, q, order: int = 1) -> "Scalar":
        if not isinstance(q, (int, Fraction)):
            q = Fraction(q)
        return _scalar(order, [q.numerator], q.denominator)

    @classmethod
    def zeta(cls, order: int) -> "Scalar":
        """A primitive order-th root of unity."""
        return _scalar(order, [0, 1], 1)

    def zero_like(self) -> "Scalar":
        return _scalar(self.order, [], 1)

    def one_like(self) -> "Scalar":
        return _scalar(self.order, [1], 1)

    # structure

    def is_zero(self) -> bool:
        return not any(self._nums)

    def is_one(self) -> bool:
        return self._nums[0] == self._den and not any(self._nums[1:])

    def is_rational(self) -> bool:
        return not any(self._nums[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("scalar is not rational: %r" % (self,))
        return Fraction(self._nums[0], self._den)

    def promote(self, order: int) -> "Scalar":
        """Re-express in Q(zeta_order); requires self.order | order."""
        if order == self.order:
            return self
        if order % self.order:
            raise CoefficientFieldMismatch(
                "cannot embed Q(zeta_%d) into Q(zeta_%d)" % (self.order, order)
            )
        # _scalar reduces modulo Phi_order
        return _scalar(order, _spread(self._nums, order // self.order), self._den)

    @staticmethod
    def pair(a: "Scalar", b: "Scalar") -> tuple["Scalar", "Scalar"]:
        n = math.lcm(a.order, b.order)
        return a.promote(n), b.promote(n)

    def _coerce(self, other):
        """(self, other) in one field: the general lane of +, == and /.

        + and == skip it for two Scalars of one order; a mixed pair is
        promoted to the lcm of the orders, and an int or a Fraction is read
        in self's field.
        """
        if isinstance(other, Scalar):
            return (self, other) if self.order == other.order else Scalar.pair(self, other)
        if isinstance(other, (int, Fraction)):
            return self, Scalar.from_rational(other, self.order)
        return None

    # arithmetic: two Scalars of one order take the lane below the coercion

    def __add__(self, other):
        a, b = self, other
        if b.__class__ is not Scalar or b.order != a.order:
            pair = a._coerce(b)
            if pair is None:
                return NotImplemented
            a, b = pair
        da, db = a._den, b._den
        if da == db:
            return _scalar(a.order, [x + y for x, y in zip(a._nums, b._nums)], da)
        return _scalar(a.order, [x * db + y * da for x, y in zip(a._nums, b._nums)], da * db)

    __radd__ = __add__

    def __neg__(self):
        return _scalar(self.order, [-c for c in self._nums], self._den)

    def __sub__(self, other):
        if isinstance(other, (Scalar, int, Fraction)):
            return self + -other
        return NotImplemented

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        cls = other.__class__
        if cls is Scalar:
            n = self.order
            if n == other.order:
                if n == 1:
                    return _scalar(1, [self._nums[0] * other._nums[0]], self._den * other._den)
                return _product(self, other, n)
            return _product(self, other, math.lcm(n, other.order))
        # a rational factor scales the integer vector: no coercion, no convolution
        if cls is int:
            return _scalar(self.order, [c * other for c in self._nums], self._den)
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        num = other.numerator
        return _scalar(self.order, [c * num for c in self._nums], self._den * other.denominator)

    __rmul__ = __mul__

    def inv(self) -> "Scalar":
        """Inverse via the extended Euclidean algorithm modulo Phi_N.

        It pseudo-divides integer vectors, keeping r = s * X (mod Phi_N) for
        the numerator polynomial X, and divides the content out of each pair
        (r, s); the last remainder is an integer c, so X^-1 = s / c.
        """
        if self.is_zero():
            raise ZeroDivisionError("scalar division by zero")
        nums, den = self._nums, self._den
        if len(nums) == 1:
            return _scalar(self.order, [den], nums[0])
        r0, r1 = list(cyclotomic_coeffs(self.order)), _trim(list(nums))
        s0, s1 = [], [1]
        while len(r1) > 1:
            lead = r1[-1]
            while len(r0) >= len(r1):
                # r0 <- a*r0 - b*x^k*r1 cancels the leading term of r0
                g = math.gcd(r0[-1], lead)
                a, b, k = lead // g, r0[-1] // g, len(r0) - len(r1)
                if a != 1:
                    r0 = [a * c for c in r0]
                    s0 = [a * c for c in s0]
                for i, c in enumerate(r1, k):
                    r0[i] -= b * c
                s0 += [0] * (len(s1) + k - len(s0))
                for i, c in enumerate(s1, k):
                    s0[i] -= b * c
                _trim(r0)
            g = math.gcd(*r0, *s0)
            if g > 1:
                r0 = [c // g for c in r0]
                s0 = [c // g for c in s0]
            r0, r1, s0, s1 = r1, r0, s1, s0
        return _scalar(self.order, [den * c for c in s1], r1[0])

    def __truediv__(self, other):
        pair = self._coerce(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return a * b.inv()

    def __rtruediv__(self, other):
        return self.inv() * other

    __pow__ = _power

    # comparisons

    def __eq__(self, other):
        a, b = self, other
        if b.__class__ is not Scalar or b.order != a.order:
            pair = a._coerce(b)
            if pair is None:
                return NotImplemented
            a, b = pair
        return a._den == b._den and a._nums == b._nums

    def __hash__(self):
        # the normalized trace does not change under promote, so equal
        # scalars from different fields hash equal; a rational hashes as itself
        nums = self._nums
        if self.is_rational():
            return hash(Fraction(nums[0], self._den))
        trace = sum(c * w for c, w in zip(nums, _trace_weights(self.order)) if c)
        return hash(Fraction(trace, self._den))

    def __bool__(self):
        return not self.is_zero()

    # Galois action

    def galois(self, j: int) -> "Scalar":
        """Field automorphism zeta -> zeta^j; requires gcd(j, N) = 1.

        zeta^k goes to zeta^(j*k mod N), a permutation of the exponents
        below N; _scalar reduces the result modulo Phi_N.
        """
        if math.gcd(j, self.order) != 1:
            raise ValueError("exponent %d not coprime to %d" % (j, self.order))
        out = [0] * self.order
        for k, c in enumerate(self._nums):
            out[j * k % self.order] = c
        return _scalar(self.order, out, self._den)

    def __repr__(self):
        return "Scalar(%d, %s)" % (self.order, list(self.coeffs))

    def __str__(self):
        from .render import format_scalar

        return format_scalar(self)


_set_order = Scalar.order.__set__
_set_nums = Scalar._nums.__set__
_set_den = Scalar._den.__set__


# ---------------------------------------------------------------------------
# dense polynomials over Q(zeta_N): the product and the division with
# remainder of coefficient tuples (ascending, Scalars).  Each output
# coefficient is summed as one integer vector over one denominator, reduced
# modulo Phi_n once and built as one Scalar.  Apart from a product with a
# one-coefficient factor, every coefficient lies in one field Q(zeta_n): the
# caller sends operands of mixed orders to the coefficient-by-coefficient
# loop (rationals module docstring), and arithmetic in one field stays in
# it, so the output is that loop's Scalar byte for byte.


def _terms(x: Scalar, scale: int) -> list:
    """(power, scale * numerator) for each nonzero numerator of x."""
    return [(k, c * scale) for k, c in enumerate(x._nums) if c]


def _spread(nums, step: int) -> list:
    """The powers of zeta_m as powers of zeta_(m*step): entry k moves to k*step."""
    out = [0] * ((len(nums) - 1) * step + 1)
    out[::step] = nums
    return out


def _convolve(xn, yn) -> list:
    """The integer vector of the product of two power-basis vectors, unreduced."""
    out = [0] * (len(xn) + len(yn) - 1)
    for i, c in enumerate(xn):
        if c:
            for j, d in enumerate(yn, i):
                out[j] += c * d
    return out


def _product(x: Scalar, y: Scalar, n: int) -> Scalar:
    """x * y in Q(zeta_n), for n a multiple of both orders."""
    xn, yn = x._nums, y._nums
    den = x._den * y._den
    if len(xn) == 1 and len(yn) == 1:
        return _scalar(n, [xn[0] * yn[0]], den)
    if x.order != n:
        xn = _spread(xn, n // x.order)
    if y.order != n:
        yn = _spread(yn, n // y.order)
    if not any(xn[1:]):
        r = xn[0]
        return _scalar(n, [r * c for c in yn], den)
    if not any(yn[1:]):
        r = yn[0]
        return _scalar(n, [c * r for c in xn], den)
    return _scalar(n, _convolve(xn, yn), den)


# ---------------------------------------------------------------------------
# integer maps for the series layer: a coefficient map builds each output as
# one Scalar from the integers of the Scalars it reads, in the field it would
# have had as a chain of Scalar operations.


def scaled(x: Scalar, k: int, den: int = 1) -> Scalar:
    """k * x / den in the field of x, for integers k and den != 0."""
    return _scalar(x.order, [c * k for c in x._nums], x._den * den)


def combination(terms, den: int = 1) -> Scalar:
    """(sum of k * x * y over the terms (k, x, y)) / den as one Scalar.

    Each k and den != 0 are integers, x is a Scalar and y a Scalar or None
    (read as 1).  The field is the lcm of the orders of every x and y, the
    field of the same sum written with Scalar products and sums.
    """
    order = 1
    for _, x, y in terms:
        if x.order != order:
            order = math.lcm(order, x.order)
        if y is not None and y.order != order:
            order = math.lcm(order, y.order)
    if order == 1:
        num, d = 0, 1
        for k, x, y in terms:
            if y is None:
                tn, td = k * x._nums[0], x._den
            else:
                tn, td = k * x._nums[0] * y._nums[0], x._den * y._den
            num, d = num * td + tn * d, d * td
        return _scalar(1, [num], d * den)
    parts = []
    for k, x, y in terms:
        xn, td = x._nums, x._den
        if x.order != order:
            xn = _spread(xn, order // x.order)
        if y is not None:
            yn = y._nums if y.order == order else _spread(y._nums, order // y.order)
            xn, td = _convolve(xn, yn), td * y._den
        parts.append((k, xn, td))
    d = math.lcm(*[td for _, _, td in parts])
    vec = [0] * max(len(xn) for _, xn, _ in parts)
    for k, xn, td in parts:
        k *= d // td
        for i, c in enumerate(xn):
            vec[i] += k * c
    return _scalar(order, vec, d * den)


def poly_mul(a: tuple, b: tuple, czero: Scalar) -> list:
    """The coefficients of the product of sum a_i X^i and sum b_j X^j.

    With a one-coefficient factor, output k is czero + a_i * b_j in the lcm
    of the three orders, and czero where the other factor's coefficient is
    zero.  Otherwise every a_i, b_j and czero lie in one field.  a and b
    are nonempty.
    """
    la, lb = len(a), len(b)
    order = czero.order
    lcm = math.lcm
    if la == 1:
        x = a[0]
        return [_product(x, y, lcm(order, x.order, y.order)) for y in b]
    if lb == 1:
        y = b[0]
        return [_product(x, y, lcm(order, x.order, y.order)) if any(x._nums) else czero
                for x in a]
    den_a = lcm(*[x._den for x in a])
    den_b = lcm(*[y._den for y in b])
    den = den_a * den_b
    ta = [_terms(x, den_a // x._den) for x in a]
    tb = [_terms(y, den_b // y._den) for y in b]
    size = 2 * euler_phi(order) - 1
    out = []
    for k in range(la + lb - 1):
        vec = [0] * size
        for i in range(max(0, k - lb + 1), min(k, la - 1) + 1):
            ys = tb[k - i]
            for e, c in ta[i]:
                for f, d in ys:
                    vec[e + f] += c * d
        out.append(_scalar(order, vec, den))
    return out


def poly_divmod(s: tuple, d: tuple) -> tuple[list, list]:
    """Quotient and remainder coefficients of sum s_i X^i by sum d_i X^i.

    This is long division from the top.  The running remainder at position
    j is s_j minus c_k * d_(j-k) for each nonzero quotient coefficient c_k
    above it, one integer vector.  At a top position it gives the quotient
    coefficient, times 1/lead (one more Scalar unless lead is 1).  Every
    s_i and d_i lies in the field of the leading coefficient lead = d[-1],
    which is nonzero.
    """
    ls, ld = len(s), len(d)
    nq = max(ls - ld + 1, 0)
    lead = d[-1]
    order = lead.order
    inv = None if lead.is_one() else lead.inv()
    den_d = math.lcm(*[y._den for y in d])
    td = [_terms(y, den_d // y._den) for y in d]
    size = 2 * euler_phi(order) - 1
    quot = [None] * nq
    tq = [None] * nq  # (denominator, numerator terms) of each nonzero c_k
    rem = []
    for j in range(ls - 1, -1, -1):
        k = j - ld + 1  # the quotient coefficient read off position j, if k >= 0
        r = sj = s[j]
        pairs = [(tq[kk], td[j - kk]) for kk in range(max(k + 1, 0), min(j, nq - 1) + 1)
                 if tq[kk]]
        if pairs:
            # the running remainder at j over the denominator den
            den = math.lcm(sj._den, den_d * math.lcm(*[c[0] for c, _ in pairs]))
            scale = den // sj._den
            vec = [c * scale for c in sj._nums]
            vec += [0] * (size - len(vec))
            for (dc, cs), ds in pairs:
                scale = den // (dc * den_d)
                for e, c in cs:
                    c *= scale
                    for f, g in ds:
                        vec[e + f] -= c * g
            r = _scalar(order, vec, den)
        if k < 0:
            rem.append(r)
            continue
        c_k = quot[k] = r if inv is None else _product(r, inv, order)
        if any(c_k._nums):
            tq[k] = (c_k._den, _terms(c_k, 1))
    rem.reverse()
    return quot, rem


def rational(q) -> Scalar:
    """Plain rational number as a Scalar."""
    return Scalar.from_rational(q)
