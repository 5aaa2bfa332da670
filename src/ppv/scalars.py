"""Exact arithmetic in cyclotomic fields Q(zeta_N).

A Scalar is the residue of a rational-coefficient polynomial modulo the
N-th cyclotomic polynomial Phi_N, stored as phi(N) integer numerators
over one positive denominator with no common factor, so equal values in
one field have equal fields.  Phi_N is monic with integer coefficients,
so reduction stays in integers, and the inverse is the extended Euclidean
algorithm modulo Phi_N on integer vectors.  N = 1 gives plain rationals.
Scalars are the constants of every ring in this package: both
derivations vanish on them.
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
    phi(order) entries and divided by its common factor with den > 0.
    """
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
        # zeta_self = zeta_order^step; _scalar reduces modulo Phi_order
        step = order // self.order
        out = [0] * ((len(self._nums) - 1) * step + 1)
        out[::step] = self._nums
        return _scalar(order, out, self._den)

    @staticmethod
    def pair(a: "Scalar", b: "Scalar") -> tuple["Scalar", "Scalar"]:
        n = math.lcm(a.order, b.order)
        return a.promote(n), b.promote(n)

    def _coerce(self, other):
        if isinstance(other, Scalar):
            return (self, other) if self.order == other.order else Scalar.pair(self, other)
        if isinstance(other, (int, Fraction)):
            return self, Scalar.from_rational(other, self.order)
        return None

    # arithmetic

    def __add__(self, other):
        pair = self._coerce(other)
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
        pair = self._coerce(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        da, db = a._den, b._den
        if da == db:
            return _scalar(a.order, [x - y for x, y in zip(a._nums, b._nums)], da)
        return _scalar(a.order, [x * db - y * da for x, y in zip(a._nums, b._nums)], da * db)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if not isinstance(other, Scalar):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            # a rational factor scales the integer vector: no coercion, no convolution
            num = other.numerator
            return _scalar(self.order, [c * num for c in self._nums],
                           self._den * other.denominator)
        a, b = (self, other) if self.order == other.order else Scalar.pair(self, other)
        an, bn = a._nums, b._nums
        if len(an) == 1:
            return _scalar(a.order, [an[0] * bn[0]], a._den * b._den)
        if not any(an[1:]):
            r = an[0]
            return _scalar(a.order, [r * y for y in bn], a._den * b._den)
        if not any(bn[1:]):
            r = bn[0]
            return _scalar(a.order, [x * r for x in an], a._den * b._den)
        out = [0] * (2 * len(an) - 1)
        for i, x in enumerate(an):
            if x:
                for j, y in enumerate(bn, i):
                    out[j] += x * y
        return _scalar(a.order, out, a._den * b._den)

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
        pair = self._coerce(other)
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

    # derivations: scalars are constants for both

    def dx(self) -> "Scalar":
        return self.zero_like()

    def dt(self) -> "Scalar":
        return self.zero_like()

    def dt0(self, e: int) -> "Scalar":
        return self.zero_like()

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


def rational(q) -> Scalar:
    """Plain rational number as a Scalar."""
    return Scalar.from_rational(q)
