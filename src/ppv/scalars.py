"""Exact arithmetic in cyclotomic fields Q(zeta_N).

A Scalar is the residue of a rational-coefficient polynomial modulo the
N-th cyclotomic polynomial, so equality is decidable and exact.  N = 1
gives plain rationals.  Scalars are the constants of every ring in this
package: both derivations vanish on them.
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
            poly, rem = _qpoly_divmod(poly, cyclotomic_coeffs(d))
            assert not rem, "inexact division"
    return tuple(poly)


def euler_phi(n: int) -> int:
    return len(cyclotomic_coeffs(n)) - 1


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


def _qpoly_divmod(num, den):
    """Long division of ascending lists; by a monic den, integers stay integers."""
    num = list(num)
    dlead = den[-1]
    q = [Fraction(0)] * max(len(num) - len(den) + 1, 0)
    for k in range(len(q) - 1, -1, -1):
        c = num[k + len(den) - 1]
        if dlead != 1:
            c = c / dlead
        q[k] = c
        if c:
            for i, d in enumerate(den):
                num[k + i] -= c * d
    return q, _trim(num)


def _qpoly_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim(out)


def _qpoly_sub(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] -= y
    return _trim(out)


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


class Scalar:
    """Element of Q(zeta_N), reduced modulo the N-th cyclotomic polynomial."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs):
        phi = euler_phi(order)
        cs = [Fraction(c) for c in coeffs]
        if len(cs) > phi:
            modulus = [Fraction(c) for c in cyclotomic_coeffs(order)]
            _, cs = _qpoly_divmod(cs, modulus)
        cs += [Fraction(0)] * (phi - len(cs))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):
        raise AttributeError("Scalar is immutable")

    # constructors

    @classmethod
    def from_rational(cls, q, order: int = 1) -> "Scalar":
        return cls(order, [Fraction(q)])

    @classmethod
    def zeta(cls, order: int) -> "Scalar":
        """A primitive order-th root of unity."""
        return cls(order, [Fraction(0), Fraction(1)])

    def zero_like(self) -> "Scalar":
        return Scalar(self.order, [])

    def one_like(self) -> "Scalar":
        return Scalar(self.order, [Fraction(1)])

    # structure

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_one(self) -> bool:
        return self.coeffs[0] == 1 and not any(self.coeffs[1:])

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("scalar is not rational: %r" % (self,))
        return self.coeffs[0]

    def promote(self, order: int) -> "Scalar":
        """Re-express in Q(zeta_order); requires self.order | order."""
        if order == self.order:
            return self
        if order % self.order:
            raise CoefficientFieldMismatch(
                "cannot embed Q(zeta_%d) into Q(zeta_%d)" % (self.order, order)
            )
        # zeta_self = zeta_order^step; the constructor reduces modulo Phi_order
        step = order // self.order
        out = [Fraction(0)] * ((len(self.coeffs) - 1) * step + 1)
        out[::step] = self.coeffs
        return Scalar(order, out)

    @staticmethod
    def pair(a: "Scalar", b: "Scalar") -> tuple["Scalar", "Scalar"]:
        if a.order == b.order:
            return a, b
        n = math.lcm(a.order, b.order)
        return a.promote(n), b.promote(n)

    def _coerce(self, other):
        if isinstance(other, Scalar):
            return Scalar.pair(self, other)
        if isinstance(other, (int, Fraction)):
            return self, Scalar.from_rational(other, self.order)
        return None

    # arithmetic

    def __add__(self, other):
        pair = self._coerce(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return Scalar(a.order, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return Scalar(self.order, [-c for c in self.coeffs])

    def __sub__(self, other):
        pair = self._coerce(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return Scalar(a.order, [x - y for x, y in zip(a.coeffs, b.coeffs)])

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        pair = self._coerce(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return Scalar(a.order, _qpoly_mul(list(a.coeffs), list(b.coeffs)))

    __rmul__ = __mul__

    def inv(self) -> "Scalar":
        """Inverse via the extended Euclidean algorithm modulo Phi_N."""
        if self.is_zero():
            raise ZeroDivisionError("scalar division by zero")
        modulus = [Fraction(c) for c in cyclotomic_coeffs(self.order)]
        r0, r1 = modulus, _trim(list(self.coeffs))
        s0, s1 = [], [Fraction(1)]
        while len(r1) > 1:
            q, r = _qpoly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _qpoly_sub(s0, _qpoly_mul(q, s1))
        lead = r1[0]
        return Scalar(self.order, [c / lead for c in s1])

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
        return a.coeffs == b.coeffs

    def __hash__(self):
        # the normalized trace does not change under promote, so equal
        # scalars from different fields hash equal; a rational hashes as itself
        if self.is_rational():
            return hash(self.coeffs[0])
        return hash(sum(c * w for c, w in zip(self.coeffs, _trace_weights(self.order)) if c))

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
        below N; the constructor reduces the result modulo Phi_N.
        """
        if math.gcd(j, self.order) != 1:
            raise ValueError("exponent %d not coprime to %d" % (j, self.order))
        out = [0] * self.order
        for k, c in enumerate(self.coeffs):
            out[j * k % self.order] = c
        return Scalar(self.order, out)

    def __repr__(self):
        return "Scalar(%d, %s)" % (self.order, list(self.coeffs))

    def __str__(self):
        from .render import format_scalar

        return format_scalar(self)


def rational(q) -> Scalar:
    """Plain rational number as a Scalar."""
    return Scalar.from_rational(q)
