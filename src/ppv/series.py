"""Truncated Laurent series with exact validity tracking.

TruncLaurent is a Laurent series in one variable known modulo var^trunc;
trunc = INF marks an exact Laurent polynomial.  TwoVarLaurent is a
Laurent series in t whose t-coefficients are Laurent series in w = z - q,
i.e. an element of k((z-q))((t)) at the point z = q.  Every operation
returns the validity it can prove, never padding with zeros, so an
identity that checks out on a window is a genuine partial verification.
One kernel serves both types: the sum, the product, the geometric-series
inverse and the window comparison are written once below, and each class
keeps only what differs (its variable or point, which coefficients count
as zero, the monomial shortcut of inv and the 1 that seeds it, and its
derivations).

The two derivations on k((z-q))((t)) come from d/dx via z = x/t and from
the parameter direction through a ramified root t = t0^(1/e):

    dx:      sum f_n t^n  ->  sum f_n' t^(n-1)
    dt0(e):  sum f_n t^n  ->  sum ((n/e) f_n - (z/e) f_n') t^(n-e)

with f_n' = d f_n / dw and z expanded as w + q.  dt0(1) restricted to
elements constant in w is plain d/dt.
"""

from __future__ import annotations

import os
from fractions import Fraction

from .errors import CoefficientFieldMismatch, NonInvertibleLeadingTerm, TruncationExhausted
from .scalars import Scalar
from .rationals import RatFunc

INF = float("inf")

DEFAULT_ORDER = 10


def default_order() -> int:
    """Working order: identities are certified for exponents up to this."""
    env = os.environ.get("PPV_TRUNC")
    return int(env) if env else DEFAULT_ORDER


def certified_window(a, b, order: int) -> tuple[int, int]:
    """(outer, inner) bounds through which a and b can be compared exactly.

    Each bound is order when the joint validity is INF and
    min(order, validity - 1) otherwise.
    """

    def bound(validity):
        return order if validity == INF else min(order, int(validity) - 1)

    return (
        bound(min(a.trunc, b.trunc)),
        bound(min(a.inner_validity(), b.inner_validity())),
    )


# ---------------------------------------------------------------------------
# the kernel: one sum, product, geometric inverse and window comparison for
# both series types.  A series s has coeffs (exponent -> coefficient) and a
# trunc; s._new(coeffs, trunc) builds a series of the same kind at the same
# variable or point, and s._operand(other) says whether other combines with s.


def _add(a, b):
    if not a._operand(b):
        return NotImplemented
    out = dict(a.coeffs)
    for n, c in b.coeffs.items():
        cur = out.get(n)
        out[n] = c if cur is None else cur + c
    return a._new(out, min(a.trunc, b.trunc))


def _neg(a):
    return a._new({n: -c for n, c in a.coeffs.items()}, a.trunc)


def _sub(a, b):
    if not a._operand(b):
        return NotImplemented
    return a + (-b)


def _mul(a, b):
    if not a._operand(b):
        return NotImplemented
    # an exact factor adds no bound, so the valuation of the other is not needed
    trunc = min(a.trunc if a.trunc == INF else a.trunc + b.valuation(),
                b.trunc if b.trunc == INF else b.trunc + a.valuation())
    out: dict = {}
    for i, x in a.coeffs.items():
        for j, y in b.coeffs.items():
            if i + j >= trunc:
                continue
            prod = x * y
            cur = out.get(i + j)
            out[i + j] = prod if cur is None else cur + prod
    return a._new(out, trunc)


def _div(a, b, cap=None):
    return a * b.inv(cap=cap)


def _shift(a, k: int):
    return a._new({n + k: c for n, c in a.coeffs.items()}, a.trunc + k)


def _geometric_inv(s, v: int, lead_inv, validity, one):
    """Inverse of s = c t^v (1 + u) as t^-v c^-1 sum (-u)^k, valid below validity.

    lead_inv inverts the coefficient c at v; one, the 1 of the coefficient
    ring, seeds the expansion.
    """
    if validity == INF:
        raise ValueError("cap required to invert an exact series with several orders")
    rel = validity + v  # validity of the (1+u)^-1 factor
    u = s._new({n - v: c * lead_inv for n, c in s.coeffs.items() if n != v},
               s.trunc - v).truncate(rel)
    acc = term = s._new({0: one}, rel)
    while True:
        term = (term * (-u)).truncate(rel)
        if not term.coeffs:
            # even zero-so-far coefficients are kept, so this is exact zero
            break
        acc = acc + term
    return (acc.shift(-v) * s._new({0: lead_inv}, INF)).truncate(validity)


def _agree(a, b, upto: int, what: str, zero, compare) -> int:
    """Compare a and b through order upto (inclusive); the number compared.

    compare(n, x, y) checks the coefficients at n, a missing one read as
    zero, and returns how many it compared or raises AssertionError.
    """
    if a.trunc <= upto or b.trunc <= upto:
        raise TruncationExhausted(
            "cannot certify through %s %d: validity %s vs %s" % (what, upto, a.trunc, b.trunc)
        )
    return sum(compare(n, a.coeffs.get(n, zero), b.coeffs.get(n, zero))
               for n in sorted(set(a.coeffs) | set(b.coeffs)) if n <= upto)


class TruncLaurent:
    """Laurent series in one variable, known modulo var^trunc."""

    __slots__ = ("var", "coeffs", "trunc")

    def __init__(self, var: str, coeffs: dict, trunc=INF):
        clean = {}
        for n, c in coeffs.items():
            if n < trunc and not c.is_zero():
                clean[n] = c
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "coeffs", clean)
        object.__setattr__(self, "trunc", trunc)

    def __setattr__(self, *a):
        raise AttributeError("TruncLaurent is immutable")

    def _new(self, coeffs: dict, trunc) -> "TruncLaurent":
        return TruncLaurent(self.var, coeffs, trunc)

    def _operand(self, other) -> bool:
        if not isinstance(other, TruncLaurent):
            return False
        self._check_var(other)
        return True

    def _check_var(self, other: "TruncLaurent"):
        if self.var != other.var:
            raise CoefficientFieldMismatch(
                "series variables differ: %s vs %s" % (self.var, other.var)
            )

    # constructors

    @classmethod
    def zero(cls, var: str, trunc=INF) -> "TruncLaurent":
        return cls(var, {}, trunc)

    @classmethod
    def monomial(cls, var: str, c, n: int = 0) -> "TruncLaurent":
        return cls(var, {n: c})

    # structure

    def is_exact_zero(self) -> bool:
        return not self.coeffs and self.trunc == INF

    def stored_zero(self) -> bool:
        """True when no nonzero coefficient is stored (zero as far as known)."""
        return not self.coeffs

    def valuation(self):
        """Proven lower bound for the valuation (INF for the exact zero)."""
        return min(self.coeffs) if self.coeffs else self.trunc

    def coeff(self, n: int):
        if n >= self.trunc:
            raise TruncationExhausted(
                "coefficient of order %d requested; series only valid below %s" % (n, self.trunc)
            )
        return self.coeffs.get(n)

    def _sample(self):
        for c in self.coeffs.values():
            return c
        return None

    def _czero(self, other=None):
        s = self._sample()
        if s is None and other is not None:
            s = other._sample()
        if s is None:
            return Scalar(1, [])
        return s.zero_like()

    # arithmetic

    __add__ = _add
    __neg__ = _neg
    __sub__ = _sub
    __mul__ = _mul
    div = _div
    shift = _shift

    def scale(self, c) -> "TruncLaurent":
        if isinstance(c, (int, Fraction)) and not c:
            return TruncLaurent.zero(self.var)
        return TruncLaurent(self.var, {n: a * c for n, a in self.coeffs.items()}, self.trunc)

    def truncate(self, upto) -> "TruncLaurent":
        return TruncLaurent(self.var, self.coeffs, min(self.trunc, upto))

    def inv(self, cap=None) -> "TruncLaurent":
        """Inverse; requires a nonzero leading coefficient in the window.

        Validity is trunc - 2*valuation.  Exact monomials invert exactly;
        any other exact input needs a cap for the geometric expansion.
        """
        if not self.coeffs:
            raise NonInvertibleLeadingTerm(
                "no nonzero coefficient stored below order %s" % self.trunc
            )
        v = min(self.coeffs)
        c = self.coeffs[v]
        cinv = c.one_like() / c
        if len(self.coeffs) == 1:
            # a stored monomial inverts exactly; the cap is only a bound
            # on expansion work, so it does not apply here
            return TruncLaurent(self.var, {-v: cinv}, self.trunc - 2 * v)
        validity = min(self.trunc - 2 * v, INF if cap is None else cap)
        return _geometric_inv(self, v, cinv, validity, c.one_like())

    # derivations

    def deriv(self) -> "TruncLaurent":
        """d/dvar, term by term; one order of validity is lost."""
        out = {n - 1: c * n for n, c in self.coeffs.items() if n != 0}
        return TruncLaurent(self.var, out, self.trunc - 1)

    def dx(self) -> "TruncLaurent":
        # k((t)) consists of d/dx-constants; the unknown tail dies too
        return TruncLaurent.zero(self.var)

    def dt(self) -> "TruncLaurent":
        return self.dt0(1)

    def dt0(self, e: int) -> "TruncLaurent":
        out = {n - e: c * Fraction(n, e) for n, c in self.coeffs.items() if n != 0}
        return TruncLaurent(self.var, out, self.trunc - e)

    # comparisons

    def agree(self, other: "TruncLaurent", upto: int) -> int:
        """Exact coefficient comparison through order upto (inclusive).

        Returns the number of compared coefficients; raises if either
        side is not valid far enough or if any coefficient differs.
        """
        self._check_var(other)

        def compare(n, a, b):
            if not (a - b).is_zero():
                raise AssertionError("series differ at order %d: %r vs %r" % (n, a, b))
            return 1

        return _agree(self, other, upto, "order", self._czero(other), compare)

    def __eq__(self, other):
        if not isinstance(other, TruncLaurent):
            return NotImplemented
        return self.var == other.var and self.trunc == other.trunc and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.var, self.trunc, tuple(sorted(self.coeffs.items()))))

    def __repr__(self):
        from .render import format_trunc_laurent

        return "<%s>" % format_trunc_laurent(self)


class TwoVarLaurent:
    """Element of k((z-q))((t)) at the point z = q, bi-truncated.

    coeffs maps the t-exponent to a TruncLaurent in w = z - q.  A missing
    t-coefficient below the outer truncation is exactly zero; a stored
    zero-so-far coefficient keeps its own inner validity.
    """

    __slots__ = ("q", "coeffs", "trunc")

    def __init__(self, q: Scalar, coeffs: dict, trunc=INF):
        clean = {}
        for n, f in coeffs.items():
            if n < trunc and not f.is_exact_zero():
                clean[n] = f
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "coeffs", clean)
        object.__setattr__(self, "trunc", trunc)

    def __setattr__(self, *a):
        raise AttributeError("TwoVarLaurent is immutable")

    def _new(self, coeffs: dict, trunc) -> "TwoVarLaurent":
        return TwoVarLaurent(self.q, coeffs, trunc)

    def _operand(self, other) -> bool:
        if not isinstance(other, TwoVarLaurent):
            return False
        self._check_point(other)
        return True

    # constructors

    @classmethod
    def zero(cls, q: Scalar, trunc=INF) -> "TwoVarLaurent":
        return cls(q, {}, trunc)

    @classmethod
    def term(cls, q: Scalar, c, w_exp: int = 0, t_exp: int = 0) -> "TwoVarLaurent":
        """The exact term c * (z-q)^w_exp * t^t_exp."""
        return cls(q, {t_exp: TruncLaurent.monomial("w", c, w_exp)})

    @classmethod
    def z_elem(cls, q: Scalar) -> "TwoVarLaurent":
        """z itself, expanded as (z-q) + q."""
        inner = {1: q.one_like()}
        if not q.is_zero():
            inner[0] = q
        return cls(q, {0: TruncLaurent("w", inner)})

    @classmethod
    def from_t_poly(cls, p, q: Scalar) -> "TwoVarLaurent":
        """Embed a polynomial in t over the scalars, exactly and constant in w."""
        return cls(
            q,
            {n: TruncLaurent.monomial("w", c) for n, c in enumerate(p.coeffs)
             if not c.is_zero()},
        )

    @classmethod
    def from_k(cls, f: RatFunc, q: Scalar, order=None) -> "TwoVarLaurent":
        """Embed an element of K = k(t), constant in w."""
        if f.var != "t":
            raise ValueError("expected an element of the parameter field")
        num = cls.from_t_poly(f.num, q)
        if f.den.degree() == 0:
            return num
        cap = (order if order is not None else default_order()) + 1
        return num * cls.from_t_poly(f.den, q).inv(cap=(cap, cap))

    # structure

    def _check_point(self, other: "TwoVarLaurent"):
        if not (self.q == other.q):
            raise ValueError("series live at different points: %r vs %r" % (self.q, other.q))

    def valuation(self):
        """Proven lower bound for the t-valuation."""
        live = [n for n, f in self.coeffs.items() if f.coeffs or f.trunc != INF]
        return min(live) if live else self.trunc

    def is_exact_zero(self) -> bool:
        return not self.coeffs and self.trunc == INF

    def stored_zero(self) -> bool:
        return all(f.stored_zero() for f in self.coeffs.values())

    def coeff(self, n: int) -> TruncLaurent:
        if n >= self.trunc:
            raise TruncationExhausted("t-order %d beyond validity %s" % (n, self.trunc))
        return self.coeffs.get(n, TruncLaurent.zero("w"))

    def inner_validity(self):
        """Smallest inner truncation among stored coefficients (INF if none)."""
        return min((f.trunc for f in self.coeffs.values()), default=INF)

    # arithmetic

    __add__ = _add
    __neg__ = _neg
    __sub__ = _sub
    __mul__ = _mul
    div = _div
    shift = _shift

    def scale(self, c) -> "TwoVarLaurent":
        return TwoVarLaurent(self.q, {n: f.scale(c) for n, f in self.coeffs.items()}, self.trunc)

    def mul_k(self, f: RatFunc, order=None) -> "TwoVarLaurent":
        return self * TwoVarLaurent.from_k(f, self.q, order=order)

    def truncate(self, outer, inner=None) -> "TwoVarLaurent":
        coeffs = self.coeffs
        if inner is not None:
            coeffs = {n: f.truncate(inner) for n, f in coeffs.items()}
        return TwoVarLaurent(self.q, coeffs, min(self.trunc, outer))

    def inv(self, cap: tuple | None = None) -> "TwoVarLaurent":
        """Inverse by geometric expansion off the leading t-coefficient.

        cap = (outer, inner) bounds for expansions that would otherwise
        be infinite.  The leading inner series must itself be invertible
        inside its stored window.
        """
        outer_cap, inner_cap = cap if cap is not None else (None, None)
        live = [n for n, f in self.coeffs.items() if f.coeffs]
        if not live:
            raise NonInvertibleLeadingTerm(
                "no invertible leading t-coefficient below order %s" % self.trunc
            )
        v = min(live)
        lead_inv = self.coeffs[v].inv(cap=inner_cap)
        validity = min(self.trunc - 2 * v, INF if outer_cap is None else outer_cap)
        if len(self.coeffs) == 1 and validity == INF:
            # exact monomial in t: exact inverse
            return TwoVarLaurent(self.q, {-v: lead_inv})
        one = TruncLaurent.monomial("w", self._one_scalar())
        return _geometric_inv(self, v, lead_inv, validity, one)

    def _one_scalar(self):
        for f in self.coeffs.values():
            s = f._sample()
            if s is not None:
                return s.one_like()
        return self.q.one_like()

    # derivations

    def dx(self) -> "TwoVarLaurent":
        """The main derivation: differentiate in w, shift t down by one."""
        out = {n - 1: f.deriv() for n, f in self.coeffs.items()}
        return TwoVarLaurent(self.q, out, self.trunc - 1)

    def dt(self) -> "TwoVarLaurent":
        return self.dt0(1)

    def dt0(self, e: int) -> "TwoVarLaurent":
        """Parameter derivation through t = t0^(1/e); t-validity drops by e."""
        one = self._one_scalar()
        z_inner = {1: one}
        if not self.q.is_zero():
            z_inner[0] = self.q
        z = TruncLaurent("w", z_inner)
        out = {}
        for n, f in self.coeffs.items():
            part = f.scale(Fraction(n, e)) - (z * f.deriv()).scale(Fraction(1, e))
            cur = out.get(n - e)
            out[n - e] = part if cur is None else cur + part
        return TwoVarLaurent(self.q, out, self.trunc - e)

    # comparisons

    def agree(self, other: "TwoVarLaurent", outer_upto: int, inner_upto: int) -> int:
        """Exact comparison through t-order and w-order bounds (inclusive).

        Returns the number of compared inner coefficients; raises on any
        difference or if validity does not reach the requested window.
        """
        self._check_point(other)

        def compare(n, a, b):
            try:
                return max(a.agree(b, inner_upto), 1)
            except AssertionError as exc:
                raise AssertionError("t-order %d: %s" % (n, exc)) from None

        return _agree(self, other, outer_upto, "t-order", TruncLaurent.zero("w"), compare)

    def is_zero_through(self, outer_upto: int, inner_upto: int) -> bool:
        try:
            self.agree(TwoVarLaurent.zero(self.q, trunc=INF), outer_upto, inner_upto)
            return True
        except AssertionError:
            return False

    def __eq__(self, other):
        if not isinstance(other, TwoVarLaurent):
            return NotImplemented
        return self.q == other.q and self.trunc == other.trunc and self.coeffs == other.coeffs

    def __repr__(self):
        from .render import format_two_var

        return "<%s>" % format_two_var(self)


def random_trunc_laurent(rng, var="w", val_range=(-3, 1), trunc=12, order=1) -> TruncLaurent:
    lo = rng.randint(*val_range)
    coeffs = {}
    for n in range(lo, trunc):
        if rng.random() < 0.5:
            num = rng.randint(-4, 4)
            if num:
                coeffs[n] = Scalar(order, [Fraction(num, rng.randint(1, 3))])
    return TruncLaurent(var, coeffs, trunc)


def random_two_var(rng, q: Scalar, outer_trunc=12, inner_trunc=12, val_range=(-2, 1)) -> TwoVarLaurent:
    lo = rng.randint(*val_range)
    coeffs = {}
    for n in range(lo, outer_trunc):
        if rng.random() < 0.6:
            inner = random_trunc_laurent(
                rng, "w", val_range=val_range, trunc=inner_trunc, order=q.order
            )
            coeffs[n] = inner
    return TwoVarLaurent(q, coeffs, outer_trunc)
