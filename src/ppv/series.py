"""Truncated Laurent series with exact validity tracking.

TruncLaurent is a Laurent series in one variable known modulo var^trunc;
trunc = INF marks an exact Laurent polynomial.  TwoVarLaurent is a
Laurent series in t whose t-coefficients are Laurent series in w = z - q,
i.e. an element of k((z-q))((t)) at the point z = q.  Every operation
returns the validity it can prove, never padding with zeros, so an
identity that checks out on a window is a genuine partial verification.
Nothing stored is zero: TruncLaurent drops zero coefficients and
TwoVarLaurent exact-zero inner series when built, so a coefficient not
stored below the truncation is the zero (a stored inner series may be
zero so far, with nothing known below its own truncation).

One kernel serves both types: the sum, the geometric-series inverse and
the window comparison are written once below, and each class keeps only
what differs (its variable or point, the monomial shortcut of inv and the
1 that seeds it, its coefficient comparison and its derivations).  The
product has one convolution of w-coefficients, _convolve: TruncLaurent
multiplies through it, and TwoVarLaurent sums its pair products per
t-order in plain dicts, building each inner series of the product once.

The two derivations on k((z-q))((t)) come from d/dx via z = x/t and from
the parameter direction through a ramified root t = t0^(1/e):

    dx:      sum f_n t^n  ->  sum f_n' t^(n-1)
    dt0(e):  sum f_n t^n  ->  sum ((n/e) f_n - (z/e) f_n') t^(n-e)

with f_n' = d f_n / dw and z expanded as w + q.  dt0 applies this as a
coefficient map: the w^j coefficient of dt0(f_n t^n) is
((n - j) f_(n,j) - q (j + 1) f_(n,j+1)) / e, built as one Scalar from the
integers of the Scalars it reads (scalars.combination) and in the lcm field
of their orders, valid below the inner truncation of f_n (one order less
when q != 0) and the outer truncation less e.  dt0(1) restricted to
elements constant in w is plain d/dt.
"""

from __future__ import annotations

from .errors import CoefficientFieldMismatch, NonInvertibleLeadingTerm, TruncationExhausted
from .scalars import Scalar, combination, scaled
from .rationals import RatFunc

INF = float("inf")

DEFAULT_ORDER = 10


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
# the kernel: one sum, product truncation, geometric inverse and window
# comparison for both series types, and the one convolution.  A series s has
# coeffs (exponent -> coefficient) and a trunc; s._new(coeffs, trunc) builds a
# series of the same kind at the same variable or point, and s._operand(other)
# says whether other combines with s.


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


def _product_trunc(a, b):
    # an exact factor adds no bound, so the valuation of the other is not needed
    return min(a.trunc if a.trunc == INF else a.trunc + b.valuation(),
               b.trunc if b.trunc == INF else b.trunc + a.valuation())


def _convolve(x: "TruncLaurent", y: "TruncLaurent"):
    """The w-coefficients of x * y and its truncation; a sum may be zero."""
    x._check_var(y)
    trunc = _product_trunc(x, y)
    out: dict = {}
    for i, c in x.coeffs.items():
        for j, d in y.coeffs.items():
            n = i + j
            if n < trunc:
                prod = c * d
                cur = out.get(n)
                out[n] = prod if cur is None else cur + prod
    return out, trunc


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
    neg_u = -u
    acc = term = s._new({0: one}, rel)
    while True:
        term = (term * neg_u).truncate(rel)
        if not term.coeffs:
            # even zero-so-far coefficients are kept, so this is exact zero
            break
        acc = acc + term
    return (acc.shift(-v) * s._new({0: lead_inv}, INF)).truncate(validity)


def _agree(a, b, upto: int, what: str, compare) -> int:
    """Compare a and b through order upto (inclusive); the number compared.

    compare(n, x, y) checks the coefficients at n, None for one that is not
    stored, and returns how many it compared or raises AssertionError.
    """
    if a.trunc <= upto or b.trunc <= upto:
        raise TruncationExhausted(
            "cannot certify through %s %d: validity %s vs %s" % (what, upto, a.trunc, b.trunc)
        )
    return sum(compare(n, a.coeffs.get(n), b.coeffs.get(n))
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

    @classmethod
    def from_nonzero(cls, var: str, coeffs: dict, trunc=INF) -> "TruncLaurent":
        """The series whose coefficients the caller knows are nonzero.

        Orders at or past trunc are dropped as in the constructor, but no
        coefficient is tested for zero.
        """
        out = object.__new__(cls)
        object.__setattr__(out, "var", var)
        object.__setattr__(out, "coeffs", {n: c for n, c in coeffs.items() if n < trunc})
        object.__setattr__(out, "trunc", trunc)
        return out

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
    def zero(cls, var: str) -> "TruncLaurent":
        return cls(var, {})

    @classmethod
    def monomial(cls, var: str, c, n: int = 0) -> "TruncLaurent":
        return cls(var, {n: c})

    # structure

    def is_exact_zero(self) -> bool:
        return not self.coeffs and self.trunc == INF

    def valuation(self):
        """Proven lower bound for the valuation (INF for the exact zero)."""
        return min(self.coeffs) if self.coeffs else self.trunc

    # arithmetic

    __add__ = _add
    __neg__ = _neg
    __sub__ = _sub
    div = _div
    shift = _shift

    def __mul__(self, other):
        if not isinstance(other, TruncLaurent):
            return NotImplemented
        coeffs, trunc = _convolve(self, other)
        return TruncLaurent(self.var, coeffs, trunc)

    def scale(self, c) -> "TruncLaurent":
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
        out = {n - 1: scaled(c, n) for n, c in self.coeffs.items() if n != 0}
        return TruncLaurent.from_nonzero(self.var, out, self.trunc - 1)

    def dx(self) -> "TruncLaurent":
        # k((t)) consists of d/dx-constants; the unknown tail dies too
        return TruncLaurent.zero(self.var)

    def dt(self) -> "TruncLaurent":
        return self.dt0(1)

    def dt0(self, e: int) -> "TruncLaurent":
        out = {n - e: scaled(c, n, e) for n, c in self.coeffs.items() if n != 0}
        return TruncLaurent(self.var, out, self.trunc - e)

    # comparisons

    def agree(self, other: "TruncLaurent", upto: int) -> int:
        """Exact coefficient comparison through order upto (inclusive).

        Returns the number of compared coefficients; raises if either
        side is not valid far enough or if any coefficient differs.
        """
        self._check_var(other)

        def compare(n, a, b):
            if a is None or b is None or a != b:
                raise AssertionError("series differ at order %d: %s vs %s" % (n, a or 0, b or 0))
            return 1

        return _agree(self, other, upto, "order", compare)

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
    def zero(cls, q: Scalar) -> "TwoVarLaurent":
        return cls(q, {})

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
    def from_k(cls, f: RatFunc, q: Scalar, order: int = DEFAULT_ORDER) -> "TwoVarLaurent":
        """Embed an element of K = k(t), constant in w."""
        if f.var != "t":
            raise ValueError("expected an element of the parameter field")
        num = cls.from_t_poly(f.num, q)
        if f.den.degree() == 0:
            return num
        return num * cls.from_t_poly(f.den, q).inv(cap=order + 1)

    # structure

    def _check_point(self, other: "TwoVarLaurent"):
        if not (self.q == other.q):
            raise ValueError("series live at different points: %s vs %s" % (self.q, other.q))

    def valuation(self):
        """Proven lower bound for the t-valuation (INF for the exact zero)."""
        return min(self.coeffs) if self.coeffs else self.trunc

    def inner_validity(self):
        """Smallest inner truncation among stored coefficients (INF if none)."""
        return min((f.trunc for f in self.coeffs.values()), default=INF)

    # arithmetic

    __add__ = _add
    __neg__ = _neg
    __sub__ = _sub
    div = _div
    shift = _shift

    def __mul__(self, other):
        """The product, summed per t-order in plain dicts.

        Each pair of inner series adds its nonzero w-coefficients below the
        least inner truncation so far to the sum at its t-order, and the sum
        drops a coefficient as soon as it cancels.  Each inner series of the
        product is built once, from its sum; building it drops the orders
        past the final truncation.
        """
        if not self._operand(other):
            return NotImplemented
        trunc = _product_trunc(self, other)
        sums: dict = {}  # t-order -> [var, w-order -> coefficient, inner truncation]
        for i, x in self.coeffs.items():
            for j, y in other.coeffs.items():
                n = i + j
                if n >= trunc:
                    continue
                prods, inner = _convolve(x, y)
                slot = sums.get(n)
                if slot is None:
                    slot = sums[n] = [x.var, {}, inner]
                inner = slot[2] = min(slot[2], inner)
                cur = slot[1]
                for k, c in prods.items():
                    if k < inner and not c.is_zero():
                        prev = cur.get(k)
                        if prev is not None:
                            c = prev + c
                            if c.is_zero():
                                del cur[k]
                                continue
                        cur[k] = c
        return TwoVarLaurent(self.q, {n: TruncLaurent.from_nonzero(var, cur, inner)
                                      for n, (var, cur, inner) in sums.items()}, trunc)

    def scale(self, c) -> "TwoVarLaurent":
        return TwoVarLaurent(self.q, {n: f.scale(c) for n, f in self.coeffs.items()}, self.trunc)

    def mul_k(self, f: RatFunc, order: int = DEFAULT_ORDER) -> "TwoVarLaurent":
        return self * TwoVarLaurent.from_k(f, self.q, order=order)

    def truncate(self, outer) -> "TwoVarLaurent":
        return TwoVarLaurent(self.q, self.coeffs, min(self.trunc, outer))

    def inv(self, cap: int | None = None) -> "TwoVarLaurent":
        """Inverse by geometric expansion off the leading t-coefficient.

        cap bounds, in t and in w alike, the expansions that would otherwise
        be infinite.  The leading inner series, at the lowest stored
        t-order, must itself be invertible inside its stored window; one
        that is zero so far raises NonInvertibleLeadingTerm.
        """
        if not self.coeffs:
            raise NonInvertibleLeadingTerm(
                "no invertible leading t-coefficient below order %s" % self.trunc
            )
        v = min(self.coeffs)
        lead_inv = self.coeffs[v].inv(cap=cap)
        validity = min(self.trunc - 2 * v, INF if cap is None else cap)
        if len(self.coeffs) == 1 and validity == INF:
            # exact monomial in t: exact inverse
            return TwoVarLaurent(self.q, {-v: lead_inv})
        one = TruncLaurent.monomial("w", self._one_scalar())
        return _geometric_inv(self, v, lead_inv, validity, one)

    def _one_scalar(self):
        for f in self.coeffs.values():
            for c in f.coeffs.values():
                return c.one_like()
        return self.q.one_like()

    # derivations

    def dx(self) -> "TwoVarLaurent":
        """The main derivation: differentiate in w, shift t down by one."""
        out = {n - 1: f.deriv() for n, f in self.coeffs.items()}
        return TwoVarLaurent(self.q, out, self.trunc - 1)

    def dt(self) -> "TwoVarLaurent":
        return self.dt0(1)

    def dt0(self, e: int) -> "TwoVarLaurent":
        """Parameter derivation through t = t0^(1/e), by the coefficient map in the module doc."""
        q = self.q
        lost = 0 if q.is_zero() else 1  # w-orders lost: the q term reads f_(n,j+1)
        out = {}
        for n, f in self.coeffs.items():
            cs = f.coeffs
            inner = {}
            for j, c in cs.items():
                if j != n:
                    y = cs.get(j + 1) if lost and j != -1 else None
                    inner[j] = (scaled(c, n - j, e) if y is None
                                else combination(((n - j, c, None), (-j - 1, q, y)), e))
            if lost:
                for k, c in cs.items():
                    if k and k - 1 not in inner:
                        inner[k - 1] = combination(((-k, q, c),), e)
            out[n - e] = TruncLaurent("w", inner, f.trunc - lost)
        return TwoVarLaurent(self.q, out, self.trunc - e)

    # comparisons

    def agree(self, other: "TwoVarLaurent", outer_upto: int, inner_upto: int) -> int:
        """Exact comparison through t-order and w-order bounds (inclusive).

        Returns the number of compared inner coefficients; raises on any
        difference or if validity does not reach the requested window.
        """
        self._check_point(other)
        zero = TruncLaurent.zero("w")

        def compare(n, a, b):
            try:
                return max((a or zero).agree(b or zero, inner_upto), 1)
            except AssertionError as exc:
                raise AssertionError("t-order %d: %s" % (n, exc)) from None

        return _agree(self, other, outer_upto, "t-order", compare)

    def __eq__(self, other):
        if not isinstance(other, TwoVarLaurent):
            return NotImplemented
        return self.q == other.q and self.trunc == other.trunc and self.coeffs == other.coeffs

    def __repr__(self):
        from .render import format_two_var

        return "<%s>" % format_two_var(self)


def random_two_var(rng, q: Scalar, outer_trunc=12, inner_trunc=12) -> TwoVarLaurent:
    """A random series in t over series in w; each lowest exponent is drawn from -2..1."""
    one = Scalar.from_rational(1, q.order)
    coeffs = {}
    for n in range(rng.randint(-2, 1), outer_trunc):
        if rng.random() < 0.6:
            inner = {}
            for m in range(rng.randint(-2, 1), inner_trunc):
                if rng.random() < 0.5:
                    num = rng.randint(-4, 4)
                    if num:
                        inner[m] = scaled(one, num, rng.randint(1, 3))
            coeffs[n] = TruncLaurent("w", inner, inner_trunc)
    return TwoVarLaurent(q, coeffs, outer_trunc)
