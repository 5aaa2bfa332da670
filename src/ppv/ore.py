"""The skew operator ring K[Dt] over a differential coefficient field.

Multiplication is composition of operators, induced by the commutation
rule Dt o a = a*Dt + dt(a).  Operators optionally carry a ramification
twist e, in which case the derivation acting on coefficients and on
arguments is dt0(e) instead of dt; operators with different twists do
not mix.
"""

from __future__ import annotations

from .errors import (
    CoefficientFieldMismatch,
    DependentFamily,
    TruncationExhausted,
    ZeroOperatorDivision,
)
from .linalg import det, nullspace
from .logext import LogExtElem
from .rationals import (RatFunc, _add, _coeff, _euclid, _is_zero, _leading, _monic, _neg,
                        _scale, _strip, _sub, _zero_like, k_const, t_var)
from .scalars import _power
from .series import TruncLaurent, TwoVarLaurent, INF, default_order


class OrePoly:
    """Operator sum(c_i * Dt^i) with coefficients in a common field K."""

    __slots__ = ("coeffs", "czero", "e")

    def __init__(self, coeffs, czero=None, e: int = 1):
        coeffs, czero = _strip(coeffs, czero, "operator")
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "czero", czero)
        object.__setattr__(self, "e", e)

    def __setattr__(self, *a):
        raise AttributeError("OrePoly is immutable")

    def _new(self, coeffs) -> "OrePoly":
        return OrePoly(coeffs, self.czero, self.e)

    # constructors

    @classmethod
    def constant(cls, c, e: int = 1) -> "OrePoly":
        return cls([c], c.zero_like(), e)

    @classmethod
    def dt_power(cls, k: int, one, e: int = 1) -> "OrePoly":
        return cls([one.zero_like()] * k + [one], one.zero_like(), e)

    @classmethod
    def dt_gen(cls, order: int = 1, e: int = 1) -> "OrePoly":
        """The bare operator Dt over K = Q(zeta_order)(t)."""
        return cls.dt_power(1, k_const(1, order), e)

    # structure

    def order(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero operator

    is_zero = _is_zero
    coeff = _coeff
    leading = _leading
    zero_like = _zero_like

    def one_like(self) -> "OrePoly":
        return OrePoly.constant(self.czero.one_like(), self.e)

    def _check(self, other: "OrePoly"):
        if self.e != other.e:
            raise CoefficientFieldMismatch(
                "operators carry different ramification twists: e=%d vs e=%d" % (self.e, other.e)
            )
        if not self.is_zero() and not other.is_zero():
            a, b = self.coeffs[0], other.coeffs[0]
            if type(a) is not type(b):
                raise CoefficientFieldMismatch(
                    "operator coefficients live in different rings: %s vs %s"
                    % (type(a).__name__, type(b).__name__)
                )
            if isinstance(a, RatFunc) and a.var != b.var:
                raise CoefficientFieldMismatch(
                    "operator coefficients in different variables: %s vs %s" % (a.var, b.var)
                )

    # arithmetic

    __add__ = _add
    __neg__ = _neg
    __sub__ = _sub
    scale = _scale  # left multiplication by the order-zero operator c
    monic = _monic
    __pow__ = _power

    def __mul__(self, other):
        """Operator composition self o other."""
        if not isinstance(other, OrePoly):
            return NotImplemented
        self._check(other)
        if self.is_zero() or other.is_zero():
            return self.zero_like()
        # Dt^i o other, built up by one application of the skew rule at a time
        powers = [other]
        for _ in range(self.order()):
            prev = powers[-1]
            shifted = [self.czero] + list(prev.coeffs)
            derived = [c.dt0(self.e) for c in prev.coeffs]
            n = max(len(shifted), len(derived))
            shifted += [self.czero] * (n - len(shifted))
            derived += [self.czero] * (n - len(derived))
            powers.append(self._new([a + b for a, b in zip(shifted, derived)]))
        out = self.zero_like()
        for i, c in enumerate(self.coeffs):
            if not c.is_zero():
                out = out + powers[i].scale(c)
        return out

    def __eq__(self, other):
        if not isinstance(other, OrePoly):
            return NotImplemented
        return self.e == other.e and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.e, self.coeffs))

    def __repr__(self):
        from .render import format_ore

        return "Ore(%s)" % format_ore(self)

    # action

    def apply(self, f):
        """Apply the operator: sum c_i * dt0(e)^i (f)."""
        derivs = [f]
        for _ in range(self.order()):
            derivs.append(derivs[-1].dt0(self.e))
        out = None
        for i, c in enumerate(self.coeffs):
            term = _act(c, derivs[i])
            out = term if out is None else out + term
        if out is None:
            out = _act(self.czero, f)
        _check_window(out)
        return out


def _act(c, f):
    """Multiply the argument f by the coefficient c in f's own ring."""
    if isinstance(f, RatFunc):
        return f * c
    if isinstance(f, LogExtElem):
        return f.mul_k(c if isinstance(c, RatFunc) else k_const(c))
    if isinstance(f, TwoVarLaurent):
        if isinstance(c, RatFunc):
            return f.mul_k(c)
        return f.scale(c)
    if isinstance(f, TruncLaurent):
        return _act_trunc(c, f)
    return f * c


def _act_trunc(c, f: TruncLaurent) -> TruncLaurent:
    if not isinstance(c, RatFunc):
        return f.scale(c)
    if c.var != "t" or f.var != "t":
        raise CoefficientFieldMismatch("cannot act on a series in %s by %s" % (f.var, c.var))
    num = f * TruncLaurent("t", dict(enumerate(c.num.coeffs)))
    if c.den.degree() == 0:
        return num
    den = TruncLaurent("t", dict(enumerate(c.den.coeffs)))
    if not num.coeffs:
        return TruncLaurent.zero("t", num.trunc - den.valuation())
    if num.trunc == INF:
        cap = default_order() + 1
    else:
        cap = num.trunc - num.valuation()
    return num * den.inv(cap=cap)


def _check_window(res):
    if isinstance(res, (TruncLaurent, TwoVarLaurent)):
        if not res.coeffs and res.trunc <= 0:
            raise TruncationExhausted("series argument too short for the operator order")


def right_divmod(a: OrePoly, b: OrePoly) -> tuple[OrePoly, OrePoly]:
    """Quotient and remainder with a = q o b + r and order(r) < order(b)."""
    if b.is_zero():
        raise ZeroOperatorDivision("right division by the zero operator")
    a._check(b)
    lead_inv = b.leading().one_like() / b.leading()
    q = a.zero_like()
    r = a
    while not r.is_zero() and r.order() >= b.order():
        s = r.order() - b.order()
        c = r.leading() * lead_inv
        # q gains c*Dt^s; subtract (c Dt^s) o b from r
        mono = a._new([a.czero] * s + [c])
        q = q + mono
        r = r - mono * b
    return q, r


def right_divides(b: OrePoly, a: OrePoly) -> bool:
    """True when a = q o b exactly."""
    if b.is_zero():
        return a.is_zero()
    return right_divmod(a, b)[1].is_zero()


def gcrd(a: OrePoly, b: OrePoly) -> OrePoly:
    """Greatest common right divisor, monic."""
    return _euclid(a, b, right_divmod)


def compose_dt(l: OrePoly) -> OrePoly:
    """The operator L o Dt."""
    one = l.czero.one_like()
    return l * OrePoly.dt_power(1, one, l.e)


def wronskian_matrix(elems: list, e: int = 1) -> list[list]:
    """Rows of successive dt0(e)-derivatives, one column per element."""
    rows = [list(elems)]
    for _ in range(len(elems) - 1):
        rows.append([c.dt0(e) for c in rows[-1]])
    return rows


def wronskian_det(elems: list, e: int = 1):
    return det(wronskian_matrix(elems, e))


def wronskian_operator(elems: list, e: int = 1) -> OrePoly:
    """The monic operator of order len(elems) annihilating every element.

    Built by cofactor expansion of the Wronskian determinant along the
    column of the indeterminate; raises DependentFamily when the
    elements are linearly dependent over constants.
    """
    if not elems:
        raise ValueError("need at least one element")
    m = len(elems)
    rows = wronskian_matrix(elems, e)
    rows.append([c.dt0(e) for c in rows[-1]])  # orders 0..m
    lead = det(rows[:m])
    if lead.is_zero():
        raise DependentFamily(
            "elements are linearly dependent over constants (vanishing Wronskian)"
        )
    coeffs = []
    for i in range(m + 1):
        minor = [rows[r] for r in range(m + 1) if r != i]
        sign = 1 if (i + m) % 2 == 0 else -1
        d = det(minor)
        coeffs.append(d if sign > 0 else -d)
    return OrePoly(coeffs, elems[0].zero_like(), e).monic()


def monomial_window(width: int, order: int = 1) -> list[RatFunc]:
    """The search window t^j for |j| <= width."""
    t = t_var(order)
    return [t**j for j in range(-width, width + 1)]


def solve_in_window(l: OrePoly, basis: list[RatFunc]) -> list[RatFunc]:
    """Basis of ker(l) within the constant-linear span of the given basis.

    This is a semi-decision: an empty or small answer only means nothing
    more was found inside the window, never that no solution exists.
    """
    if not basis:
        return []
    images = [l.apply(b) for b in basis]
    common = images[0].den
    for img in images[1:]:
        g = common.gcd(img.den)
        common = (common * img.den).divmod(g)[0]
    cleared = []
    for img in images:
        factor = common.divmod(img.den)[0]
        cleared.append(img.num * factor)
    degree = max((p.degree() for p in cleared), default=-1)
    if degree < 0:
        # every image is zero: the whole window solves
        return list(basis)
    zero = cleared[0].czero
    rows = [[p.coeff(r) for p in cleared] for r in range(degree + 1)]
    vectors = nullspace(rows, zero, zero.one_like())
    out = []
    for vec in vectors:
        sol = None
        for lam, b in zip(vec, basis):
            if lam.is_zero():
                continue
            term = b * lam
            sol = term if sol is None else sol + term
        if sol is not None and not sol.is_zero():
            out.append(sol)
    return out
