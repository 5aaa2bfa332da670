"""The skew operator ring K[Dt] over a differential coefficient field.

Multiplication is composition of operators, induced by the commutation
rule Dt o a = a*Dt + dt(a).  Operators optionally carry a ramification
twist e, in which case the derivation acting on coefficients and on
arguments is dt0(e) instead of dt; operators with different twists do
not mix.

Composition and right division read the right factor B through Leibniz's
rule, Dt^s o b = sum_k C(s, k) dt0^k(b) Dt^(s-k) (M. Bronstein and
M. Petkovsek, Theor. Comput. Sci. 157, 1996): the table dt0^k(b_j) of
B's coefficients is derived once, row by row as far as a caller needs
(_Derivatives), and A o B, or each step r - c*Dt^s o B of a division,
sums its table entries per output coefficient over one denominator and
reduces that sum once (_leibniz); gcrd, Euclid over right_divmod,
inherits this.  The path is taken when every Scalar beneath both
operands, czeros included, has one field order (the _orders test of
Poly.__mul__), where a value has one representation; mixed orders keep
the skew loop, Dt^(i+1) o B built from Dt^i o B one commutation at a
time, whose sums fix the field orders that reach the JSON.

Operators act on K and K(x), not on log extensions, by one rule, L(f) =
sum dt0(e)^i(f) * c_i through the argument's own *; series raise TypeError.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .errors import CoefficientFieldMismatch, DependentFamily, ZeroOperatorDivision
from .linalg import det, nullspace
from .rationals import (Poly, RatFunc, _add, _cleared, _coeff, _euclid, _is_zero,
                        _leading, _monic, _neg, _orders, _scale, _strip, _sub, _zero_like,
                        k_const)
from .scalars import Scalar, _power


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
    def dt_gen(cls) -> "OrePoly":
        """The bare operator Dt over K = Q(t)."""
        return cls.dt_power(1, k_const(1))

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
        """Operator composition self o other.

        In one field order, by Leibniz's rule from the table of other's
        derivatives, one reduction per output coefficient; in mixed
        orders, by the skew loop (module docstring).
        """
        if not isinstance(other, OrePoly):
            return NotImplemented
        self._check(other)
        if self.is_zero() or other.is_zero():
            return self.zero_like()
        if not _one_field(self, other):
            return _skew_product(self, other)
        terms = [(i, c) for i, c in enumerate(self.coeffs) if not c.is_zero()]
        n = self.order() + other.order() + 1
        return self._new(_leibniz(terms, _Derivatives(other), n, (), self.czero))

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
        """Apply the operator to f in K or K(x): sum dt0(e)^i (f) * c_i, taken in f's ring.

        On an element f of K, with coefficients in K, the terms are summed
        over one common denominator and reduced once, instead of by a gcd
        per partial sum.
        """
        derivs = [f]
        for _ in range(self.order()):
            derivs.append(derivs[-1].dt0(self.e))
        if (not self.is_zero() and isinstance(f, RatFunc) and f.var == "t"
                and isinstance(self.czero, RatFunc) and self.czero.var == f.var):
            nums, den = _cleared(derivs)
            cnums, cden = _cleared(self.coeffs)
            acc = None
            for n, c in zip(nums, cnums):
                if not c.is_zero():
                    acc = n * c if acc is None else acc + n * c
            return RatFunc(acc, den * cden)
        out = None
        for i, c in enumerate(self.coeffs):
            term = derivs[i] * c
            out = term if out is None else out + term
        return f * self.czero if out is None else out


def _one_field(a: OrePoly, b: OrePoly) -> bool:
    """True when a and b have coefficients in K and every Scalar beneath them has one order."""
    return (isinstance(a.czero, RatFunc)
            and len(_orders(a.czero, b.czero, *a.coeffs, *b.coeffs)) == 1)


def _skew_product(a: OrePoly, b: OrePoly) -> OrePoly:
    """a o b for nonzero a and b: Dt^i o b built up by one application of the skew rule at a time."""
    powers = [b]
    for _ in range(a.order()):
        prev = powers[-1]
        shifted = [a.czero, *prev.coeffs]
        derived = [c.dt0(a.e) for c in prev.coeffs] + [a.czero]
        powers.append(a._new([x + y for x, y in zip(shifted, derived)]))
    out = a.zero_like()
    for i, c in enumerate(a.coeffs):
        if not c.is_zero():
            out = out + powers[i].scale(c)
    return out


class _Derivatives:
    """The table dt0(e)^k(b_j) of a right factor B's coefficients, extended row by row on demand.

    Row 0 is B's coefficients and row k + 1 derives row k entry by entry,
    so each derivative is taken once however many products or division
    steps read it; a zero entry stays zero without a derivative.
    """

    __slots__ = ("rows", "e")

    def __init__(self, b: OrePoly):
        self.rows = [b.coeffs]
        self.e = b.e

    def row(self, k: int) -> tuple:
        rows = self.rows
        while len(rows) <= k:
            rows.append(tuple(d if d.is_zero() else d.dt0(self.e) for d in rows[-1]))
        return rows[k]


def _leibniz(terms, table: _Derivatives, n: int, base, zero) -> list:
    """Coefficients 0..n-1 of base + sum of c*Dt^s o B over the (s, c) in terms.

    B is the table's right factor, of order m, and base a coefficient list
    (empty for none).  By Leibniz's rule coefficient l gathers
    C(s, k) * c * dt0^k(b_j) over j = l - s + k, 0 <= j <= m.  The cs are
    cleared once over their lcm, and the table entries of coefficient l,
    with base[l], over theirs; so the coefficient is one numerator over
    one denominator, and one RatFunc: one reduction.  A coefficient that
    gathers no nonzero entry is base[l], or zero past base.
    """
    cnums, cden = _cleared([c for _, c in terms])
    m = len(table.rows[0]) - 1
    out = []
    for l in range(n):
        old = base[l] if l < len(base) else zero
        entries = [] if old.is_zero() else [old]
        weights = []
        for (s, _), cn in zip(terms, cnums):
            for k in range(max(0, s - l), min(s, m + s - l) + 1):
                d = table.row(k)[l - s + k]
                if not d.is_zero():
                    entries.append(d)
                    w = comb(s, k)
                    weights.append(cn if w == 1 else cn * w)
        if not weights:
            out.append(old)
            continue
        nums, lcm = _cleared(entries)
        acc = None
        if not old.is_zero():
            acc, nums = nums[0] * cden, nums[1:]
        for w, num in zip(weights, nums):
            acc = w * num if acc is None else acc + w * num
        out.append(RatFunc(acc, cden * lcm))
    return out


def right_divmod(a: OrePoly, b: OrePoly) -> tuple[OrePoly, OrePoly]:
    """Quotient and remainder with a = q o b + r and order(r) < order(b).

    Each step takes c = lead(r) / lead(b), puts c*Dt^s in q and subtracts
    (c Dt^s) o b from r, whose leading coefficient cancels.  In one field
    order the step reads b's table of derivatives, built once for the
    whole division, and reduces each new coefficient of r once (_leibniz);
    in mixed orders it composes c*Dt^s with b by the skew loop.
    """
    if b.is_zero():
        raise ZeroOperatorDivision("right division by the zero operator")
    a._check(b)
    lead_inv = b.leading().one_like() / b.leading()
    if not _one_field(a, b):
        q = a.zero_like()
        r = a
        while not r.is_zero() and r.order() >= b.order():
            s = r.order() - b.order()
            c = r.leading() * lead_inv
            # q gains c*Dt^s; subtract (c Dt^s) o b from r
            mono = a._new([a.czero] * s + [c])
            q = q + mono
            r = r - _skew_product(mono, b)
        return q, r
    table = _Derivatives(b)
    m = b.order()
    q = [a.czero] * max(a.order() - m + 1, 0)
    r = list(a.coeffs)
    while len(r) > m:
        s = len(r) - 1 - m
        c = r[-1] * lead_inv
        q[s] = c
        # the top coefficient cancels exactly
        r = _leibniz([(s, -c)], table, len(r) - 1, r, a.czero)
        while r and r[-1].is_zero():
            r.pop()
    return a._new(q), a._new(r)


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

    Its coefficient vector spans the nullspace of the m x (m+1) system
    whose row j is y_j, y_j', ..., y_j^(m); raises DependentFamily when
    the elements are linearly dependent over constants, which is when
    that nullspace has dimension above 1.
    """
    if not elems:
        raise ValueError("need at least one element")
    rows = wronskian_matrix(elems, e)
    rows.append([c.dt0(e) for c in rows[-1]])  # orders 0..m
    zero = elems[0].zero_like()
    kernel = nullspace(list(zip(*rows)), zero, zero.one_like())
    if len(kernel) != 1:
        raise DependentFamily(
            "elements are linearly dependent over constants (vanishing Wronskian)"
        )
    return OrePoly(kernel[0], zero, e).monic()


def monomial_window(width: int, order: int = 1) -> list[RatFunc]:
    """The search window t^j for |j| <= width, each a quotient of monomials."""
    zero = Scalar.from_rational(0, order)
    mono = [Poly("t", [zero] * k + [zero.one_like()], zero) for k in range(width + 1)]
    return [RatFunc(mono[max(j, 0)], mono[max(-j, 0)], reduced=True)
            for j in range(-width, width + 1)]


def _monomial_term(b: RatFunc) -> tuple:
    """(c, j) with b = c*t^j; a ValueError for any other element."""
    num, den = b.num, b.den
    if b.var == "t" and not any(num.coeffs[:-1] + den.coeffs[:-1]):
        return num.leading(), num.degree() - den.degree()
    raise ValueError("the window search needs monomials c*t^j, got %s" % (b,))


def solve_in_window(l: OrePoly, basis: list[RatFunc]) -> list[RatFunc]:
    """Basis of ker(l) within the constant-linear span of monomials c*t^j.

    Each image is read off in closed form.  Dt = dt0(e) sends t^j to
    (j/e) t^(j-e), so Dt^i(t^j) = [j]_i t^(j-ie) with
    [j]_i = prod_{k<i} (j - ke)/e.  Let D be the lcm of the coefficient
    denominators of l = sum c_i Dt^i and P_i = c_i*D.  Then
    D*t^s*l(c*t^j) = c * sum_i [j]_i P_i t^(j+s-ie), a polynomial once s
    is large enough, written with scalar products only.  Scaling every
    image by the same nonzero D*t^s keeps each constant-linear relation
    among them, so the kernel, and the nullspace read off the unique
    reduced row echelon form, are those of the images themselves.  Rows
    are indexed by the powers of t, so the shift t^s only relabels them.

    This is a semi-decision: an empty or small answer only means nothing
    more was found inside the window, never that no solution exists.
    Every basis element must be a monomial c*t^j (ValueError otherwise).
    """
    if not basis:
        return []
    terms = [_monomial_term(b) for b in basis]
    scaled = _cleared(l.coeffs)[0] if l.coeffs else []
    # the basis field's zero, as in l.apply(b): a product keeps its left
    # factor's zero, and so its field order, which reaches the JSON
    e, zero = l.e, basis[0].czero
    columns = []
    for c, j in terms:
        col, weight = {}, Fraction(1)
        for i, p in enumerate(scaled):
            for m, a in enumerate(p.coeffs, j - i * e):
                if a:
                    col[m] = col[m] + a * weight if m in col else a * weight
            weight *= Fraction(j - i * e, e)
            if not weight:
                break
        columns.append({m: c * a for m, a in col.items() if a and c})
    powers = sorted(set().union(*columns))
    if not powers:
        # every image is zero: the whole window solves
        return list(basis)
    rows = [[col.get(m, zero) for col in columns] for m in powers]
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
