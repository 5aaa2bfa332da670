"""Dense polynomials and rational functions over an exact coefficient field.

The same two classes build the whole tower used here: K = Q(zeta_N)(t)
as Poly/RatFunc in ``t`` over Scalar, and F = K(x) as Poly/RatFunc in
``x`` whose coefficients are themselves K-elements.  The variable tag
decides how the two derivations act:

  var 't':  dt is d/dt, dx is zero             (parameter direction)
  var 'x':  dx is d/dx, dt acts coefficient-wise  (main direction)

so x is dt-constant and t is dx-constant, as required of commuting
derivations on K(x).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import CoefficientFieldMismatch
from .scalars import Scalar, _power

PARAM_VARS = ("t",)
MAIN_VARS = ("x",)


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
    """(coeffs, czero) with trailing zeros dropped and czero read off if None."""
    coeffs = list(coeffs)
    while coeffs and coeffs[-1].is_zero():
        coeffs.pop()
    if czero is None:
        if not coeffs:
            raise ValueError("zero %s needs an explicit coefficient sample" % what)
        czero = coeffs[0].zero_like()
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


def _euclid(a, b, divide):
    """The monic last nonzero remainder of a and b; divide returns (q, r).

    Each divisor is made monic first: a unit factor does not change the
    remainder, and normalizing keeps the coefficients reduced when they
    are themselves fractions.
    """
    while not b.is_zero():
        b = b.monic()
        a, b = b, divide(a, b)[1]
    return a.monic()


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
        out = [self.czero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return self._new(out)

    __rmul__ = __mul__

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dn = len(other.coeffs)
        lead_inv = other.leading().one_like() / other.leading()
        q = [self.czero] * max(len(rem) - dn + 1, 0)
        for k in range(len(q) - 1, -1, -1):
            c = rem[k + dn - 1] * lead_inv
            q[k] = c
            if not c.is_zero():
                for i, d in enumerate(other.coeffs):
                    rem[k + i] = rem[k + i] - c * d
        return self._new(q), self._new(rem[: dn - 1])

    def gcd(self, other: "Poly") -> "Poly":
        return _euclid(self, other, Poly.divmod)

    def deriv(self) -> "Poly":
        """Formal derivative with respect to the polynomial's own variable."""
        return self._new([self.coeffs[i] * i for i in range(1, len(self.coeffs))])

    def map_coeffs(self, fn) -> "Poly":
        return Poly(self.var, [fn(c) for c in self.coeffs], fn(self.czero).zero_like())

    def eval(self, point):
        """Horner evaluation; the point must multiply with the coefficients."""
        if self.is_zero():
            if isinstance(point, (int, Fraction)):
                return self.czero
            return point * self.czero
        acc = None
        for c in reversed(self.coeffs):
            if acc is None:
                acc = c
            else:
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


def _coprime(p: Poly, q: Poly) -> bool:
    """True when gcd(p, q) is a unit; a nonzero constant is coprime to anything."""
    return p.degree() == 0 or q.degree() == 0 or p.gcd(q).degree() == 0


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
    always.  Those gcds are of the smaller parts, and most pairs pass, so
    the gcd of the whole numerator and denominator runs only when a test
    fails.  A failed test takes that full reduction unchanged rather than
    dividing the parts first: the JSON keeps each coefficient's field
    order, which follows the operand order of every product, so only the
    full reduction keeps the output byte for byte what it was.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly, reduced: bool = False):
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        num._check(den)
        if not reduced:
            # a nonzero constant is a unit, coprime to the other part
            num, den = _lowest_terms(num, den, num.degree() == 0 or den.degree() == 0)
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
            if self.var in MAIN_VARS and other.var in PARAM_VARS:
                return RatFunc.constant(self.var, other, self.czero)
            raise CoefficientFieldMismatch(
                "cannot mix rational functions in %s and %s" % (self.var, other.var)
            )
        if isinstance(other, Poly):
            return RatFunc.from_poly(other) if other.var == self.var else self._coerce(RatFunc.from_poly(other))
        if isinstance(other, (int, Fraction, Scalar)):
            return RatFunc.constant(self.var, _as_coeff(self.czero, other))
        return None

    def __add__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
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
        num = self.num * b.num
        coprime = num.is_zero() or (_coprime(self.num, b.den) and _coprime(b.num, self.den))
        return RatFunc(*_lowest_terms(num, self.den * b.den, coprime), reduced=True)

    __rmul__ = __mul__

    def inv(self) -> "RatFunc":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero rational function")
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
        """Derivative with respect to the function's own variable."""
        num = self.num.deriv() * self.den - self.num * self.den.deriv()
        return RatFunc(num, self.den * self.den)

    def _coeff_deriv(self, fn) -> "RatFunc":
        # quotient rule with fn applied to the coefficients of num and den
        num = self.num.map_coeffs(fn) * self.den - self.num * self.den.map_coeffs(fn)
        return RatFunc(num, self.den * self.den)

    def dx(self) -> "RatFunc":
        if self.var in MAIN_VARS:
            return self.deriv()
        return self.zero_like()

    def dt(self) -> "RatFunc":
        if self.var in PARAM_VARS:
            return self.deriv()
        return self._coeff_deriv(lambda c: c.dt())

    def dt0(self, e: int) -> "RatFunc":
        """The parameter derivation through t = t0^(1/e), scaling by t^(1-e)/e."""
        if e == 1:
            return self.dt()
        if self.var in PARAM_VARS:
            t = RatFunc.gen(self.var, self.czero.one_like())
            return self.deriv() * t ** (1 - e) / e
        return self._coeff_deriv(lambda c: c.dt0(e))

    def eval(self, point):
        dp = self.den.eval(point)
        if hasattr(dp, "is_zero") and dp.is_zero():
            raise ZeroDivisionError("denominator vanishes at evaluation point")
        return self.num.eval(point) / dp

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


def f_const(value, order: int = 1) -> RatFunc:
    """Constant of F = K(x) from a K-element, Scalar, or rational."""
    if isinstance(value, RatFunc) and value.var in PARAM_VARS:
        return RatFunc.constant("x", value)
    return RatFunc.constant("x", k_const(value, order))
