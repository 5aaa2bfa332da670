"""Expression grammar for operators, rational functions and constants.

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | power
    power  := atom ('^' ('-'? INT))?
    atom   := INT | 'zeta' '(' INT ')' | 't' | 'x' | 'Dt' | '(' expr ')'

INT is a run of ASCII digits and a word is an ASCII letter followed by
ASCII letters and digits; any other character but whitespace is
refused.  Dt is the parameter-direction derivation symbol; products
involving it are operator composition (non-commutative).  Values
promote upward as scalar -> K = Q(zeta)(t) -> K(x) -> operator; x may
not appear inside operator coefficients.  Errors carry line and column.
The companion printers in render.py emit strings this grammar re-parses
to equal values.

One evaluation rule.  Every integer, t and x is a _Quotient n/d with n
and d in Q[t][x], Polys in x over Polys in t over rationals, tagged with
the tower level it would have had; +, -, *, / and ^ of quotients stay
quotients, summed and multiplied by the dense kernel with no gcd.  A
quotient is written in the tower once, in lowest terms, where it meets a
value that is not a quotient -- a zeta(N) Scalar, an operator, or the
end of the parse (_tower) -- and from there on each operation is the
tower's own: a reduced Scalar, RatFunc or OrePoly.  Every Scalar of a
quotient has order 1, one field, and a value in one field has one
representation (a reduced Scalar; a RatFunc with coprime parts and a
monic denominator), so a quotient is written in the bytes the tower
would have given the same subexpression, and every later operation takes
the operands it would have taken.  Values that carry zeta mix field
orders, and the order of each reaches the JSON through the sequence of
tower operations that built it.
"""

from __future__ import annotations

import operator
import re

from .errors import ParseError
from .ore import OrePoly
from .rationals import Poly, RatFunc, _cleared, f_const, k_const
from .scalars import _MAX_INPUT_ORDER, Scalar

# largest |exponent| accepted: powers expand exactly, and (x+t)^64
# already costs about 70x more than (t+1)^64
_MAX_EXPONENT = 64

# one alternative per lexeme, tried in order; "bad" is any other character
_LEXEME = re.compile(r"(?P<nl>\n)|(?P<ws>[^\S\n]+)|(?P<int>[0-9]+)"
                     r"|(?P<word>[A-Za-z][A-Za-z0-9]*)|(?P<sym>[-+*/^()])|(?P<bad>.)", re.S)
_KEYWORDS = {"t", "x", "z", "Dt", "zeta"}


def _tokenize(src: str) -> list[tuple]:
    """The (kind, text, line, column) tokens of src, closed by an eof token.

    A keyword or a symbol is its own kind; an integer has kind "int".
    """
    out = []
    line, start = 1, 0  # start: the offset where the current line begins
    for m in _LEXEME.finditer(src):
        kind, text = m.lastgroup, m.group()
        if kind == "nl":
            line, start = line + 1, m.end()
        elif kind != "ws":
            col = m.start() - start + 1
            if kind == "bad":
                raise ParseError("unexpected character %r" % text, line, col)
            if kind == "word" and text not in _KEYWORDS:
                raise ParseError("unknown symbol %r" % text, line, col)
            out.append((kind if kind == "int" else text, text, line, col))
    out.append(("eof", "", line, len(src) - start + 1))
    return out


def _int(tok) -> int:
    try:
        return int(tok[1])
    except ValueError:  # beyond Python's digit limit for int()
        raise ParseError("integer literal too long", *tok[2:]) from None


# value levels for promotion
_SCALAR, _K, _F, _ORE = 0, 1, 2, 3


class _Quotient:
    """n/d for n, d in Q[t][x], d nonzero, at tower level `level`; not reduced.

    A denominator of degree 0 in both variables is folded into the
    numerator, so a constant is written over the one _ONE, and so is zero.
    Sums over one denominator add numerators; a power of a quotient with a
    denominator other than 1 is reduced first, which keeps a power of an
    unreduced quotient from growing.
    """

    __slots__ = ("num", "den", "level")

    def __init__(self, num: Poly, den: Poly, level: int):
        if num.is_zero():
            den = _ONE
        elif den.degree() == 0 and den.coeffs[0].degree() == 0:
            c = den.coeffs[0].coeffs[0]
            if not c.is_one():
                num = num.scale(Poly.constant("t", c.inv()))
            den = _ONE
        self.num, self.den, self.level = num, den, level

    def __add__(self, other):
        level = max(self.level, other.level)
        if self.den == other.den:
            return _Quotient(self.num + other.num, self.den, level)
        return _Quotient(_times(self.num, other.den) + _times(other.num, self.den),
                         _times(self.den, other.den), level)

    def __neg__(self):
        return _Quotient(-self.num, self.den, self.level)

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        return _Quotient(_times(self.num, other.num), _times(self.den, other.den),
                         max(self.level, other.level))

    def __truediv__(self, other):
        return _Quotient(_times(self.num, other.den), _times(self.den, other.num),
                         max(self.level, other.level))

    def __pow__(self, k: int):
        num, den = self.num, self.den
        if den is not _ONE:
            # lowest terms n/d, written back over Q[t][x] by clearing the
            # coefficients' denominators: n^k and d^k stay coprime
            v = self.tower()
            v = v if self.level == _F else f_const(v)
            nums = _cleared([*v.num.coeffs, *v.den.coeffs])[0]
            split = len(v.num.coeffs)
            num, den = Poly("x", nums[:split], _ZERO_T), Poly("x", nums[split:], _ZERO_T)
        if k < 0:
            num, den, k = den, num, -k
        return _Quotient(_raised(num, k), _raised(den, k), self.level)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def tower(self):
        """The value in lowest terms, a Scalar, RatFunc in t or RatFunc in x by its level."""
        if self.level == _SCALAR:
            return self.num.coeff(0).coeff(0)  # over _ONE: constants fold their denominators
        if self.level == _K:
            num, den = self.num.coeff(0), self.den.coeff(0)
        else:
            num, den = (p.map_coeffs(RatFunc.from_poly) for p in (self.num, self.den))
        return RatFunc(num, den)


def _raised(p: Poly, k: int) -> Poly:
    """p**k for k >= 0; a constant in x is raised in t."""
    if p is _ONE:
        return p
    return Poly.constant("x", p.coeffs[0] ** k) if p.degree() == 0 else p**k


def _times(a: Poly, b: Poly) -> Poly:
    """a * b, skipping a factor _ONE."""
    if b is _ONE:
        return a
    return b if a is _ONE else a * b


_ZERO_T = Poly("t", [], Scalar.from_rational(0))
_ONE = Poly.constant("x", Poly.constant("t", Scalar.from_rational(1)))
# the atoms t and x
_T = _Quotient(Poly.constant("x", Poly.gen("t", Scalar.from_rational(1))), _ONE, _K)
_X = _Quotient(Poly.gen("x", _ONE.coeffs[0]), _ONE, _F)


def _tower(v):
    """v written in the tower: a _Quotient converts once, anything else is already there."""
    return v.tower() if isinstance(v, _Quotient) else v


def _level(v) -> int:
    if isinstance(v, _Quotient):
        return v.level
    if isinstance(v, Scalar):
        return _SCALAR
    if isinstance(v, RatFunc):
        return _K if v.var == "t" else _F
    if isinstance(v, OrePoly):
        return _ORE
    raise TypeError


def _promote(v, lvl: int, tok):
    """v written in the tower at level lvl, climbed one level at a time."""
    v = _tower(v)
    cur = _level(v)
    while cur < lvl:
        if cur == _SCALAR:
            v = k_const(v)
        elif cur == _K:
            v = f_const(v) if lvl < _ORE else OrePoly.constant(v)
        elif cur == _F:
            raise ParseError("operator coefficients may not involve x", *tok[2:])
        cur = _level(v)
    return v


# binary operators: (precedence, operation), all left-associative; any
# other token reads as precedence 0 and ends an expression
_BINARY = {"+": (1, operator.add), "-": (1, operator.sub),
           "*": (2, operator.mul), "/": (2, operator.truediv)}


class _Parser:
    def __init__(self, tokens: list[tuple]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> tuple:
        return self.tokens[self.pos]

    def next(self) -> tuple:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> tuple:
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError(
                "expected %s, found %s" % (kind, tok[0] if tok[0] != "eof" else "end of input"),
                *tok[2:],
            )
        return self.next()

    def parse(self):
        value = self.expr()
        tok = self.peek()
        if tok[0] != "eof":
            raise ParseError("unexpected %r" % tok[1], *tok[2:])
        return _tower(value)

    def expr(self, floor: int = 1):
        """Factors joined by binary operators of precedence >= floor, left to right."""
        value = self.factor()
        while _BINARY.get(self.peek()[0], (0,))[0] >= floor:
            tok = self.next()
            rhs = self.expr(_BINARY[tok[0]][0] + 1)
            value = self._binop(tok, value, rhs)
        return value

    def factor(self):
        if self.peek()[0] == "-":
            self.next()
            return -self.factor()
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek()[0] == "^":
            tok = self.next()
            sign = 1
            if self.peek()[0] == "-":
                self.next()
                sign = -1
            exp_tok = self.expect("int")
            k = sign * _int(exp_tok)
            if abs(k) > _MAX_EXPONENT:
                raise ParseError("exponent %d is beyond the bound %d" % (k, _MAX_EXPONENT),
                                 *exp_tok[2:])
            if k < 0 and isinstance(base, OrePoly):
                raise ParseError("operators have no negative powers", *tok[2:])
            if k < 0 and base.is_zero():
                raise ParseError("division by zero", *tok[2:])
            return base**k
        return base

    def atom(self):
        tok = self.next()
        kind = tok[0]
        if kind == "int":
            c = Scalar.from_rational(_int(tok))
            return _Quotient(Poly.constant("x", Poly.constant("t", c)), _ONE, _SCALAR)
        if kind == "t":
            return _T
        if kind == "x":
            return _X
        if kind == "z":
            raise ParseError(
                "z-line elements are built by the block and certify commands; "
                "use x for rational function input",
                *tok[2:],
            )
        if kind == "Dt":
            return OrePoly.dt_gen()
        if kind == "zeta":
            self.expect("(")
            n_tok = self.expect("int")
            self.expect(")")
            n = _int(n_tok)
            if not 1 <= n <= _MAX_INPUT_ORDER:
                raise ParseError("zeta order must be in 1..%d" % _MAX_INPUT_ORDER, *n_tok[2:])
            return Scalar.zeta(n)
        if kind == "(":
            value = self.expr()
            self.expect(")")
            return value
        raise ParseError(
            "expected a value, found %s" % (kind if kind != "eof" else "end of input"), *tok[2:]
        )

    @staticmethod
    def _binop(tok: tuple, a, b):
        if tok[0] == "/":
            if isinstance(b, OrePoly):
                raise ParseError("cannot divide by an operator", *tok[2:])
            if b.is_zero():
                raise ParseError("division by zero", *tok[2:])
            if isinstance(a, OrePoly):
                # composition with the inverse constant, e.g. (t*Dt)/t
                return a * _promote(_promote(b, _K, tok).inv(), _ORE, tok)
        if isinstance(a, _Quotient) and isinstance(b, _Quotient):
            return _BINARY[tok[0]][1](a, b)
        lvl = max(_level(a), _level(b))
        return _BINARY[tok[0]][1](_promote(a, lvl, tok), _promote(b, lvl, tok))


def parse_expr(src: str):
    """Parse into a Scalar, RatFunc, or OrePoly, exactly.

    The parser recurses once per nesting level, so input nested deeper
    than the interpreter's stack allows is refused where it stopped.
    """
    parser = _Parser(_tokenize(src))
    try:
        return parser.parse()
    except RecursionError:
        raise ParseError("expression nested too deeply", *parser.peek()[2:]) from None


def _parse_at(src: str, level: int, what: str):
    """Parse and promote to the tower level; a value above it is refused."""
    value = parse_expr(src)
    if _level(value) > level:
        raise ParseError("expected %s" % what, 1, 1)
    return _promote(value, level, ("eof", "", 1, 1))


def parse_operator(src: str) -> OrePoly:
    return _parse_at(src, _ORE, "an operator in Dt")


def parse_k(src: str) -> RatFunc:
    """An element of K = Q(zeta)(t)."""
    return _parse_at(src, _K, "an element of the parameter field")


def parse_xrat(src: str) -> RatFunc:
    """An element of K(x)."""
    return _parse_at(src, _F, "a rational function in x")


def parse_basis(src: str) -> list[RatFunc]:
    """Comma-separated elements of K."""
    return [parse_k(piece) for piece in src.split(",") if piece.strip()]
