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
"""

from __future__ import annotations

import operator
import re

from .errors import ParseError
from .ore import OrePoly
from .rationals import RatFunc, f_const, k_const, t_var, x_var
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


def _level(v) -> int:
    if isinstance(v, Scalar):
        return _SCALAR
    if isinstance(v, RatFunc):
        return _K if v.var == "t" else _F
    if isinstance(v, OrePoly):
        return _ORE
    raise TypeError


def _promote(v, lvl: int, tok):
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
        return value

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
            return Scalar.from_rational(_int(tok))
        if kind == "t":
            return t_var()
        if kind == "x":
            return x_var()
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
