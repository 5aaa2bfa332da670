"""Expression grammar for operators, rational functions and constants.

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | power
    power  := atom ('^' ('-'? INT))?
    atom   := INT | 'zeta' '(' INT ')' | 't' | 'x' | 'Dt' | '(' expr ')'

Dt is the parameter-direction derivation symbol; products involving it
are operator composition (non-commutative).  Values promote upward as
scalar -> K = Q(zeta)(t) -> K(x) -> operator; x may not appear inside
operator coefficients.  Errors carry line and column.  The companion
printers in render.py emit strings this grammar re-parses to equal
values.
"""

from __future__ import annotations

from .errors import ParseError
from .ore import OrePoly
from .rationals import RatFunc, f_const, k_const, t_var, x_var
from .scalars import _MAX_INPUT_ORDER, Scalar

# largest |exponent| accepted: powers expand exactly, and (x+t)^64
# already costs about 70x more than (t+1)^64
_MAX_EXPONENT = 64


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col


_SYMBOLS = "+-*/^()"
_KEYWORDS = {"t", "x", "z", "Dt", "zeta"}


def _tokenize(src: str) -> list[_Token]:
    out = []
    line, col = 1, 1
    i = 0
    while i < len(src):
        ch = src[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch in _SYMBOLS:
            out.append(_Token(ch, ch, line, col))
            col += 1
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(src) and src[j].isdigit():
                j += 1
            out.append(_Token("int", src[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < len(src) and src[j].isalnum():
                j += 1
            word = src[i:j]
            if word not in _KEYWORDS:
                raise ParseError("unknown symbol %r" % word, line, col)
            out.append(_Token(word, word, line, col))
            col += j - i
            i = j
            continue
        raise ParseError("unexpected character %r" % ch, line, col)
    out.append(_Token("eof", "", line, col))
    return out


def _int(tok: _Token) -> int:
    try:
        return int(tok.text)
    except ValueError:  # beyond Python's digit limit for int()
        raise ParseError("integer literal too long", tok.line, tok.col) from None


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


def _promote(v, lvl: int, tok: _Token):
    cur = _level(v)
    while cur < lvl:
        if cur == _SCALAR:
            v = k_const(v)
        elif cur == _K:
            v = f_const(v) if lvl < _ORE else OrePoly.constant(v)
        elif cur == _F:
            raise ParseError("operator coefficients may not involve x", tok.line, tok.col)
        cur = _level(v)
    return v


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(
                "expected %s, found %s" % (kind, tok.kind if tok.kind != "eof" else "end of input"),
                tok.line,
                tok.col,
            )
        return self.next()

    def parse(self):
        value = self.expr()
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError("unexpected %r" % tok.text, tok.line, tok.col)
        return value

    def expr(self):
        value = self.term()
        while self.peek().kind in ("+", "-"):
            tok = self.next()
            rhs = self.term()
            value = self._binop(tok, value, rhs)
        return value

    def term(self):
        value = self.factor()
        while self.peek().kind in ("*", "/"):
            tok = self.next()
            rhs = self.factor()
            value = self._binop(tok, value, rhs)
        return value

    def factor(self):
        if self.peek().kind == "-":
            self.next()
            return -self.factor()
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek().kind == "^":
            tok = self.next()
            sign = 1
            if self.peek().kind == "-":
                self.next()
                sign = -1
            exp_tok = self.expect("int")
            k = sign * _int(exp_tok)
            if abs(k) > _MAX_EXPONENT:
                raise ParseError("exponent %d is beyond the bound %d" % (k, _MAX_EXPONENT),
                                 exp_tok.line, exp_tok.col)
            if k < 0 and isinstance(base, OrePoly):
                raise ParseError("operators have no negative powers", tok.line, tok.col)
            if k < 0 and base.is_zero():
                raise ParseError("division by zero", tok.line, tok.col)
            return base**k
        return base

    def atom(self):
        tok = self.next()
        if tok.kind == "int":
            return Scalar.from_rational(_int(tok))
        if tok.kind == "t":
            return t_var()
        if tok.kind == "x":
            return x_var()
        if tok.kind == "z":
            raise ParseError(
                "z-line elements are built by the block and certify commands; "
                "use x for rational function input",
                tok.line,
                tok.col,
            )
        if tok.kind == "Dt":
            return OrePoly.dt_gen()
        if tok.kind == "zeta":
            self.expect("(")
            n_tok = self.expect("int")
            self.expect(")")
            n = _int(n_tok)
            if not 1 <= n <= _MAX_INPUT_ORDER:
                raise ParseError("zeta order must be in 1..%d" % _MAX_INPUT_ORDER,
                                 n_tok.line, n_tok.col)
            return Scalar.zeta(n)
        if tok.kind == "(":
            value = self.expr()
            self.expect(")")
            return value
        raise ParseError(
            "expected a value, found %s" % (tok.kind if tok.kind != "eof" else "end of input"),
            tok.line,
            tok.col,
        )

    @staticmethod
    def _binop(tok: _Token, a, b):
        if tok.kind == "/":
            if isinstance(b, OrePoly):
                raise ParseError("cannot divide by an operator", tok.line, tok.col)
            if b.is_zero():
                raise ParseError("division by zero", tok.line, tok.col)
            if isinstance(a, OrePoly):
                # composition with the inverse constant, e.g. (t*Dt)/t
                return a * _promote(_promote(b, _K, tok).inv(), _ORE, tok)
            lvl = max(_level(a), _level(b))
            return _promote(a, lvl, tok) / _promote(b, lvl, tok)
        lvl = max(_level(a), _level(b))
        a = _promote(a, lvl, tok)
        b = _promote(b, lvl, tok)
        if tok.kind == "+":
            return a + b
        if tok.kind == "-":
            return a - b
        if tok.kind == "*":
            return a * b
        raise ParseError("unsupported operator %r" % tok.kind, tok.line, tok.col)


def parse_expr(src: str):
    """Parse into a Scalar, RatFunc, or OrePoly, exactly."""
    return _Parser(_tokenize(src)).parse()


def _parse_at(src: str, level: int, what: str):
    """Parse and promote to the tower level; a value above it is refused."""
    value = parse_expr(src)
    if _level(value) > level:
        raise ParseError("expected %s" % what, 1, 1)
    return _promote(value, level, _Token("eof", "", 1, 1))


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
