import importlib.util
import json
import pathlib
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from ppv import jsonio, parser
from ppv.errors import ParseError
from ppv.ore import OrePoly
from ppv.parser import _tokenize, parse_basis, parse_expr, parse_k, parse_operator, parse_xrat
from ppv.rationals import RatFunc, f_const, k_const, t_var, x_var
from ppv.render import _join, _wrap, format_ore, format_ratfunc, format_scalar
from ppv.scalars import Scalar, cyclotomic_coeffs, rational

one = k_const(1)
t = t_var()
x = x_var()


def test_operator_examples():
    assert parse_operator("t*Dt + 1") == OrePoly([one, t])
    assert parse_operator("t*Dt^2 + (1/t)*Dt + 3") == OrePoly([k_const(3), 1 / t, t])
    assert parse_operator("Dt") == OrePoly.dt_gen()
    assert parse_operator("t*Dt - 1") == OrePoly([-one, t])


def test_ratfunc_examples():
    assert parse_xrat("(x+1)/(x*(x-1))") == (x + 1) / (x * (x - 1))
    assert parse_k("t^2 + 1") == t**2 + 1
    assert parse_k("1/t") == 1 / t
    assert parse_k("-t^-2") == -(t**-2)


def test_scalar_expressions():
    assert parse_expr("zeta(4)") == Scalar.zeta(4)
    assert parse_expr("zeta(4)^2 + 1") == rational(0)
    assert parse_expr("2/3") == Scalar(1, ["2/3"]) or True
    v = parse_expr("2/3")
    assert v.as_fraction().numerator == 2 and v.as_fraction().denominator == 3


def test_operator_composition_in_grammar():
    # products of operators compose with the skew rule
    assert parse_expr("Dt*t") == OrePoly([one, t])
    assert parse_expr("(t*Dt + 1)*Dt") == OrePoly([one.zero_like(), one, t])


def test_syntax_error_positions():
    with pytest.raises(ParseError) as err:
        parse_expr("t*Dt + ")
    assert err.value.column == 8 and err.value.line == 1
    with pytest.raises(ParseError) as err:
        parse_expr("t*(Dt")
    assert err.value.column == 6
    with pytest.raises(ParseError) as err:
        parse_expr("t $ 1")
    assert err.value.column == 3


def test_unknown_symbol_rejected():
    with pytest.raises(ParseError):
        parse_expr("t*Du + 1")


def test_z_guidance_error():
    with pytest.raises(ParseError) as err:
        parse_expr("1/(z-1)")
    assert "block" in str(err.value)


def test_x_in_operator_coefficients_rejected():
    with pytest.raises(ParseError):
        parse_expr("x*Dt")


def test_division_by_operator_rejected():
    with pytest.raises(ParseError):
        parse_expr("1/Dt")


def test_basis_parsing():
    assert parse_basis("1, t, t^2") == [one, t, t**2]
    assert parse_basis("1") == [one]


def test_print_parse_round_trip_scalars():
    rng = random.Random(6)
    for _ in range(30):
        coeffs = [rng.randint(-5, 5) for _ in range(2)]
        s = Scalar(4, coeffs)
        if s.is_zero():
            continue
        assert parse_expr(format_scalar(s)) == s


def test_print_parse_round_trip_ratfuncs():
    rng = random.Random(7)
    for _ in range(30):
        num = sum((k_const(rng.randint(-4, 4)) * t**k for k in range(3)), k_const(0))
        den = t ** rng.randint(0, 2) + rng.randint(1, 3)
        if num.is_zero():
            continue
        f = num / den
        assert parse_k(format_ratfunc(f)) == f


def test_print_parse_round_trip_operators():
    rng = random.Random(8)
    for _ in range(30):
        coeffs = []
        for k in range(rng.randint(1, 4)):
            c = rng.randint(-3, 3)
            coeffs.append(k_const(c) * t ** rng.randint(-1, 2) if c else k_const(0))
        if all(c.is_zero() for c in coeffs):
            coeffs[-1] = one
        l = OrePoly(coeffs, k_const(0))
        assert parse_operator(format_ore(l)) == l


def test_print_parse_round_trip_x_level():
    rng = random.Random(9)
    for _ in range(20):
        f = (x + rng.randint(-3, 3)) / (x ** rng.randint(1, 2) - rng.randint(1, 4))
        assert parse_xrat(format_ratfunc(f)) == f


def test_print_parse_round_trip_zeta_led_coefficients():
    # a coefficient that starts with zeta( but is a sum needs parentheses
    z8 = k_const(Scalar.zeta(8))
    f = (z8 + 1) * t
    assert parse_k(format_ratfunc(f)) == f
    l = OrePoly([t, z8 + 1])  # (zeta(8) + 1)*Dt + t
    assert parse_operator(format_ore(l)) == l
    g = (z8 * t + 1) / (t + 1)
    assert parse_k(format_ratfunc(g)) == g
    m = OrePoly([z8 / t, z8 ** 2 * t, z8])  # zeta(8)*Dt^2 + ...
    assert parse_operator(format_ore(m)) == m


def test_operator_powers():
    base = parse_operator("Dt + t")
    assert parse_operator("(Dt + t)^3") == base * base * base
    assert parse_operator("Dt^0") == OrePoly.constant(one)
    with pytest.raises(ParseError):
        parse_operator("Dt^-1")


# one input per tower level: (source, value as an operator, as an element
# of K, as an element of K(x)); None marks a refusal at (line 1, column)
_Q = k_const(Fraction(3, 4))
_K = t**2 + 1 / t
_F = x + f_const(t)
_TOWER = (
    ("3/4", OrePoly.constant(_Q), _Q, f_const(_Q)),
    ("t^2 + 1/t", OrePoly.constant(_K), _K, f_const(_K)),
    ("x + t", None, None, _F),
    ("(t*Dt)/t", OrePoly([-1 / t, one]), None, None),
    ("x*Dt", None, None, None),
    ("Dt/x", None, None, None),
)
_REFUSED_AT = {"x + t": 1, "(t*Dt)/t": 1, "x*Dt": 2, "Dt/x": 3}


@pytest.mark.parametrize("src,as_op,as_k,as_f", _TOWER, ids=[row[0] for row in _TOWER])
def test_parse_helpers_climb_the_tower(src, as_op, as_k, as_f):
    for parse, expected, var in ((parse_operator, as_op, None), (parse_k, as_k, "t"),
                                 (parse_xrat, as_f, "x")):
        if expected is None:
            with pytest.raises(ParseError) as err:
                parse(src)
            assert (err.value.line, err.value.column) == (1, _REFUSED_AT[src])
            continue
        value = parse(src)
        assert value == expected
        assert type(value) is type(expected)
        if var is not None:
            assert value.var == var


# ---------------------------------------------------------------------------
# the regular-expression lexer and the terms() printer against the character
# loop and the Fraction printer they replaced, kept here as references


def _reference_tokenize(src: str) -> list[tuple]:
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
        if ch in "+-*/^()":
            out.append((ch, ch, line, col))
            col += 1
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(src) and src[j].isdigit():
                j += 1
            out.append(("int", src[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < len(src) and src[j].isalnum():
                j += 1
            word = src[i:j]
            if word not in {"t", "x", "z", "Dt", "zeta"}:
                raise ParseError("unknown symbol %r" % word, line, col)
            out.append((word, word, line, col))
            col += j - i
            i = j
            continue
        raise ParseError("unexpected character %r" % ch, line, col)
    out.append(("eof", "", line, col))
    return out


def _lexed(tokenize, src: str):
    try:
        return tokenize(src)
    except ParseError as exc:
        return str(exc), exc.line, exc.column


_GRAMMAR_TEXT = st.one_of(
    st.text(alphabet=st.sampled_from("0123456789tDxzetaub+-*/^() \n\t$_."), max_size=24),
    st.lists(st.sampled_from(["t", "x", "z", "Dt", "zeta", "Du", "zeta2", "12", "007", "+", "-",
                              "*", "/", "^", "(", ")", " ", "\n", "\t", "$", "_", "."]),
             max_size=12).map("".join),
)


@settings(max_examples=400, deadline=None)
@given(_GRAMMAR_TEXT)
@example("t*Dt^2 + (1/t)*Dt + 3")
@example("zeta(8)*x\n  - 1/(x - t)$")
@example("tDt")
def test_lexer_matches_the_character_loop(src):
    assert _lexed(_tokenize, src) == _lexed(_reference_tokenize, src)


def _reference_format_scalar(s) -> str:
    def frac(q):
        return str(q.numerator) if q.denominator == 1 else "%d/%d" % (q.numerator, q.denominator)

    if s.is_zero():
        return "0"
    if s.is_rational():
        return frac(s.as_fraction())
    parts = []
    coeffs = s.coeffs
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if not c:
            continue
        if k == 0:
            parts.append(frac(c))
            continue
        z = "zeta(%d)" % s.order if k == 1 else "zeta(%d)^%d" % (s.order, k)
        if c == 1:
            parts.append(z)
        elif c == -1:
            parts.append("-" + z)
        else:
            parts.append("%s*%s" % (_wrap(frac(c)), z))
    return _join(parts)


_COEFF = st.one_of(st.just(0), st.just(0), st.sampled_from([1, -1]),
                   st.fractions(max_denominator=12).filter(lambda q: abs(q.numerator) < 10**6))


@st.composite
def _scalars(draw):
    n = draw(st.sampled_from([1, 3, 4, 8, 12]))
    width = len(cyclotomic_coeffs(n)) - 1
    coeffs = draw(st.lists(_COEFF, min_size=width, max_size=width))
    if draw(st.booleans()):
        coeffs[1:] = [0] * (width - 1)  # a rational in Q(zeta_n)
    return Scalar(n, coeffs)


@settings(max_examples=400, deadline=None)
@given(_scalars())
@example(Scalar(8, [0, 0, 0, 0]))
@example(Scalar(12, [Fraction(-3, 4), 0, 0, 0]))
@example(Scalar(8, [-1, 1, Fraction(-1, 2), Fraction(2, 3)]))
def test_format_scalar_matches_the_fraction_printer(s):
    assert format_scalar(s) == _reference_format_scalar(s)


# ---------------------------------------------------------------------------
# every integer, t and x is evaluated fraction-free over Q[t][x] and written
# in the tower where it meets zeta, an operator or the end of the parse; a
# parser whose atoms are tower values, evaluating every operation in the
# tower, is the reference


class _TowerParser(parser._Parser):
    """The parser with tower atoms: each +, *, / and ^ is a Scalar, RatFunc or OrePoly one."""

    def atom(self):
        kind = self.peek()[0]
        if kind == "int":
            return Scalar.from_rational(parser._int(self.next()))
        if kind in ("t", "x"):
            self.next()
            return t_var() if kind == "t" else x_var()
        return super().atom()


def _outcome(parse, src: str):
    """The JSON and repr of parse(src), or the error it raises with its position."""
    try:
        value = parse(src)
    except ParseError as exc:
        return "ParseError", str(exc), exc.line, exc.column
    except Exception as exc:  # noqa: BLE001 - both paths must fail alike
        return type(exc).__name__, str(exc)
    return json.dumps(jsonio.encode(value)), repr(value)


_PARSERS = (parse_expr, parse_k, parse_xrat, parse_operator)


def _assert_paths_agree(src: str, parsers=_PARSERS):
    for parse in parsers:
        got = _outcome(parse, src)
        with mock.patch.object(parser, "_Parser", _TowerParser):
            tower = _outcome(parse, src)
        assert got == tower, (parse.__name__, src)


def _exprs(leaves, depth: int = 4):
    """Grammar expressions over the leaves, nested at most depth deep."""
    if depth == 0:
        return leaves
    inner = _exprs(leaves, depth - 1)
    shapes = st.sampled_from(["{} + {}", "{} - {}", "{}*{}", "{}/{}", "({} + {})", "({})*({})",
                              "({})/({})", "-{}"])
    joined = st.tuples(shapes, inner, inner).map(lambda s: s[0].format(*s[1:]))
    return st.one_of(
        leaves, joined, joined,
        st.tuples(inner, st.sampled_from(["0", "1", "2", "3", "-1", "-2"]))
        .map("({0[0]})^{0[1]}".format),
    )


# expressions over leaf sets with and without x, Dt and roots of unity, so
# that a quotient meets zeta and zeta meets Dt; some are ended by a token that
# breaks them: a division by zero, a negative power of zero, an operator
# divisor, x in an operator, a stray symbol
_LEAVES = ("1", "2", "3", "12", "0", "t", "t", "t")
_ZETA = ("zeta(8)", "zeta(3)", "zeta(4)", "zeta(8)^3")
_EXPRS = st.tuples(
    st.sampled_from([_LEAVES, _LEAVES + ("x",) * 3, _LEAVES + ("Dt",) * 2,
                     _LEAVES + ("x", "x", "Dt"), _LEAVES + _ZETA, _LEAVES + _ZETA + ("x", "x"),
                     _LEAVES + _ZETA + ("Dt", "Dt"), _LEAVES + _ZETA + ("x", "Dt")])
    .flatmap(lambda leaves: _exprs(st.sampled_from(leaves))),
    st.sampled_from(["", "", "", "", ")", "(", "^", "/0", "/(t - t)", "^-1", "*Dt", "/Dt", "z",
                     "*zeta(8)", "/(zeta(4)^2 + 1)"]),
).map("".join)


@settings(max_examples=400, deadline=None)
@given(_EXPRS)
@example("((((x+1)/(x+1))^2)^-2)/(x-1)")
@example("(t*Dt)/(t + 1/t)")
@example("(x - x)^-1")
@example("Dt/(x + 1)")
@example("(x/t - 1/2)^-2 + 3/(t*x)")
@example("(x + zeta(8))/(x*(x - 1))")
@example("(t + 1/2)*zeta(3)*Dt + (t^2 - 1)/(t + zeta(8))")
@example("((x + 1)/(x - 1))^-2*zeta(4) + x/(zeta(8)*x - 1)")
def test_fraction_free_parse_matches_the_tower(src):
    _assert_paths_agree(src)


def _bench_workloads():
    path = pathlib.Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _pool_inputs():
    """(parser, input) for every string the fractions and operators pools parse."""
    workloads, out = _bench_workloads(), []
    for task in workloads.generate("fractions", 0):
        out.append((parse_xrat, task["expr"]))
    for task in workloads.generate("operators", 0):
        if task["query"] == "wronskian":
            out += [(parse_k, piece) for piece in task["elements"].split(",")]
        elif task["query"] == "realize":
            out.append((parse_operator, task["op"]))
        else:
            out += [(parse_operator, task["a"]), (parse_operator, task["b"])]
    return sorted(set(out), key=lambda row: (row[0].__name__, row[1]))


def test_pool_strings_parse_alike_on_both_paths():
    rows = _pool_inputs()
    assert len(rows) > 100 and any("zeta" in src for _, src in rows)
    for parse, src in rows:
        _assert_paths_agree(src, (parse,))


def _counting(monkeypatch):
    """Counters of RatFunc + and * calls, and of conversions with the counts each found."""
    calls = {"ops": 0, "conversions": []}

    def counted(fn):
        def wrapper(*args):
            calls["ops"] += 1
            return fn(*args)
        return wrapper

    for name in ("__add__", "__mul__"):
        monkeypatch.setattr(RatFunc, name, counted(getattr(RatFunc, name)))
    tower = parser._Quotient.tower

    def converting(self):
        calls["conversions"].append(calls["ops"])
        return tower(self)

    monkeypatch.setattr(parser._Quotient, "tower", converting)
    return calls


def test_zeta_free_input_converts_once_without_ratfunc_arithmetic(monkeypatch):
    src = "(3*x^2 - t*x + 1/2)/((x - 1)^2*(x + t)*(x - (-5/2)))"
    calls = _counting(monkeypatch)
    parse_xrat(src)
    assert calls["conversions"] == [0]
    _assert_paths_agree(src, (parse_xrat,))


def test_zeta_free_operand_converts_once_where_it_meets_zeta(monkeypatch):
    src = "(3*x^2 - t*x + 1/2)/((x - 1)^2*(x + t)) + zeta(8)"
    calls = _counting(monkeypatch)
    parse_xrat(src)
    assert calls["conversions"] == [0] and calls["ops"] > 0
    _assert_paths_agree(src, (parse_xrat,))
