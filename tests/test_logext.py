import json
from fractions import Fraction

from ppv import jsonio
from ppv.logext import LogExtElem
from ppv.rationals import f_const, k_const, t_var, x_var
from ppv.scalars import Scalar, rational


def test_dx_of_log():
    x = x_var()
    f = LogExtElem(f_const(0), {k_const(1): k_const(1)})  # log(x-1)
    d = f.dx()
    assert d.in_base_field()
    assert d.tail == 1 / (x - 1)


def test_dt_of_log_with_constant_point():
    f = LogExtElem(f_const(0), {k_const(2): k_const(1)})  # log(x-2)
    assert f.dt() == LogExtElem(f_const(0))


def test_dt_product_rule_constant_point():
    t = t_var()
    f = LogExtElem(f_const(t.zero_like()), {k_const(2): t})  # t*log(x-2)
    d = f.dt()
    assert d.logs == {k_const(2): k_const(1)}
    assert d.tail.is_zero()


def test_dt_of_log_with_moving_point():
    t = t_var()
    x = x_var()
    f = LogExtElem(f_const(0), {t: k_const(1)})  # log(x-t)
    d = f.dt()
    assert d.in_base_field()
    assert d.tail == -(f_const(1) / (x - f_const(t)))


def test_dt_of_log_moving_point_against_series_expansion():
    # oracle: independently expand dt(log(x-t)) as a power series in x.
    # log(x-t) = log(-t) + log(1 - x/t) formally, so
    # dt(log(x-t)) = 1/t + sum_{n>=1} x^n / t^(n+1), which must match the
    # x-expansion of -1/(x-t) term by term.
    t = t_var()
    d = LogExtElem(f_const(0), {t: k_const(1)}).dt()
    order = 8
    # series of tail = -1/(x-t): expand via geometric series by hand
    num, den = d.tail.num, d.tail.den
    # evaluate expansions exactly: coefficient of x^n of p/q via divided
    # differences is awkward; instead compare q * (claimed series) = p
    claimed = [k_const(1) / (t ** (n + 1)) for n in range(order + 1)]
    # multiply claimed series by den(x) and compare with num(x) coefficients
    prod = {}
    for n, c in enumerate(claimed):
        for k in range(den.degree() + 1):
            prod[n + k] = prod.get(n + k, c.zero_like()) + c * den.coeff(k)
    for n in range(order + 1):
        expect = num.coeff(n) if n <= num.degree() else num.czero
        assert prod.get(n, num.czero) == expect, n


def test_mul_by_parameter_element():
    t = t_var()
    f = LogExtElem(f_const(0), {k_const(1): k_const(1)})
    g = f * t
    assert g.logs == {k_const(1): t}


def test_mul_by_scalar_is_mul_by_its_constant():
    # a bare Scalar multiplies as the constant k_const(c) of K, over Q and Q(zeta_8)
    for order, scalars in ((1, (rational(5), rational(Fraction(-2, 3)))),
                           (8, (Scalar.zeta(8) + 1, Scalar.zeta(8) ** 3))):
        t, x = t_var(order), x_var(order)
        f = LogExtElem(f_const(t) / (x - 1), {k_const(2, order): t, t: k_const(3, order)})
        for c in scalars:
            assert json.dumps(jsonio.encode(f * c)) == json.dumps(jsonio.encode(f * k_const(c)))


def test_zero_and_membership():
    f = LogExtElem(f_const(0))
    assert f.tail.is_zero() and f.in_base_field()
    g = LogExtElem(f_const(0), {k_const(1): k_const(0)})
    assert g == f and not g.logs  # zero coefficients are dropped


def test_equality_up_to_stored_zeros():
    x = x_var()
    a = LogExtElem(1 / (x - 1), {k_const(2): k_const(0)})
    b = LogExtElem(1 / (x - 1))
    assert a == b
