import random

import pytest

from ppv.errors import CoefficientFieldMismatch
from ppv.rationals import Poly, RatFunc, f_const, k_const, t_var, x_var
from ppv.scalars import rational


def test_poly_divmod_exact():
    one = rational(1)
    p = Poly("t", [rational(-1), rational(0), one])  # t^2 - 1
    d = Poly("t", [rational(-1), one])  # t - 1
    q, r = p.divmod(d)
    assert r.is_zero()
    assert q == Poly("t", [one, one])


def test_poly_gcd_is_monic():
    t = t_var()
    p = ((t - 1) * (t + 2)).num
    q = ((t - 1) * (t - 3)).num
    g = p.gcd(q)
    assert g == (t - 1).num


def test_ratfunc_normalization():
    t = t_var()
    f = (t**2 - 1) / (t - 1)
    assert f == t + 1
    assert f.den.degree() == 0 and f.den.leading().is_one()


def test_zero_denominator_rejected():
    t = t_var()
    with pytest.raises(ZeroDivisionError):
        t / (t - t)


def test_derivative_quotient_rule():
    t = t_var()
    f = (t**2 + 1) / (t - 2)
    g = t**3 - t
    lhs = (f * g).dt()
    assert lhs == f.dt() * g + f * g.dt()


def test_dx_dt_dispatch_on_variables():
    t = t_var()
    x = x_var()
    assert t.dx().is_zero()
    assert t.dt() == k_const(1)
    assert x.dt().is_zero()
    assert x.dx() == f_const(1)
    h = f_const(t) * x  # t*x in K(x)
    assert h.dt() == x
    assert h.dx() == f_const(t)


def test_dt_on_x_level_uses_quotient_rule():
    t = t_var()
    x = x_var()
    f = f_const(t) / (x - 1)
    assert f.dt() == f_const(k_const(1)) / (x - 1)
    g = f_const(1) / (x - f_const(t))
    # dt(1/(x-t)) = dt(t)/(x-t)^2
    assert g.dt() == f_const(1) / ((x - f_const(t)) * (x - f_const(t)))


def test_dt0_scaling():
    t = t_var()
    assert t.dt0(1) == k_const(1)
    assert t.dt0(2) == t**-1 / 2
    assert (t**2).dt0(2) == k_const(1)
    # dt0 is a derivation
    f, g = t + 1, t**2 - 2
    assert (f * g).dt0(2) == f.dt0(2) * g + f * g.dt0(2)


def test_cross_variable_mixing_rejected():
    t = t_var()
    x = x_var()
    with pytest.raises(CoefficientFieldMismatch):
        _ = x + RatFunc.gen("w", rational(1))
    assert (x + t).var == "x"  # parameter elements are constants of K(x)


def test_eval_exact():
    t = t_var()
    f = (t**2 + 1) / (t - 2)
    val = f.eval(rational(3))
    assert val == rational(10)


def test_hashable_for_log_points():
    t = t_var()
    d = {t: 1, k_const(2): 2}
    assert d[t_var()] == 1


def test_constants_hash_as_their_coefficient():
    assert f_const(k_const(2)) == k_const(2)
    assert len({f_const(k_const(2)), k_const(2)}) == 1
    assert hash(k_const(2)) == hash(2)
    t = t_var()
    assert len({f_const(t), t}) == 1
    assert Poly.constant("t", rational(2)) == k_const(2)
    assert len({Poly.constant("t", rational(2)), k_const(2)}) == 1
    assert t == t.num
    assert len({t, t.num}) == 1


def _sympy_gcd_check(p, q, domain):
    """p.gcd(q) equals sympy's monic gcd; coefficients over Q or Q(t)."""
    sympy = pytest.importorskip("sympy")
    v, t = sympy.symbols("v t")

    def expr(c):
        if isinstance(c, RatFunc):
            return poly_expr(c.num, t) / poly_expr(c.den, t)
        return sympy.Rational(c.as_fraction().numerator, c.as_fraction().denominator)

    def poly_expr(f, var):
        return sum((expr(c) * var**k for k, c in enumerate(f.coeffs)), sympy.Integer(0))

    want = sympy.Poly(poly_expr(p, v), v, domain=domain).gcd(
        sympy.Poly(poly_expr(q, v), v, domain=domain)).monic()
    assert sympy.Poly(poly_expr(p.gcd(q), v), v, domain=domain) == want


def test_poly_gcd_over_q_matches_sympy():
    rng = random.Random(11)
    t = t_var()
    for _ in range(25):
        def rand(deg):
            return sum((k_const(rng.randint(-4, 4)) * t**k for k in range(deg)), t**deg)

        common = rand(rng.randint(0, 2))
        p, q = (common * rand(rng.randint(0, 3))).num, (common * rand(rng.randint(0, 3))).num
        _sympy_gcd_check(p, q, "QQ")


def test_poly_gcd_over_q_of_t_matches_sympy():
    rng = random.Random(12)
    t, x = t_var(), x_var()

    def coeff():
        c = k_const(rng.randint(-3, 3)) * t ** rng.randint(0, 1)
        return c / (t + rng.randint(1, 2)) if rng.random() < 0.3 else c

    for _ in range(12):
        def rand(deg):
            return sum((f_const(coeff()) * x**k for k in range(deg)), x**deg)

        common = rand(rng.randint(0, 2))
        p, q = (common * rand(rng.randint(0, 2))).num, (common * rand(rng.randint(0, 2))).num
        _sympy_gcd_check(p, q, "QQ(t)")
