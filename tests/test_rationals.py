import random

import pytest
from hypothesis import given, settings, strategies as st

from ppv import jsonio
from ppv.errors import CoefficientFieldMismatch
from ppv.rationals import Poly, RatFunc, f_const, k_const, t_var, x_var
from ppv.scalars import Scalar, rational


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


def _sympy_expr(c, t):
    """A Q-scalar or an element of Q(t) as a sympy expression in the symbol t."""
    import sympy

    if isinstance(c, RatFunc):
        return _sympy_poly_expr(c.num, t, t) / _sympy_poly_expr(c.den, t, t)
    return sympy.Rational(c.as_fraction().numerator, c.as_fraction().denominator)


def _sympy_poly_expr(f, var, t):
    import sympy

    return sum((_sympy_expr(c, t) * var**k for k, c in enumerate(f.coeffs)), sympy.Integer(0))


def _sympy_gcd_check(p, q, domain):
    """p.gcd(q) equals sympy's monic gcd; coefficients over Q or Q(t)."""
    sympy = pytest.importorskip("sympy")
    v, t = sympy.symbols("v t")
    want = sympy.Poly(_sympy_poly_expr(p, v, t), v, domain=domain).gcd(
        sympy.Poly(_sympy_poly_expr(q, v, t), v, domain=domain)).monic()
    assert sympy.Poly(_sympy_poly_expr(p.gcd(q), v, t), v, domain=domain) == want


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


# Reduction of sums, products and quotients.  The reference is the full
# reduction of the unreduced pair: gcd, exact division, monic denominator.


def _full_reduction(num, den):
    if num.is_zero():
        return RatFunc(num, Poly.constant(num.var, num.czero.one_like()), reduced=True)
    g = num.gcd(den)
    if g.degree() > 0:
        num, den = num.divmod(g)[0], den.divmod(g)[0]
    lead = den.leading()
    if not lead.is_one():
        inv = lead.one_like() / lead
        num, den = num.scale(inv), den.scale(inv)
    return RatFunc(num, den, reduced=True)


def _reference_results(a, b):
    """(label, result, reference) for a + b, a * b, a / b and a.inv()."""
    out = [("+", a + b, _full_reduction(a.num * b.den + b.num * a.den, a.den * b.den)),
           ("*", a * b, _full_reduction(a.num * b.num, a.den * b.den))]
    if not b.is_zero():
        b_inv = _full_reduction(b.den, b.num)
        out.append(("/", a / b, _full_reduction(a.num * b_inv.num, a.den * b_inv.den)))
    if not a.is_zero():
        out.append(("inv", a.inv(), _full_reduction(a.den, a.num)))
    return out


def _field(name):
    """(variable, one, roots, multipliers) for small elements of a field.

    Elements are multiplier * prod(x - root) / (multiplier * prod(x - root))
    with roots drawn from a short list, so that operands share factors often
    and both sides of every coprimality test are reached.
    """
    if name == "Q(t)":
        c = [rational(k) for k in (-2, -1, 0, 1, 2, 3)]
        return "t", c[3], c[:5], [c[0], c[1], c[3], c[5], rational(1) / 2]
    if name == "Q(zeta_8)(t)":
        z, one = Scalar.zeta(8), Scalar.from_rational(1, 8)
        return "t", one, [one.zero_like(), one, -one, z, z**3, z + one], [one, -one * 2, z, z**2 + one]
    t = t_var()
    one = k_const(1)
    return "x", one, [one.zero_like(), one, t, -t, t + 1], [one, k_const(-2), t, one / (t + 1)]


@st.composite
def _elements(draw, name):
    var, one, roots, mults = _field(name)

    def part(mult):
        p = Poly.constant(var, mult)
        for root in draw(st.lists(st.sampled_from(roots), max_size=2)):
            p = p * Poly(var, [-root, one])
        return p

    num = part(draw(st.sampled_from([one.zero_like()] + mults)))
    return RatFunc(num, part(draw(st.sampled_from(mults))))


@pytest.mark.parametrize("name", ["Q(t)", "Q(zeta_8)(t)", "K(x)"])
def test_reduction_matches_full_reduction(name):
    # the JSON is compared, not values: it records each coefficient's field
    # order, which the choice of reduction could change for equal values
    @settings(max_examples=40, deadline=None)
    @given(a=_elements(name), b=_elements(name))
    def check(a, b):
        for label, got, want in _reference_results(a, b):
            assert jsonio.encode(got) == jsonio.encode(want), label

    check()


def test_sum_and_product_over_q_of_t_match_sympy_cancel():
    sympy = pytest.importorskip("sympy")
    t = sympy.symbols("t")

    def canonical(e):
        p, q = sympy.fraction(sympy.cancel(e))
        lead = sympy.Poly(q, t).LC()
        return sympy.Poly(p / lead, t, domain="QQ"), sympy.Poly(q / lead, t, domain="QQ")

    @settings(max_examples=40, deadline=None)
    @given(a=_elements("Q(t)"), b=_elements("Q(t)"))
    def check(a, b):
        ea, eb = _sympy_expr(a, t), _sympy_expr(b, t)
        for got, want in ((a + b, ea + eb), (a * b, ea * eb)):
            num = sympy.Poly(_sympy_poly_expr(got.num, t, t), t, domain="QQ")
            den = sympy.Poly(_sympy_poly_expr(got.den, t, t), t, domain="QQ")
            assert (num, den) == canonical(want)

    check()
