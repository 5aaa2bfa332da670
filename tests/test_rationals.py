import contextlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from ppv import jsonio, rationals
from ppv.errors import CoefficientFieldMismatch
from ppv.rationals import (
    _T0,
    _as_coeff,
    Poly,
    RatFunc,
    _coprime,
    _prime_field,
    f_const,
    k_const,
    t_var,
    x_var,
)
from ppv.scalars import Scalar, euler_phi, rational


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


def test_dt_on_k_of_x_cancels_a_factor_with_constant_coefficients():
    """dt(1/(x - 1) + t/(x - 2)) = 1/(x - 2).

    The sum is ((1 + t)x - (2 + t)) / ((x - 1)(x - 2)), whose denominator
    has dt-constant coefficients: dt of it is zero, so x - 1 divides dt(d)
    as often as d.  Cancelling only gcd(d, dt(d)), the shortcut of the
    own-variable derivative, would leave (x - 1)/((x - 1)(x - 2)); this
    sum is realize_gm's equation datum for Dt and the basis 1, t, and its
    check "model identity dx(f) = dt(a)" compares with this dt exactly.
    """
    t, x = f_const(t_var()), x_var()
    a = 1 / (x - 1) + t / (x - 2)
    assert a.dt() == 1 / (x - 2)
    assert a.dt().den == (x - 2).num


def test_dt0_scaling():
    t = t_var()
    assert t.dt0(1) == k_const(1)
    assert t.dt0(2) == t**-1 / 2
    assert (t**2).dt0(2) == k_const(1)
    # dt0 is a derivation
    f, g = t + 1, t**2 - 2
    assert (f * g).dt0(2) == f.dt0(2) * g + f * g.dt0(2)


@pytest.mark.parametrize("e", [2, 3])
def test_dt0_on_kx_maps_the_coefficients(e):
    # on K(x), dt0(e) differentiates the coefficients in K; t and x are independent
    t, x, z = f_const(t_var(8)), x_var(8), f_const(k_const(Scalar.zeta(8)))
    assert (x * t**e).dt0(e) == x
    f, g = (x + z * t) / (x - t**2), (t * x**2 + 1) / (x + 1 / t)
    for h in (f, g, f * g):
        assert h.dt0(e) == h.dt() * t ** (1 - e) / e
    # dt0 is a derivation
    assert (f * g).dt0(e) == f.dt0(e) * g + f * g.dt0(e)


def test_cross_variable_mixing_rejected():
    t = t_var()
    x = x_var()
    with pytest.raises(CoefficientFieldMismatch):
        _ = x + RatFunc.gen("w", rational(1))
    assert (x + t).var == "x"  # parameter elements are constants of K(x)


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


def test_equality_across_the_tower_is_symmetric():
    t = t_var()
    for k, f in ((k_const(3), f_const(3)), (t, f_const(t)), (k_const(1, 8), f_const(1))):
        assert f == k and k == f
        assert not (f != k) and not (k != f)
        assert {f: "f"}[k] == "f" and {k: "k"}[f] == "k"
    assert k_const(3) != f_const(4) and f_const(4) != k_const(3)
    assert t != f_const(3) and not (t == f_const(3))


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
    # degree-2 common factors whose coefficients depend on t, cofactors of degree 0 to 3
    for _ in range(8):
        common = x**2 + f_const(coeff() + t) * x + f_const(coeff() * t - 1)
        p = (common * sum((f_const(coeff()) * x**k for k in range(rng.randint(0, 3) + 1)), x)).num
        q = (common * (f_const(coeff() + 1) * x + f_const(t * t + rng.randint(0, 2)))).num
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


# The prime-field coprimality certificate.  It may only answer "coprime"
# when the exact gcd is a unit, and it must refuse when the image map is
# undefined or drops a leading coefficient.


@st.composite
def _polys(draw, name, min_roots=0):
    """multiplier * prod(x - root), nonzero, from the same lists as _elements."""
    var, one, roots, mults = _field(name)
    p = Poly.constant(var, draw(st.sampled_from(mults)))
    for root in draw(st.lists(st.sampled_from(roots), min_size=min_roots, max_size=3)):
        p = p * Poly(var, [-root, one])
    return p


@pytest.mark.parametrize("name", ["Q(t)", "Q(zeta_8)(t)", "K(x)"])
def test_certificate_is_sound(name):
    @settings(max_examples=60, deadline=None)
    @given(f=_polys(name), g=_polys(name), h=_polys(name, min_roots=1))
    def check(f, g, h):
        if _coprime(f, g):
            assert f.gcd(g).degree() == 0
        # a planted common factor is never certified
        assert not _coprime(f * h, g * h)

    check()


def test_certificate_is_reached():
    # not vacuous: coprime pairs in each field get a certificate
    t, x = t_var(), x_var()
    z = Scalar.zeta(8)
    one8 = Scalar.from_rational(1, 8)
    assert _coprime((t + 1).num, (t - 1).num)
    assert _coprime(Poly("t", [z, one8]), Poly("t", [-z, one8]))
    assert _coprime((x - t).num, (x + t / (t + 1)).num)


def _unmapped_cases():
    """(f, g) coprime pairs whose image is undefined or loses a leading coefficient."""
    p = _prime_field(1)[0]
    t = t_var()
    q = rational(1)
    yield Poly("t", [q, rational(p)]), (t + 2).num  # leading coefficient p
    yield Poly("t", [rational(1) / p, q]), (t + 2).num  # denominator p
    w8 = _prime_field(8)[1]
    z, one8 = Scalar.zeta(8), Scalar.from_rational(1, 8)
    # zeta_8 - w maps to 0: a vanishing leading coefficient in Q(zeta_8)
    yield Poly("t", [one8, z - w8]), Poly("t", [one8, one8])
    # t = _T0 is a pole of a coefficient, and a root of a leading coefficient
    x = x_var()
    t0 = k_const(_T0)
    yield (x + 1 / (t - t0)).num, (x - 1).num
    yield (f_const(t - t0) * x + 1).num, (x - 1).num


def test_no_certificate_where_the_image_fails():
    for f, g in _unmapped_cases():
        assert not _coprime(f, g), (f, g)
        assert f.gcd(g).degree() == 0
        # the reduction falls back to the exact gcd and is still right
        for label, got, want in _reference_results(RatFunc(f, g), RatFunc(g, f)):
            assert jsonio.encode(got) == jsonio.encode(want), label


# The integer-vector kernel for products and division over Q(zeta_N),
# against the coefficient loops it replaced, kept here as references.  Each
# loop output starts at czero (a product) or at the dividend's coefficient
# and adds one Scalar at a time, so it lands in the lcm of the orders of
# everything that reached it; the kernel must write every coefficient in
# that same field.


def _reference_mul(p, q):
    if not isinstance(q, Poly):
        q = Poly.constant(p.var, _as_coeff(p.czero.one_like(), q))
    if p.is_zero() or q.is_zero():
        return p.zero_like()
    out = [p.czero] * (len(p.coeffs) + len(q.coeffs) - 1)
    for i, a in enumerate(p.coeffs):
        if a.is_zero():
            continue
        for j, b in enumerate(q.coeffs):
            out[i + j] = out[i + j] + a * b
    return p._new(out)


def _reference_divmod(p, d):
    rem = list(p.coeffs)
    dn = len(d.coeffs)
    lead_inv = d.leading().one_like() / d.leading()
    q = [p.czero] * max(len(rem) - dn + 1, 0)
    for k in range(len(q) - 1, -1, -1):
        c = rem[k + dn - 1] * lead_inv
        q[k] = c
        if not c.is_zero():
            for i, b in enumerate(d.coeffs):
                rem[k + i] = rem[k + i] - c * b
    return p._new(q), p._new(rem[: dn - 1])


@contextlib.contextmanager
def _reference_loops():
    """Run Poly products and division on the reference loops at every level."""
    saved = Poly.__mul__, Poly.divmod
    Poly.__mul__ = Poly.__rmul__ = _reference_mul
    Poly.divmod = _reference_divmod
    try:
        yield
    finally:
        Poly.__mul__ = Poly.__rmul__ = saved[0]
        Poly.divmod = saved[1]


def _exact(value) -> str:
    """The JSON of value, with every czero beneath it: the JSON drops the
    czero of a nonzero polynomial, but later arithmetic reads its order."""

    def czeros(v):
        if isinstance(v, Poly):
            return [jsonio.encode(v.czero), [czeros(c) for c in v.coeffs]]
        if isinstance(v, RatFunc):
            return [czeros(v.num), czeros(v.den)]
        return None

    return json.dumps([jsonio.encode(value), czeros(value)])


_ORDERS = (1, 3, 4, 8, 12)
_small = st.builds(Fraction, st.integers(-2, 2), st.integers(1, 3))


@st.composite
def _scalars(draw, orders=_ORDERS):
    """A zero, a rational or a general element of Q(zeta_N), N drawn from orders."""
    order = draw(st.sampled_from(orders))
    kind = draw(st.sampled_from(("zero", "rational", "general")))
    if kind == "zero":
        return Scalar(order, [])
    if kind == "rational":
        return Scalar(order, [draw(_small)])
    return Scalar(order, draw(st.lists(_small, min_size=euler_phi(order),
                                       max_size=euler_phi(order))))


def _t_polys(orders=_ORDERS, max_size=5):
    return st.builds(lambda cs, zero: Poly("t", cs, zero.zero_like()),
                     st.lists(_scalars(orders), max_size=max_size), _scalars(orders))


# (1 + t) * (1 - t) cancels in Q(zeta_8) although no factor lives there;
# interior zeros of several orders; czero in a field none of the factors uses
_CANCELLING = (Poly("t", [Scalar.from_rational(1, 8), rational(1)], Scalar(3, [])),
               Poly("t", [rational(1), Scalar.from_rational(-1, 4)], Scalar(1, [])))
_INTERIOR = (Poly("t", [Scalar(12, [1, 1]), Scalar(8, []), Scalar(4, []), rational(2)],
                  Scalar(1, [])),
             Poly("t", [rational(3), Scalar(3, []), Scalar(8, [0, 1])], Scalar(12, [])))


@settings(max_examples=300, deadline=None)
@given(_t_polys(), _t_polys())
@example(*_CANCELLING)
@example(*_INTERIOR)
@example(_INTERIOR[0], Poly("t", [Scalar(4, [1])], Scalar(3, [])))
def test_t_level_product_matches_the_coefficient_loop(p, q):
    with _reference_loops():
        want = _exact(p * q)
    assert _exact(p * q) == want


@settings(max_examples=300, deadline=None)
@given(_t_polys(max_size=6), _t_polys(), st.booleans())
@example(*_INTERIOR, False)
@example(*_CANCELLING, False)
def test_t_level_division_matches_the_coefficient_loop(p, d, monic):
    if d.is_zero():
        return
    if monic:
        d = d.monic()
    with _reference_loops():
        want = [_exact(x) for x in p.divmod(d)]
    assert [_exact(x) for x in p.divmod(d)] == want


@st.composite
def _k_elements(draw, orders):
    """num/den in K with every Scalar drawn from orders, the zero coefficient too."""
    zero = draw(_scalars(orders)).zero_like()
    num = Poly("t", draw(st.lists(_scalars(orders), max_size=3)), zero)
    den = Poly("t", draw(st.lists(_scalars(orders), max_size=2))
               + [draw(_scalars(orders).filter(bool))], zero)
    return RatFunc(num, den)


@st.composite
def _x_polys(draw):
    """A polynomial in x over K: every Scalar in one field, or in several."""
    orders = draw(st.sampled_from([(1,), (8,), (3,), (1, 8), (1, 3, 4), _ORDERS]))
    zero = draw(_k_elements(draw(st.sampled_from([orders, _ORDERS])))).zero_like()
    return Poly("x", draw(st.lists(_k_elements(orders), max_size=3)), zero)


@settings(max_examples=150, deadline=None)
@given(_x_polys(), _x_polys())
# czero + p promotes p from Q to Q(zeta_8), so czero cannot be skipped
@example(Poly("x", [k_const(1)], k_const(0, 8)), Poly("x", [k_const(2), k_const(1)]))
def test_x_level_product_matches_the_coefficient_loop(p, q):
    with _reference_loops():
        want = _exact(p * q)
    assert _exact(p * q) == want


@settings(max_examples=150, deadline=None)
@given(_x_polys(), _x_polys(), st.booleans())
# 1/lead = 1 in Q(zeta_8), the top of the remainder in Q: the product promotes it
@example(Poly("x", [k_const(1), k_const(2)]), Poly("x", [k_const(3, 8), k_const(1, 8)]), False)
def test_x_level_division_matches_the_coefficient_loop(p, d, monic):
    if d.is_zero():
        return
    if monic:
        d = d.monic()
    with _reference_loops():
        want = [_exact(x) for x in p.divmod(d)]
    assert [_exact(x) for x in p.divmod(d)] == want


# Dispatch: the kernel serves operands whose Scalars all share one order;
# mixed orders take the coefficient loop.  The properties above catch mixed
# operands sent to the one-field kernel; these catch one-field operands sent
# to the slower loop.


def _calls(monkeypatch, *names) -> dict:
    """Count the calls made to the named functions of rationals."""
    calls = dict.fromkeys(names, 0)
    for name in calls:
        def counted(*args, _name=name, _real=getattr(rationals, name)):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(rationals, name, counted)
    return calls


_P8 = Poly("t", [Scalar(8, [1, 2]), Scalar(8, [0, 0, 3]), Scalar(8, [Fraction(1, 2)])],
           Scalar(8, []))
_D8 = Poly("t", [Scalar(8, [0, 1]), Scalar(8, [5, 0, 0, -1])], Scalar(8, []))
_D1 = Poly("t", [rational(3), rational(-2)], rational(0))


def test_one_field_products_and_divisions_reach_the_kernel(monkeypatch):
    calls = _calls(monkeypatch, "poly_mul", "poly_divmod")
    _P8 * _D8
    assert calls == {"poly_mul": 1, "poly_divmod": 0}
    _P8.divmod(_D8)
    assert calls == {"poly_mul": 1, "poly_divmod": 1}


@pytest.mark.parametrize("p, d", [(_P8, _D1), (_D1, _D8)], ids=["zeta8_by_q", "q_by_zeta8"])
def test_mixed_fields_take_the_coefficient_loop(monkeypatch, p, d):
    calls = _calls(monkeypatch, "poly_mul", "poly_divmod")
    assert _exact(p * d) == _exact(_reference_mul(p, d))
    assert [_exact(x) for x in p.divmod(d)] == [_exact(x) for x in _reference_divmod(p, d)]
    assert calls == {"poly_mul": 0, "poly_divmod": 0}


def _count_gcds(monkeypatch) -> list:
    calls, gcd = [], Poly.gcd

    def counted(a, b):
        calls.append(None)
        return gcd(a, b)

    monkeypatch.setattr(Poly, "gcd", counted)
    return calls


def test_lcm_of_certified_coprime_denominators_takes_no_gcd(monkeypatch):
    t = t_var()
    calls = _count_gcds(monkeypatch)
    a, b = (t - 1).num, (t * t + 2).num
    assert rationals._lcm(a, b) == a * b and calls == []
    # a common factor fails the certificate, and the exact gcd runs
    c, d = ((t - 1) * (t + 3)).num, ((t - 1) * (t + 2)).num
    assert rationals._lcm(c, d) == ((t - 1) * (t + 2) * (t + 3)).num and len(calls) == 1
    # so do mixed orders, where the certificate is not tried
    assert rationals._lcm(_D1.monic(), _D8.monic()) == _D1.monic() * _D8.monic()
    assert len(calls) == 2


# Constants of K.  Two constants whose Scalars all share one order take one
# Scalar sum, product or inverse; any other pair takes the general path,
# kept here as the reference.


def _general_sum(a, b):
    num = a.num * b.den + b.num * a.den
    coprime = num.is_zero() or _coprime(a.den, b.den)
    return RatFunc(*rationals._lowest_terms(num, a.den * b.den, coprime), reduced=True)


def _general_product(a, b):
    num = a.num * b.num
    coprime = num.is_zero() or (_coprime(a.num, b.den) and _coprime(b.num, a.den))
    return RatFunc(*rationals._lowest_terms(num, a.den * b.den, coprime), reduced=True)


def _general_inv(a):
    return RatFunc(*rationals._lowest_terms(a.den, a.num, True), reduced=True)


def _k_constant(value, zero, one, den_zero):
    """value / 1 with num czero of order zero, denominator 1 of order one, its czero of order den_zero."""
    return RatFunc(Poly("t", [value], Scalar(zero, [])),
                   Poly("t", [Scalar(one, [1])], Scalar(den_zero, [])), reduced=True)


@st.composite
def _constant_pairs(draw):
    """Two constants of K: all in one field, or each Scalar in one of a few fields."""
    orders = draw(st.sampled_from([(1,), (3,), (4,), (8,), (12,), (1, 8), (1, 3, 4), _ORDERS]))

    def constant():
        value = draw(st.one_of(_scalars(orders), st.sampled_from(orders).map(lambda n: Scalar(n, [1]))))
        return _k_constant(value, *(draw(st.sampled_from(orders)) for _ in range(3)))

    return constant(), constant()


@settings(max_examples=400, deadline=None)
@given(_constant_pairs())
# a czero of the denominator alone is in another field: the general path
# writes the denominator's 1 in Q(zeta_8)
@example((_k_constant(rational(2), 1, 1, 8), _k_constant(rational(3), 1, 1, 1)))
# a numerator czero alone is in another field: it enters the general sum
@example((_k_constant(rational(2), 1, 1, 1), _k_constant(rational(3), 8, 1, 1)))
# zero times a constant, one field and mixed
@example((_k_constant(Scalar(8, []), 8, 8, 8), _k_constant(Scalar.zeta(8), 8, 8, 8)))
@example((_k_constant(rational(0), 1, 1, 1), _k_constant(Scalar.zeta(8), 8, 8, 8)))
def test_constants_of_k_match_the_general_path(pair):
    for a, b in (pair, pair[::-1]):
        assert _exact(a + b) == _exact(_general_sum(a, b)), "+"
        assert _exact(a - b) == _exact(_general_sum(a, -b)), "-"
        assert _exact(a * b) == _exact(_general_product(a, b)), "*"
        if not b.is_zero():
            assert _exact(a / b) == _exact(_general_product(a, _general_inv(b))), "/"
            assert _exact(b.inv()) == _exact(_general_inv(b)), "inv"


def test_one_field_constants_take_one_scalar_step(monkeypatch):
    a, b = k_const(Scalar(8, [1, 2])), k_const(Scalar(8, [0, 0, 3, Fraction(1, 2)]))
    calls = _calls(monkeypatch, "poly_mul", "_lowest_terms")
    a + b, a * b, a / b, a - b, a.inv()
    assert calls == {"poly_mul": 0, "_lowest_terms": 0}


@pytest.mark.parametrize("a, b", [(k_const(3), k_const(Scalar.zeta(8))),
                                  (k_const(Scalar.zeta(8)), k_const(3))],
                         ids=["q_and_zeta8", "zeta8_and_q"])
def test_mixed_constants_take_the_general_path(monkeypatch, a, b):
    want = [_exact(_general_sum(a, b)), _exact(_general_product(a, b)),
            _exact(_general_product(a, _general_inv(b)))]
    calls = _calls(monkeypatch, "poly_mul", "_lowest_terms")
    assert _exact(a + b) == want[0]
    assert calls["poly_mul"] > 0 and calls["_lowest_terms"] == 1
    assert _exact(a * b) == want[1]
    assert calls["_lowest_terms"] == 2
    # b alone is in one field, so b.inv() takes one Scalar step; the product does not
    assert _exact(a / b) == want[2]
    assert calls["_lowest_terms"] == 3


# The gcd over K[x] runs the subresultant sequence over Q(zeta_N)[t].  The
# reference is Euclid over K[x], the field algorithm it replaced: one
# RatFunc operation, and so one reduction, per coefficient of each step.


def _reference_gcd(a, b):
    while not b.is_zero():
        b = b.monic()
        a, b = b, a.divmod(b)[1]
    return a.monic()


def _gcd_scalar(draw, order):
    """A nonzero element r * zeta^j of Q(zeta_order)."""
    q = Fraction(draw(st.sampled_from((1, -1, 2, -2, 3, -3))), draw(st.integers(1, 3)))
    return Scalar.from_rational(q, order) * Scalar.zeta(order) ** draw(st.integers(0, order - 1))


def _gcd_coeff(draw, orders, zero_ok=True):
    """An element of K of t-degree <= 1, maybe over t + a; zero now and then.

    The bound keeps the Euclid reference, which reduces every coefficient
    of every remainder by a gcd in t, to a few seconds per property: at
    t-degree 2 over t^2 + a, one draw took up to 14 s.  Steps of delta > 1
    and common factors of degree 3 are still drawn.
    """
    order = draw(st.sampled_from(orders))
    t = t_var(order)
    if zero_ok and draw(st.integers(0, 4)) == 0:
        return k_const(0, order)
    y = k_const(0, order)
    for k in range(draw(st.integers(0, 1)) + 1):
        y = y + k_const(_gcd_scalar(draw, order)) * t**k
    if draw(st.integers(0, 1)):
        y = y / (t + k_const(draw(st.integers(1, 3)), order))
    return y


def _gcd_poly(draw, orders, degree):
    """A polynomial in x over K of the given degree."""
    coeffs = [_gcd_coeff(draw, orders) for _ in range(degree)]
    return Poly("x", coeffs + [_gcd_coeff(draw, orders, zero_ok=False)],
                k_const(0, draw(st.sampled_from(orders))))


@st.composite
def _gcd_pairs(draw, orders):
    """(a, b) = (c * p, c * q) with a common factor c of degree 1 to 3, cofactors of degree 0 to 3."""
    common = _gcd_poly(draw, orders, draw(st.integers(1, 3)))
    p, q = (_gcd_poly(draw, orders, draw(st.integers(0, 3))) for _ in "pq")
    # a product keeps its left factor's czero; each operand gets its own
    return tuple(Poly("x", (common * f).coeffs, k_const(0, draw(st.sampled_from(orders))))
                 for f in (p, q))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_ORDERS).flatmap(lambda n: _gcd_pairs((n,))))
def test_one_field_gcd_matches_euclid_byte_for_byte(pair):
    a, b = pair
    assert _exact(a.gcd(b)) == _exact(_reference_gcd(a, b))
    assert _exact(b.gcd(a)) == _exact(_reference_gcd(b, a))


@settings(max_examples=40, deadline=None)
@given(_gcd_pairs((1, 2, 8)))
def test_mixed_field_gcd_matches_euclid_in_value(pair):
    a, b = pair
    got, want = a.gcd(b), _reference_gcd(a, b)
    assert got == want
    assert got.leading().is_one()
    # the zero coefficient follows Euclid's remainders in every field
    assert jsonio.encode(got.czero) == jsonio.encode(want.czero)


def _gcd_edge_cases():
    t, x = t_var(), x_var()
    t8, x8 = t_var(8), x_var(8)
    c = (x - f_const(t)) * (x + f_const(1 / (t + 1)))
    yield "constant", (x**2 + f_const(t)).num, f_const(t / (t + 2)).num
    yield "constant_first", f_const(t * t + 1).num, (x + 3).num
    yield "divides", (c * (x + f_const(t * t))).num, c.num
    yield "divided", c.num, (c * (x - 1)).num
    yield "equal_degrees", (c * (x + f_const(t))).num, (c * (f_const(t) * x - 1)).num
    yield "coprime_equal_degrees", (x**2 + f_const(t)).num, (f_const(t) * x**2 + 1).num
    yield "equal", c.num, c.num
    yield "zero_first", c.num.zero_like(), c.num
    yield "zero_second", c.num, c.num.zero_like()
    yield "both_zero", c.num.zero_like(), c.num.zero_like()
    # a gcd of degree 2 after a first step of delta 2, and after a later one
    yield "delta_two", (c * (x**3 + f_const(t))).num, (c * (f_const(t + 1) * x + 2)).num
    b = x**4 + f_const(t) * x + 1
    yield "delta_two_later", (c * ((x + f_const(t)) * b + f_const(t) * x**2 + 1)).num, (c * b).num
    # remainders of degrees 7, 6, 4, 3, 2: steps of delta 1, 2, 1, 1, so h
    # after the delta 2 step divides the two steps after it
    r3 = c * (f_const(t) * x + 1)
    r2 = (x + 1) * r3 + c
    r1 = (x**2 + f_const(t)) * r2 + r3
    yield "delta_two_then_one", ((x + f_const(t)) * r1 + r2).num, r1.num
    # the operands' zero coefficients in other fields than their coefficients
    z8 = Poly("x", c.num.coeffs, k_const(0, 8))
    yield "czero_8_first", z8, (c * (x + f_const(t))).num
    yield "czero_8_second", (c * (x + f_const(t))).num, z8
    # one remainder, which takes the first operand's czero
    yield "czero_8_remainder", Poly("x", (c * (x + f_const(t))).num.coeffs, k_const(0, 8)), (c * (x - 1)).num
    yield "zeta8", ((x8 - f_const(k_const(Scalar.zeta(8)) * t8)) ** 2).num, (x8**2 - f_const(t8 * t8)).num


@pytest.mark.parametrize("a, b", [pytest.param(a, b, id=name) for name, a, b in _gcd_edge_cases()])
def test_gcd_edge_cases_match_euclid(a, b):
    got, want = a.gcd(b), _reference_gcd(a, b)
    if len(rationals._orders(a, b)) == 1:
        assert _exact(got) == _exact(want)
    else:
        assert got == want
        assert jsonio.encode(got.czero) == jsonio.encode(want.czero)
    if not got.is_zero():
        assert got.leading().is_one()
        assert a.divmod(got)[1].is_zero() and b.divmod(got)[1].is_zero()


def test_the_gcd_over_k_runs_no_reduction_inside_its_sequence(monkeypatch):
    # only the monic read-out builds RatFuncs; Euclid reduced each
    # coefficient of each remainder
    t, x = t_var(), x_var()
    c = (x - f_const(t)) * (x + f_const(t * t + 1))
    a = (c * (f_const(t + 3) * x**3 + f_const(t) * x + 1)).num
    b = (c * (f_const(t * t) * x**2 - f_const(t - 1))).num
    calls = _calls(monkeypatch, "_lowest_terms")
    got = a.gcd(b)
    assert got == c.num
    assert calls["_lowest_terms"] == c.num.degree()
    calls["_lowest_terms"] = 0
    assert _reference_gcd(a, b) == got
    assert calls["_lowest_terms"] > 20


def test_a_nonzero_remainder_inside_the_sequence_raises(monkeypatch):
    # each remainder after the first is divided exactly by g h^delta; a
    # remainder that g h^delta does not divide is refused, not rounded
    t, x = t_var(), x_var()
    a = (f_const(t) * x**4 + x + 1).num
    b = (f_const(t + 1) * x**3 + f_const(t) * x + 2).num
    steps = []
    real = rationals._prem

    def broken(p, q):
        r = real(p, q)
        steps.append(len(r))
        return r if len(steps) == 1 else [r[0] + Poly.constant("t", rational(1))] + r[1:]

    monkeypatch.setattr(rationals, "_prem", broken)
    with pytest.raises(ArithmeticError, match="does not divide"):
        a.gcd(b)
    assert len(steps) == 2


def test_exact_division_refuses_a_remainder():
    t = t_var()
    assert rationals._exact((t * t - k_const(1)).num, (t + k_const(1)).num) == (t - k_const(1)).num
    with pytest.raises(ArithmeticError, match="does not divide"):
        rationals._exact((t * t + k_const(1)).num, (t + k_const(1)).num)


def test_subresultants_match_sympy():
    # over Q[t] the sequence is sympy's subresultant PRS, each remainder up
    # to its sign; a wrong h after a step of delta >= 2 changes the t-content
    # of the remainders after it, even where the monic gcd stays right
    sympy = pytest.importorskip("sympy")
    v, ts = sympy.symbols("v t")
    rng = random.Random(25)
    t, x = t_var(), x_var()

    def rand(deg):
        return sum((f_const(k_const(rng.randint(-3, 3)) * t ** rng.randint(0, 2)) * x**k
                   for k in range(deg)), f_const(t + rng.randint(0, 2)) * x**deg)

    pairs = [(a, b) for name, a, b in _gcd_edge_cases() if name.startswith("delta")]
    for _ in range(10):
        common = rand(rng.randint(0, 2))
        pairs.append(((common * rand(rng.randint(2, 4))).num, (common * rand(rng.randint(0, 2))).num))

    def to_sympy(coeffs):
        expr = sum((_sympy_poly_expr(c, ts, ts) * v**k for k, c in enumerate(coeffs)), sympy.Integer(0))
        return sympy.Poly(expr, v, domain="QQ[t]")

    for a, b in pairs:
        if a.degree() < b.degree():
            a, b = b, a
        big, small = rationals._cleared(a.coeffs)[0], rationals._cleared(b.coeffs)[0]
        mine = [to_sympy(r) for r in rationals._subresultants(big, small)]
        theirs = to_sympy(big).subresultants(to_sympy(small))[2:]
        assert len(mine) == len(theirs)
        for got, want in zip(mine, theirs):
            assert got in (want, -want)


# RatFunc.deriv cancels gcd(d, d') only; the reference is the quotient rule
# it replaced, n'd - nd' over d^2 reduced by the full gcd.


def _deriv_reference(f):
    return RatFunc(f.num.deriv() * f.den - f.num * f.den.deriv(), f.den * f.den)


@st.composite
def _repeated_poles(draw, orders, var="t"):
    """An element of K (var t) or of K(x) (var x) over a linear factor of multiplicity
    1 to 3 and maybe a quadratic one, squared in K only; in K(x) the linear factor's
    root depends on t.  The bounds keep the reference's gcds in K[x] of degree <= 10."""
    order = draw(st.sampled_from(orders))
    gen, lift = (t_var(order), lambda c: c) if var == "t" else (x_var(order), f_const)
    root = _gcd_coeff(draw, orders, zero_ok=False) if var == "x" else k_const(
        _gcd_scalar(draw, order))
    y = lift(_gcd_coeff(draw, orders)) / (gen + lift(root)) ** draw(st.integers(1, 3))
    if draw(st.booleans()):
        quadratic = gen**2 + lift(k_const(_gcd_scalar(draw, order)))
        y = y * gen ** draw(st.integers(0, 1)) / quadratic ** draw(st.integers(1, 2 if var == "t" else 1))
    return y


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_ORDERS).flatmap(
    lambda n: st.sampled_from("tx").flatmap(lambda v: _repeated_poles((n,), v))))
def test_one_field_derivative_matches_the_quotient_rule_byte_for_byte(f):
    assert _exact(f.deriv()) == _exact(_deriv_reference(f))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from("tx").flatmap(lambda v: _repeated_poles((1, 2, 8), v)))
def test_mixed_field_derivative_matches_the_quotient_rule_in_value(f):
    assert f.deriv() == _deriv_reference(f)
