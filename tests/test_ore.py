import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from ppv import jsonio, ore
from ppv.errors import CoefficientFieldMismatch, DependentFamily
from ppv.ore import (
    OrePoly,
    compose_dt,
    gcrd,
    monomial_window,
    right_divides,
    right_divmod,
    solve_in_window,
    wronskian_operator,
)
from ppv.linalg import nullspace
from ppv.parser import parse_operator
from ppv.rationals import Poly, RatFunc, k_const, t_var
from ppv.scalars import Scalar, rational
from ppv.series import TruncLaurent, TwoVarLaurent


@pytest.fixture
def k():
    return k_const(1), t_var(), OrePoly.dt_gen()


def test_skew_commutation_rule(k):
    one, t, dt = k
    # Dt o t = t Dt + 1
    assert dt * OrePoly.constant(t) == OrePoly([one, t])


def test_identity_neutral(k):
    one, t, dt = k
    a = OrePoly([t, one / t, t**2])
    identity = OrePoly.constant(one)
    assert a * identity == a
    assert identity * a == a


def test_example_composition(k):
    one, t, dt = k
    l = OrePoly([one, t])  # t Dt + 1
    assert l * dt == OrePoly([one.zero_like(), one, t])  # t Dt^2 + Dt


def test_divmod_examples(k):
    one, t, dt = k
    q, r = right_divmod(dt * dt, dt)
    assert q == dt and r.is_zero()
    q, r = right_divmod(OrePoly([one, t]), dt)
    assert q == OrePoly.constant(t) and r == OrePoly.constant(one)
    l = OrePoly([-one, t])
    q, r = right_divmod(l, l)
    assert q == OrePoly.constant(one) and r.is_zero()


def test_division_law_random():
    rng = random.Random(3)
    one, t = k_const(1), t_var()
    for _ in range(60):
        def rand_op(max_order):
            cs = []
            for _ in range(rng.randint(1, max_order + 1)):
                c = rng.randint(-3, 3)
                cs.append(k_const(c) * t ** rng.randint(-1, 2) if c else one.zero_like())
            if all(c.is_zero() for c in cs):
                cs[-1] = one
            return OrePoly(cs, one.zero_like())

        a, b = rand_op(4), rand_op(3)
        q, r = right_divmod(a, b)
        assert q * b + r == a
        assert r.is_zero() or r.order() < b.order()


def test_mul_associative_random():
    rng = random.Random(4)
    one, t = k_const(1), t_var()
    for _ in range(25):
        ops = []
        for _ in range(3):
            cs = [k_const(rng.randint(-2, 2)) * t ** rng.randint(0, 1) for _ in range(rng.randint(1, 3))]
            if all(c.is_zero() for c in cs):
                cs[-1] = one
            ops.append(OrePoly(cs, one.zero_like()))
        a, b, c = ops
        assert (a * b) * c == a * (b * c)


def test_apply_examples(k):
    one, t, dt = k
    l = OrePoly([one, t])
    assert l.apply(t) == 2 * t
    ldt = compose_dt(l)
    assert ldt.apply(k_const(5)).is_zero()
    assert OrePoly.dt_power(2, one).apply(t).is_zero()


def test_apply_respects_composition():
    rng = random.Random(8)
    one, t = k_const(1), t_var()
    for _ in range(15):
        a = OrePoly([k_const(rng.randint(-2, 2)) * t ** rng.randint(0, 1) for _ in range(2)] + [one])
        b = OrePoly([k_const(rng.randint(-2, 2)) for _ in range(2)] + [t])
        f = t ** rng.randint(-2, 3) + rng.randint(-2, 2)
        assert (a * b).apply(f) == a.apply(b.apply(f))


def _running_sum(l, f):
    """l(f) with each term added to a running sum that every addition reduces: the reference."""
    derivs = [f]
    for _ in range(l.order()):
        derivs.append(derivs[-1].dt0(l.e))
    out = None
    for d, c in zip(derivs, l.coeffs):
        out = d * c if out is None else out + d * c
    return f * l.czero if out is None else out


def _k_element(data, order):
    """An element of K = Q(zeta_order)(t) of t-degree <= 2 over 1, t + a or (t + a)^2."""
    t, z = t_var(order), Scalar.zeta(order)
    y = k_const(0, order)
    for k in range(data.draw(st.integers(0, 3))):
        y = y + k_const(data.draw(st.integers(-3, 3)) * z ** data.draw(st.integers(0, order - 1))) * t**k
    den = (t + k_const(data.draw(st.integers(1, 3)), order)) ** data.draw(st.integers(0, 2))
    return y / den


@settings(max_examples=40, deadline=None)
@given(st.sampled_from((1, 3, 8)), st.sampled_from((1, 2)), st.data())
def test_apply_on_k_matches_the_running_sum(order, e, data):
    l = OrePoly([_k_element(data, order) for _ in range(data.draw(st.integers(0, 4)))],
                k_const(0, order), e)
    f = _k_element(data, order)
    assert json.dumps(jsonio.encode(l.apply(f))) == json.dumps(jsonio.encode(_running_sum(l, f)))


def test_apply_on_k_reduces_the_sum_once(monkeypatch):
    """y_k = k zeta_8^k t^k + 1/(t + k), k = 1..4, each under its Wronskian operator.

    The 12 gcds left reduce the derivatives dt^i(y_k); the terms are
    summed over one denominator.  A running sum reduced by every addition
    took 24, and 14.2 s for one element at m = 5.
    """
    t, z = t_var(8), k_const(Scalar.zeta(8))
    elems = [k_const(k, 8) * z**k * t**k + k_const(1, 8) / (t + k_const(k, 8)) for k in range(1, 5)]
    w = wronskian_operator(elems)
    calls = [0]
    real = Poly.gcd

    def counted(a, b):
        calls[0] += 1
        return real(a, b)

    monkeypatch.setattr(Poly, "gcd", counted)
    assert all(w.apply(y).is_zero() for y in elems)
    assert calls[0] == 12


@pytest.mark.parametrize("series", [
    TruncLaurent("t", {-1: rational(2), 3: rational(1)}, 7),
    TwoVarLaurent(rational(0), {2: TruncLaurent.monomial("w", rational(1), 1)}),
], ids=["trunc_laurent", "two_var_laurent"])
def test_apply_refuses_local_series(k, series):
    # operators act on K and K(x); a local series has no product with an
    # element of K, so the one action rule meets a TypeError
    one, t, dt = k
    for l in (dt, OrePoly([one / t, one]), OrePoly([t])):
        with pytest.raises(TypeError):
            l.apply(series)


def test_wronskian_operator_examples(k):
    one, t, dt = k
    w = wronskian_operator([one, t])
    assert w == OrePoly.dt_power(2, one)
    assert wronskian_operator([one]) == dt
    with pytest.raises(DependentFamily):
        wronskian_operator([t, 2 * t])


def test_wronskian_annihilates_generators():
    one, t = k_const(1), t_var()
    fams = [[one, t], [t, t**3], [one, t, t**2], [one / t, t]]
    for fam in fams:
        w = wronskian_operator(fam)
        assert w.order() == len(fam)
        for b in fam:
            assert w.apply(b).is_zero()


def test_solve_in_window_examples(k):
    one, t, dt = k
    window = monomial_window(6)
    l1 = OrePoly([one.zero_like(), one, t])  # t Dt^2 + Dt = (t Dt + 1) o Dt
    sols = solve_in_window(l1, window)
    assert len(sols) == 1 and sols[0].is_constant()
    sols2 = solve_in_window(OrePoly.dt_power(2, one), window)
    assert [str(s) for s in sols2] == ["1", "t"]
    l3 = OrePoly([one.zero_like(), one / t, one])  # Dt^2 + (1/t) Dt
    sols3 = solve_in_window(l3, window)
    assert len(sols3) == 1


def test_right_divisibility_gives_kernel_containment():
    rng = random.Random(12)
    one, t = k_const(1), t_var()
    window = monomial_window(6)
    for _ in range(10):
        l = OrePoly([k_const(rng.randint(-2, 2)), t])
        q = OrePoly([k_const(rng.randint(-2, 2)), one])
        big = q * l
        assert right_divides(l, big)
        for sol in solve_in_window(l, window):
            assert big.apply(sol).is_zero()


def test_gcrd(k):
    one, t, dt = k
    a = OrePoly([-one, t]) * dt  # (t Dt - 1) o Dt
    b = OrePoly([one, one]) * dt  # (Dt + 1) o Dt
    g = gcrd(a, b)
    assert g == dt


def test_twist_mismatch_rejected(k):
    one, t, dt = k
    twisted = OrePoly([one, t], e=2)
    with pytest.raises(CoefficientFieldMismatch):
        _ = twisted * dt


def test_monic_normalization(k):
    one, t, dt = k
    l = OrePoly([one, t])
    m = l.monic()
    assert m.leading().is_one()
    assert m == OrePoly([one / t, one])


_op_coeffs = st.tuples(st.integers(-2, 2), st.integers(-1, 1))


def _operator(draw, order):
    """An operator of exactly the given order, coefficients c * t^j."""
    one, t = k_const(1), t_var()
    cs = [k_const(c) * t**j for c, j in draw(st.lists(_op_coeffs, min_size=order + 1,
                                                     max_size=order + 1))]
    if cs[-1].is_zero():
        cs[-1] = one
    return OrePoly(cs, one.zero_like())


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_gcrd_of_planted_common_right_factor(data):
    f_order = data.draw(st.integers(1, 2))
    f = _operator(data.draw, f_order)
    a = _operator(data.draw, data.draw(st.integers(0, 2 - f_order))) * f
    b = _operator(data.draw, data.draw(st.integers(0, 2 - f_order))) * f
    g = gcrd(a, b)
    assert g.leading().is_one()
    assert right_divides(g, a) and right_divides(g, b)
    assert right_divides(f, g)


def _solve_in_window_reference(l, basis):
    """The window search as it was before the closed form: apply, then clear."""
    if not basis:
        return []
    images = [l.apply(b) for b in basis]
    common = images[0].den
    for img in images[1:]:
        g = common.gcd(img.den)
        common = (common * img.den).divmod(g)[0]
    cleared = [img.num * common.divmod(img.den)[0] for img in images]
    degree = max((p.degree() for p in cleared), default=-1)
    if degree < 0:
        return list(basis)
    zero = cleared[0].czero
    rows = [[p.coeff(r) for p in cleared] for r in range(degree + 1)]
    out = []
    for vec in nullspace(rows, zero, zero.one_like()):
        sol = None
        for lam, b in zip(vec, basis):
            if lam.is_zero():
                continue
            term = b * lam
            sol = term if sol is None else sol + term
        if sol is not None and not sol.is_zero():
            out.append(sol)
    return out


def _encoded(elems) -> str:
    return json.dumps([jsonio.encode(x) for x in elems], sort_keys=True)


def _scalar(draw, order):
    if order == 1:
        return Scalar(1, [draw(st.fractions(-3, 3, max_denominator=3))])
    return Scalar(order, draw(st.lists(st.integers(-2, 2), min_size=1, max_size=4)))


def _laurent(draw, order, low=-2, high=2):
    """A sum of a few scalar multiples of t^j with low <= j <= high."""
    t = t_var(order)
    out = k_const(0, order)
    for _ in range(draw(st.integers(1, 3))):
        out = out + RatFunc.constant("t", _scalar(draw, order)) * t ** draw(st.integers(low, high))
    return out


def _denominator(draw, order):
    t, one = t_var(order), k_const(1, order)
    dens = [one, t, t - 1, t + 2, t**2 + 1, t**2 - 2 * t]
    if order == 8:
        dens.append(t - RatFunc.constant("t", Scalar.zeta(8)))
    return draw(st.sampled_from(dens))


def _window_operator(draw, order, e):
    """An operator of order 0-3 whose coefficients have non-monomial denominators,
    half the time planted with a kernel inside the window."""
    if draw(st.booleans()):
        fam = [_laurent(draw, order) for _ in range(draw(st.integers(1, 2)))]
        try:
            right = wronskian_operator(fam, e)
        except DependentFamily:
            right = OrePoly.dt_power(1, k_const(1, order), e)
        left = OrePoly([_laurent(draw, order, 0, 1) / _denominator(draw, order)
                        for _ in range(draw(st.integers(1, 2)))], k_const(0, order), e)
        return left * right if not left.is_zero() else right
    cs = [_laurent(draw, order) / _denominator(draw, order)
          for _ in range(draw(st.integers(1, 4)))]
    return OrePoly(cs, k_const(0, order), e)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_solve_in_window_matches_apply_and_clear(data):
    order = data.draw(st.sampled_from([1, 8]))
    e = data.draw(st.integers(1, 3))
    l = _window_operator(data.draw, order, e)
    window = monomial_window(data.draw(st.integers(0, 5)), order)
    assert _encoded(solve_in_window(l, window)) == _encoded(_solve_in_window_reference(l, window))


@pytest.mark.parametrize("src", ["(t-1)*Dt + 1", "(t^2+1)*Dt + 2*t", "Dt^2 + 1/t*Dt",
                                 "(t^3 + zeta(8))*Dt - 3*t^2", "0*Dt", "t^2/(t - zeta(8))"])
@pytest.mark.parametrize("e", [1, 2, 3])
def test_solve_in_window_examples_match_apply_and_clear(src, e):
    p = parse_operator(src)
    l = OrePoly(p.coeffs, p.czero, e)
    order = l.czero.czero.order
    for width in (0, 3, 16):
        window = monomial_window(width, order)
        assert _encoded(solve_in_window(l, window)) == _encoded(
            _solve_in_window_reference(l, window))


@pytest.mark.parametrize("order", [1, 8])
def test_monomial_window_encodes_as_powers_of_t(order):
    t = t_var(order)
    for width in (0, 1, 7):
        assert _encoded(monomial_window(width, order)) == _encoded(
            [t**j for j in range(-width, width + 1)])


def test_solve_in_window_refuses_a_non_monomial():
    one, t = k_const(1), t_var()
    l = OrePoly.dt_power(1, one)
    assert solve_in_window(l, [k_const(3), 2 * t**-4]) == [k_const(3)]
    for bad in (t + 1, one / (t - 1), t**2 / (t + 1)):
        with pytest.raises(ValueError, match="monomials"):
            solve_in_window(l, [one, bad])


def test_solve_in_window_applies_no_operator(monkeypatch):
    def refuse(self, f):
        raise AssertionError("the window search applied the operator")

    monkeypatch.setattr(OrePoly, "apply", refuse)
    one, t = k_const(1), t_var()
    l = OrePoly([one.zero_like(), one / t, one])  # Dt^2 + (1/t) Dt
    assert [str(s) for s in solve_in_window(l, monomial_window(4))] == ["1"]


# Composition and right division in one field order read Leibniz's rule off
# the right factor's table of derivatives.  The reference is the skew loop
# they replaced, which mixed field orders still run: Dt^(i+1) o b built from
# Dt^i o b one commutation at a time, and a division that composes each
# quotient term with b afresh.


def _skew_reference(a, b):
    """a o b by the skew loop."""
    if a.is_zero() or b.is_zero():
        return a.zero_like()
    powers = [b]
    for _ in range(a.order()):
        prev = powers[-1]
        shifted = [a.czero] + list(prev.coeffs)
        derived = [c.dt0(a.e) for c in prev.coeffs] + [a.czero]
        powers.append(a._new([x + y for x, y in zip(shifted, derived)]))
    out = a.zero_like()
    for i, c in enumerate(a.coeffs):
        if not c.is_zero():
            out = out + powers[i].scale(c)
    return out


def _divmod_reference(a, b):
    lead_inv = b.leading().one_like() / b.leading()
    q, r = a.zero_like(), a
    while not r.is_zero() and r.order() >= b.order():
        s = r.order() - b.order()
        mono = a._new([a.czero] * s + [r.leading() * lead_inv])
        q, r = q + mono, r - _skew_reference(mono, b)
    return q, r


def _op_exact(l) -> str:
    """The JSON of an operator with the czero of it and of every polynomial beneath:
    the JSON drops czeros, but later arithmetic reads their field orders."""

    def czeros(v):
        if isinstance(v, Poly):
            return [jsonio.encode(v.czero), [czeros(c) for c in v.coeffs]]
        if isinstance(v, RatFunc):
            return [czeros(v.num), czeros(v.den)]
        return None

    return json.dumps([jsonio.encode(l), czeros(l.czero), [czeros(c) for c in l.coeffs]])


def _one_field_operator(data, order, e, max_order, nonzero=True):
    """An operator of order <= max_order over Q(zeta_order)(t); zero coefficients now and then."""
    cs = [k_const(0, order) if data.draw(st.integers(0, 3)) == 0 else _k_element(data, order)
          for _ in range(data.draw(st.integers(int(nonzero), max_order + 1)))]
    if nonzero and cs[-1].is_zero():
        cs[-1] = k_const(1, order)
    return OrePoly(cs, k_const(0, order), e)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from((1, 3, 4, 8, 12)), st.sampled_from((1, 2)), st.data())
def test_one_field_composition_and_division_match_the_skew_loop(order, e, data):
    a = _one_field_operator(data, order, e, 3, nonzero=False)
    b = _one_field_operator(data, order, e, 2)
    assert _op_exact(a * b) == _op_exact(_skew_reference(a, b))
    q, r = right_divmod(a, b)
    want = _divmod_reference(a, b)
    assert [_op_exact(q), _op_exact(r)] == [_op_exact(x) for x in want]
    assert q * b + r == a
    c = _one_field_operator(data, order, e, 1)
    assert (a * b) * c == a * (b * c)


@pytest.mark.parametrize("a, b", [
    ("zeta(8)*t*Dt^2 + 3*Dt + 1/(t + 2)", "Dt + zeta(8)"),
    ("(2*t + zeta(8)^3)*Dt^3 + (t - 1)*Dt + 1/(t + 1)", "(t + 2)*Dt^2 + (-t + 2*zeta(8)^5)/(t + 2)"),
    ("t*Dt^2 + 1/(t + 1)", "(t + zeta(8))*Dt + 1"),
])
def test_mixed_orders_keep_the_skew_loop(monkeypatch, a, b):
    a, b = parse_operator(a), parse_operator(b)

    def refuse(*args):
        raise AssertionError("mixed field orders reached the Leibniz path")

    monkeypatch.setattr(ore, "_leibniz", refuse)
    assert _op_exact(a * b) == _op_exact(_skew_reference(a, b))
    assert _op_exact(b * a) == _op_exact(_skew_reference(b, a))
    q, r = right_divmod(a, b)
    assert [_op_exact(q), _op_exact(r)] == [_op_exact(x) for x in _divmod_reference(a, b)]


def _counting(monkeypatch, cls, name):
    calls = [0]
    real = getattr(cls, name)

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(cls, name, counted)
    return calls


def test_right_division_derives_the_divisor_once(monkeypatch):
    """Order 4 by order 2 over Q(t): three steps, Dt^s o b for s = 2, 1, 0.

    The table takes b's three coefficients to their second derivatives, 6
    dt0 calls.  The skew loop derived every coefficient of each Dt^i o b
    afresh at every step, 7 + 3 = 10.
    """
    a = parse_operator("(t + 1)*Dt^4 + t^2*Dt^3 - Dt^2 + 2*t*Dt + 1/(t + 2)")
    b = parse_operator("t*Dt^2 + t^2*Dt + 1/(t + 1)")
    calls = _counting(monkeypatch, RatFunc, "dt0")
    q, r = right_divmod(a, b)
    assert calls[0] == 6
    assert q.order() == 2 and r.order() == 1


def test_gcrd_reduces_fewer_coefficients(monkeypatch):
    """A gcrd of two order-3 operators over Q[t] with a planted monic order-1
    right factor, as the operators benchmark draws them.  Each remainder
    coefficient is one reduction, not one per partial sum: the skew loop
    took 6 gcds here."""
    f = "Dt + (2*t - 1)"
    a = parse_operator("(Dt^2 + (t + 2)*Dt + (-t + 1))*(%s)" % f)
    b = parse_operator("(Dt^2 + (-2*t + 1)*Dt + (t - 2))*(%s)" % f)
    calls = _counting(monkeypatch, Poly, "gcd")
    g = gcrd(a, b)
    assert calls[0] < 6
    assert g == parse_operator(f)
