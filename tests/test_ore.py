import random

import pytest
from hypothesis import given, settings, strategies as st

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
from ppv.rationals import k_const, t_var
from ppv.scalars import rational
from ppv.series import TruncLaurent


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


def test_apply_to_truncated_series(k, monkeypatch):
    one, t, dt = k
    f = TruncLaurent("t", {-1: rational(2), 3: rational(1)}, 7)
    out = dt.apply(f)
    assert out.coeffs == {-2: rational(-2), 2: rational(3)}
    assert out.trunc == 6
    l = OrePoly([one / t, one])  # Dt + 1/t
    out2 = l.apply(f)
    assert out2.trunc <= 6
    # an exact series is cut at a window that does not read the environment
    l = OrePoly([one.zero_like(), one / (t + 1)])  # (1/(t+1))*Dt
    f = TruncLaurent("t", {0: rational(1), 3: rational(2)})  # 1 + 2t^3
    truncs = set()
    for env in ("4", "20"):
        monkeypatch.setenv("PPV_TRUNC", env)
        truncs.add(l.apply(f).trunc)
    assert len(truncs) == 1


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
