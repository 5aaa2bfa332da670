import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ppv.errors import CoefficientFieldMismatch, NonInvertibleLeadingTerm, TruncationExhausted
from ppv.rationals import t_var
from ppv.scalars import Scalar, rational
from ppv.series import (
    INF,
    TruncLaurent,
    TwoVarLaurent,
    certified_window,
    random_two_var,
)


def w_mono(c, n):
    return TruncLaurent.monomial("w", rational(c), n)


def test_trunc_laurent_mul_validity():
    # (t^-1 + O(t^3)) * (t^2 + O(t^5)): product valid to min(3+2, 5-1) = 4
    a = TruncLaurent("t", {-1: rational(1)}, 3)
    b = TruncLaurent("t", {2: rational(1)}, 5)
    p = a * b
    assert p.trunc == 4
    assert p.coeffs == {1: rational(1)}


def test_trunc_laurent_inverse_window():
    a = TruncLaurent("t", {1: rational(2), 2: rational(1)}, 6)
    inv = a.inv()
    assert inv.trunc == 6 - 2
    prod = a * inv
    assert prod.agree(TruncLaurent("t", {0: rational(1)}), int(prod.trunc) - 1) >= 1


def test_monomial_inverts_exactly():
    a = TruncLaurent("t", {3: rational(2)})
    inv = a.inv()
    assert inv.trunc == INF
    assert inv.coeffs == {-3: rational(Fraction(1, 2))}


def test_inverse_requires_leading_coefficient():
    with pytest.raises(NonInvertibleLeadingTerm):
        TruncLaurent.zero("t", 5).inv()


def test_exact_nonmonomial_needs_cap():
    a = TruncLaurent("t", {0: rational(1), 1: rational(1)})
    with pytest.raises(ValueError):
        a.inv()
    assert a.inv(cap=6).trunc == 6


# spec-level examples for the main derivation


def test_dx_of_t_over_w():
    q = rational(0)
    elem = TwoVarLaurent(q, {1: w_mono(1, -1)})  # t/z
    d = elem.dx()
    assert d.coeffs[0] == w_mono(-1, -2)  # -1/z^2
    # (d/dx of t itself is zero: the t-coefficient is w-constant)
    t_elem = TwoVarLaurent(q, {1: w_mono(1, 0)})
    assert t_elem.dx().stored_zero()


def test_dt0_of_t_at_e1():
    t_elem = TwoVarLaurent(rational(0), {1: w_mono(1, 0)})
    d = t_elem.dt0(1)
    assert d.coeffs[0] == w_mono(1, 0)


def test_dt0_of_z_is_minus_z_over_t():
    q = rational(0)
    z = TwoVarLaurent.z_elem(q)
    d = z.dt0(1)
    assert d.coeffs[-1] == TruncLaurent("w", {1: rational(-1)})
    # at a shifted point the same identity holds with z = w + q
    q2 = rational(2)
    z2 = TwoVarLaurent.z_elem(q2)
    d2 = z2.dt0(1)
    assert d2.coeffs[-1] == TruncLaurent("w", {0: rational(-2), 1: rational(-1)})


def test_dt0_of_t_at_e2():
    t_elem = TwoVarLaurent(rational(0), {1: w_mono(1, 0)})
    d = t_elem.dt0(2)
    assert d.coeffs[-1] == TruncLaurent("w", {0: Scalar(1, [Fraction(1, 2)])})


def test_commutation_invariant():
    rng = random.Random(42)
    for e in (1, 2, 3):
        for qv in (0, 1, 2):
            for _ in range(12):
                f = random_two_var(rng, rational(qv), 12, 12)
                lhs = f.dx().dt0(e)
                rhs = f.dt0(e).dx()
                lhs.agree(rhs, *certified_window(lhs, rhs, 12))


def test_leibniz_both_derivations():
    rng = random.Random(9)
    q = rational(1)
    for _ in range(8):
        f = random_two_var(rng, q, 9, 9)
        g = random_two_var(rng, q, 9, 9)
        for d in (lambda u: u.dx(), lambda u: u.dt0(2)):
            lhs = d(f * g)
            rhs = d(f) * g + f * d(g)
            lhs.agree(rhs, *certified_window(lhs, rhs, 9))


def test_restriction_to_parameter_field():
    # dt0(e=1) on w-constant elements is coefficient-wise d/dt
    t = t_var()
    h = (t**3 + 2 * t) / (1 + t)
    q = rational(2)
    f = TwoVarLaurent.from_k(h, q, order=10)
    lhs = f.dt0(1)
    rhs = TwoVarLaurent.from_k(h.dt(), q, order=10)
    lhs.agree(rhs, 7, 5)


def test_truncation_soundness():
    # recomputing at higher truncation never changes settled coefficients
    rng = random.Random(5)
    q = rational(1)
    hi = random_two_var(rng, q, 14, 14)
    lo = hi.truncate(8, 8)
    lo2 = (lo * lo).dt0(2)
    hi2 = (hi * hi).dt0(2)
    lo2.agree(hi2, *certified_window(lo2, lo2, 8))


def test_constants_kernel_is_inner_constant():
    # within the window, dx kills exactly the elements of k((t))
    q = rational(1)
    const_elem = TwoVarLaurent(
        q, {n: w_mono(n + 1, 0) for n in range(-2, 6)}, 6
    )
    assert const_elem.dx().is_zero_through(4, 4)
    non_const = const_elem + TwoVarLaurent(q, {2: w_mono(1, 3)}, 6)
    assert not non_const.dx().is_zero_through(4, 4)


def test_certified_window_caps_at_order():
    q = rational(0)
    exact = TwoVarLaurent(q, {0: w_mono(1, 0)})
    assert certified_window(exact, exact, 7) == (7, 7)
    outer_short = TwoVarLaurent(q, {0: w_mono(1, 0)}, 5)
    assert certified_window(exact, outer_short, 7) == (4, 7)
    inner_short = TwoVarLaurent(q, {0: TruncLaurent("w", {0: rational(1)}, 3)}, 20)
    assert certified_window(inner_short, exact, 7) == (7, 2)
    assert certified_window(inner_short, outer_short, 1) == (1, 1)


def test_agree_refuses_beyond_validity():
    q = rational(0)
    a = TwoVarLaurent(q, {0: w_mono(1, 0)}, 4)
    b = TwoVarLaurent(q, {0: w_mono(1, 0)}, 9)
    with pytest.raises(TruncationExhausted):
        a.agree(b, 6, 3)


def test_trunc_laurent_refuses_mixed_variables():
    # 1 in t and 1 in w agree as numbers, but not as series
    a = TruncLaurent("t", {0: rational(1)})
    b = TruncLaurent("w", {0: rational(1), 1: rational(2)}, 5)
    for op in (lambda: a + b, lambda: a - b, lambda: a * b, lambda: b.agree(a, 0)):
        with pytest.raises(CoefficientFieldMismatch):
            op()


def test_division_round_trip():
    rng = random.Random(31)
    q = rational(2)
    done = 0
    while done < 10:
        f = random_two_var(rng, q, 9, 9)
        if not any(c.coeffs for c in f.coeffs.values()):
            continue
        g = f * f.inv(cap=(7, 7))
        one = TwoVarLaurent.term(q, rational(1))
        g.agree(one, *certified_window(g, one, 6))
        done += 1


# kernel semantics shared by both series types


def test_two_var_exact_several_t_orders_needs_cap():
    q = rational(0)
    a = TwoVarLaurent(q, {0: w_mono(1, 0), 1: w_mono(1, 0)})
    with pytest.raises(ValueError):
        a.inv()
    assert a.inv(cap=(6, 6)).trunc == 6


def test_monomial_cap_two_var_applies_trunc_laurent_ignores():
    q = rational(0)
    two_var = TwoVarLaurent(q, {1: w_mono(2, 0)}, 10)
    inv = two_var.inv(cap=(4, 4))
    assert inv.trunc == 4
    assert inv.coeffs == {-1: w_mono(Fraction(1, 2), 0)}
    assert TwoVarLaurent(q, {1: w_mono(2, 0)}).inv(cap=(4, 4)).trunc == 4
    one_var = TruncLaurent("t", {1: rational(2)}, 10)
    assert one_var.inv(cap=4).trunc == 8
    assert TruncLaurent("t", {1: rational(2)}).inv(cap=4).trunc == INF


def test_zero_so_far_inner_coefficient_keeps_validity():
    q = rational(1)
    a = TwoVarLaurent(q, {0: w_mono(1, 0), 2: TruncLaurent("w", {}, 3)}, 10)
    one = TwoVarLaurent.term(q, rational(1))
    for res in (a + one, a * one, one * a):
        assert res.coeffs[2] == TruncLaurent("w", {}, 3)
        assert res.inner_validity() == 3


_t_coeffs = st.dictionaries(
    st.integers(-3, 5),
    st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(1, 3)),
    min_size=1, max_size=5,
)
_truncs = st.sampled_from([INF, 6, 7, 9])


def _pair(coeffs, trunc):
    one = TruncLaurent("t", {n: rational(c) for n, c in coeffs.items()}, trunc)
    two = TwoVarLaurent(rational(2), {n: w_mono(c, 0) for n, c in coeffs.items()}, trunc)
    return one, two


def _assert_matches(two, one):
    assert two.trunc == one.trunc
    assert set(two.coeffs) == set(one.coeffs)
    for n, f in two.coeffs.items():
        assert f == TruncLaurent("w", {0: one.coeffs[n]})


@settings(max_examples=60, deadline=None)
@given(_t_coeffs, _truncs, _t_coeffs, _truncs, st.integers(1, 8))
def test_w_constant_two_var_matches_trunc_laurent(ca, ta, cb, tb, cap):
    a1, a2 = _pair(ca, ta)
    b1, b2 = _pair(cb, tb)
    _assert_matches(a2 + b2, a1 + b1)
    _assert_matches(a2 * b2, a1 * b1)
    if len(a1.coeffs) > 1:
        _assert_matches(a2.inv(cap=(cap, cap)), a1.inv(cap=cap))
