import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ppv.scalars import Scalar, cyclotomic_coeffs, euler_phi, rational


def test_cyclotomic_polynomials():
    assert cyclotomic_coeffs(1) == (-1, 1)
    assert cyclotomic_coeffs(2) == (1, 1)
    assert cyclotomic_coeffs(3) == (1, 1, 1)
    assert cyclotomic_coeffs(4) == (1, 0, 1)
    assert cyclotomic_coeffs(6) == (1, -1, 1)
    assert cyclotomic_coeffs(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_coeffs(12) == (1, 0, -1, 0, 1)


def test_euler_phi():
    assert [euler_phi(n) for n in (1, 2, 3, 4, 8, 12)] == [1, 1, 2, 2, 4, 4]


def test_zeta_powers_and_primitivity():
    for n in (2, 3, 4, 5, 6, 8):
        z = Scalar.zeta(n)
        assert (z**n).is_one()
        for m in range(1, n):
            assert not (z**m).is_one(), (n, m)


def test_rational_subfield():
    half = rational(Fraction(1, 2))
    assert half + half == rational(1)
    assert (half * 2).is_one()
    assert half.is_rational() and half.as_fraction() == Fraction(1, 2)


def test_gaussian_arithmetic():
    i = Scalar.zeta(4)
    assert i * i == rational(-1)
    assert (rational(1) + i) * (rational(1) - i) == rational(2)
    assert (rational(1) / i) == -i


def test_promotion_across_orders():
    z3 = Scalar.zeta(3)
    z6 = Scalar.zeta(6)
    # zeta_6^2 is a primitive cube root
    assert z6 * z6 == z3
    assert z3 + z6 == z6 + z3


def test_galois_action_is_field_automorphism():
    z8 = Scalar.zeta(8)
    a = z8 + rational(2)
    b = z8**3 - rational(1)
    for j in (3, 5, 7):
        assert a.galois(j) + b.galois(j) == (a + b).galois(j)
        assert a.galois(j) * b.galois(j) == (a * b).galois(j)
    assert z8.galois(3) == z8**3


def _galois_by_products(a: Scalar, j: int) -> Scalar:
    """sum c_k zeta^(jk) by Scalar products: the multiply-and-sum reference."""
    zeta_j = Scalar.zeta(a.order) ** (j % a.order)
    out = a.zero_like()
    power = a.one_like()
    for c in a.coeffs:
        if c:
            out = out + power * c
        power = power * zeta_j
    return out


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_galois_matches_multiply_and_sum(data):
    order = data.draw(st.integers(min_value=1, max_value=30))
    a = data.draw(scalars(order))
    j = data.draw(
        st.integers(min_value=-2 * order, max_value=2 * order).filter(
            lambda j: math.gcd(j, order) == 1
        )
    )
    assert a.galois(j).coeffs == _galois_by_products(a, j).coeffs


def test_galois_rejects_noncoprime_exponent():
    with pytest.raises(ValueError):
        Scalar.zeta(4).galois(2)


def test_derivations_vanish():
    z = Scalar.zeta(5)
    assert z.dx().is_zero() and z.dt().is_zero() and z.dt0(3).is_zero()


small_fracs = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


def scalars(order: int):
    return st.lists(
        small_fracs, min_size=euler_phi(order), max_size=euler_phi(order)
    ).map(lambda cs: Scalar(order, cs))


@settings(max_examples=60, deadline=None)
@given(a=scalars(4), b=scalars(4), c=scalars(4))
def test_field_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    if not a.is_zero():
        assert (a * a.inv()).is_one()


@settings(max_examples=40, deadline=None)
@given(a=scalars(8))
def test_inverse_round_trip(a):
    if not a.is_zero():
        assert (rational(1) / a) * a == Scalar(8, [1])


def _normalized_trace(a: Scalar) -> Fraction:
    units = [j for j in range(1, a.order + 1) if math.gcd(j, a.order) == 1]
    total = sum((a.galois(j) for j in units), a.zero_like())
    return total.as_fraction() / len(units)


def test_equal_scalars_hash_equal():
    a = Scalar(4, [0, 1])
    assert a == a.promote(8)
    assert len({a, a.promote(8)}) == 1
    assert len({Scalar.zeta(3), Scalar.zeta(6) ** 2}) == 1
    assert hash(rational(2)) == hash(2) == hash(Scalar.from_rational(2, 12))


# (order, a multiple of it) pairs for promotion
field_towers = st.sampled_from([(1, 4), (2, 8), (3, 6), (3, 9), (3, 12), (4, 8), (4, 12), (5, 10), (6, 12)])


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_hash_is_the_normalized_trace_and_survives_promotion(data):
    small, big = data.draw(field_towers)
    a = data.draw(scalars(small))
    b = a.promote(big)
    assert a == b and hash(a) == hash(b)
    assert hash(a) == hash(_normalized_trace(a)) == hash(_normalized_trace(b))
