import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ppv import jsonio
from ppv.scalars import Scalar, combination, cyclotomic_coeffs, euler_phi, rational, scaled


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


# -- reference: the Fraction-list arithmetic that Scalar used to carry --------
# Scalars as tuples of phi(N) Fractions, computed the old way.


def _ref_trim(cs: list) -> list:
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _ref_divmod(num, den):
    num = list(num)
    dlead = den[-1]
    q = [Fraction(0)] * max(len(num) - len(den) + 1, 0)
    for k in range(len(q) - 1, -1, -1):
        c = num[k + len(den) - 1]
        if dlead != 1:
            c = c / dlead
        q[k] = c
        if c:
            for i, d in enumerate(den):
                num[k + i] -= c * d
    return q, _ref_trim(num)


def _ref_mul_poly(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _ref_trim(out)


def _ref_sub_poly(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] -= y
    return _ref_trim(out)


def _ref(order: int, coeffs) -> tuple:
    """The old constructor: Fractions reduced modulo Phi_order, padded to phi."""
    phi = euler_phi(order)
    cs = [Fraction(c) for c in coeffs]
    if len(cs) > phi:
        _, cs = _ref_divmod(cs, [Fraction(c) for c in cyclotomic_coeffs(order)])
    return tuple(cs + [Fraction(0)] * (phi - len(cs)))


def _ref_add(order, a, b):
    return _ref(order, [x + y for x, y in zip(a, b)])


def _ref_sub(order, a, b):
    return _ref(order, [x - y for x, y in zip(a, b)])


def _ref_mul(order, a, b):
    return _ref(order, _ref_mul_poly(list(a), list(b)))


def _ref_inv(order, a):
    r0, r1 = [Fraction(c) for c in cyclotomic_coeffs(order)], _ref_trim(list(a))
    s0, s1 = [], [Fraction(1)]
    while len(r1) > 1:
        q, r = _ref_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _ref_sub_poly(s0, _ref_mul_poly(q, s1))
    return _ref(order, [c / r1[0] for c in s1])


def _ref_promote(order, a, new_order):
    step = new_order // order
    out = [Fraction(0)] * ((len(a) - 1) * step + 1)
    out[::step] = a
    return _ref(new_order, out)


def _ref_galois(order, a, j):
    out = [0] * order
    for k, c in enumerate(a):
        out[j * k % order] = c
    return _ref(order, out)


def _ref_pow(order, a, n):
    out = _ref(order, [1])
    for _ in range(n):
        out = _ref_mul(order, out, a)
    return out


fracs_with_dens = st.fractions(min_value=-9, max_value=9, max_denominator=12)


def raw_coeffs(order: int):
    """Dense coefficient lists, some longer than phi(order) so that they reduce."""
    return st.lists(fracs_with_dens, min_size=euler_phi(order), max_size=order + 2)


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_arithmetic_matches_the_fraction_reference(data):
    order = data.draw(st.integers(min_value=1, max_value=30))
    ca, cb = data.draw(raw_coeffs(order)), data.draw(raw_coeffs(order))
    a, b, ra, rb = Scalar(order, ca), Scalar(order, cb), _ref(order, ca), _ref(order, cb)
    assert a.coeffs == ra and b.coeffs == rb
    assert (a + b).coeffs == _ref_add(order, ra, rb)
    assert (a - b).coeffs == _ref_sub(order, ra, rb)
    assert (a * b).coeffs == _ref_mul(order, ra, rb)
    assert (-a).coeffs == _ref_sub(order, _ref(order, []), ra)
    assert (a == b) == (ra == rb)
    if any(rb):
        rinv = _ref_inv(order, rb)
        assert b.inv().coeffs == rinv
        assert (a / b).coeffs == _ref_mul(order, ra, rinv)
        assert (b ** -2).coeffs == _ref_mul(order, rinv, rinv)
    assert (a ** 3).coeffs == _ref_pow(order, ra, 3)
    j = data.draw(st.sampled_from([j for j in range(1, order + 1) if math.gcd(j, order) == 1]))
    assert a.galois(j).coeffs == _ref_galois(order, ra, j)
    big = order * data.draw(st.integers(min_value=2, max_value=3))
    up = a.promote(big)
    assert up.coeffs == _ref_promote(order, ra, big)
    assert up == a and hash(up) == hash(a)
    assert (up == b) == (ra == rb) and (up + b).coeffs == _ref_promote(order, _ref_add(order, ra, rb), big)


def test_dense_inverse_in_q_zeta_64():
    x = Scalar(64, [Fraction((-1) ** k * (k + 1), k % 5 + 1) for k in range(32)])
    assert (x * x.inv()).is_one()
    assert (x.inv() * x) == Scalar(64, [1])


def _assert_canonical(x: Scalar):
    assert len(x._nums) == euler_phi(x.order)
    assert x._den > 0 and math.gcd(x._den, *x._nums) == 1


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_every_result_is_in_canonical_form(data):
    order = data.draw(st.integers(min_value=1, max_value=30))
    other = data.draw(st.sampled_from([d for d in range(1, order + 1) if order % d == 0]))
    a = Scalar(order, data.draw(raw_coeffs(order)))
    b = Scalar(other, data.draw(raw_coeffs(other)))
    q = data.draw(fracs_with_dens)
    results = [a, b, a + b, a - b, b - a, a * b, -a, a + q, q - a, a * q, a.promote(2 * order),
               a.zero_like(), a.one_like(), Scalar.zeta(order), Scalar.from_rational(q, order),
               a.galois(order - 1 if order > 1 else 1), a ** 2]
    if not b.is_zero():
        results += [b.inv(), a / b, q / b, b ** -3]
    for x in results:
        _assert_canonical(x)


def test_order_2_zero_is_the_canonical_zero():
    # 1/2 + (1/2) zeta_2 = 0: the constructor must reduce before it normalizes
    z = Scalar(2, ["1/2", "1/2"])
    empty = Scalar(2, [])
    assert z == empty and z.is_zero()
    assert (z.order, z._nums, z._den) == (empty.order, empty._nums, empty._den) == (2, (0,), 1)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_terms_are_the_reduced_nonzero_coefficients(data):
    order = data.draw(st.sampled_from([1, 3, 8, 12]))
    x = Scalar(order, data.draw(raw_coeffs(order)))
    expected = [(k, c.numerator, c.denominator) for k, c in enumerate(x.coeffs) if c]
    assert list(x.terms()) == expected
    assert all(math.gcd(num, den) == 1 and den > 0 for _, num, den in x.terms())


# a rational factor scales the integer vector; the general path promotes both
# factors to one field and convolves their coefficient vectors modulo Phi_N


def _convolution_product(a, b):
    if not isinstance(b, Scalar):
        b = Scalar.from_rational(b, a.order)
    a, b = Scalar.pair(a, b)
    out = [Fraction(0)] * (2 * euler_phi(a.order) - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] += x * y
    return Scalar(a.order, out)


_SCALING_ORDERS = st.sampled_from([1, 3, 4, 8, 12])


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_rational_scaling_matches_the_convolution(data):
    s = Scalar(data.draw(_SCALING_ORDERS), data.draw(st.lists(fracs_with_dens, max_size=5)))
    n = data.draw(st.integers(-40, 40))
    q = data.draw(fracs_with_dens)
    r = Scalar.from_rational(data.draw(fracs_with_dens), data.draw(_SCALING_ORDERS))
    cases = [(s * n, s, n), (n * s, s, n), (s * q, s, q), (q * s, s, q),
             (s * r, s, r), (r * s, r, s)]
    for got, x, y in cases:
        want = _convolution_product(x, y)
        assert jsonio.encode(got) == jsonio.encode(want) and got.order == want.order
        _assert_canonical(got)


# the same-field lane of +, - and == against the general path: promote both
# operands to the lcm of their orders (an int or a Fraction to the field of
# the Scalar), then add or compare the coefficient lists


def _general_sum(a, b, sign):
    if not isinstance(b, Scalar):
        b = Scalar.from_rational(b, a.order)
    a, b = Scalar.pair(a, b)
    return Scalar(a.order, [x + sign * y for x, y in zip(a.coeffs, b.coeffs)])


def _general_eq(a, b):
    if not isinstance(b, Scalar):
        b = Scalar.from_rational(b, a.order)
    a, b = Scalar.pair(a, b)
    return a.coeffs == b.coeffs


_LANE_ORDERS = st.sampled_from([1, 2, 3, 4, 8, 12])


def _lane_scalar(order: int):
    """Scalars of one order, the zero among them often."""
    return st.one_of(st.just([]), st.lists(fracs_with_dens, max_size=euler_phi(order))).map(
        lambda cs: Scalar(order, cs))


def _seen(x: Scalar) -> tuple:
    return x.order, x.coeffs, repr(x), hash(x)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_same_field_lane_matches_the_general_path(data):
    order = data.draw(_LANE_ORDERS)
    other = order if data.draw(st.booleans()) else data.draw(_LANE_ORDERS)
    a, b = data.draw(_lane_scalar(order)), data.draw(_lane_scalar(other))
    k = data.draw(st.integers(-40, 40))
    q = data.draw(fracs_with_dens)
    cases = [(a + b, _general_sum(a, b, 1)), (b + a, _general_sum(b, a, 1)),
             (a - b, _general_sum(a, b, -1)), (b - a, _general_sum(b, a, -1)),
             (a * b, _convolution_product(a, b)), (b * a, _convolution_product(b, a)),
             (a + k, _general_sum(a, k, 1)), (k - a, -_general_sum(a, k, -1)),
             (a * k, _convolution_product(a, k)), (k * a, _convolution_product(a, k)),
             (a * q, _convolution_product(a, q)), (q * a, _convolution_product(a, q))]
    for got, want in cases:
        assert _seen(got) == _seen(want)
        _assert_canonical(got)
    for x, y in ((a, b), (b, a), (a, a), (a, k), (a, q)):
        assert (x == y) == _general_eq(x, y)


# the integer maps of the series layer against the Scalar arithmetic they replace


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_combination_and_scaled_match_scalar_arithmetic(data):
    terms, want = [], None
    for _ in range(data.draw(st.integers(1, 3))):
        k = data.draw(st.integers(-9, 9))
        x = data.draw(_LANE_ORDERS.flatmap(_lane_scalar))
        y = data.draw(st.one_of(st.none(), _LANE_ORDERS.flatmap(_lane_scalar)))
        term = x * k if y is None else x * y * k
        want = term if want is None else want + term
        terms.append((k, x, y))
    den = data.draw(st.integers(1, 6)) * data.draw(st.sampled_from([1, -1]))
    assert _seen(combination(terms, den)) == _seen(want * Fraction(1, den))
    k, x = terms[0][:2]
    assert _seen(scaled(x, k, den)) == _seen(x * Fraction(k, den))
    assert _seen(scaled(x, k)) == _seen(x * k)
