import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ppv import jsonio, scalars
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
        TruncLaurent("t", {}, 5).inv()


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
    assert t_elem.dx() == TwoVarLaurent.zero(q)


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
    lo = TwoVarLaurent(q, {n: f.truncate(8) for n, f in hi.coeffs.items()}, 8)
    lo2 = (lo * lo).dt0(2)
    hi2 = (hi * hi).dt0(2)
    lo2.agree(hi2, *certified_window(lo2, lo2, 8))


def test_constants_kernel_is_inner_constant():
    # within the window, dx kills exactly the elements of k((t))
    q = rational(1)
    const_elem = TwoVarLaurent(
        q, {n: w_mono(n + 1, 0) for n in range(-2, 6)}, 6
    )
    zero = TwoVarLaurent.zero(q)
    assert const_elem.dx().agree(zero, 4, 4) == 0
    non_const = const_elem + TwoVarLaurent(q, {2: w_mono(1, 3)}, 6)
    with pytest.raises(AssertionError):
        non_const.dx().agree(zero, 4, 4)


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
        g = f * f.inv(cap=7)
        one = TwoVarLaurent(q, {0: w_mono(1, 0)})
        g.agree(one, *certified_window(g, one, 6))
        done += 1


# kernel semantics shared by both series types


def test_two_var_exact_several_t_orders_needs_cap():
    q = rational(0)
    a = TwoVarLaurent(q, {0: w_mono(1, 0), 1: w_mono(1, 0)})
    with pytest.raises(ValueError):
        a.inv()
    assert a.inv(cap=6).trunc == 6


def test_monomial_cap_two_var_applies_trunc_laurent_ignores():
    q = rational(0)
    two_var = TwoVarLaurent(q, {1: w_mono(2, 0)}, 10)
    inv = two_var.inv(cap=4)
    assert inv.trunc == 4
    assert inv.coeffs == {-1: w_mono(Fraction(1, 2), 0)}
    assert TwoVarLaurent(q, {1: w_mono(2, 0)}).inv(cap=4).trunc == 4
    one_var = TruncLaurent("t", {1: rational(2)}, 10)
    assert one_var.inv(cap=4).trunc == 8
    assert TruncLaurent("t", {1: rational(2)}).inv(cap=4).trunc == INF


def test_zero_so_far_inner_coefficient_keeps_validity():
    q = rational(1)
    a = TwoVarLaurent(q, {0: w_mono(1, 0), 2: TruncLaurent("w", {}, 3)}, 10)
    one = TwoVarLaurent(q, {0: w_mono(1, 0)})
    for res in (a + one, a * one, one * a):
        assert res.coeffs[2] == TruncLaurent("w", {}, 3)
        assert res.inner_validity() == 3


_ZERO_SO_FAR_LEAD = """
from ppv.errors import NonInvertibleLeadingTerm
from ppv.scalars import rational
from ppv.series import TruncLaurent, TwoVarLaurent

s = TwoVarLaurent(rational(0), {-1: TruncLaurent("w", {}, 3),
                                0: TruncLaurent("w", {0: rational(1)}, 5),
                                1: TruncLaurent("w", {0: rational(2)}, 5)}, 4)
try:
    s.inv(cap=6)
except NonInvertibleLeadingTerm:
    print("refused")
"""


def test_inverse_refuses_a_zero_so_far_lowest_order():
    # run apart, so that an expansion that never ends fails the test
    # instead of holding the suite
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    try:
        done = subprocess.run([sys.executable, "-c", _ZERO_SO_FAR_LEAD], env=env,
                              capture_output=True, text=True, timeout=20)
    except subprocess.TimeoutExpired:
        pytest.fail("inv of a series with a zero-so-far lowest t-order did not return")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "refused"


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
        _assert_matches(a2.inv(cap=cap), a1.inv(cap=cap))


# dt0 as a coefficient map against the earlier z-product form of the formula


def _dt0_reference(s, e):
    """sum ((n/e) f_n - (z/e) f_n') t^(n-e) by series arithmetic, z = w + q."""
    z_inner = {1: s._one_scalar()}
    if not s.q.is_zero():
        z_inner[0] = s.q
    z = TruncLaurent("w", z_inner)
    out = {}
    for n, f in s.coeffs.items():
        scaled = TruncLaurent.zero("w") if n == 0 else f.scale(Fraction(n, e))
        out[n - e] = scaled - (z * f.deriv()).scale(Fraction(1, e))
    return TwoVarLaurent(s.q, out, s.trunc - e)


_DT0_POINTS = {
    "zero": rational(0),
    "rational": rational(Fraction(-3, 2)),
    "zeta3": Scalar.zeta(3) + 2,
}


@settings(max_examples=120, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(sorted(_DT0_POINTS)),
    st.integers(1, 4),
    st.sets(st.integers(-2, 7), max_size=4),
    st.dictionaries(st.integers(-2, 7), st.integers(2, 9), max_size=3),
    st.booleans(),
)
def test_dt0_coefficient_map_matches_z_product(seed, point, e, exact_at, zero_at, exact_outer):
    q = _DT0_POINTS[point]
    f = random_two_var(random.Random(seed), q, 8, 8)
    coeffs = dict(f.coeffs)
    for n in exact_at & set(coeffs):
        coeffs[n] = TruncLaurent("w", coeffs[n].coeffs)  # exact inner series
    for n, trunc in zero_at.items():
        coeffs[n] = TruncLaurent("w", {}, trunc)  # stored zero so far
    f = TwoVarLaurent(q, coeffs, INF if exact_outer else f.trunc)
    got, want = f.dt0(e), _dt0_reference(f, e)
    # the encodings compare each scalar's field order and every inner trunc
    assert json.dumps(jsonio.encode(got)) == json.dumps(jsonio.encode(want))


def test_dt0_of_mixed_field_series_equals_reference():
    # the reference writes the w coefficient -3 in Q(zeta_8), the field of
    # the first stored coefficient; the map writes it in Q, its own field
    f = TwoVarLaurent(rational(0), {0: TruncLaurent("w", {3: Scalar.zeta(8), 1: rational(3)})})
    got = f.dt0(1)
    assert got == _dt0_reference(f, 1)
    assert got.coeffs[-1].coeffs[1] == rational(-3)



def _dt0_two_pass(s, e):
    """The map dt0 replaced: (n - j)/e f_(n,j) first, then the q term added in.

    Each output sits in the field its Scalar products and sums give it: the
    lcm of the orders of the coefficients it reads, and of q's when it reads
    f_(n,j+1).
    """
    q = s.q
    lost = 0 if q.is_zero() else 1
    out = {}
    for n, f in s.coeffs.items():
        inner = {j: c * Fraction(n - j, e) for j, c in f.coeffs.items() if j != n}
        if lost:
            for k, c in f.coeffs.items():
                if k:
                    term = q * c * Fraction(-k, e)
                    inner[k - 1] = inner[k - 1] + term if k - 1 in inner else term
        out[n - e] = TruncLaurent("w", inner, f.trunc - lost)
    return TwoVarLaurent(q, out, s.trunc - e)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(sorted(_DT0_POINTS)), st.integers(1, 4))
def test_dt0_writes_each_output_in_the_field_of_what_it_reads(seed, point, e):
    q = _DT0_POINTS[point]
    rng = random.Random(seed)
    f = random_two_var(rng, q, 8, 8)
    # each coefficient moves to a field of 1, 2 or 4 times its order, so a
    # rational value may sit in a larger field and neighbours differ in field
    f = TwoVarLaurent(q, {n: TruncLaurent("w", {j: c.promote(c.order * rng.choice([1, 2, 4]))
                                                for j, c in g.coeffs.items()}, g.trunc)
                          for n, g in f.coeffs.items()}, f.trunc)
    assert json.dumps(jsonio.encode(f.dt0(e))) == json.dumps(jsonio.encode(_dt0_two_pass(f, e)))


def _dt0_positions(f) -> int:
    """The w-orders dt0 computes at a point q != 0: j != n read off f_(n,j), k - 1 off f_(n,k)."""
    return sum(len({j for j in g.coeffs if j != n} | {k - 1 for k in g.coeffs if k})
               for n, g in f.coeffs.items())


def test_dt0_builds_one_scalar_per_output_position(monkeypatch):
    # the two-pass map built 55 Scalars for these 28 positions
    f = random_two_var(random.Random(3), Scalar.zeta(3) + 1, 8, 8)
    built = []
    build = scalars._scalar

    def counted(*args):
        built.append(args[0])
        return build(*args)

    monkeypatch.setattr(scalars, "_scalar", counted)
    got = f.dt0(1)
    monkeypatch.undo()
    assert 0 < len(built) <= _dt0_positions(f) == 28
    assert json.dumps(jsonio.encode(got)) == json.dumps(jsonio.encode(_dt0_two_pass(f, 1)))


def _random_two_var_reference(rng, q, outer_trunc, inner_trunc, val_range=(-2, 1)):
    """The sampler as it was, each coefficient built as Scalar(order, [Fraction])."""
    lo = rng.randint(*val_range)
    coeffs = {}
    for n in range(lo, outer_trunc):
        if rng.random() < 0.6:
            inner_lo = rng.randint(*val_range)
            inner = {}
            for m in range(inner_lo, inner_trunc):
                if rng.random() < 0.5:
                    num = rng.randint(-4, 4)
                    if num:
                        inner[m] = Scalar(q.order, [Fraction(num, rng.randint(1, 3))])
            coeffs[n] = TruncLaurent("w", inner, inner_trunc)
    return TwoVarLaurent(q, coeffs, outer_trunc)


def test_random_two_var_draws_as_the_fraction_reference():
    points = [rational(1), Scalar.zeta(3) + 1, Scalar.zeta(8)]
    for seed in range(50):
        q = points[seed % 3]
        rng, ref_rng = random.Random(seed), random.Random(seed)
        got, want = random_two_var(rng, q, 8, 8), _random_two_var_reference(ref_rng, q, 8, 8)
        # the encodings compare each coefficient, its field order and every truncation
        assert json.dumps(jsonio.encode(got)) == json.dumps(jsonio.encode(want))
        assert rng.random() == ref_rng.random()

# a coefficient that is not stored is the zero: the window comparison against
# the zero-sample comparison it replaced, which read a missing coefficient as
# a zero in the field of a stored sample and compared by subtraction


def _zero_sample(a, b):
    for s in (a, b):
        for c in s.coeffs.values():
            return c.zero_like()
    return Scalar(1, [])


def _trunc_agree_reference(a, b, upto):
    if a.var != b.var:
        raise CoefficientFieldMismatch("series variables differ")
    if a.trunc <= upto or b.trunc <= upto:
        raise TruncationExhausted("window beyond validity")
    zero = _zero_sample(a, b)
    count = 0
    for n in sorted(set(a.coeffs) | set(b.coeffs)):
        if n <= upto:
            if not (a.coeffs.get(n, zero) - b.coeffs.get(n, zero)).is_zero():
                raise AssertionError("series differ at order %d" % n)
            count += 1
    return count


def _two_var_agree_reference(a, b, outer, inner):
    if a.trunc <= outer or b.trunc <= outer:
        raise TruncationExhausted("window beyond validity")
    zero = TruncLaurent.zero("w")
    return sum(max(_trunc_agree_reference(a.coeffs.get(n, zero), b.coeffs.get(n, zero), inner), 1)
               for n in sorted(set(a.coeffs) | set(b.coeffs)) if n <= outer)


def _outcome(call):
    try:
        return call()
    except (AssertionError, TruncationExhausted) as exc:
        return type(exc)


_ZETA8 = Scalar.zeta(8)


def _map_scalars(s, f):
    return TwoVarLaurent(s.q, {n: TruncLaurent("w", {j: f(c) for j, c in g.coeffs.items()}, g.trunc)
                               for n, g in s.coeffs.items()}, s.trunc)


def _in_q_zeta8(c):
    """c written in Q(zeta_8): the same value in another field."""
    return Scalar(8, list(c.coeffs)) if c.order == 1 else c


def _edit(s, edit, rng):
    coeffs = {n: dict(f.coeffs) for n, f in s.coeffs.items()}
    stored = [(n, j) for n, inner in sorted(coeffs.items()) for j in sorted(inner)]
    if edit in ("change", "drop") and stored:
        n, j = rng.choice(stored)
        if edit == "change":
            coeffs[n][j] = coeffs[n][j] + rng.choice([1, _ZETA8])
        else:
            del coeffs[n][j]
    out = {n: TruncLaurent("w", inner, s.coeffs[n].trunc) for n, inner in coeffs.items()}
    if edit == "drop_inner" and out:
        del out[rng.choice(sorted(out))]
    if edit == "zero_so_far":
        out[rng.randint(-2, 8)] = TruncLaurent("w", {}, rng.randint(1, 9))
    return TwoVarLaurent(s.q, out, s.trunc)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.booleans(),
    st.sampled_from(["equal", "change", "drop", "drop_inner", "zero_so_far"]),
    st.integers(-3, 9),
    st.integers(-3, 9),
)
def test_agree_matches_the_zero_sample_reference(seed, mixed, edit, outer, inner):
    rng = random.Random(seed)
    a = random_two_var(rng, rational(1), rng.choice([6, 9]), rng.choice([6, 9]))
    if mixed:
        # Q and Q(zeta_8) coefficients; b writes some rational ones in Q(zeta_8)
        a = _map_scalars(a, lambda c: rng.choice([c, c * _ZETA8, _in_q_zeta8(c)]))
    b = _map_scalars(a, lambda c: _in_q_zeta8(c) if mixed and rng.random() < 0.5 else c)
    b = _edit(b, edit, rng)
    if rng.random() < 0.5:
        a, b = b, a
    assert (_outcome(lambda: a.agree(b, outer, inner))
            == _outcome(lambda: _two_var_agree_reference(a, b, outer, inner)))
    zero = TruncLaurent.zero("w")
    for n in set(a.coeffs) | set(b.coeffs):
        x, y = a.coeffs.get(n, zero), b.coeffs.get(n, zero)
        assert (_outcome(lambda: x.agree(y, inner))
                == _outcome(lambda: _trunc_agree_reference(x, y, inner)))


def _assert_stores_no_zero(s):
    if isinstance(s, TruncLaurent):
        assert not any(c.is_zero() for c in s.coeffs.values())
        return
    for f in s.coeffs.values():
        assert not f.is_exact_zero()
        _assert_stores_no_zero(f)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans(), st.integers(1, 3))
def test_results_store_no_zero(seed, mixed, e):
    rng = random.Random(seed)
    q = rng.choice([rational(0), rational(2)])
    a, b = (random_two_var(rng, q, 8, 8) for _ in range(2))
    if mixed:
        a = _map_scalars(a, lambda c: rng.choice([c, c * _ZETA8, _in_q_zeta8(c)]))
    # exact inner series cancel to the exact zero, which is not stored
    exact = TwoVarLaurent(q, {n: TruncLaurent("w", f.coeffs) for n, f in a.coeffs.items()})
    for s in (a + b, a - b, a - a, exact - exact, a * b, a * a - a * a, a.dx(), a.dt0(e),
              exact.dt0(e)):
        _assert_stores_no_zero(s)
    for f in a.coeffs.values():
        g = rng.choice(list(b.coeffs.values()) or [f])
        for s in (f + g, f - f, f * g, f * f - f * f, f.deriv(), f.dt0(e)):
            _assert_stores_no_zero(s)


# the product against the nested form it replaced: each pair of inner
# series multiplied to a series of its own, and the pair products summed as
# series, each sum dropping what cancels and what lies past its truncation


def _nested_product(a, b):
    trunc = min(a.trunc if a.trunc == INF else a.trunc + b.valuation(),
                b.trunc if b.trunc == INF else b.trunc + a.valuation())
    out = {}
    for i, x in a.coeffs.items():
        for j, y in b.coeffs.items():
            if i + j >= trunc:
                continue
            prod = x * y if isinstance(x, Scalar) else _nested_product(x, y)
            cur = out.get(i + j)
            out[i + j] = prod if cur is None else cur + prod
    return a._new(out, trunc)


# few values in Q, Q(zeta_3) and Q(zeta_8), so sums cancel often and mix fields
_MIXED = st.sampled_from([
    rational(1), rational(-1), rational(Fraction(-3, 2)), Scalar.from_rational(1, 8),
    Scalar.zeta(3), -Scalar.zeta(3), Scalar.zeta(8), -Scalar.zeta(8),
])
_SERIES_TRUNCS = st.sampled_from([INF, INF, -1, 0, 1, 3])


# few exponents, so that several pair products meet at one order
_EXPONENTS = st.integers(-2, 2)


@st.composite
def _inner_series(draw):
    coeffs = draw(st.dictionaries(_EXPONENTS, _MIXED, max_size=4))
    return TruncLaurent("w", coeffs, draw(_SERIES_TRUNCS))  # may be zero so far


@st.composite
def _outer_series(draw):
    coeffs = draw(st.dictionaries(_EXPONENTS, _inner_series(), max_size=4))
    return TwoVarLaurent(rational(2), coeffs, draw(_SERIES_TRUNCS))


def _layout(s):
    """The stored exponents in storage order, at both levels."""
    return [(n, list(f.coeffs)) for n, f in s.coeffs.items()]


@settings(max_examples=400, deadline=None)
@given(_outer_series(), _outer_series())
def test_product_matches_the_nested_reference(a, b):
    got, want = a * b, _nested_product(a, b)
    # the encodings compare each scalar's field order and every inner trunc
    assert json.dumps(jsonio.encode(got)) == json.dumps(jsonio.encode(want))
    assert _layout(got) == _layout(want)
    for x in a.coeffs.values():
        for y in b.coeffs.values():
            assert json.dumps(jsonio.encode(x * y)) == json.dumps(jsonio.encode(_nested_product(x, y)))


def test_product_that_cancels_drops_the_exact_zero_and_keeps_a_zero_so_far():
    def series(sign, inner_trunc):  # 1 + sign * t w, each inner series known below w^inner_trunc
        return TwoVarLaurent(rational(2), {0: TruncLaurent("w", {0: rational(1)}, inner_trunc),
                                           1: TruncLaurent("w", {1: rational(sign)}, inner_trunc)})

    exact = series(1, INF) * series(-1, INF)
    assert exact == TwoVarLaurent(rational(2), {0: w_mono(1, 0), 2: w_mono(-1, 2)})
    cut = series(1, 4) * series(-1, 4)
    # t w - t w is zero below w^4: stored, with nothing known past its truncation
    assert cut.coeffs[1] == TruncLaurent("w", {}, 4)
    assert cut.coeffs[2] == TruncLaurent("w", {2: rational(-1)}, 5)


def test_a_term_after_a_cancellation_keeps_its_own_field():
    # the old sum dropped each zero as it arose, so a later rational term is
    # written in Q, not in the field of the terms that cancelled before it
    def series(inner):
        return TwoVarLaurent(rational(2), {n: TruncLaurent("w", f) for n, f in inner.items()})

    z3, z8, one = Scalar.zeta(3), Scalar.zeta(8), rational(1)
    # t^2: zeta_3 from t^0 * t^2, then -zeta_3 from t^1 * t^1, then 1 from t^2 * t^0
    p = series({0: {0: one}, 1: {0: one}, 2: {0: one}}) * series({0: {0: one}, 1: {0: -z3}, 2: {0: z3}})
    assert p.coeffs[2] == TruncLaurent("w", {0: one}) and p.coeffs[2].coeffs[0].order == 1
    # t^0: (1 + w)(zeta_8 - zeta_8 w) has no w^1 term; then w^1 from t^-1 * t^1
    p = series({0: {0: one, 1: one}, -1: {0: one}}) * series({0: {0: z8, 1: -z8}, 1: {1: one}})
    assert list(p.coeffs[0].coeffs) == [0, 2, 1] and p.coeffs[0].coeffs[1].order == 1
    assert p == _nested_product(series({0: {0: one, 1: one}, -1: {0: one}}),
                                series({0: {0: z8, 1: -z8}, 1: {1: one}}))


def test_dense_product_builds_one_inner_series_per_t_order(monkeypatch):
    def dense(shift):
        return TwoVarLaurent(rational(2), {
            n: TruncLaurent("w", {j: rational(n + j + shift) or rational(1) for j in range(-1, 6)}, 6)
            for n in range(-1, 6)
        }, 6)

    a, b = dense(1), dense(2)
    want = _nested_product(a, b)
    built = []
    init = TruncLaurent.__init__

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(TruncLaurent, "__init__", counting_init)
    got = a * b
    assert got == want and sorted(got.coeffs) == list(range(-2, 5))
    assert len(built) <= len(got.coeffs)


# three kernels build their series without testing each coefficient for zero:
# the product's inner sums, the derivative and the twisted transport


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(sorted(_DT0_POINTS)))
def test_unscanned_series_equal_what_the_scanning_constructor_builds(seed, point):
    from ppv.descent import twist_table, twisted_transport

    rng = random.Random(seed)
    q = _DT0_POINTS[point]
    a, b = random_two_var(rng, q, 8, 8), random_two_var(rng, q, 8, 8)
    moved = twisted_transport(twist_table(Scalar.zeta(6), 6), 1, lambda c: c.galois(5), a, q)
    outputs = [*(a * b).coeffs.values(), *moved.coeffs.values(),
               *(f.deriv() for f in a.coeffs.values())]
    for f in outputs:
        scanned = TruncLaurent(f.var, f.coeffs, f.trunc)
        assert f.coeffs == scanned.coeffs
        assert json.dumps(jsonio.encode(f)) == json.dumps(jsonio.encode(scanned))
