import random

import pytest

from ppv.errors import SplitFieldError
from ppv.ore import OrePoly
from ppv.partial_fractions import (
    decompose,
    has_antiderivative,
    linear_roots,
    logarithmic_part,
    reassemble,
)
from ppv.rationals import f_const, k_const, t_var, x_var
from ppv.scalars import Scalar


def test_decompose_simple_poles():
    x = x_var()
    g = (x + 1) / (x * (x - 1))
    d = decompose(g)
    got = {(str(p), str(c)) for p, c in logarithmic_part(d)}
    assert got == {("0", "-1"), ("1", "2")}
    assert reassemble(d) == g


def test_decompose_double_pole():
    x = x_var()
    d = decompose(1 / ((x - 1) * (x - 1)))
    assert len(d.terms) == 1
    term = d.terms[0]
    assert term.mult == 2 and term.coeff.is_one()
    assert not logarithmic_part(d)


def test_decompose_polynomial():
    x = x_var()
    d = decompose(x * x)
    assert not d.terms
    assert d.poly_part.degree() == 2


def test_decompose_with_parameter_residue():
    t, x = t_var(), x_var()
    g = 1 / (x - 1) + f_const(t) / (x - 2)
    d = decompose(g)
    got = {(str(p), str(c)) for p, c in logarithmic_part(d)}
    assert got == {("1", "1"), ("2", "t")}
    assert reassemble(d) == g


def test_mixed_multiplicities():
    x = x_var()
    g = (x**2 + 3) / ((x - 1) ** 3 * (x + 2))
    d = decompose(g)
    assert reassemble(d) == g
    mults = sorted(t.mult for t in d.terms)
    assert mults[-1] == 3


def test_cyclotomic_poles():
    x4 = x_var(4)
    g = 1 / (x4 * x4 + 1)
    d = decompose(g)
    assert reassemble(d) == g
    poles = {str(t.pole) for t in d.terms}
    assert poles == {"zeta(4)", "-zeta(4)"}


def test_zero_pole_beside_cyclotomic_pole():
    # x = 0 and zeta_8 in one square-free factor, whose constant coefficient is 0
    x = x_var()
    g = 1 / (x * (x - f_const(Scalar.zeta(8))))
    d = decompose(g)
    assert {str(t.pole) for t in d.terms} == {"0", "zeta(8)"}
    assert reassemble(d) == g


def test_pole_at_t():
    t, x = t_var(), x_var()
    g = 1 / (x - f_const(t))
    d = decompose(g)
    assert d.terms[0].pole == t
    assert reassemble(d) == g


def test_nonsplit_errors():
    t, x = t_var(), x_var()
    with pytest.raises(SplitFieldError):
        decompose(1 / (x * x - 2))
    with pytest.raises(SplitFieldError):
        decompose(1 / (x * x - f_const(t)))


def test_linear_roots_multiplicity():
    x = x_var()
    den = ((x - 1) ** 2 * (x + 3)).num
    roots = dict((str(r), m) for r, m in linear_roots(den))
    assert roots == {"1": 2, "-3": 1}


def test_antiderivative_examples():
    x = x_var()
    assert has_antiderivative(1 / ((x - 1) * (x - 1)))
    assert not has_antiderivative(1 / (x - 1))


def _random_xrat(rng):
    t, x = t_var(), x_var()
    poles = rng.sample([-2, -1, 1, 2, 3], k=rng.randint(1, 3))
    num_deg = rng.randint(0, 2)
    num = f_const(0)
    for k in range(num_deg + 1):
        c = rng.randint(-3, 3)
        if c:
            num = num + f_const(k_const(c) * t ** rng.randint(0, 1)) * x**k
    if num.is_zero():
        num = f_const(1)
    den = f_const(1)
    for p in poles:
        den = den * (x - p) ** rng.randint(1, 2)
    return num / den


def test_derivatives_have_antiderivatives():
    # dx of anything in K(x) has vanishing logarithmic part
    rng = random.Random(77)
    for _ in range(50):
        f = _random_xrat(rng)
        assert has_antiderivative(f.dx())


def test_dt_compatibility_of_log_part():
    # for dt-constant poles, the log part of dt(g) is the dt of the residues
    rng = random.Random(78)
    for _ in range(25):
        g = _random_xrat(rng)
        base = {str(p): c for p, c in logarithmic_part(decompose(g))}
        moved = {str(p): c for p, c in logarithmic_part(decompose(g.dt()))}
        for pole, c in base.items():
            got = moved.get(pole, c.zero_like())
            assert got == c.dt(), pole
        for pole in moved:
            assert pole in base


def test_operator_pushes_through_log_part():
    # residues of l(g) are l applied to the residues, poles staying put
    rng = random.Random(79)
    t = t_var()
    one = k_const(1)
    ops = [OrePoly([one, t]), OrePoly.dt_power(2, one), OrePoly([t**2, one / t])]
    for _ in range(10):
        g = _random_xrat(rng)
        base = {str(p): c for p, c in logarithmic_part(decompose(g))}
        for l in ops:
            lg = l.apply(g)
            moved = {str(p): c for p, c in logarithmic_part(decompose(lg))}
            for pole, c in base.items():
                got = moved.get(pole, c.zero_like())
                assert got == l.apply(c)


def test_uniqueness_round_trip():
    rng = random.Random(80)
    for _ in range(20):
        g = _random_xrat(rng)
        assert reassemble(decompose(g)) == g


def test_uniqueness_on_decompositions():
    # decompose(reassemble(d)) returns the same terms (as a set)
    from ppv.partial_fractions import PFDecomp, PFTerm
    from ppv.rationals import Poly

    t = t_var()
    poly_part = (f_const(2) * x_var() + 1).num
    terms = (
        PFTerm(k_const(1), 2, k_const(3)),
        PFTerm(k_const(1), 1, t),
        PFTerm(k_const(-2), 1, k_const(5)),
    )
    d = PFDecomp(poly_part, terms)
    back = decompose(reassemble(d))
    assert back.poly_part == poly_part
    assert set(back.terms) == set(terms)


def test_round_trip_gcd_count(monkeypatch):
    # a count, not a time, so it cannot flake: the sums of reassemble
    # test only their denominators for coprimality (Henrici); reducing
    # every sum by a full gcd took 2021 Poly.gcd calls here
    from ppv.rationals import Poly

    x = x_var()
    den = f_const(1)
    for c in range(-4, 4):
        den = den * (x + c)
    g = (x**7 + 3 * x + 1) / den
    calls = []
    gcd = Poly.gcd

    def counted(a, b):
        calls.append(None)
        return gcd(a, b)

    monkeypatch.setattr(Poly, "gcd", counted)
    assert reassemble(decompose(g)) == g
    assert len(calls) <= 100
