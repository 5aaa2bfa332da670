import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ppv import jsonio, partial_fractions
from ppv.errors import SplitFieldError
from ppv.ore import OrePoly
from ppv.partial_fractions import (
    PFDecomp,
    PFTerm,
    _rational_roots,
    decompose,
    has_antiderivative,
    linear_roots,
    logarithmic_part,
    reassemble,
)
from ppv.parser import parse_xrat
from ppv.rationals import Poly, _orders, f_const, k_const, t_var, x_var
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


def test_squarefree_denominator_takes_no_gcd(monkeypatch):
    # one field: a certificate that p and p' are coprime replaces Yun's first gcd
    x = x_var()
    calls, gcd = [], Poly.gcd

    def counted(a, b):
        calls.append(None)
        return gcd(a, b)

    monkeypatch.setattr(Poly, "gcd", counted)
    roots = linear_roots(((x - 1) * (x + 3) * (2 * x - 1)).num)
    assert sorted(str(r) for r, _ in roots) == ["-3", "1", "1/2"] and {m for _, m in roots} == {1}
    assert calls == []
    linear_roots(((x - 1) ** 2 * (x + 3)).num)
    assert calls


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


def test_tpole_round_trip_gcd_count(monkeypatch):
    """A double pole at x = 2t + 1 beside two rational poles: 7 Poly.gcd calls.

    decompose makes 4: Yun's gcds over K[x] run a subresultant sequence over
    Q[t] and reduce only the monic gcd's coefficients (Euclid over K[x]
    reduced every coefficient of every remainder by a gcd in t: 31 calls in
    all).  reassemble makes 3, all over Q[t], one for each of the 3 nonzero
    numerator coefficients, whose denominators cancel; the lcm of the
    coefficients' denominators takes none, since a certificate proves them
    coprime (an exact gcd there made 8 in all).  It sums over the product
    denominator, so no partial sum is reduced; the running sum made 15 (19
    in all).
    """
    g = parse_xrat("(3*x^3 - 2*x + 1)/((x - (2*t + 1))^2*(x - 3)*(x + 1/2))")
    calls = []
    gcd = Poly.gcd

    def counted(a, b):
        calls.append(None)
        return gcd(a, b)

    monkeypatch.setattr(Poly, "gcd", counted)
    assert reassemble(decompose(g)) == g
    assert len(calls) == 7


# reassemble over the product denominator against the running sum.  In one
# field each value has one representation, so the two must encode alike.


@st.composite
def _one_field_decomps(draw):
    """A PFDecomp over Q(zeta_N)(t), every Scalar of order N: poles rational,
    zeta_N times a rational, a*t + b or 1/(t + c); multiplicities 1 to 3 with gaps,
    repeated poles and repeated (pole, mult), coefficients that may be zero."""
    n = draw(st.sampled_from((1, 3, 4, 8)))
    t, zeta = t_var(n), k_const(Scalar.zeta(n))
    small = st.integers(-2, 2)

    def k_elem():
        v = k_const(draw(small), n) + k_const(draw(small), n) * zeta + k_const(draw(small), n) * t
        return v / (t + draw(st.integers(0, 2))) if draw(st.booleans()) else v

    def pole():
        kind = draw(st.sampled_from(("rational", "zeta", "linear", "inverse")))
        r = k_const(Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 2))), n)
        if kind == "zeta":
            return r * zeta
        if kind == "linear":
            return k_const(draw(st.sampled_from((1, 2, -1))), n) * t + r
        return 1 / (t + draw(st.integers(0, 2))) if kind == "inverse" else r

    poles = [pole() for _ in range(draw(st.integers(0, 3)))]
    terms = [PFTerm(p, m, k_elem()) for p in poles
             for m in draw(st.lists(st.integers(1, 3), min_size=1, max_size=2))]
    part = Poly("x", [k_elem() for _ in range(draw(st.integers(0, 2)))], k_const(0, n))
    return PFDecomp(part, tuple(draw(st.permutations(terms))))


@settings(max_examples=40, deadline=None)
@given(_one_field_decomps())
def test_product_denominator_matches_the_running_sum(d):
    want = partial_fractions._running_sum(d)
    assert jsonio.encode(reassemble(d)) == jsonio.encode(want)
    try:
        back = decompose(want)
    except SplitFieldError:  # poles of one multiplicity beside a t-dependent one (defect f)
        return
    assert jsonio.encode(reassemble(back)) == jsonio.encode(partial_fractions._running_sum(back))
    assert reassemble(back) == want


def test_product_denominator_edge_cases():
    t, x = t_var(8), x_var(8)
    zero = Poly("x", [], k_const(0, 8))
    one = k_const(1, 8)
    cases = [
        PFDecomp(zero, ()),  # no terms, zero polynomial part
        PFDecomp((x + 1).num, ()),
        # a zero top coefficient: the terms share the factor x - 1
        PFDecomp(zero, (PFTerm(one, 2, k_const(0, 8)), PFTerm(one, 1, t))),
        # a gap at multiplicity 2, and (pole, mult) twice
        PFDecomp(zero, (PFTerm(t, 3, one), PFTerm(t, 1, t), PFTerm(t, 3, t + 1))),
        # a pole with a denominator in t
        PFDecomp(zero, (PFTerm(1 / (t + 1), 2, t), PFTerm(k_const(0, 8), 1, one / t))),
    ]
    for d in cases:
        assert jsonio.encode(reassemble(d)) == jsonio.encode(partial_fractions._running_sum(d))
    assert reassemble(cases[2]) == f_const(t) / (x - 1)


def test_mixed_orders_take_the_running_sum(monkeypatch):
    import hashlib
    import json

    from test_golden import GOLDEN

    mixed = decompose(parse_xrat("(x^2 - 3*x + 1)/((x + 2)*(x - 3*zeta(8)^3)^2)"))
    one_field = decompose(parse_xrat("(x + 1)/((x - 1)*(x - (2*t + 1))^2)"))
    def orders(d):
        return _orders(d.poly_part, *(v for t in d.terms for v in (t.pole, t.coeff)))

    assert orders(mixed) == {1, 8} and orders(one_field) == {1}
    calls = []
    loop = partial_fractions._running_sum
    monkeypatch.setattr(partial_fractions, "_running_sum", lambda d: calls.append(d) or loop(d))
    out = reassemble(mixed)
    assert calls == [mixed]
    text = json.dumps(jsonio.encode(out), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN["reassemble_zeta8_repeated_pole"]
    reassemble(one_field)
    assert calls == [mixed]


# sympy.apart over Q(t) as an independent oracle: planted poles, rational or
# a*t + b, of multiplicity 1 to 3.  A t-dependent pole never shares its
# multiplicity with another pole, where Yun's step would merge the two into
# one factor with non-constant coefficients (defect f, a SplitFieldError).


def _sympy_k(c, t):
    import sympy

    def poly(p):
        return sum((sympy.Rational(*a.as_fraction().as_integer_ratio()) * t**k
                    for k, a in enumerate(p.coeffs)), sympy.Integer(0))

    return poly(c.num) / poly(c.den)


def _planted_xrat(rng):
    """(g, its sympy expression) with planted poles and a numerator over Q[t]."""
    sympy = pytest.importorskip("sympy")
    ts, xs = sympy.symbols("t x")
    t, x = t_var(), x_var()
    mults = [1, 2, 3]
    rng.shuffle(mults)
    poles = []
    for m in mults[:rng.randint(0, 2)]:  # each t-pole alone in its multiplicity
        a, b = rng.choice((1, 2, -1, -2)), rng.randint(-3, 3)
        poles.append((f_const(k_const(a) * t + b), a * ts + b, m))
    rest = mults[len(poles):]
    for r in rng.sample([Fraction(-3), Fraction(-1, 2), Fraction(0), Fraction(1), Fraction(5, 2)],
                        rng.randint(1 if not poles else 0, 2)):
        poles.append((f_const(k_const(r)), sympy.Rational(r.numerator, r.denominator),
                      rng.choice(rest)))
    den, sden = f_const(1), sympy.Integer(1)
    for p, sp, m in poles:
        den, sden = den * (x - p) ** m, sden * (xs - sp) ** m
    num, snum = f_const(0), sympy.Integer(0)
    for k in range(sum(m for _, _, m in poles) + rng.randint(-1, 1)):
        a, b = rng.randint(-3, 3), rng.randint(-2, 2)
        num, snum = num + f_const(k_const(a) + k_const(b) * t) * x**k, snum + (a + b * ts) * xs**k
    return num / den, snum / sden


def test_decompose_matches_sympy_apart():
    sympy = pytest.importorskip("sympy")
    ts, xs = sympy.symbols("t x")
    rng = random.Random(25)
    for _ in range(16):
        g, expr = _planted_xrat(rng)
        d = decompose(g)
        assert reassemble(d) == g
        want, poly_part = {}, sympy.Integer(0)
        for term in sympy.Add.make_args(sympy.apart(expr, xs)):
            num, den = sympy.fraction(sympy.factor(term))
            if not den.has(xs):
                poly_part += term
                continue
            den = sympy.Poly(den, xs)
            m, lead = den.degree(), den.LC()
            pole = sympy.cancel(-den.coeff_monomial(xs ** (m - 1)) / (m * lead))
            assert sympy.expand(den.as_expr() - lead * (xs - pole) ** m) == 0
            key = (sympy.cancel(pole), m)
            want[key] = sympy.cancel(want.get(key, 0) + num / lead)
        got = {(sympy.cancel(_sympy_k(t.pole, ts)), t.mult): sympy.cancel(_sympy_k(t.coeff, ts))
               for t in d.terms}
        assert got == want, str(g)
        mine = sum((_sympy_k(c, ts) * xs**k for k, c in enumerate(d.poly_part.coeffs)),
                   sympy.Integer(0))
        assert sympy.cancel(mine - poly_part) == 0


# Rational roots.  The oracle is the divisor search that the p-adic search
# replaced: every p/q with p | a0 and q | lead, tried in a fixed order.


def _int_divisors(n):
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.extend({d, n // d})
        d += 1
    return sorted(out)


def _divisor_roots(coeffs):
    denlcm = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * denlcm) for c in coeffs]
    while ints and ints[-1] == 0:
        ints.pop()
    if len(ints) <= 1:
        return []
    shift = 0
    while ints[shift] == 0:
        shift += 1
    content = math.gcd(*ints)
    ints = [c // content for c in ints[shift:]]
    roots = [Fraction(0)] if shift else []
    for p in _int_divisors(ints[0]):
        for q in _int_divisors(ints[-1]):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if cand in roots:
                    continue
                acc = Fraction(0)
                for c in reversed(ints):
                    acc = acc * cand + c
                if acc == 0:
                    roots.append(cand)
    return roots


def _times(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _planted(rng):
    """A rational polynomial with planted, possibly repeated, rational roots."""
    f = [Fraction(rng.randint(1, 4), rng.randint(1, 3))]
    for _ in range(rng.randint(0, 5)):
        root = Fraction(rng.randint(-12, 12), rng.randint(1, 6))
        f = _times(f, [-root, Fraction(1)])
        if rng.random() < 0.3:
            f = _times(f, [-root, Fraction(1)])
    if rng.random() < 0.5:  # a factor without rational roots, or with few
        f = _times(f, [Fraction(rng.randint(-6, 6)) for _ in range(rng.randint(1, 3))] + [Fraction(1)])
    if rng.random() < 0.25:
        f = [Fraction(0)] * rng.randint(1, 2) + f
    return f


def test_rational_roots_equal_the_divisor_search():
    rng = random.Random(90)
    # roots r and -r, and equal numerators over different denominators
    fixed = [[Fraction(c) for c in f] for f in ([9, 0, -37, 0, 4], [0, -3, 2, 1], [-2, 1, 2, -1],
                                                  [6, -5, -6, 5], [-1, 0, 0, 0, 4])]
    for f in fixed + [_planted(rng) for _ in range(200)]:
        assert _rational_roots(f) == _divisor_roots(f), f


def _norm(coeffs, j):
    """The norm of f(zeta_8^j u) from Q(zeta_8) to Q, as _roots_in_field takes it."""
    zj = Scalar.zeta(8) ** j
    subst = [c * zj**k for k, c in enumerate(coeffs)]
    norm = Poly.constant("x", coeffs[0].one_like())
    for a in (1, 3, 5, 7):
        norm = norm * Poly("x", [c.galois(a) for c in subst])
    return [c.as_fraction() for c in norm.coeffs]


def test_rational_roots_match_sympy():
    sympy = pytest.importorskip("sympy")
    u = sympy.Symbol("u")
    rng = random.Random(91)
    cases = [_planted(rng) for _ in range(60)]
    # norms of (x - r)(x - s zeta_8^k): repeated factors are the rule there
    one, z = Scalar.from_rational(1, 8), Scalar.zeta(8)
    for _ in range(12):
        r, s, k = rng.randint(-3, 3), rng.randint(1, 3), rng.choice((1, 3, 5, 7))
        coeffs = (Poly("x", [-one * r, one]) * Poly("x", [-one * s * z**k, one])).coeffs
        cases.append(_norm(list(coeffs), rng.randrange(8)))
    for f in cases:
        expr = sum(sympy.Rational(c.numerator, c.denominator) * u**i for i, c in enumerate(f))
        want = sorted(Fraction(int(sympy.numer(r)), int(sympy.denom(r)))
                      for r in sympy.roots(sympy.Poly(expr, u), filter="Q"))
        assert sorted(_rational_roots(f)) == want, f


def test_degree_24_denominator_by_count(monkeypatch):
    # a divisor search took 22.6 s on this input (2-vCPU Xeon VM, Python
    # 3.11), over the 8550 divisors of a 55-bit constant; the p-adic search
    # evaluates modulo p^k a few hundred times
    calls = []
    evaluate = partial_fractions._eval_mod

    def counted(*args):
        calls.append(None)
        return evaluate(*args)

    monkeypatch.setattr(partial_fractions, "_eval_mod", counted)
    den = "*".join("(x - (%d))" % k for k in range(12, -12, -1))
    g = parse_xrat("(x^23 + 3*x + 1)/(%s)" % den)
    d = decompose(g)
    assert sorted(int(str(term.pole)) for term in d.terms) == list(range(-11, 13))
    assert reassemble(d) == g
    assert len(calls) <= 400
