import json
import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from ppv import jsonio
from ppv.descent import (
    DecompositionPart,
    GaloisDatum,
    GammaElement,
    act_on_point,
    find_free_orbits,
    root_subgroup_parts,
    run_criterion,
    sigma_map,
    standard_sl2_decomposition,
    transport_block,
    transport_orbit,
    twist_mutation_detected,
    twist_table,
    twisted_transport,
    unipotent_generator_part,
    verify_equivariance,
    verify_sigma_commutes,
)
from ppv.errors import PpvError, UnsupportedGroup, VerificationFailed
from ppv.groups import FiniteCyclic, GaSub, Generated, GeneratedPart, closure_of_additive, group_eq
from ppv.local_blocks import block_ga_closure
from ppv.matrices import mat
from ppv.ore import OrePoly
from ppv.parser import parse_k
from ppv.rationals import Poly, RatFunc, k_const, t_var
from ppv.scalars import Scalar, euler_phi, rational
from ppv.series import TruncLaurent, TwoVarLaurent, random_two_var


@pytest.fixture
def gd2():
    return GaloisDatum.ramified(2)


@pytest.fixture
def sigma(gd2):
    return next(g for g in gd2.elements if not g.is_identity())


def test_datum_structure(gd2):
    assert gd2.order() == 2 == euler_phi(gd2.field_order) // euler_phi(gd2.base_order) * gd2.e
    assert gd2.zeta_e == rational(-1)
    assert gd2.compose(gd2.elements[1], gd2.elements[1]).is_identity()


def test_datum_with_field_part():
    # k = Q(i) over Q with trivial ramification: conjugation only
    gd = GaloisDatum.build(1, field_order=4, generators=[(3, 0)])
    assert gd.order() == 2 == euler_phi(gd.field_order) // euler_phi(gd.base_order) * gd.e
    # mixed datum: e = 2 and conjugation
    gd_mixed = GaloisDatum.build(2, field_order=4, generators=[(3, 0)])
    assert gd_mixed.order() == 4 == (euler_phi(gd_mixed.field_order)
                                     // euler_phi(gd_mixed.base_order) * gd_mixed.e)


def test_group_law_closure(gd2):
    for a in gd2.elements:
        for b in gd2.elements:
            assert gd2.compose(a, b) in gd2.elements
            inv = gd2.inverse(a)
            assert gd2.compose(a, inv).is_identity()


_GROUP_LAW_DATA = {
    "ramified2": lambda: GaloisDatum.ramified(2),
    "ramified3": lambda: GaloisDatum.ramified(3),
    "conj_q_i": lambda: GaloisDatum.build(1, field_order=4, generators=[(3, 0)]),
    "e2_q_i": lambda: GaloisDatum.build(2, field_order=4, generators=[(3, 0)]),
    # e = 2 over an odd field: zeta_2 = -1 is rational, so every
    # automorphism fixes it and sigma o tau still sends t to -t
    "e2_odd_field_3": lambda: GaloisDatum.build(2, field_order=3, generators=[(2, 0)]),
    "e2_odd_field_5": lambda: GaloisDatum.build(2, field_order=5, generators=[(2, 0)]),
    "e4_zeta8": lambda: GaloisDatum.build(4, field_order=8, generators=[(3, 0)]),
}


@pytest.mark.parametrize("name", sorted(_GROUP_LAW_DATA))
def test_group_law_over_data(name):
    gd = _GROUP_LAW_DATA[name]()
    els, one = gd.elements, gd.identity()
    for a in els:
        assert gd.compose(a, one) == a == gd.compose(one, a)
        inv = gd.inverse(a)
        assert gd.compose(a, inv).is_identity() and gd.compose(inv, a).is_identity()
        for b in els:
            ab = gd.compose(a, b)
            assert ab in els
            for c in els:
                assert gd.compose(ab, c) == gd.compose(a, gd.compose(b, c))


def test_odd_field_e2_composition_keeps_the_twist():
    gd = GaloisDatum.build(2, field_order=3, generators=[(2, 0)])
    assert gd.compose(GammaElement(2, 0), GammaElement(1, 1)) == GammaElement(2, 1)
    assert gd.inverse(GammaElement(2, 1)) == GammaElement(2, 1)


# Reference: the group as a breadth-first closure of the generators under the
# composition law, and the inverse as a scan of the closed table.


def _ref_compose(a, b, e, n_field):
    r = a.aut % e if n_field % e == 0 else 1
    return GammaElement((a.aut * b.aut) % n_field if n_field > 1 else 1, (r * b.n + a.n) % e)


def _ref_closure(gens, n_field, e):
    seen = {GammaElement(1, 0)}
    frontier = list(seen | set(gens))
    while frontier:
        new = []
        for a in frontier:
            for b in list(seen) + gens:
                c = _ref_compose(a, b, e, n_field)
                if c not in seen:
                    seen.add(c)
                    new.append(c)
        frontier = new
    return tuple(sorted(seen, key=lambda g: (g.aut, g.n)))


def _ref_elements(e, n_field, generators):
    gens = [GammaElement(1, 0)]
    gens += [GammaElement(a % n_field if n_field > 1 else 1, n % e) for a, n in generators]
    if e > 1:
        gens.append(GammaElement(1, 1))
    return _ref_closure(gens, n_field, e)


def _ref_inverse(elements, g, e, n_field):
    return next(h for h in elements if _ref_compose(g, h, e, n_field).is_identity())


@st.composite
def _galois_inputs(draw):
    n_field = draw(st.integers(1, 30))
    divisors = [d for d in range(1, n_field + 1) if n_field % d == 0]
    e = draw(st.sampled_from(sorted({1, 2} | set(divisors))))
    base = draw(st.sampled_from(divisors))
    units = [u for u in range(1, max(n_field, 2)) if math.gcd(u, n_field) == 1
             and u % base == 1 % base]
    gens = draw(st.lists(
        st.tuples(st.sampled_from(units), st.integers(0, 2), st.integers(-40, 40)),
        max_size=2))
    return e, n_field, base, [(u + k * n_field, n) for u, k, n in gens]


@settings(max_examples=300, deadline=None)
@given(_galois_inputs())
def test_gamma_is_the_closure_of_its_generators(data):
    e, n_field, base, generators = data
    gd = GaloisDatum.build(e, field_order=n_field, base_order=base, generators=generators)
    ref = _ref_elements(e, n_field, generators)
    assert gd.elements == ref
    assert gd.order() == len(ref) == len({g.aut for g in ref}) * e
    for g in gd.elements:
        inv = gd.inverse(g)
        assert inv == _ref_inverse(ref, g, e, n_field)
        assert gd.compose(g, inv) == gd.identity() == gd.compose(inv, g)


def test_zeta_e_refusal_states_the_condition():
    # Q(zeta_3) holds a primitive 6-th root of unity, but Gamma = H x| Z/e
    # is built only for e | N or e <= 2
    with pytest.raises(ValueError, match=r"e \| N or e <= 2") as info:
        GaloisDatum.build(6, field_order=3)
    assert "does not contain" not in str(info.value)


def test_act_on_point_examples(gd2, sigma):
    assert act_on_point(gd2, sigma, rational(3)) == rational(-3)
    assert act_on_point(gd2, gd2.identity(), rational(3)) == rational(3)
    gd4 = GaloisDatum.build(1, field_order=4, generators=[(3, 0)])
    conj = next(g for g in gd4.elements if not g.is_identity())
    i = Scalar.zeta(4)
    assert act_on_point(gd4, conj, i) == -i


def test_act_on_point_is_right_action():
    gd = GaloisDatum.build(2, field_order=4, generators=[(3, 0)])
    qs = [rational(2).promote(4), Scalar.zeta(4) + 1]
    for a in gd.elements:
        for b in gd.elements:
            ab = gd.compose(a, b)
            for q in qs:
                lhs = act_on_point(gd, ab, q)
                rhs = act_on_point(gd, b, act_on_point(gd, a, q))
                assert lhs == rhs


def test_nonabelian_datum_stays_consistent():
    # e = 4 with zeta_4 in Q(zeta_8) and a field automorphism acting on it
    gd = GaloisDatum.build(4, field_order=8, generators=[(3, 0)])
    assert gd.order() == 8
    noncommuting = [
        (a, b)
        for a in gd.elements
        for b in gd.elements
        if gd.compose(a, b) != gd.compose(b, a)
    ]
    assert noncommuting  # genuinely nonabelian
    q = rational(2).promote(8)
    for a, b in noncommuting[:4]:
        ab = gd.compose(a, b)
        assert act_on_point(gd, ab, q) == act_on_point(gd, b, act_on_point(gd, a, q))
    sig = next(g for g in gd.elements if g.aut == 3 and g.n == 1)
    tr = verify_sigma_commutes(gd, sig, samples=6, order=8, seed=9)
    assert tr.passed


def test_find_free_orbits(gd2):
    orbits = find_free_orbits(gd2, 2)
    assert [[str(p) for p in o.points] for o in orbits] == [["1", "-1"], ["2", "-2"]]
    assert all(o.stabilizer_trivial for o in orbits)
    trivial = GaloisDatum.trivial()
    singles = find_free_orbits(trivial, 3)
    assert [str(o.representative) for o in singles] == ["1", "2", "3"]


def test_orbit_rejects_fixed_points(gd2):
    # the scan starts at 1, so the fixed point 0 never enters an orbit
    orbits = find_free_orbits(gd2, 1)
    assert all(not p.is_zero() for p in orbits[0].points)


def test_sigma_map_monomials(gd2, sigma):
    q1 = rational(1)
    src = act_on_point(gd2, sigma, q1)
    elem = TwoVarLaurent(src, {1: TruncLaurent("w", {1: rational(1)})})
    out = sigma_map(gd2, sigma, elem)
    assert out.q == q1
    assert out.coeffs[1].coeffs[1] == rational(1)  # i-j = 0: no sign
    elem2 = TwoVarLaurent(src, {1: TruncLaurent("w", {0: rational(1)})})
    assert sigma_map(gd2, sigma, elem2).coeffs[1].coeffs[0] == rational(-1)


def test_sigma_map_identity_is_identity(gd2):
    rng = random.Random(1)
    f = random_two_var(rng, rational(1), 8, 8)
    out = sigma_map(gd2, gd2.identity(), f)
    assert out == f


def test_sigma_map_inverse_round_trip(gd2, sigma):
    rng = random.Random(2)
    f = random_two_var(rng, rational(1), 8, 8)
    moved = sigma_map(gd2, sigma, sigma_map(gd2, gd2.inverse(sigma), f))
    assert moved.q == f.q
    f.agree(moved, 7, 7)


def test_commutation_transcript(gd2, sigma):
    tr = verify_sigma_commutes(gd2, sigma, samples=25, order=10, seed=5)
    assert tr.passed and tr.coefficients_compared == 1725


def test_mutation_detection(gd2, sigma):
    bad = twist_mutation_detected(gd2, sigma, rational(1), samples=10, order=10, seed=5)
    assert bad.passed
    good = twist_mutation_detected(gd2, sigma, gd2.zeta_e, samples=10, order=10, seed=5)
    assert not good.passed and good.coefficients_compared == 449
    gd4 = GaloisDatum.build(4, field_order=4)
    sig4 = next(g for g in gd4.elements if g.n == 1)
    assert twist_mutation_detected(gd4, sig4, gd4.zeta_e**2, samples=10, order=10, seed=5).passed


def test_mutation_oracle_refuses_a_zero_twist_root(gd2, sigma):
    # a zero root would store zero coefficients in the transported series
    with pytest.raises(ValueError, match="twist root must be nonzero"):
        twist_mutation_detected(gd2, sigma, rational(0), samples=2, order=6, seed=5)


@pytest.mark.parametrize("e", [1, 2])
def test_the_twist_table_refuses_a_zero_root(e):
    gd = GaloisDatum.ramified(e)
    with pytest.raises(ValueError, match="twist root must be nonzero"):
        twist_mutation_detected(gd, gd.elements[-1], rational(0), samples=2, order=6, seed=5)
    with pytest.raises(ValueError, match="twist root must be nonzero"):
        replace(gd, zeta_e=rational(0)).twists


def _encoded(values):
    return [json.dumps(jsonio.encode(v)) for v in values]


_TABLE_DATA = {
    "e1": GaloisDatum.trivial(),
    "e2": GaloisDatum.ramified(2),
    "e3": GaloisDatum.ramified(3),
    "e4": GaloisDatum.ramified(4),
    "e6": GaloisDatum.ramified(6),
    "e2_conj": GaloisDatum.build(2, field_order=4, generators=[(3, 0)]),
    "order6": GaloisDatum.build(3, field_order=3, generators=[(2, 0)]),
}


@pytest.mark.parametrize("name", sorted(_TABLE_DATA))
def test_the_twist_table_lists_the_powers_of_the_root(name):
    gd = _TABLE_DATA[name]
    assert _encoded(gd.twists) == _encoded(gd.zeta_e**k for k in range(gd.e))
    # a root from the larger field Q(zeta_12) keeps its own field in every entry
    root = Scalar.zeta(12) ** (12 // gd.e)
    assert _encoded(twist_table(root, gd.e)) == _encoded(root**k for k in range(gd.e))


@pytest.mark.parametrize("name", sorted(_TABLE_DATA))
def test_actions_through_the_table_equal_the_power_reference(name):
    gd = _TABLE_DATA[name]
    n = gd.field_order

    def act_k_reference(g, f):
        zp = gd.zeta_e ** g.n

        def on_poly(p):
            return Poly("t", [gd.act_scalar(g, c) * zp**i for i, c in enumerate(p.coeffs)],
                        p.czero)
        return RatFunc(on_poly(f.num), on_poly(f.den))

    def point_reference(g, q):
        inv = gd.inverse(g)
        return gd.zeta_e ** inv.n * gd.act_scalar(inv, q)

    fs = [parse_k("(t^3 - 2*t + 1/2)/(t^2 + 3)"),
          parse_k("(zeta(%d)*t^4 + t - 1)/(t - zeta(%d))" % (n, n))]
    points = [rational(3), Scalar.from_rational(2, n) + Scalar.zeta(n)]
    for g in gd.elements:
        assert _encoded(gd.act_k(g, f) for f in fs) == _encoded(act_k_reference(g, f) for f in fs)
        assert (_encoded(act_on_point(gd, g, q) for q in points)
                == _encoded(point_reference(g, q) for q in points))



def _transport_reference(zeta_e, e, n, act, elem, q_target):
    """Every coefficient times its twist zeta^(n(i-j)), the product in the lcm field."""
    twist = [zeta_e**k for k in range(e)]
    return TwoVarLaurent(q_target, {
        i: TruncLaurent("w", {j: twist[n * (i - j) % e] * act(c) for j, c in inner.coeffs.items()},
                        inner.trunc)
        for i, inner in elem.coeffs.items()}, elem.trunc)


@pytest.mark.parametrize("e", [1, 2, 3, 4, 6])
def test_twisted_transport_matches_the_product_reference(e):
    rng = random.Random(e)
    q = rational(1)
    # coefficients over Q and over Q(zeta_12), alone and side by side
    series = [random_two_var(rng, q, 8, 8), random_two_var(rng, Scalar.from_rational(1, 12), 8, 8)]
    series.append(TwoVarLaurent(q, {**series[0].coeffs, **{
        i: f for i, f in series[1].coeffs.items() if i % 2}}, 8))
    roots = [Scalar.zeta(e), Scalar.zeta(12) ** (12 // e)]
    for zeta_e in roots:
        for act in (lambda c: c, lambda c: c.galois(5)):
            for n in range(e):
                for elem in series:
                    got = twisted_transport(twist_table(zeta_e, e), n, act, elem, q)
                    want = _transport_reference(zeta_e, e, n, act, elem, q)
                    assert json.dumps(jsonio.encode(got)) == json.dumps(jsonio.encode(want))

def test_corrupted_datum_degenerates_orbits(gd2):
    assert gd2.twists == (rational(1), rational(-1))
    # the table is derived, not copied: the corrupted datum reads its own
    bad = replace(gd2, zeta_e=rational(1))
    assert bad.twists == (rational(1), rational(1))
    assert bad != gd2 and jsonio.encode(gd2) == jsonio.encode(GaloisDatum.ramified(2))
    with pytest.raises(VerificationFailed):
        find_free_orbits(bad, 1)


def test_degenerate_scan_names_the_points():
    bad = replace(GaloisDatum.ramified(2), zeta_e=rational(1))
    with pytest.raises(VerificationFailed, match=r"points q = c for c = 1\.\.300"):
        find_free_orbits(bad, 1)
    moved = GaloisDatum.build(2, field_order=4, generators=[(3, 0)])
    with pytest.raises(VerificationFailed, match=r"points q = c \+ zeta_4 for c = 1\.\.500"):
        find_free_orbits(replace(moved, zeta_e=rational(1)), 1)


def test_orbits_of_a_datum_that_moves_the_field():
    gd = GaloisDatum.build(3, field_order=3, generators=[(2, 0)])
    orbits = find_free_orbits(gd, 2)
    assert [str(o.representative) for o in orbits] == ["zeta(3) + 2", "zeta(3) + 3"]
    assert all(len(o.points) == gd.order() == 6 for o in orbits)
    assert not set(orbits[0].points) & set(orbits[1].points)


def test_transport_and_equivariance(gd2, sigma):
    orbit = find_free_orbits(gd2, 1)[0]
    rep = block_ga_closure(orbit.representative, t_var(), 2, order=8)
    moved = transport_block(gd2, sigma, rep)
    assert moved.q == rational(-1)
    assert moved.all_passed()
    # transported claimed operator is the sigma-image: h = t maps to -t
    expected = closure_of_additive(gd2.act_k(sigma, t_var()), 2)
    assert group_eq(moved.claimed_group, expected)
    blocks = {orbit.representative: rep, moved.q: moved}
    tr = verify_equivariance(gd2, blocks, orbit, order=8)
    assert tr.passed and tr.coefficients_compared == 36


def test_equivariance_rejects_mismatched_family(gd2, sigma):
    orbit = find_free_orbits(gd2, 1)[0]
    rep = block_ga_closure(orbit.representative, k_const(1), 2, order=8)
    # deliberately build the other point independently with a different h
    other = block_ga_closure(rational(-1), t_var(), 2, order=8)
    blocks = {orbit.representative: rep, rational(-1): other}
    tr = verify_equivariance(gd2, blocks, orbit, order=8)
    assert not tr.passed and tr.coefficients_compared == 23
    assert tr.failures[0].startswith("sigma(aut=1,n=1) at point")


def test_failures_name_their_checks_and_print_scalars_in_the_parser_grammar():
    gd = GaloisDatum.build(2, field_order=4, generators=[(3, 0)])
    g = next(g for g in gd.elements if g.aut == 3 and g.n == 1)
    orbit = find_free_orbits(gd, 1)[0]
    rep = block_ga_closure(orbit.representative, t_var(4), 2, order=6)
    (y00, y01), row1 = rep.fundamental_matrix
    corrupted = replace(rep, fundamental_matrix=((y00, y01 + y01), row1))
    with pytest.raises(VerificationFailed) as err:
        transport_block(gd, g, corrupted)
    text = str(err.value)
    assert "fails re-verification: dx(Y) = A*Y" in text and "zeta(4)" in text
    assert "Fraction(" not in text and "CheckRecord" not in text
    # equivariance notes print the point and the differing coefficients with str
    blocks = transport_orbit(gd, rep, orbit)
    blocks[orbit.points[1]] = block_ga_closure(orbit.points[1], k_const(1, 4), 2, order=6)
    tr = verify_equivariance(gd, blocks, orbit, order=6)
    assert not tr.passed and "series differ" in tr.failures[0]
    assert not any("Fraction(" in f or "Scalar(" in f for f in tr.failures)


def test_a_part_outside_k_is_refused_only_when_gamma_moves_k():
    moved = GaloisDatum.build(2, field_order=4, generators=[(3, 0)])
    z5 = k_const(Scalar.zeta(5))
    op = OrePoly([-z5, z5 * t_var()])  # zeta_5 * (t*Dt - 1) kills h = t
    part = DecompositionPart(GaSub(op), "ga", h=t_var())
    written = r"part 0: its %s has a coefficient written in Q\(zeta_5\), not in k = Q\(zeta_4\)"
    with pytest.raises(UnsupportedGroup, match=written % "operator"):
        run_criterion(part.group, [part], moved, order=4, samples=2)
    assert run_criterion(part.group, [part], GaloisDatum.ramified(2), order=4, samples=2)
    one = k_const(1)
    nil = mat([[one.zero_like(), z5], [one.zero_like(), one.zero_like()]])
    part = DecompositionPart(GaSub(OrePoly.dt_gen()), "ga", h=one, embedding=nil)
    target = Generated((GeneratedPart(part.group, nil),))
    with pytest.raises(UnsupportedGroup, match=written % "embedding"):
        run_criterion(target, [part], moved, order=4, samples=2)


def test_z2_certificate(gd2):
    cert = run_criterion(
        FiniteCyclic(2),
        [DecompositionPart(FiniteCyclic(2), "cyclic", r=2)],
        gd2,
        order=8,
        samples=10,
        seed=4,
    )
    assert cert.all_exact_checks_passed()
    assert len(cert.orbits[0].points) == 2
    assert [a.kind for a in cert.assumptions] == [
        "density", "patching", "adjustment", "descent",
    ]
    kinds = {blk.kind for _, blk in cert.blocks}
    assert kinds == {"cyclic"}
    # no sample checked is no evidence: the sigma transcript would pass empty
    with pytest.raises(PpvError):
        run_criterion(FiniteCyclic(2), [DecompositionPart(FiniteCyclic(2), "cyclic", r=2)],
                      gd2, order=8, samples=0)


def test_sl2_certificate_blocks():
    group, parts = standard_sl2_decomposition()
    cert = run_criterion(group, parts, GaloisDatum.trivial(), order=8, samples=5, seed=4)
    assert cert.all_exact_checks_passed()
    hs = [str(blk.h) for _, blk in cert.blocks]
    assert hs == ["1", "1", "t", "1/t"]
    points = [str(q) for q, _ in cert.blocks]
    assert points == ["1", "2", "3", "4"]


def test_unsupported_part_kind_rejected(gd2):
    part = DecompositionPart(FiniteCyclic(2), "mystery")
    with pytest.raises(UnsupportedGroup):
        run_criterion(FiniteCyclic(2), [part], gd2, order=6, samples=2)
    group, _ = standard_sl2_decomposition()
    with pytest.raises(UnsupportedGroup):  # an empty decomposition certifies nothing
        run_criterion(group, [], gd2, order=6, samples=2)


def test_unipotent_generator_reduction():
    one = k_const(1)
    zero = one.zero_like()
    t = t_var()
    nil = mat([[zero, one], [zero, zero]])
    g = mat([[one, t], [zero, one]])
    part = unipotent_generator_part(g, nil, t)
    assert part.kind == "ga"
    assert group_eq(part.group, GaSub(OrePoly([-one, t])))
    bad = mat([[one + t, t], [zero, one]])  # not unipotent
    with pytest.raises(UnsupportedGroup):
        unipotent_generator_part(bad, nil, t)
    with pytest.raises(UnsupportedGroup):
        unipotent_generator_part(g, nil, t + 1)  # exp(cE) mismatch


def test_unipotent_generator_part_refuses_a_non_nilpotent_e():
    # the truncated exponential of E = diag(1, 0) at c = -2 is the identity
    one = k_const(1)
    zero = one.zero_like()
    ident = mat([[one, zero], [zero, one]])
    with pytest.raises(UnsupportedGroup, match="nilpotent"):
        unipotent_generator_part(ident, mat([[one, zero], [zero, zero]]), k_const(-2))


def _hand_built_sl2(order):
    one = k_const(1, order)
    zero = one.zero_like()
    t = t_var(order)
    upper = mat([[zero, one], [zero, zero]])
    lower = mat([[zero, zero], [one, zero]])
    parts = [
        DecompositionPart(closure_of_additive(one), "ga", h=one, embedding=upper,
                          representation="upper triangular"),
        DecompositionPart(closure_of_additive(one), "ga", h=one, embedding=lower,
                          representation="lower triangular"),
        DecompositionPart(closure_of_additive(t), "ga", h=t, embedding=upper,
                          representation="upper triangular"),
        DecompositionPart(closure_of_additive(t.inv()), "ga", h=t.inv(), embedding=lower,
                          representation="lower triangular"),
    ]
    group = Generated(
        tuple(GeneratedPart(p.group, p.embedding, p.representation) for p in parts)
    )
    return group, parts


@pytest.mark.parametrize("order", [1, 3, 8])
def test_standard_sl2_decomposition_encodes_as_the_hand_built_list(order):
    group, parts = standard_sl2_decomposition(order)
    ref_group, ref_parts = _hand_built_sl2(order)
    assert json.dumps(jsonio.encode(group)) == json.dumps(jsonio.encode(ref_group))
    assert [json.dumps(jsonio.encode(p)) for p in parts] == \
        [json.dumps(jsonio.encode(p)) for p in ref_parts]


def test_root_subgroup_recipe_produces_3m_parts():
    one = k_const(1)
    zero = one.zero_like()
    upper = [[zero, one], [zero, zero]]
    lower = [[zero, zero], [one, zero]]
    parts = root_subgroup_parts([upper, lower])
    assert len(parts) == 6
    hs = [str(p.h) for p in parts]
    assert hs == ["1", "t", "-1/t", "1", "t", "-1/t"]
    # the target names exactly these six parts; SL2's four-part list is refused
    with pytest.raises(UnsupportedGroup, match="part 1 does not match"):
        run_criterion(standard_sl2_decomposition()[0], parts, GaloisDatum.trivial(), order=6)
    group = Generated(tuple(GeneratedPart(p.group, p.embedding, p.representation) for p in parts))
    cert = run_criterion(
        group,
        parts,
        GaloisDatum.trivial(),
        order=6,
        samples=2,
        seed=1,
    )
    assert cert.all_exact_checks_passed()
    assert len(cert.blocks) == 6
