import random
from dataclasses import replace

import pytest

from ppv.descent import (
    DecompositionPart,
    GaloisDatum,
    act_on_point,
    find_free_orbits,
    root_subgroup_parts,
    run_criterion,
    sigma_map,
    standard_sl2_decomposition,
    transport_block,
    twist_mutation_detected,
    unipotent_generator_part,
    verify_equivariance,
    verify_sigma_commutes,
)
from ppv.errors import UnsupportedGroup, VerificationFailed
from ppv.groups import FiniteCyclic, GaSub, closure_of_additive, group_eq
from ppv.local_blocks import block_ga_closure
from ppv.matrices import mat
from ppv.ore import OrePoly
from ppv.rationals import k_const, t_var
from ppv.scalars import Scalar, rational
from ppv.series import TruncLaurent, TwoVarLaurent, random_two_var


@pytest.fixture
def gd2():
    return GaloisDatum.ramified(2)


@pytest.fixture
def sigma(gd2):
    return next(g for g in gd2.elements if not g.is_identity())


def test_datum_structure(gd2):
    assert gd2.order() == 2 == gd2.expected_order()
    assert gd2.zeta_e == rational(-1)
    assert gd2.compose(gd2.elements[1], gd2.elements[1]).is_identity()


def test_datum_with_field_part():
    # k = Q(i) over Q with trivial ramification: conjugation only
    gd = GaloisDatum.build(1, field_order=4, generators=[(3, 0)])
    assert gd.order() == 2 == gd.expected_order()
    # mixed datum: e = 2 and conjugation
    gd_mixed = GaloisDatum.build(2, field_order=4, generators=[(3, 0)])
    assert gd_mixed.order() == 4 == gd_mixed.expected_order()


def test_group_law_closure(gd2):
    for a in gd2.elements:
        for b in gd2.elements:
            assert gd2.compose(a, b) in gd2.elements
            inv = gd2.inverse(a)
            assert gd2.compose(a, inv).is_identity()


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
    gd4 = GaloisDatum.ramified(4, field_order=4)
    sig4 = next(g for g in gd4.elements if g.n == 1)
    assert twist_mutation_detected(gd4, sig4, gd4.zeta_e**2, samples=10, order=10, seed=5).passed


def test_corrupted_datum_degenerates_orbits(gd2):
    bad = replace(gd2, zeta_e=rational(1))
    with pytest.raises(VerificationFailed):
        find_free_orbits(bad, 1)


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


def test_root_subgroup_recipe_produces_3m_parts():
    one = k_const(1)
    zero = one.zero_like()
    upper = [[zero, one], [zero, zero]]
    lower = [[zero, zero], [one, zero]]
    parts = root_subgroup_parts([upper, lower])
    assert len(parts) == 6
    hs = [str(p.h) for p in parts]
    assert hs == ["1", "t", "-1/t", "1", "t", "-1/t"]
    cert = run_criterion(
        standard_sl2_decomposition()[0],
        parts,
        GaloisDatum.trivial(),
        order=6,
        samples=2,
        seed=1,
    )
    assert cert.all_exact_checks_passed()
    assert len(cert.blocks) == 6
