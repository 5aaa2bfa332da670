import random

import pytest

from ppv.errors import UnsupportedGroup
from ppv.groups import (
    FiniteCyclic,
    GaSub,
    GmConst,
    GmSub,
    closure_of_additive,
    group_eq,
    is_subgroup,
)
from ppv.ore import OrePoly, monomial_window, right_divides, solve_in_window
from ppv.rationals import k_const, t_var


one = k_const(1)
t = t_var()
dt = OrePoly.dt_gen()


def test_closure_examples():
    assert closure_of_additive(t) == GaSub(OrePoly([-one, t]))
    assert closure_of_additive(one) == GaSub(dt)
    g = closure_of_additive(t**-1)
    # t^-1 Dt + t^-2, a unit multiple of t Dt + 1
    assert group_eq(g, GaSub(OrePoly([one, t])))


def test_closure_of_zero_is_trivial_group():
    g = closure_of_additive(one.zero_like())
    assert g.operator.order() == 0


def test_closure_kernel_contains_generator():
    for g in (one, t, t**-1, t**2 + 1):
        spec = closure_of_additive(g)
        assert spec.operator.apply(g).is_zero()
        assert spec.operator.order() == 1


def test_subgroup_examples():
    assert is_subgroup(GaSub(dt), GaSub(OrePoly.dt_power(2, one)))
    l = OrePoly([-one, t])
    assert is_subgroup(GaSub(l), GaSub(l))
    # constants sit inside every multiplicative subgroup
    assert is_subgroup(GmConst(), GmSub(OrePoly([one, t])))
    # and the reverse containment fails for positive order
    assert not is_subgroup(GmSub(OrePoly([one, t])), GmConst())


def test_incomparable_variants_raise():
    with pytest.raises(UnsupportedGroup):
        is_subgroup(GaSub(dt), GmSub(dt))
    with pytest.raises(UnsupportedGroup):
        is_subgroup(FiniteCyclic(2), GaSub(dt))


def test_partial_order_on_random_lattice():
    rng = random.Random(21)

    def rand_order1():
        c0 = k_const(rng.randint(-2, 2)) * t ** rng.randint(0, 1)
        return OrePoly([c0, one])

    for _ in range(12):
        l1, l2, l3 = rand_order1(), rand_order1(), rand_order1()
        a = GaSub(l1)
        b = GaSub(l2 * l1)
        c = GaSub(l3 * l2 * l1)
        assert is_subgroup(a, a)  # reflexive
        assert is_subgroup(a, b) and is_subgroup(b, c)
        assert is_subgroup(a, c)  # transitive through the chain


def test_antisymmetry_up_to_units():
    a = GaSub(OrePoly([one, t]))
    b = GaSub(OrePoly([one / t, one]))  # same group, monic form
    assert is_subgroup(a, b) and is_subgroup(b, a)
    assert group_eq(a, b)


def test_containment_matches_window_kernels():
    window = monomial_window(6)
    l = OrePoly([-one, t])
    big = OrePoly([one, one]) * l
    assert right_divides(l, big)
    small_kernel = solve_in_window(l, window)
    assert small_kernel
    for sol in small_kernel:
        assert big.apply(sol).is_zero()


def test_group_eq_normalizes_units():
    assert group_eq(
        GaSub(OrePoly([one, t]).scale(t)), GaSub(OrePoly([one, t]))
    )
    assert not group_eq(GaSub(dt), GaSub(OrePoly([one, t])))
