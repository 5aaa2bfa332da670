import pytest
from hypothesis import assume, given, settings, strategies as st

from ppv.errors import DependentFamily, RealizationError
from ppv.groups import GmSub, group_eq
from ppv.logext import LogExtElem
from ppv.ore import OrePoly, compose_dt, right_divides, wronskian_operator
from ppv.rationals import f_const, k_const, t_var, x_var
from ppv.realization import (
    check_membership_ga,
    check_membership_gm,
    fundamental_set_in_window,
    necessary_condition_report,
    realize_ga,
    realize_gm,
    realize_in_window,
    window_kernel_dimension,
)

one = k_const(1)
t = t_var()
dt = OrePoly.dt_gen()


def test_realize_gm_basic():
    real = realize_gm(dt, [one, t])
    x = x_var()
    assert real.equation_datum == 1 / (x - 1) + f_const(t) / (x - 2)
    # the model is log(x-2): only the moving residue survives dt
    assert real.model == LogExtElem(f_const(one.zero_like()), {k_const(2): one})
    assert group_eq(real.claimed_group, GmSub(dt))
    assert real.all_checks_passed()


def test_realize_gm_rejects_degenerate_order():
    with pytest.raises(RealizationError):
        realize_gm(OrePoly.constant(one), [one])


def test_realize_gm_rejects_dependent_basis():
    with pytest.raises(DependentFamily):
        realize_gm(dt, [one, k_const(2)])


def test_realize_gm_rejects_wrong_cardinality():
    with pytest.raises(RealizationError):
        realize_gm(dt, [one])


def test_realize_ga_basic():
    l = OrePoly([-one, t])  # t Dt - 1
    real = realize_ga(l, [t])
    x = x_var()
    assert real.equation_datum == f_const(t) / (x - 1)
    assert real.model == LogExtElem(f_const(t.zero_like()), {k_const(1): t})
    assert real.all_checks_passed()


def test_realize_ga_order_two():
    l = OrePoly.dt_power(2, one)
    real = realize_ga(l, [one, t])
    x = x_var()
    assert real.equation_datum == 1 / (x - 1) + f_const(t) / (x - 2)


def test_realize_ga_rejects_non_solution():
    with pytest.raises(RealizationError) as err:
        realize_ga(OrePoly([-one, t]), [one])  # t Dt - 1 does not kill 1
    assert str(err.value) == "candidate 1 is not annihilated by L"


@pytest.mark.parametrize("kind", ["gm", "ga"])
def test_failed_realization_checks_are_named(monkeypatch, kind):
    from ppv import realization

    monkeypatch.setattr(realization, "check_membership_%s" % kind, lambda *a: False)
    realize = realize_gm if kind == "gm" else realize_ga
    with pytest.raises(RealizationError) as err:
        realize(dt, [one, t] if kind == "gm" else [one])
    membership = "membership L(f) in K(x)" if kind == "gm" else "membership L(y) in K(x)"
    assert str(err.value) == "realization checks failed: " + membership


def test_membership_examples():
    model = LogExtElem(f_const(one.zero_like()), {k_const(2): one})  # log(x-2)
    assert check_membership_gm(model, dt)
    assert not check_membership_gm(model, OrePoly.constant(one))
    zero_model = LogExtElem(f_const(0))
    for l in (dt, OrePoly.constant(one), OrePoly([one, t])):
        assert check_membership_gm(zero_model, l)


def test_membership_ga_examples():
    l = OrePoly([-one, t])
    model = LogExtElem(f_const(t.zero_like()), {k_const(1): t})  # t log(x-1)
    assert check_membership_ga(model, l)
    assert not check_membership_ga(model, dt)
    in_field = LogExtElem(1 / (x_var() - 3))
    for op in (dt, l):
        assert check_membership_ga(in_field, op)


def test_membership_monotone_under_right_multiples():
    l = OrePoly([-one, t])
    model = LogExtElem(f_const(t.zero_like()), {k_const(1): t})
    for q in (dt, OrePoly([one, one]), OrePoly([t, one / t])):
        bigger = q * l
        assert check_membership_ga(model, bigger)


def _k_sum(draw):
    """A sum of one or two terms c * t^j, -2 <= j <= 3."""
    terms = draw(st.lists(st.tuples(st.sampled_from([-2, -1, 1, 3]), st.integers(-2, 3)),
                          min_size=1, max_size=2))
    return sum((k_const(c) * t**j for c, j in terms[1:]), k_const(terms[0][0]) * t**terms[0][1])


def _random_operator(draw, order):
    cs = [k_const(draw(st.integers(-2, 2))) * t**draw(st.integers(-1, 1)) for _ in range(order)]
    return OrePoly(cs + [k_const(draw(st.sampled_from([-1, 1, 2]))) * t**draw(st.integers(0, 1))])


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["ga", "gm"]), st.data())
def test_membership_agrees_with_the_group_lattice(kind, data):
    # oracle: M kills a fundamental set of L exactly when L right-divides M;
    # gm models hold dt(B) for a fundamental set B of L o Dt, and Dt cancels
    # on the right in K[Dt], so its verdict is again right_divides(L, M)
    basis = [_k_sum(data.draw) for _ in range(data.draw(st.integers(1, 2)))]
    try:
        if kind == "ga":
            l, coeffs = wronskian_operator(basis), basis
        else:
            w = wronskian_operator([one, *basis])
            l, coeffs = OrePoly(w.coeffs[1:]), [b.dt() for b in [one, *basis]]
    except DependentFamily:
        assume(False)
    model = LogExtElem(f_const(one.zero_like()),
                       {k_const(i): c for i, c in enumerate(coeffs, start=1)})
    member = check_membership_gm if kind == "gm" else check_membership_ga
    q = _random_operator(data.draw, data.draw(st.integers(0, 1)))
    assert member(model, q * l)
    # random, and the Wronskian operator of some coefficients, which may kill only part
    part = data.draw(st.lists(st.sampled_from(list(model.logs.values())), min_size=1,
                              max_size=2, unique_by=str))
    for m in (_random_operator(data.draw, data.draw(st.integers(0, 2))),
              wronskian_operator(part)):
        assert member(model, m) == right_divides(l, m)


def test_membership_with_a_moving_pole():
    # dt(log(x-t)) = -1/(x-t) lies in K(x); only dt of the coefficient stays a log
    for member in (check_membership_ga, check_membership_gm):
        assert member(LogExtElem(f_const(one.zero_like()), {t: one}), dt)
        assert not member(LogExtElem(f_const(one.zero_like()), {t: t}), dt)


def test_membership_refuses_a_ramified_operator():
    model = LogExtElem(f_const(one.zero_like()), {k_const(1): t})
    for member in (check_membership_ga, check_membership_gm):
        with pytest.raises(RealizationError, match="e = 2"):
            member(model, OrePoly([one.zero_like(), one], e=2))


def test_necessary_condition_round_trip():
    for l, kind in ((dt, "gm"), (dt, "ga"), (OrePoly([-one, t]), "ga"),
                    (OrePoly.dt_power(2, one), "gm")):
        real = realize_in_window(l, kind, 8)
        rep = necessary_condition_report(real.equation_datum, kind, l)
        assert rep.all_annihilated and rep.minimal and rep.poles_dt_constant
        assert rep.witness_order == l.order()


def test_report_flags_non_minimal():
    # a = t/(x-1) has residue t; Dt^2 kills dt(t)=1 but so does the
    # order-one Wronskian operator, so order 2 is not minimal
    x = x_var()
    a = f_const(t) / (x - 1)
    rep = necessary_condition_report(a, "gm", OrePoly.dt_power(2, one))
    assert rep.all_annihilated and not rep.minimal
    assert rep.witness_order == 1


def test_report_flags_failed_annihilation():
    x = x_var()
    a = f_const(t) / (x - 1)
    rep = necessary_condition_report(a, "ga", dt)  # dt(t) = 1 != 0
    assert not rep.all_annihilated


def test_window_dimensions_for_negative_examples():
    # the verdict is stable as the window grows
    l_a = OrePoly([one, t])
    l_b = OrePoly([one.zero_like(), one / t, one])
    for width in (4, 8, 12):
        assert window_kernel_dimension(compose_dt(l_a), width) == 1
        assert window_kernel_dimension(l_b, width) == 1


def test_realize_refuses_without_fundamental_set():
    for l, kind in ((OrePoly([one, t]), "gm"),
                    (OrePoly([one.zero_like(), one / t, one]), "ga")):
        with pytest.raises(RealizationError) as err:
            realize_in_window(l, kind, 12)
        assert "window" in str(err.value)


def test_fundamental_set_found_in_window():
    basis = fundamental_set_in_window(dt, "gm", 6)
    assert [str(b) for b in basis] == ["1", "t"]


def test_corollary_from_generators():
    # the Ga group generated by K-rational elements: their Wronskian operator, realized
    real = realize_ga(wronskian_operator([one, t]), [one, t])
    assert real.operator == OrePoly.dt_power(2, one)
    assert real.all_checks_passed()
    rep = necessary_condition_report(real.equation_datum, "ga", real.operator)
    assert rep.all_annihilated and rep.minimal


def test_realize_refuses_ramified_operators_before_the_search(monkeypatch):
    from ppv import realization
    from ppv.parser import parse_operator

    p = parse_operator("Dt - 3/2*t/(t^3 + zeta(8))")
    l = OrePoly(p.coeffs, p.czero, 2)
    searched = []
    monkeypatch.setattr(realization, "fundamental_set_in_window",
                        lambda *a: searched.append(a) or [])
    for kind in ("ga", "gm"):
        with pytest.raises(RealizationError, match="e = 2"):
            realize_in_window(l, kind, 6)
    assert not searched
    with pytest.raises(RealizationError, match="e = 2"):
        realize_ga(l, [one])
