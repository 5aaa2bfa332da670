from fractions import Fraction

import pytest

from ppv.errors import PpvError
from ppv.groups import FiniteCyclic, GaSub, GmConst, group_eq
from ppv.local_blocks import (
    block_cyclic,
    block_ga_closure,
    block_gm_const,
    fp_membership,
    make_block,
    matrix_identity_check,
)
from ppv.ore import OrePoly
from ppv.rationals import k_const, t_var
from ppv.scalars import Scalar, rational
from ppv.series import TruncLaurent, TwoVarLaurent


def _check_names(block):
    return {c.name for c in block.checks}


def test_cyclic_block_series_head():
    # y = 1 - t/(2 z) - t^2/(8 z^2) - t^3/(16 z^3) - ...
    blk = block_cyclic(rational(0), 2, 1, order=8)
    y = blk.fundamental_matrix[0][0]
    assert y.coeffs[0].coeffs[0] == rational(1)
    assert y.coeffs[1].coeffs[-1] == Scalar(1, [Fraction(-1, 2)])
    assert y.coeffs[2].coeffs[-2] == Scalar(1, [Fraction(-1, 8)])
    assert y.coeffs[3].coeffs[-3] == Scalar(1, [Fraction(-1, 16)])
    assert blk.all_passed()
    assert group_eq(blk.claimed_group, FiniteCyclic(2))


def test_cyclic_r1_is_trivial_cover():
    blk = block_cyclic(rational(0), 1, 1, order=6)
    y = blk.fundamental_matrix[0][0]
    assert y.coeffs[0].coeffs[0] == rational(1)
    assert y.coeffs[1].coeffs[-1] == rational(-1)
    assert len(y.coeffs) == 2


def test_cyclic_needs_root_of_unity():
    with pytest.raises(PpvError):
        block_cyclic(rational(0), 3, 1, order=6)
    blk = block_cyclic(Scalar.from_rational(1, 3), 3, 1, order=6)
    assert blk.all_passed()


def test_cyclic_shifted_point_matches_shift():
    b0 = block_cyclic(rational(0), 2, 1, order=8)
    b1 = block_cyclic(rational(1), 2, 1, order=8)
    y0 = b0.fundamental_matrix[0][0]
    y1 = b1.fundamental_matrix[0][0]
    # same inner coefficients, different point tag
    assert {n: c.coeffs for n, c in y0.coeffs.items()} == {
        n: c.coeffs for n, c in y1.coeffs.items()
    }
    assert not (y0.q == y1.q)


def test_ga_block_series_head():
    # f = t/z - t^2/(2 z^2) + t^3/(3 z^3) - ...
    blk = block_ga_closure(rational(0), k_const(1), 1, order=8)
    f = blk.fundamental_matrix[0][1]
    assert f.coeffs[1].coeffs[-1] == rational(1)
    assert f.coeffs[2].coeffs[-2] == Scalar(1, [Fraction(-1, 2)])
    assert f.coeffs[3].coeffs[-3] == Scalar(1, [Fraction(1, 3)])
    names = _check_names(blk)
    assert "dx(f) = -1/((z-q)^2 + t(z-q))" in names
    assert "dt0(f) matches the two-sum formula" in names
    assert blk.all_passed()


def test_ga_block_scaled_by_t():
    blk = block_ga_closure(rational(0), t_var(), 1, order=8)
    y = blk.fundamental_matrix[0][1]
    # h = t shifts the series one t-order up
    assert y.coeffs[2].coeffs[-1] == rational(1)
    assert group_eq(blk.claimed_group, GaSub(OrePoly([-k_const(1), t_var()])))


def test_ga_block_inverse_h_normalizes():
    blk = block_ga_closure(rational(2), 1 / t_var(), 1, order=8)
    t = t_var()
    one = k_const(1)
    assert group_eq(blk.claimed_group, GaSub(OrePoly([one, t])))
    assert blk.all_passed()


def test_ga_block_rejects_zero_h():
    with pytest.raises(PpvError):
        block_ga_closure(rational(0), k_const(0), 1)


def test_gm_const_block():
    blk = block_gm_const(rational(0), 1, order=10)
    y = blk.fundamental_matrix[0][0]
    # exp series: t^n coefficient 1/n! at w^-n
    assert y.coeffs[3].coeffs[-3] == Scalar(1, [Fraction(1, 6)])
    a = blk.equation_matrix[0][0]
    assert a.coeffs[0].coeffs[-2] == rational(-1)  # -1/(z-q)^2
    assert isinstance(blk.claimed_group, GmConst)
    assert blk.all_passed()


def test_gm_const_ramified():
    blk = block_gm_const(rational(1), 2, order=10)
    names = _check_names(blk)
    assert "dt0(y)/y = dt0(t/(z-q))" in names
    assert blk.all_passed()


def test_blocks_at_all_sample_points():
    for qv in (0, 1, 2):
        for e in (1, 2):
            assert block_ga_closure(rational(qv), k_const(1), e, order=10).all_passed()
    for qv in (0, 1, 2):
        assert block_cyclic(rational(qv), 2, 2, order=8).all_passed()
        assert block_gm_const(rational(qv), 1, order=10).all_passed()


def test_membership_check_rejects_wrong_clearing():
    blk = block_ga_closure(rational(0), k_const(1), 1, order=8)
    f = blk.fundamental_matrix[0][1]
    # f itself is not in F_P: no small monomial clears its growing poles
    w2 = TwoVarLaurent(rational(0), {0: TruncLaurent.monomial("w", rational(1), 2)})
    check = fp_membership(f, w2, "f against w^2", 8)
    assert not check.passed


def test_make_block_dispatch_and_validation():
    assert make_block("cyclic", rational(1), 1, 6, r=2).kind == "cyclic"
    assert make_block("gm_const", rational(1), 1, 6).kind == "gm_const"
    with pytest.raises(PpvError):
        make_block("ga", rational(1), 1, 6)  # missing h
    with pytest.raises(PpvError):
        make_block("weird", rational(1), 1, 6)


def test_checks_record_window_and_counts():
    blk = block_ga_closure(rational(1), k_const(1), 2, order=10)
    for c in blk.checks:
        assert c.coefficients_compared >= 1
        assert c.passed


def test_matrix_identity_check_records_the_compared_window():
    # y is valid below t^5 and w^4; dx(y) loses one order of each
    q = rational(0)
    y = TwoVarLaurent(q, {0: TruncLaurent("w", {0: rational(1)}, 4)}, 5)
    rec = matrix_identity_check(((y,),), ((TwoVarLaurent.zero(q),),), 10)
    assert rec.passed
    assert (rec.outer_order, rec.inner_order) == (3, 2)


def test_matrix_identity_check_names_the_first_failing_entry():
    # dx(1) = 0, but A*Y = 1
    q = rational(0)
    one = TwoVarLaurent(q, {0: TruncLaurent("w", {0: rational(1)})})
    rec = matrix_identity_check(((one,),), ((one,),), 6)
    assert not rec.passed
    assert rec.note.startswith("entry (0,0): ")
