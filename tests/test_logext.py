from ppv.logext import LogExtElem
from ppv.rationals import f_const, k_const, x_var


def test_dx_of_log():
    x = x_var()
    f = LogExtElem(f_const(0), {k_const(1): k_const(1)})  # log(x-1)
    d = f.dx()
    assert d.in_base_field()
    assert d.tail == 1 / (x - 1)


def test_zero_and_membership():
    f = LogExtElem(f_const(0))
    assert f.tail.is_zero() and f.in_base_field()
    g = LogExtElem(f_const(0), {k_const(1): k_const(0)})
    assert g == f and not g.logs  # zero coefficients are dropped


def test_equality_up_to_stored_zeros():
    x = x_var()
    a = LogExtElem(1 / (x - 1), {k_const(2): k_const(0)})
    b = LogExtElem(1 / (x - 1))
    assert a == b
