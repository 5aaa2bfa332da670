"""det, rank and nullspace against sympy and against the field Gauss-Jordan,
and Wronskian operators from one solve.

sympy is the oracle here only; the library never imports it.
"""

import ast
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import ppv
from ppv import jsonio
from ppv.errors import DependentFamily
from ppv.linalg import det, nullspace, rank, rref
from ppv.ore import wronskian_operator
from ppv.rationals import Poly, k_const, t_var
from ppv.scalars import Scalar, rational

sympy = pytest.importorskip("sympy")
T = sympy.Symbol("t")


def _entry(rng, over_t):
    """One random entry as (ppv element, sympy expression); zero about a third of the time."""
    a, b = rng.randint(-3, 3), rng.randint(-2, 2)
    if rng.random() < 0.35:
        a = b = 0
    if not over_t:
        return rational(a), sympy.Integer(a)
    t = t_var()
    if rng.random() < 0.3:
        c = rng.randint(1, 3)
        return (k_const(a) + k_const(b) * t) / (t + c), (a + b * T) / (T + c)
    return k_const(a) + k_const(b) * t, a + b * T


def _matrix(rng, n, m, over_t, rank_at_most=None):
    """An n x m matrix; with rank_at_most, rows beyond it are sums of earlier rows."""
    pairs = [[_entry(rng, over_t) for _ in range(m)] for _ in range(n)]
    if rank_at_most is not None:
        for i in range(rank_at_most, n):
            j, k = rng.randrange(max(rank_at_most, 1)), rng.randrange(max(rank_at_most, 1))
            pairs[i] = [(pairs[j][c][0] + pairs[k][c][0], pairs[j][c][1] + pairs[k][c][1])
                        for c in range(m)]
    return [[p for p, _ in row] for row in pairs], sympy.Matrix([[s for _, s in row] for row in pairs])


def _to_sympy(c):
    if hasattr(c, "num"):
        return _poly(c.num) / _poly(c.den)
    return sympy.Rational(c.as_fraction().numerator, c.as_fraction().denominator)


def _poly(p):
    return sum((_to_sympy(c) * T**k for k, c in enumerate(p.coeffs)), sympy.Integer(0))


def _same(a, b):
    return sympy.cancel(_to_sympy(a) - b) == 0


CASES = [(seed, over_t) for seed in range(12) for over_t in (False, True)]


@pytest.mark.parametrize("seed,over_t", CASES)
def test_det_matches_sympy(seed, over_t):
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    singular = n > 1 and seed % 3 == 0
    mine, theirs = _matrix(rng, n, n, over_t, n - 1 if singular else None)
    d = det(mine)
    assert _same(d, theirs.det())
    if singular:
        assert d.is_zero()


@pytest.mark.parametrize("seed,over_t", CASES)
def test_rank_and_nullspace_match_sympy(seed, over_t):
    rng = random.Random(100 + seed)
    n, m = rng.randint(1, 4), rng.randint(1, 5)
    mine, theirs = _matrix(rng, n, m, over_t, rng.randint(0, n))
    assert rank(mine) == theirs.rank(simplify=True)
    zero = mine[0][0].zero_like()
    basis = nullspace(mine, zero, zero.one_like())
    # both normalize each vector to 1 at its free column and 0 at the others
    want = theirs.applyfunc(sympy.cancel).nullspace(simplify=True)
    assert len(basis) == len(want) == m - rank(mine)
    for vec, ref in zip(basis, want):
        assert all(_same(a, b) for a, b in zip(vec, ref))
        for row in mine:
            acc = zero
            for a, x in zip(row, vec):
                acc = acc + a * x
            assert acc.is_zero()


def test_row_swaps_set_the_sign():
    one, zero = rational(1), rational(0)
    assert det([[zero, one], [one, zero]]) == -one
    # two swaps: the cyclic permutation matrix has determinant +1
    assert det([[zero, one, zero], [zero, zero, one], [one, zero, zero]]) == one
    t = t_var()
    assert det([[k_const(0), t], [t + k_const(1), k_const(5)]]) == -(t * (t + k_const(1)))
    red, pivots = rref([[zero, rational(2)], [rational(3), one]])
    assert pivots == [0, 1] and red == [[one, zero], [zero, one]]


def test_rank_of_degenerate_shapes():
    zero = rational(0)
    assert rank([]) == 0 and rank([[]]) == 0
    assert rank([[zero, zero], [zero, zero]]) == 0
    assert det([[zero, zero], [zero, rational(1)]]).is_zero()
    with pytest.raises(ValueError):
        det([])


# The field Gauss-Jordan that every function used before the pass became
# fraction-free over K: each pivot scaled to one, then cleared above and
# below with a field operation per entry.  Kept as the reference.


def _reference_gauss_jordan(rows):
    """(reduced rows, pivot columns, signed pivot product)."""
    rows = [list(r) for r in rows]
    pivots, acc, sign = [], None, 1
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        if r == len(rows):
            break
        pivot = next((i for i in range(r, len(rows)) if not rows[i][c].is_zero()), None)
        if pivot is None:
            continue
        if pivot != r:
            rows[r], rows[pivot], sign = rows[pivot], rows[r], -sign
        p = rows[r][c]
        acc = p if acc is None else acc * p
        inv = p.one_like() / p
        rows[r] = [x * inv for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and not row[c].is_zero():
                f = row[c]
                rows[i] = [a - f * b for a, b in zip(row, rows[r])]
        pivots.append(c)
    return rows, pivots, acc if sign > 0 or acc is None else -acc


def _reference(rows, zero):
    """(rref rows, pivots, nullspace, det or None) read as the library reads its pass."""
    red, pivots, acc = _reference_gauss_jordan(rows)
    ncols = len(rows[0])
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [zero] * ncols
        vec[fc] = zero.one_like()
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r][fc]
        basis.append(vec)
    square = len(rows) == ncols
    d = (acc if len(pivots) == ncols else rows[0][0].zero_like()) if square else None
    return red, pivots, basis, d


def _mine(rows, zero):
    red, pivots = rref(rows)
    assert rank(rows) == len(pivots)
    d = det(rows) if len(rows) == len(rows[0]) else None
    return red, pivots, nullspace(rows, zero, zero.one_like()), d


ORDERS = (1, 3, 4, 8, 12)


def _scalar(draw, order):
    q = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
    return Scalar.from_rational(q, order) * Scalar.zeta(order) ** draw(st.integers(0, order - 1))


def _k_entry(draw, order, over_t):
    """Zero about a quarter of the time; over K of numerator degree <= 2 and maybe a denominator."""
    if draw(st.integers(0, 3)) == 0:
        return k_const(0, order) if over_t else Scalar.from_rational(0, order)
    if not over_t:
        return _scalar(draw, order)
    t = t_var(order)
    y = k_const(0, order)
    for k in range(draw(st.integers(0, 2)) + 1):
        y = y + k_const(_scalar(draw, order)) * t**k
    den = draw(st.integers(0, 2))  # no denominator, t + a or t^2 + a
    if den:
        y = y / (t**den + k_const(draw(st.integers(1, 3)), order))
    return y


@st.composite
def matrices(draw, orders):
    """(rows, zero): entries of K, or of Q(zeta_N), one order each drawn from orders.

    Some rows repeat a combination of earlier rows (rank deficient), some
    are zero, and a column can be a multiple of the first, which makes a
    free column before the next pivot.
    """
    over_t = draw(st.booleans())
    n = draw(st.integers(1, 4))
    m = n if draw(st.booleans()) else draw(st.integers(1, 5))
    rows = [[_k_entry(draw, draw(st.sampled_from(orders)), over_t) for _ in range(m)]
            for _ in range(n)]
    for i in range(1, n):
        kind = draw(st.sampled_from(("free", "free", "combination", "zero")))
        if kind == "combination":
            a, b = (_k_entry(draw, draw(st.sampled_from(orders)), over_t) for _ in "ab")
            rows[i] = [a * x + b * y for x, y in zip(rows[0], rows[i - 1])]
        elif kind == "zero":
            rows[i] = [x.zero_like() for x in rows[i]]
    if m > 1 and draw(st.booleans()):
        lam = _k_entry(draw, draw(st.sampled_from(orders)), over_t)
        for row in rows:
            row[1] = lam * row[0]
    order = draw(st.sampled_from(orders))
    return rows, k_const(0, order) if over_t else Scalar.from_rational(0, order)


def _json(value):
    if isinstance(value, list):
        return [_json(v) for v in value]
    if value is None or isinstance(value, int):
        return value
    return json.dumps(jsonio.encode(value))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(ORDERS).flatmap(lambda n: matrices((n,))))
def test_one_field_matches_the_reference_byte_for_byte(case):
    rows, zero = case
    assert _json(list(_mine(rows, zero))) == _json(list(_reference(rows, zero)))


@settings(max_examples=100, deadline=None)
@given(matrices((1, 2, 8)))
def test_mixed_fields_match_the_reference_in_value(case):
    rows, zero = case
    mine, ref = _mine(rows, zero), _reference(rows, zero)
    assert mine[1] == ref[1]
    for got, want in zip(mine[:1] + mine[2:], ref[:1] + ref[2:]):
        assert got == want


def test_wronskian_operator_reduces_only_what_it_reads(monkeypatch):
    """y_k = k zeta_8^k t^k + 1/(t + k), k = 1..5: 20 gcds, where the field pass ran 104.

    Those left are the lcms the row denominators need and the reductions
    of the read-out entries and of the monic operator.
    """
    calls = [0]
    real = Poly.gcd

    def counted(a, b):
        calls[0] += 1
        return real(a, b)

    monkeypatch.setattr(Poly, "gcd", counted)
    t, z = t_var(8), k_const(Scalar.zeta(8))
    elems = [k_const(k, 8) * z**k * t**k + k_const(1, 8) / (t + k_const(k, 8))
             for k in range(1, 6)]
    w = wronskian_operator(elems)
    assert calls[0] == 20
    assert w.order() == 5 and w.leading().is_one()


# Wronskian operators: the monic generator of one nullspace


def _family(draw, order):
    """Elements p_k + r_k, deg p_k = k distinct, r_k proper: independent over constants."""
    t = t_var(order)
    z = Scalar.zeta(order)
    m = draw(st.integers(1, 3 if order == 1 else 2))
    elems = []
    for k in range(1, m + 1):
        c = k_const(draw(st.integers(1, 3)) * z ** draw(st.integers(0, order - 1)))
        d = k_const(draw(st.integers(-2, 2)), order)
        y = c * t**k + d
        if draw(st.booleans()):
            y = y + k_const(draw(st.integers(1, 3)), order) / (t + k_const(draw(st.integers(1, 3)), order))
        elems.append(y)
    return elems


@st.composite
def families(draw):
    order = draw(st.sampled_from((1, 8)))
    return order, _family(draw, order)


@settings(max_examples=20, deadline=None)
@given(families(), st.data())
def test_wronskian_operator_is_monic_of_order_m_and_kills_the_family(fam, data):
    order, elems = fam
    w = wronskian_operator(elems)
    assert w.order() == len(elems) and w.leading().is_one()
    assert all(w.apply(y).is_zero() for y in elems)
    # a planted constant-linear dependence leaves a nullspace of dimension 2
    z = Scalar.zeta(order)
    lams = [data.draw(st.integers(1, 3)) * z ** data.draw(st.integers(0, order - 1)) for _ in elems]
    planted = elems[0].zero_like()
    for lam, y in zip(lams, elems):
        planted = planted + k_const(lam) * y
    with pytest.raises(DependentFamily):
        wronskian_operator(elems + [planted])


def _det_call_sites(path: Path):
    """Enclosing function of each call of a bare or attribute name ``det``."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call):
            f = node.func
            if (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) == "det":
                found.append(func)
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(path.read_text()), None)
    return found


def test_det_is_called_only_by_wronskian_det():
    sites = {(path.stem, func)
             for path in sorted(Path(ppv.__file__).parent.glob("*.py"))
             for func in _det_call_sites(path)}
    assert sites == {("ore", "wronskian_det")}
