"""The three local building blocks inside k((z-q))((t)).

Each block packages a fundamental matrix Y over the big local field, the
equation matrix A with dx(Y) = A*Y, the subgroup it claims to realize,
and a transcript of exact identity checks at the working truncation:

  cyclic(r):   y = (1 - t/(z-q))^(1/r), a root of T^r - (1 - t/(z-q))
  ga(h):       y = h*f with f = sum (-1)^(n+1)/(n (z-q)^n) t^n
  gm_const:    y = exp(t/(z-q))

Membership of an entry in the smaller local field F_P (fractions of
power series in w = z - q and t) is not decidable from a truncation, so
each membership check multiplies by a declared polynomial clearing
factor and verifies the product is a power series on the stored window;
the factor is recorded in the transcript.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .checks import CheckRecord, window_check
from .errors import PpvError, VerificationFailed
from .groups import FiniteCyclic, GmConst, GroupSpec, closure_of_additive
from .matrices import mat, mat_mul
from .rationals import RatFunc
from .scalars import Scalar
from .series import TruncLaurent, TwoVarLaurent, certified_window, default_order


@dataclass(frozen=True)
class LocalBlock:
    q: Scalar
    kind: str  # "cyclic" | "ga" | "gm_const"
    e: int
    fundamental_matrix: tuple
    equation_matrix: tuple
    claimed_group: GroupSpec
    checks: tuple
    order: int
    r: int | None = None
    h: RatFunc | None = None
    transported_by: str = ""
    # (label, element, clearing factor) triples kept so that transported
    # copies of the block can re-verify membership at their own point
    witnesses: tuple = ()

    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def roots_of_unity_available(field_order: int, r: int) -> bool:
    """Whether Q(zeta_field_order) contains a primitive r-th root of unity."""
    n = field_order
    full = n if n % 2 == 0 else 2 * n
    return full % r == 0


# ---------------------------------------------------------------------------
# series ingredients


def _t_over_w_series(q: Scalar, coeffs) -> TwoVarLaurent:
    """sum c_n (t/(z-q))^n for rationals c_0..c_N, valid below t^(N+1)."""
    return TwoVarLaurent(
        q,
        {n: TruncLaurent.monomial("w", Scalar.from_rational(c, q.order), -n)
         for n, c in enumerate(coeffs)},
        len(coeffs),
    )


def _w_poly(q: Scalar, *terms) -> TwoVarLaurent:
    """Exact element from (t_exp, w_exp, rational) term triples."""
    coeffs: dict = {}
    for t_exp, w_exp, val in terms:
        c = Scalar.from_rational(val, q.order)
        inner = coeffs.setdefault(t_exp, {})
        inner[w_exp] = inner.get(w_exp, c.zero_like()) + c
    return TwoVarLaurent(
        q, {n: TruncLaurent("w", inner) for n, inner in coeffs.items()}
    )


# ---------------------------------------------------------------------------
# checks


def fp_membership(elem: TwoVarLaurent, clearing: TwoVarLaurent, label: str, order: int) -> CheckRecord:
    """Verify elem * clearing is a power series in w and t on the window.

    A pass certifies that elem is a ratio of power series (an element of
    the local field at the point) up to the stated truncation.
    """
    product = elem * clearing
    outer, inner = certified_window(product, product, order)
    count = 0
    ok = True
    for n, inner_series in product.coeffs.items():
        if n > outer:
            continue
        for j, c in inner_series.coeffs.items():
            if j > inner:
                continue
            count += 1
            if (n < 0 or j < 0) and not c.is_zero():
                ok = False
    return CheckRecord(label, ok, outer, inner, count, clearing_factor=str(clearing))


def _commutation_check(y: TwoVarLaurent, e: int, order: int) -> CheckRecord:
    lhs = y.dx().dt0(e)
    rhs = y.dt0(e).dx()
    return window_check("dx and dt0 commute on the entry", lhs, rhs, order)


# ---------------------------------------------------------------------------
# the three blocks


def block_cyclic(q: Scalar, r: int, e: int, order: int | None = None) -> LocalBlock:
    """Cyclic block of order r: y = (1 - t/(z-q))^(1/r).

    Requires a primitive r-th root of unity in the coefficient field.
    """
    if not roots_of_unity_available(q.order, r):
        raise PpvError(
            "coefficient field Q(zeta_%d) lacks a primitive %d-th root of unity" % (q.order, r)
        )
    order = default_order() if order is None else order
    # guard orders: derivations cost validity, the identities must still
    # be certified through the working order itself
    build = order + e + 1
    # binomial(1/r, n) (-1)^n, the coefficients of (1 - t/(z-q))^(1/r)
    coeffs = [Fraction(1)]
    for n in range(1, build + 1):
        coeffs.append(coeffs[-1] * (n - 1 - Fraction(1, r)) / n)
    y = _t_over_w_series(q, coeffs)
    target = _w_poly(q, (0, 0, 1), (1, -1, -1))  # 1 - t/(z-q)
    power = y
    for _ in range(r - 1):
        power = power * y
    checks = [
        window_check(
            "y^%d = 1 - t/(z-q)" % r, power, target, order,
            note="algebraicity witness: y is a root of T^%d - (1 - t/(z-q)) over F_P" % r,
        ),
        _commutation_check(y, e, order),
    ]
    a_entry = y.dx().div(y, cap=(order + 1, order + 1))
    clear = _w_poly(q, (0, 2, 1), (1, 1, -1))  # w^2 - w t
    dt0_log = y.dt0(e).div(y, cap=(order + 1, order + 1))
    witnesses = (
        ("dx(y)/y in F_P", a_entry, clear),
        ("dt0(y)/y in F_P", dt0_log, _shift_clear(clear, e)),
    )
    return _assemble(q, "cyclic", e, order, [[y]], [[a_entry]], FiniteCyclic(r), checks,
                     witnesses, r=r)


def _shift_clear(clear: TwoVarLaurent, e: int) -> TwoVarLaurent:
    """Extra t^(e-1) to clear the t^(1-e) valuation of dt0 images."""
    return clear.shift(e - 1)


def block_ga_closure(q: Scalar, h: RatFunc, e: int, order: int | None = None) -> LocalBlock:
    """Additive block realizing the closure of one element h of K.

    Y is unipotent with top-right entry y = h*f; the claimed group is
    Ga^L for L = h*Dt - dt0(h)*Dt^0 (the closure of h).
    """
    if h.is_zero():
        raise PpvError("the additive building block needs a nonzero element h")
    order = default_order() if order is None else order
    build = order + e + 1
    f = _t_over_w_series(q, [0] + [Fraction((-1) ** (n + 1), n) for n in range(1, build + 1)])
    cap = (order + 2, order + 2)

    checks = []
    # dx(f) = -1/((z-q)^2 + t(z-q)), checked against the geometric expansion
    denom = _w_poly(q, (0, 2, 1), (1, 1, 1))  # w^2 + t w
    rhs = _w_poly(q, (0, 0, -1)).div(denom, cap=cap)
    checks.append(window_check("dx(f) = -1/((z-q)^2 + t(z-q))", f.dx(), rhs, order))

    # dt0(f) against the displayed two-sum formula
    # s1 = sum (-1)^(n+1)/e w^-n t^(n-e), s2 = sum (-1)^n/e w^(-n-1) t^(n-e), n >= 1
    ns = range(1, build + 1)
    s1 = _t_over_w_series(q, [0] + [Fraction((-1) ** (n + 1), e) for n in ns]).shift(-e)
    s2 = _t_over_w_series(q, [0, 0] + [Fraction((-1) ** n, e) for n in ns]).shift(-e - 1)
    two_sum = s1 - TwoVarLaurent.z_elem(q) * s2
    checks.append(window_check("dt0(f) matches the two-sum formula", f.dt0(e), two_sum, order))
    checks.append(_commutation_check(f, e, order))

    # witness that f has the series-tail signature of a non-element of F_P
    t1 = f.coeffs.get(1)
    witness = t1 is not None and t1.coeffs.get(-1) is not None
    checks.append(
        CheckRecord(
            "nondegeneracy witness: t^1 coefficient has a pole of order 1 in w",
            witness, 1, 1, 1,
            note="recorded signature only; membership outside F_P is cited, not decided",
        )
    )

    y = f.mul_k(h, order=order)
    dy = y.dx()
    h_den_clear = TwoVarLaurent.from_t_poly(h.den, q)
    base_clear = _w_poly(q, (0, 2, 1), (1, 1, 1))  # w^2 + t w
    # operator membership: L(y) = h^2 * dt0(f) for L = h Dt - dt0(h)
    ly = y.dt0(e).mul_k(h, order=order) - y.mul_k(h.dt0(e), order=order)
    witnesses = (
        ("dx(y) in F_P", dy, base_clear * h_den_clear),
        ("dt0(y/h) in F_P", f.dt0(e), _shift_clear(base_clear, e)),
        (
            "L(y) in F_P for the closure operator",
            ly,
            _shift_clear(base_clear, e) * h_den_clear * h_den_clear,
        ),
    )
    one = _w_poly(q, (0, 0, 1))
    zero = TwoVarLaurent.zero(q)
    return _assemble(q, "ga", e, order, [[one, y], [zero, one]], [[zero, dy], [zero, zero]],
                     closure_of_additive(h, e), checks, witnesses, h=h)


def block_gm_const(q: Scalar, e: int, order: int | None = None) -> LocalBlock:
    """Multiplicative-constants block: y = exp(t/(z-q))."""
    order = default_order() if order is None else order
    build = order + e + 1
    y = _t_over_w_series(q, [Fraction(1, math.factorial(n)) for n in range(build + 1)])
    cap = (order + 1, order + 1)
    checks = []
    dlog = y.dx().div(y, cap=cap)
    target = _w_poly(q, (0, -2, -1))  # -1/(z-q)^2 = dx(t/(z-q))
    checks.append(window_check("dx(y)/y = -1/(z-q)^2", dlog, target, order))
    dt0_log = y.dt0(e).div(y, cap=cap)
    t_over_w = _w_poly(q, (1, -1, 1))
    checks.append(
        window_check(
            "dt0(y)/y = dt0(t/(z-q))", dt0_log, t_over_w.dt0(e), order,
            note="series quotient vs closed form, two independent computations",
        )
    )
    checks.append(_commutation_check(y, e, order))
    const_term = y.coeffs.get(0)
    checks.append(
        CheckRecord(
            "y(t=0) = 1",
            const_term is not None and const_term.coeffs.get(0) is not None
            and const_term.coeffs[0].is_one() and len(const_term.coeffs) == 1,
            0, 0, 1,
        )
    )
    witnesses = (
        ("dx(y)/y in F_P", dlog, _w_poly(q, (0, 2, 1))),
        ("dt0(y)/y in F_P", dt0_log, _w_poly(q, (e - 1, 2, 1))),
    )
    return _assemble(q, "gm_const", e, order, [[y]], [[dlog]], GmConst(), checks, witnesses)


def matrix_identity_check(y_mat: tuple, a_mat: tuple, order: int) -> CheckRecord:
    """dx(Y) = A*Y, entry-wise on the provable window.

    A pass records the smallest window over the entries, the one on which
    the whole identity holds.
    """
    lhs = mat([[entry.dx() for entry in row] for row in y_mat])
    rhs = mat_mul(a_mat, y_mat)
    outer = inner = order
    total = 0
    for i, row in enumerate(lhs):
        for j, entry in enumerate(row):
            rec = window_check("dx(Y) = A*Y", entry, rhs[i][j], order)
            if not rec.passed:
                return replace(rec, coefficients_compared=total,
                               note="entry (%d,%d): %s" % (i, j, rec.note))
            outer, inner = min(outer, rec.outer_order), min(inner, rec.inner_order)
            total += rec.coefficients_compared
    return CheckRecord("dx(Y) = A*Y", True, outer, inner, total)


def _assemble(q: Scalar, kind: str, e: int, order: int, y_rows, a_rows, group: GroupSpec,
              checks: list, witnesses: tuple, **data) -> LocalBlock:
    """Append the F_P membership of each witness and dx(Y) = A*Y to checks; build the block.

    data is the block's own parameter (r or h). Raises VerificationFailed
    unless every check passed.
    """
    checks.extend(fp_membership(el, cl, lbl, order) for lbl, el, cl in witnesses)
    y_mat, a_mat = mat(y_rows), mat(a_rows)
    checks.append(matrix_identity_check(y_mat, a_mat, order))
    bad = [c.name for c in checks if not c.passed]
    if bad:
        raise VerificationFailed("block at %r failed exact checks: %s" % (q, "; ".join(bad)))
    return LocalBlock(q=q, kind=kind, e=e, fundamental_matrix=y_mat, equation_matrix=a_mat,
                      claimed_group=group, checks=tuple(checks), order=order,
                      witnesses=witnesses, **data)


def make_block(kind: str, q: Scalar, e: int, order: int | None = None,
               r: int | None = None, h: RatFunc | None = None) -> LocalBlock:
    if kind == "cyclic":
        if r is None:
            raise PpvError("cyclic block needs r")
        return block_cyclic(q, r, e, order)
    if kind == "ga":
        if h is None:
            raise PpvError("additive block needs h")
        return block_ga_closure(q, h, e, order)
    if kind == "gm_const":
        return block_gm_const(q, e, order)
    raise PpvError("unknown block kind %r" % kind)
