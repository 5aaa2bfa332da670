"""Order-one realizations of additive and multiplicative subgroups over K(x).

Given an operator L over K with a fundamental set of solutions inside K,
an order-one equation over K(x) realizes Gm^(L o dlog) (resp. Ga^L):
place the solutions as residues at the poles x = 1, 2, ..., so

    gm:  dx(y) = a*y   with  a = b_1/(x-1) + ... + b_m/(x-m),  m = order+1
    ga:  dx(y) = a     with  a = b_1/(x-1) + ... + b_n/(x-n),  n = order

The solution model lives in a log extension: f = sum log(x-i)*dt(b_i)
for gm (f plays the role of dt(y)/y) and y = sum log(x-i)*b_i for ga.
Membership of the group in Ga^L / Gm^(L o dlog) is the exact statement
that applying L to the model lands back in K(x).

Everything here is window-bounded on the search side: absence of a
fundamental set inside a monomial window is reported as such, never as
a proof of nonexistence.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .checks import CheckRecord
from .errors import DependentFamily, RealizationError
from .groups import GaSub, GmSub, GroupSpec
from .logext import LogExtElem
from .ore import (
    OrePoly,
    compose_dt,
    monomial_window,
    solve_in_window,
    wronskian_det,
    wronskian_operator,
)
from .partial_fractions import decompose
from .rationals import RatFunc, f_const, k_const, x_var


@dataclass(frozen=True)
class Realization:
    kind: str  # "gm" or "ga"
    operator: OrePoly
    basis: tuple[RatFunc, ...]
    equation_datum: RatFunc  # a in K(x)
    claimed_group: GroupSpec
    model: LogExtElem
    checks: tuple[CheckRecord, ...]
    window_note: str = ""

    def all_checks_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _scalar_order(l: OrePoly) -> int:
    c = l.czero
    return c.czero.order if isinstance(c, RatFunc) else c.order


def _pole_sum(basis, order: int) -> RatFunc:
    x = x_var(order)
    a = None
    for i, b in enumerate(basis, start=1):
        term = f_const(b) / (x - i)
        a = term if a is None else a + term
    return a


def _log_model(coeffs, order: int) -> LogExtElem:
    model = LogExtElem.from_tail(f_const(k_const(0, order)))
    for i, c in enumerate(coeffs, start=1):
        model = model + LogExtElem.log_term(k_const(i, order), c)
    return model


def _verify_basis(l: OrePoly, target: OrePoly, basis, needed: int, what: str):
    if l.order() < 1:
        raise RealizationError(
            "degenerate order-zero operator: the constant group needs no pole datum"
        )
    if len(basis) != needed:
        raise RealizationError(
            "%s needs exactly %d independent solutions, got %d" % (what, needed, len(basis))
        )
    for b in basis:
        if not target.apply(b).is_zero():
            raise RealizationError("candidate %r is not annihilated by %s" % (b, what))
    if wronskian_det(list(basis), l.e).is_zero():
        raise DependentFamily("candidate solutions are dependent over constants")


def realize_gm(l: OrePoly, basis) -> Realization:
    """Realize Gm^(L o dlog) from a fundamental set of L o Dt inside K."""
    basis = tuple(basis)
    target = compose_dt(l)
    _verify_basis(l, target, basis, l.order() + 1, "L o Dt")
    order = _scalar_order(l)
    a = _pole_sum(basis, order)
    model = _log_model([b.dt() for b in basis], order)
    checks = [
        CheckRecord("basis solves L o Dt", True),
        CheckRecord("basis independent over constants", True),
    ]
    # the model satisfies dx(model) = dt(a) exactly
    identity = model.dx().tail == a.dt() and model.dx().in_base_field()
    checks.append(CheckRecord("model identity dx(f) = dt(a)", identity))
    witness = any(not b.dt().is_zero() for b in basis)
    checks.append(
        CheckRecord(
            "transcendence witness: some dt(b_i) nonzero",
            witness,
            note="syntactic sufficient test",
        )
    )
    checks.append(CheckRecord("membership L(f) in K(x)", check_membership_gm(model, l)))
    real = Realization("gm", l, basis, a, GmSub(l), model, tuple(checks))
    if not real.all_checks_passed():
        raise RealizationError("realization checks failed: %r" % (checks,))
    return real


def realize_ga(l: OrePoly, basis) -> Realization:
    """Realize Ga^L from a fundamental set of L inside K."""
    basis = tuple(basis)
    _verify_basis(l, l, basis, l.order(), "L")
    order = _scalar_order(l)
    a = _pole_sum(basis, order)
    model = _log_model(list(basis), order)
    checks = [
        CheckRecord("basis solves L", True),
        CheckRecord("basis independent over constants", True),
        CheckRecord("model identity dx(y) = a", model.dx().tail == a and model.dx().in_base_field()),
        CheckRecord("membership L(y) in K(x)", check_membership_ga(model, l)),
    ]
    real = Realization("ga", l, basis, a, GaSub(l), model, tuple(checks))
    if not real.all_checks_passed():
        raise RealizationError("realization checks failed: %r" % (checks,))
    return real


def realize_ga_from_generators(gens) -> Realization:
    """Ga group generated by K-rational elements: Wronskian operator, then realize."""
    l = wronskian_operator(list(gens))
    return realize_ga(l, list(gens))


def _membership(model: LogExtElem, l: OrePoly) -> bool:
    return l.apply(model).in_base_field()


def check_membership_gm(model: LogExtElem, l: OrePoly) -> bool:
    """The group lies in Gm^(L o dlog) iff L(f) falls back into K(x)."""
    return _membership(model, l)


def check_membership_ga(model: LogExtElem, l: OrePoly) -> bool:
    """The group lies in Ga^L iff L(y) is in K(x)."""
    return _membership(model, l)


@dataclass(frozen=True)
class NecessaryReport:
    kind: str
    operator_order: int
    residues: tuple  # (pole, gamma) pairs from the logarithmic part
    targets: tuple  # gamma (ga) or dt(gamma) (gm)
    annihilated: tuple[bool, ...]
    all_annihilated: bool
    witness_order: int
    minimal: bool
    poles_dt_constant: bool
    note: str

    def passed(self) -> bool:
        return self.all_annihilated and self.minimal and self.poles_dt_constant


def necessary_condition_report(a: RatFunc, kind: str, l: OrePoly) -> NecessaryReport:
    """Residue annihilation and minimality checks for an order-one datum.

    Extracts the logarithmic part of a; L must kill every dt(gamma_i)
    (gm) or gamma_i (ga), and the Wronskian operator of an independent
    subset of those targets must already have order equal to order(L),
    the fundamental-set criterion.  Minimality is window-free but the
    fundamental set itself remains a window-bounded notion.
    """
    if kind not in ("gm", "ga"):
        raise ValueError("kind must be 'gm' or 'ga'")
    log_part = decompose(a).logarithmic_part()
    poles_const = all(beta.dt().is_zero() for beta, _ in log_part)
    targets = tuple(
        (gamma.dt() if kind == "gm" else gamma) for _, gamma in log_part
    )
    annihilated = tuple(l.apply(tg).is_zero() for tg in targets)
    independent: list = []
    for tg in targets:
        if tg.is_zero():
            continue
        if wronskian_det(independent + [tg], l.e).is_zero():
            continue
        independent.append(tg)
    witness_order = (
        wronskian_operator(independent, l.e).order() if independent else 0
    )
    return NecessaryReport(
        kind=kind,
        operator_order=l.order(),
        residues=tuple(log_part),
        targets=targets,
        annihilated=annihilated,
        all_annihilated=all(annihilated),
        witness_order=witness_order,
        minimal=witness_order == l.order(),
        poles_dt_constant=poles_const,
        note="minimality compared against order(L); solution search is window-bounded",
    )


def fundamental_set_in_window(l: OrePoly, kind: str, width: int = 12):
    """Search the monomial window t^j, |j| <= width, for a fundamental set.

    Returns the basis when the kernel dimension matches the required
    count (order+1 for gm through L o Dt, order for ga through L);
    raises RealizationError with a window-bounded verdict otherwise.
    """
    target = compose_dt(l) if kind == "gm" else l
    needed = l.order() + 1 if kind == "gm" else l.order()
    sols = solve_in_window(target, monomial_window(width, _scalar_order(l)))
    if len(sols) < needed:
        raise RealizationError(
            "no fundamental set of %s inside the window |j| <= %d: "
            "found dimension %d, need %d (window-bounded verdict, not a proof "
            "of nonexistence)" % ("L o Dt" if kind == "gm" else "L", width, len(sols), needed)
        )
    return sols


def window_kernel_dimension(l: OrePoly, width: int = 12) -> int:
    """dim of ker(l) intersected with the monomial window |j| <= width."""
    return len(solve_in_window(l, monomial_window(width, _scalar_order(l))))


def realize_in_window(l: OrePoly, kind: str, width: int = 12) -> Realization:
    """Find a fundamental set in the window and realize; refuses when absent."""
    basis = fundamental_set_in_window(l, kind, width)
    real = realize_gm(l, basis) if kind == "gm" else realize_ga(l, basis)
    return replace(real, window_note="basis found in monomial window |j| <= %d" % width)
