"""The executable acceptance suite: eight exact, property-style criteria.

Each criterion returns a CriterionResult with a pass flag and a short
summary; `run_all` executes them in order with timings.  All arithmetic
is rational or cyclotomic, so every comparison is exact (tolerance
zero); series claims are certified on their stated windows.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, replace

from .checks import window_check
from .descent import (
    DecompositionPart,
    GaloisDatum,
    find_free_orbits,
    run_criterion,
    standard_sl2_decomposition,
    transport_orbit,
    twist_mutation_detected,
    verify_equivariance,
    verify_sigma_commutes,
)
from .errors import RealizationError, VerificationFailed
from .groups import FiniteCyclic
from .local_blocks import block_cyclic, block_ga_closure, block_gm_const
from .ore import OrePoly, compose_dt, monomial_window, right_divmod, solve_in_window, wronskian_operator
from .rationals import k_const, t_var
from .realization import (
    necessary_condition_report,
    realize_in_window,
    window_kernel_dimension,
)
from .scalars import rational
from .series import random_two_var


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: str
    seconds: float


def _result(number, name, fn, *args, **kwargs) -> CriterionResult:
    start = time.monotonic()
    try:
        passed, details = fn(*args, **kwargs)
    except Exception as exc:  # a crash is a failure with the message as detail
        passed, details = False, "%s: %s" % (type(exc).__name__, exc)
    return CriterionResult(number, name, passed, details, time.monotonic() - start)


# ---------------------------------------------------------------------------
# 1. derivation commutation


def _commutation(order: int = 12, samples: int = 100, seed: int = 20240801):
    rng = random.Random(seed)
    points = [rational(0), rational(1), rational(2)]
    compared = 0
    for e in (1, 2, 3):
        for i in range(samples):
            f = random_two_var(rng, points[i % 3], order, order)
            rec = window_check("dx and dt0 commute", f.dx().dt0(e), f.dt0(e).dx(), order)
            if not rec.passed:
                return False, "e=%d, sample %d: %s" % (e, i, rec.note)
            compared += rec.coefficients_compared
    return True, "%d samples per e in {1,2,3} at bi-truncation (%d,%d); %d coefficients agreed exactly" % (
        samples, order, order, compared)


# ---------------------------------------------------------------------------
# 2. building-block identities


def _building_blocks(order: int = 10):
    names = []
    for qv in (0, 1, 2):
        q = rational(qv)
        for e in (1, 2):
            blk = block_ga_closure(q, k_const(1), e, order=order)
            if not blk.all_passed():
                return False, "additive block failed at q=%d, e=%d" % (qv, e)
            names.append("ga(q=%d,e=%d)" % (qv, e))
        cyc = block_cyclic(q, 2, 2, order=max(order, 8))
        if not cyc.all_passed():
            return False, "cyclic block failed at q=%d" % qv
        names.append("cyclic(q=%d,r=2)" % qv)
        gm = block_gm_const(q, 1, order=order)
        if not gm.all_passed():
            return False, "constants block failed at q=%d" % qv
        names.append("gm_const(q=%d)" % qv)
    return True, "all identities exact to order %d: %s" % (order, ", ".join(names))


# ---------------------------------------------------------------------------
# 3. sigma equivariance and the mutation oracle


def _sigma_equivariance(order: int = 10, samples: int = 100, seed: int = 7):
    gd = GaloisDatum.ramified(2)
    sigma = next(g for g in gd.elements if not g.is_identity())
    tr = verify_sigma_commutes(gd, sigma, samples=samples, order=order, seed=seed)
    if not tr.passed:
        return False, "sigma fails to commute: %s" % (tr.failures,)
    orbit = find_free_orbits(gd, 1)[0]
    rep = block_ga_closure(orbit.representative, t_var(), 2, order=order)
    eq = verify_equivariance(gd, transport_orbit(gd, rep, orbit), orbit, order=order)
    if not eq.passed:
        return False, "equivariance fails: %s" % (eq.failures,)
    mut = twist_mutation_detected(gd, sigma, rational(1), samples=20, order=order, seed=seed)
    if not mut.passed:
        return False, "mutation oracle missed the corrupted twist root"
    try:
        find_free_orbits(replace(gd, zeta_e=rational(1)), 1)
        return False, "corrupted datum produced orbits"
    except VerificationFailed:
        pass
    return True, (
        "%d commutation samples (%d coefficients), equivariance over orbit "
        "{1,-1} (%d coefficients), corrupted twist detected"
        % (tr.samples, tr.coefficients_compared, eq.coefficients_compared)
    )


# ---------------------------------------------------------------------------
# 4. classification round trip


def _round_trip(width: int = 12):
    t = t_var()
    one = k_const(1)
    operators = [
        ("Dt", OrePoly.dt_power(1, one)),
        ("Dt^2", OrePoly.dt_power(2, one)),
        ("t*Dt - 1", OrePoly([-one, t])),
    ]
    lines = []
    for label, l in operators:
        for kind in ("gm", "ga"):
            real = realize_in_window(l, kind, width)
            if not real.all_checks_passed():
                return False, "%s %s: realization checks failed" % (label, kind)
            report = necessary_condition_report(real.equation_datum, kind, l)
            if not report.passed():
                return False, "%s %s: necessary-condition report failed (%r)" % (
                    label, kind, report)
            lines.append("%s[%s]" % (label, kind))
    return True, "residue annihilation, minimality and membership exact for " + ", ".join(lines)


# ---------------------------------------------------------------------------
# 5. negative results


def _negatives(width: int = 12):
    t = t_var()
    one = k_const(1)
    l_a = OrePoly([one, t])  # t*Dt + Dt^0
    dim_a = window_kernel_dimension(compose_dt(l_a), width)
    l_b = OrePoly([one.zero_like(), one / t, one])  # Dt^2 + (1/t) Dt
    dim_b = window_kernel_dimension(l_b, width)
    if dim_a != 1 or dim_b != 1:
        return False, "window dimensions %d, %d (expected 1, 1)" % (dim_a, dim_b)
    for l, kind in ((l_a, "gm"), (l_b, "ga")):
        try:
            realize_in_window(l, kind, width)
            return False, "realization should have refused"
        except RealizationError:
            pass
    return True, (
        "kernel dimensions 1 < required in window |j| <= %d for both operators; "
        "realization refuses with a window-bounded verdict" % width
    )


# ---------------------------------------------------------------------------
# 6. operator algebra laws


def _random_operator(rng, one, max_order=4) -> OrePoly:
    t = t_var()
    coeffs = []
    for _ in range(rng.randint(1, max_order + 1)):
        c = rng.randint(-3, 3)
        p = rng.randint(-1, 2)
        coeffs.append(k_const(c) * t**p if c else one.zero_like())
    if all(c.is_zero() for c in coeffs):
        coeffs[-1] = one
    return OrePoly(coeffs, one.zero_like())


def _ore_laws(pairs: int = 200, seed: int = 11):
    rng = random.Random(seed)
    one = k_const(1)
    t = t_var()
    for i in range(pairs):
        a = _random_operator(rng, one)
        b = _random_operator(rng, one)
        if b.is_zero():
            continue
        q, r = right_divmod(a, b)
        if not (q * b + r == a):
            return False, "division identity failed at pair %d" % i
        if not (r.is_zero() or r.order() < b.order()):
            return False, "remainder order not reduced at pair %d" % i
    families = [[one, t], [t, t**2], [one, t, t**2], [one / t, one]]
    for fam in families:
        w = wronskian_operator(fam)
        for b in fam:
            if not w.apply(b).is_zero():
                return False, "Wronskian operator does not annihilate %s" % b
    window = monomial_window(8)
    for i in range(20):
        l = _random_operator(rng, one, max_order=2)
        qq = _random_operator(rng, one, max_order=2)
        if l.is_zero() or qq.is_zero():
            continue
        bigger = qq * l
        small_kernel = solve_in_window(l, window)
        for sol in small_kernel:
            if not bigger.apply(sol).is_zero():
                return False, "kernel containment violated under right divisibility"
    return True, "%d division identities, Wronskian annihilation, and lattice containment exact" % pairs


# ---------------------------------------------------------------------------
# 7. end-to-end SL2 certificate (through the CLI)


def _sl2_certificate(order: int = 10):
    import contextlib
    import io
    import json
    import tempfile
    from pathlib import Path

    from . import cli, jsonio

    group, parts = standard_sl2_decomposition()
    with tempfile.TemporaryDirectory() as tmp:
        group_path = Path(tmp) / "group.json"
        gd_path = Path(tmp) / "galois.json"
        out_path = Path(tmp) / "certificate.json"
        group_path.write_text(
            json.dumps(
                {
                    "group": jsonio.encode(group),
                    "decomposition": [jsonio.encode(p) for p in parts],
                }
            )
        )
        gd_path.write_text(json.dumps(jsonio.encode(GaloisDatum.trivial())))
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(
                [
                    "certify",
                    "--group", str(group_path),
                    "--galois", str(gd_path),
                    "--trunc", str(order),
                    "--out", str(out_path),
                ]
            )
        if code != 0:
            return False, "certify exited with code %d" % code
        cert = json.loads(out_path.read_text())
    if not cert["all_exact_checks_passed"]:
        return False, "certificate records failing checks"
    kinds = [a["kind"] for a in cert["assumptions"]]
    if kinds != ["density", "patching", "adjustment", "descent"]:
        return False, "expected exactly the four assumptions, got %r" % kinds
    blocks = cert["blocks"]
    if len(blocks) != 4:
        return False, "expected 4 local blocks, got %d" % len(blocks)
    points = [b["point"]["terms"] for b in blocks]
    hs = []
    for b in blocks:
        h = b["block"]["h"]
        num = h["num"]["coeffs"]
        den = h["den"]["coeffs"]
        hs.append((len(num) - 1, len(den) - 1))  # (deg num, deg den)
    if sorted(hs) != [(0, 0), (0, 0), (0, 1), (1, 0)]:
        return False, "block data h do not match {1, 1, t, 1/t}: %r" % hs
    return True, (
        "certificate verified: 4 additive blocks at points 1..4 with h in {1,1,t,1/t}, "
        "all exact checks passed, assumptions cited: %s" % ", ".join(kinds)
    )


# ---------------------------------------------------------------------------
# 8. descent pipeline with nontrivial Galois group


def _z2_descent(order: int = 8, samples: int = 100):
    gd = GaloisDatum.ramified(2)
    cert = run_criterion(
        FiniteCyclic(2),
        [DecompositionPart(FiniteCyclic(2), "cyclic", r=2)],
        gd,
        order=order,
        samples=samples,
        seed=2,
    )
    if not cert.all_exact_checks_passed():
        return False, "certificate records failing checks"
    orbit = cert.orbits[0]
    if len(orbit.points) != 2:
        return False, "expected orbit of size 2, got %d" % len(orbit.points)
    moved = [blk for _, blk in cert.blocks if blk.transported_by]
    if len(moved) != 1:
        return False, "expected exactly one transported block"
    return True, (
        "orbit {1,-1} of size 2, transported cyclic block re-verified, "
        "certificate passed with %d transcripts" % len(cert.transcripts)
    )


def _series_order(order):
    return {"order": order}


def _window_width(order):
    return {"width": max(4, order)}


# (number, name, criterion, keyword arguments for a requested working order)
CRITERIA = (
    (1, "derivation commutation", _commutation, lambda order: {"order": min(order, 12)}),
    (2, "building-block identities", _building_blocks, _series_order),
    (3, "sigma equivariance and mutation oracle", _sigma_equivariance, _series_order),
    (4, "classification round trip", _round_trip, _window_width),
    (5, "negative results are window-refused", _negatives, _window_width),
    (6, "operator algebra laws", _ore_laws, lambda order: {}),
    (7, "end-to-end SL2 certificate", _sl2_certificate, _series_order),
    (8, "descent pipeline with nontrivial Galois group", _z2_descent, _series_order),
)


def run_all(order: int | None = None, numbers=None) -> list[CriterionResult]:
    """Run the acceptance criteria; order scales the series windows down."""
    return [
        _result(number, name, fn, **(scaled(order) if order is not None else {}))
        for number, name, fn, scaled in CRITERIA
        if not numbers or number in numbers
    ]
