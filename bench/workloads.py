"""Seeded, stratified input generator for the three benchmark workloads.

Every workload is a fixed list of classes.  A class fixes the shape and
size of its tasks, and the structure that varies inside a class (part
kind, sample count, query kind) cycles with the instance index; the seed
only draws the content (small integers, signs, roots of unity).  So the
class counts and the cost of a round stay comparable across seeds.

The generator is plain Python and never imports ppv.  Its output is in
the CLI's own input formats: operator and expression strings in the
grammar of ``ppv ore`` / ``ppv decompose``, and group / Galois JSON as
documented in docs/formats.md.  The same (workload, seed) always gives
byte-identical inputs (see ``pool_bytes``).
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

# instances generated per class; a run walks them round by round
POOL_SIZE = 24


# ---------------------------------------------------------------------------
# JSON builders for docs/formats.md


def j_scalar(order: int, terms) -> dict:
    """terms: [(Fraction, zeta power or None)]; zero terms are dropped."""
    out = []
    for c, k in terms:
        c = Fraction(c)
        if c:
            out.append({"num": str(c.numerator), "den": str(c.denominator),
                        "zeta_pow": [] if k is None else [k]})
    return {"type": "scalar", "order": order, "terms": out}


def j_poly(order: int, coeffs) -> dict:
    """coeffs: ascending list of scalar JSON (t-polynomial over Q(zeta_order))."""
    out = {"type": "poly", "var": "t", "coeffs": list(coeffs)}
    if not coeffs:
        out["czero"] = j_scalar(order, [])
    return out


def j_ratfunc(order: int, num, den) -> dict:
    return {"type": "ratfunc", "var": "t", "num": j_poly(order, num),
            "den": j_poly(order, den)}


def j_monomial(order: int, c: dict, k: int) -> dict:
    """c * t^k for a scalar JSON c and an integer k."""
    zero, one = j_scalar(order, []), j_scalar(order, [(1, None)])
    if k >= 0:
        return j_ratfunc(order, [zero] * k + [c], [one])
    return j_ratfunc(order, [c], [zero] * (-k) + [one])


def closure_parts(order: int, e: int, c, k: int):
    """h = c * t^k and the closure operator L = h*Dt - dt0(h) of Ga^L.

    dt0 = t^(1-e)/e * d/dt, so dt0(c t^k) = (k c / e) t^(k - e).
    c is (Fraction, zeta power or None).
    """
    r, zp = c
    h = j_monomial(order, j_scalar(order, [(r, zp)]), k)
    minus_dt0 = j_monomial(order, j_scalar(order, [(-Fraction(k, e) * r, zp)]), k - e)
    op = {"type": "ore", "e": e, "coeffs": [minus_dt0, h]}
    return h, {"type": "group", "kind": "ga", "operator": op}


def galois(e: int, field_order: int) -> dict:
    return {"type": "galois", "e": e, "field_order": field_order, "base_order": 1,
            "generators": []}


# ---------------------------------------------------------------------------
# certify


def _rational(rng) -> Fraction:
    return Fraction(rng.choice((1, 2, 3)) * rng.choice((1, -1)), rng.choice((1, 1, 2)))


def _sl2_task(rng, i: int, order: int) -> dict:
    """The four-part SL2 decomposition with rational multiples of 1, 1, t, 1/t."""
    one, zero = j_monomial(1, j_scalar(1, [(1, None)]), 0), j_monomial(1, j_scalar(1, []), 0)
    upper = [[zero, one], [zero, zero]]
    lower = [[zero, zero], [one, zero]]
    parts = []
    for k, emb, rep in ((0, upper, "upper triangular"), (0, lower, "lower triangular"),
                        (1, upper, "upper triangular"), (-1, lower, "lower triangular")):
        h, grp = closure_parts(1, 1, (_rational(rng), None), k)
        parts.append({"type": "part", "kind": "ga", "group": grp, "h": h,
                      "embedding": emb, "representation": rep})
    group = {"type": "group", "kind": "generated", "parts": [
        {"group": p["group"], "embedding": p["embedding"],
         "representation": p["representation"]} for p in parts]}
    return {"group": {"group": group, "decomposition": parts}, "galois": galois(1, 1),
            "trunc": order, "samples": 4 + i % 9, "gamma": 1}


def _ramified_task(rng, i: int, e: int, field_order: int, order: int, kind: str) -> dict:
    """One decomposition part over a pure Z/e ramification."""
    if kind == "cyclic":
        grp = {"type": "group", "kind": "cyclic", "r": e}
        part = {"type": "part", "kind": "cyclic", "group": grp, "r": e}
    elif kind == "gm_const":
        grp = {"type": "group", "kind": "gm_const"}
        part = {"type": "part", "kind": "gm_const", "group": grp}
    else:
        k = {"ga_1": 0, "ga_t": 1, "ga_inv_t": -1}[kind]
        zp = rng.choice((None, 1, 2)) if field_order > 1 else None
        h, grp = closure_parts(field_order, e, (_rational(rng), zp), k)
        part = {"type": "part", "kind": "ga", "group": grp, "h": h}
    return {"group": {"group": grp, "decomposition": [part]},
            "galois": galois(e, field_order), "trunc": order,
            "samples": 4 + (i // 5) % 5, "gamma": e}


def _z2(order):
    kinds = ("cyclic", "ga_1", "ga_t", "ga_inv_t", "gm_const")
    return lambda rng, i: _ramified_task(rng, i, 2, 1, order, kinds[i % len(kinds)])


def _z3(order):
    kinds = ("cyclic", "ga_1", "ga_t", "gm_const")
    return lambda rng, i: _ramified_task(rng, i, 3, 3, order, kinds[i % len(kinds)])


# ---------------------------------------------------------------------------
# operators


def _coeff(rng, z8: bool, den: bool = False) -> str:
    """A degree-one coefficient a*t + b, over Q or Q(zeta_8), maybe over (t + c)."""
    a = rng.choice((1, 2)) * rng.choice((1, -1))
    b = rng.choice((1, 2)) * rng.choice((1, -1))
    if z8:
        s = "(%d*t + %d*zeta(8)^%d)" % (a, b, rng.choice((1, 3, 5, 7)))
    else:
        s = "(%d*t + %d)" % (a, b)
    if den:
        s += "/(t + %d)" % rng.choice((1, 2))
    return s


def _op(rng, n: int, z8: bool, monic: bool = False, den: bool = True) -> str:
    """An order-n operator; with den, the constant term has a (t + c) denominator."""
    terms = ["Dt^%d" % n if monic else "%s*Dt^%d" % (_coeff(rng, z8), n)]
    terms += ["%s*Dt^%d" % (_coeff(rng, z8), i) for i in range(n - 1, 0, -1)]
    terms.append(_coeff(rng, z8, den=den))
    return " + ".join(terms)


def _compose(n, z8):
    return lambda rng, i: {"query": "mul", "a": _op(rng, n, z8), "b": _op(rng, n, z8)}


def _divmod(n, m, z8):
    return lambda rng, i: {"query": "divmod", "a": _op(rng, n, z8), "b": _op(rng, m, z8)}


def _gcrd(n, z8):
    """Two order-n operators with a planted monic order-1 common right factor.

    Coefficients are polynomials in t: with (t + c) denominators the time
    of one gcrd varies threefold with the draw, too much for a class.
    """
    def make(rng, i):
        f = _op(rng, 1, z8, monic=True, den=False)
        a = "(%s)*(%s)" % (_op(rng, n - 1, z8, monic=True, den=False), f)
        b = "(%s)*(%s)" % (_op(rng, n - 1, z8, monic=True, den=False), f)
        return {"query": "gcrd", "a": a, "b": b, "factor": f}
    return make


def _wronskian(m, z8):
    """m elements c_k t^k + d_k, k = 1..m (c_k times zeta_8 over Q(zeta_8))."""
    def make(rng, i):
        elems = []
        for k in range(1, m + 1):
            c = rng.choice((1, 2, 3)) * rng.choice((1, -1))
            d = rng.choice((1, 2, 3))
            elems.append("%d*%st^%d + %d" % (c, "zeta(8)*" if z8 else "", k, d))
        return {"query": "wronskian", "elements": ", ".join(elems)}
    return make


def _realize(width):
    """An Euler operator with monomial solutions inside the window |j| <= width.

    ga: t*Dt - a (kernel t^a) or the order-2 Euler operator with kernel
    t^a, t^b.  gm: t*Dt - a with a != -1, so L o Dt has kernel 1, t^(a+1).
    The three kinds cycle with the instance index.
    """
    def make(rng, i):
        kind = ("ga", "ga2", "gm")[i % 3]
        a = rng.choice([j for j in range(-3, 4) if j != -1])
        if kind == "ga2":
            b = rng.choice([j for j in range(-3, 4) if j not in (a, -1)])
            op = "t^2*Dt^2 + (%d)*t*Dt + (%d)" % (1 - a - b, a * b)
            kind = "ga"
        else:
            op = "t*Dt + (%d)" % (-a)
        return {"query": "realize", "kind": kind, "op": op, "width": width}
    return make


# ---------------------------------------------------------------------------
# fractions


# primitive 8th roots; r * zeta^k with r > 0 and distinct k are distinct poles,
# and x^4 + r^4 is their minimal polynomial over Q
_ZETA_POW = (1, 3, 5, 7)


def _factor(pole: str) -> str:
    return "(x - (%s))" % pole


def _numerator(rng, deg: int, rational_poles) -> str:
    """A rational-coefficient numerator of degree deg, nonzero at every pole.

    Rational coefficients cannot vanish at a t-dependent pole, nor at
    zeta_8^k * r for deg < 4; rational poles are checked exactly.
    """
    while True:
        cs = [rng.randint(-4, 4) for _ in range(deg)] + [rng.choice((1, 2, 3))]
        if all(sum(c * p**i for i, c in enumerate(cs)) for p in rational_poles):
            return " + ".join("%d*x^%d" % (c, i) for i, c in enumerate(cs) if c)


def _distinct_rationals(rng, n: int, zero: bool) -> list[Fraction]:
    pool = [Fraction(p, q) for p in range(-5, 6) for q in (1, 2)
            if (p % q or q == 1) and (p or zero)]
    return rng.sample(pool, n)


def _fraction(rational_mults, cyclo_mults=(), t_mults=(), num_extra=0, at_zero=False):
    """Planted poles: rational ones, zeta_8^k * r ones and a*t + b ones.

    A t-dependent pole must not share its multiplicity with another pole,
    or Yun's square-free step merges it with that pole into one factor
    with non-constant coefficients (the defect_f class does exactly that).
    A square-free factor holding both x = 0 and a zeta_8 pole raises
    SplitFieldError, so next to zeta_8 poles the pole 0 is drawn only
    with at_zero, which the defect_zero_cyclo class uses to plant exactly
    that case.
    """
    def make(rng, i):
        if at_zero:
            rats = [Fraction(0)]
        else:
            rats = _distinct_rationals(rng, len(rational_mults), zero=not cyclo_mults)
        poles = [(str(r), m) for r, m in zip(rats, rational_mults)]
        used = set()
        for m in cyclo_mults:
            k = rng.choice([k for k in _ZETA_POW if k not in used])
            used.add(k)
            poles.append(("%d*zeta(8)^%d" % (rng.choice((1, 2, 3)), k), m))
        for m in t_mults:
            a = rng.choice((1, 2, -1, -2))
            poles.append(("%d*t + %d" % (a, rng.randint(-3, 3)), m))
        deg = sum(m for _, m in poles)
        den = "*".join(_factor(p) + ("^%d" % m if m > 1 else "") for p, m in poles)
        num = _numerator(rng, deg - 1 + num_extra, rats)
        return {"expr": "(%s)/(%s)" % (num, den),
                "poles": [[p, m] for p, m in poles]}
    return make


# ---------------------------------------------------------------------------
# the workloads: (class name, tasks per round, instance maker)
#
# Tasks per round are set so that the median and the 90th percentile of
# task latency fall inside one class's band of the sorted latencies, not
# on the edge between two classes of different cost, where they would
# jump with the draw: certify sl2_o30 and z3_o10, operators wronskian_z8_m3
# and realize_w16, fractions tpole_d3 and tpole_d4.

WORKLOADS = {
    "certify": [
        ("sl2_o10", 1, lambda rng, i: _sl2_task(rng, i, 10)),
        ("sl2_o20", 1, lambda rng, i: _sl2_task(rng, i, 20)),
        ("sl2_o30", 3, lambda rng, i: _sl2_task(rng, i, 30)),
        ("z2_o8", 1, _z2(8)),
        ("z2_o12", 1, _z2(12)),
        ("z2_o16", 1, _z2(16)),
        ("z3_o6", 1, _z3(6)),
        ("z3_o8", 1, _z3(8)),
        ("z3_o10", 3, _z3(10)),
    ],
    "operators": [
        ("mul_q_n2", 1, _compose(2, False)),
        ("mul_z8_n2", 1, _compose(2, True)),
        ("divmod_q_n4_2", 1, _divmod(4, 2, False)),
        ("divmod_z8_n3_2", 1, _divmod(3, 2, True)),
        ("gcrd_q_n2", 1, _gcrd(2, False)),
        ("gcrd_q_n3", 1, _gcrd(3, False)),
        ("gcrd_z8_n2", 1, _gcrd(2, True)),
        ("wronskian_q_m3", 1, _wronskian(3, False)),
        ("wronskian_q_m4", 1, _wronskian(4, False)),
        ("wronskian_q_m5", 1, _wronskian(5, False)),
        ("wronskian_z8_m3", 1, _wronskian(3, True)),
        ("realize_w8", 2, _realize(8)),
        ("realize_w12", 1, _realize(12)),
        ("realize_w16", 3, _realize(16)),
    ],
    "fractions": [
        ("rational_d4", 1, _fraction((2, 1, 1))),
        ("rational_d6", 1, _fraction((3, 2, 1), num_extra=1)),
        ("cyclo_d2", 1, _fraction((1,), cyclo_mults=(1,))),
        ("cyclo_d3_m2", 1, _fraction((1,), cyclo_mults=(2,))),
        ("tpole_d3", 2, _fraction((1,), t_mults=(2,))),
        ("tpole_d3_m1", 1, _fraction((2,), t_mults=(1,))),
        ("tpole_d4", 2, _fraction((1, 1), t_mults=(2,))),
        ("defect_f", 1, _fraction((1,), t_mults=(1,))),
        ("defect_zero_cyclo", 1, _fraction((1,), cyclo_mults=(1,), at_zero=True)),
    ],
}


# Classes that plant a known ppv defect, with the error it raises today.
# A task of such a class that raises exactly this error is a known-defect
# failure: it counts in failed_share, but not as an unexpected failure.
# Any other error, or a wrong answer, is an unexpected failure.
KNOWN_DEFECTS = {
    # ROADMAP defect (f): Yun's step merges x - t with x - r into one
    # degree-2 factor with non-constant coefficients
    "defect_f": "SplitFieldError",
    # the pole x = 0 next to a zeta_8 pole in one square-free factor
    "defect_zero_cyclo": "SplitFieldError",
}


def generate(workload: str, seed: int) -> list[dict]:
    """All tasks of one run's pool, class by class, POOL_SIZE per slot in a round."""
    tasks = []
    for name, per_round, make in WORKLOADS[workload]:
        rng = random.Random("%s/%s/%d" % (workload, name, seed))
        for i in range(POOL_SIZE * per_round):
            task = make(rng, i)
            task["id"] = "%s/%d" % (name, i)
            task["class"] = name
            tasks.append(task)
    return tasks


def pool_bytes(workload: str, seed: int) -> bytes:
    """The canonical serialization; equal seeds give equal bytes."""
    return json.dumps(generate(workload, seed), sort_keys=True).encode()


def rounds(workload: str, tasks: list[dict]):
    """Yield rounds: the next per_round instances of every class, classes interleaved."""
    by_class: dict[str, list[dict]] = {}
    for t in tasks:
        by_class.setdefault(t["class"], []).append(t)
    r = 0
    while True:
        batch = []
        for name, per_round, _ in WORKLOADS[workload]:
            pool = by_class[name]
            for k in range(per_round):
                batch.append(pool[(r * per_round + k) % len(pool)])
        yield batch
        r += 1
