"""One benchmark task per CLI-style job, and the oracles that check it.

``run`` is the timed part: exactly the public ppv calls the matching CLI
verb makes (``ppv certify``, ``ppv ore``, ``ppv decompose``), called
in-process.  Functions are looked up on their modules at call time, so
the tracer's patches are seen.  ``check`` is untimed: it verifies the
output with an oracle that does not rely on the timed call's own
verdict, and returns the canonical output text whose digest pins the
result for the default seed.
"""

from __future__ import annotations

import json

from ppv import cli, jsonio, ore, partial_fractions, realization
from ppv.ore import right_divides, right_divmod
from ppv.parser import parse_k, parse_operator

ASSUMPTION_KINDS = ["density", "patching", "adjustment", "descent"]


def prepare(task: dict) -> dict:
    """Turn a generated task into the inputs its CLI verb reads."""
    if "group" in task:
        task = dict(task)
        task["group_text"] = json.dumps(task.pop("group"))
        task["galois_text"] = json.dumps(task.pop("galois"))
    return task


# ---------------------------------------------------------------------------
# timed work


def run(workload: str, task: dict):
    return _RUNNERS[workload](task)


def _certify(task):
    group_doc = json.loads(task["group_text"])
    group = cli.jsonio.decode(group_doc["group"])
    parts = [cli.jsonio.decode(p) for p in group_doc["decomposition"]]
    gd = cli.jsonio.decode(json.loads(task["galois_text"]))
    cert = cli.run_criterion(group, parts, gd, order=task["trunc"], samples=task["samples"])
    blob = json.dumps(cli.jsonio.encode(cert), indent=2)
    return cert, blob


def _operators(task):
    q = task["query"]
    if q == "wronskian":
        elems = cli.parse_basis(task["elements"])
        return elems, ore.wronskian_operator(elems)
    if q == "realize":
        l = cli.parse_operator(task["op"])
        return l, realization.realize_in_window(l, task["kind"], task["width"])
    a = cli.parse_operator(task["a"])
    b = cli.parse_operator(task["b"])
    if q == "mul":
        return (a, b), a * b
    if q == "divmod":
        return (a, b), cli.right_divmod(a, b)
    return (a, b), cli.ore_gcrd(a, b)


def _fractions(task):
    g = cli.parse_xrat(task["expr"])
    d = cli.pf_decompose(g)
    log = partial_fractions.logarithmic_part(d)
    back = partial_fractions.reassemble(d)
    return g, d, log, back


_RUNNERS = {"certify": _certify, "operators": _operators, "fractions": _fractions}


def out_bytes(workload: str, out) -> int:
    """Bytes of JSON the task emitted: the certificate; the other verbs print text."""
    return len(out[1]) if workload == "certify" else 0


# ---------------------------------------------------------------------------
# oracles (untimed)


def check(workload: str, task: dict, out) -> tuple[str | None, str]:
    """(failure reason or None, canonical output text)."""
    return _ORACLES[workload](task, out)


def _check_certify(task, out):
    cert, blob = out
    doc = json.loads(blob)
    if not cert.all_exact_checks_passed():
        return "certificate object reports failing exact checks", blob
    # re-read the verdict from the emitted JSON instead of trusting the flag
    records = [c for b in doc["blocks"] for c in b["block"]["checks"]]
    records += doc["transcripts"] + doc["completeness"]
    if not records or not all(r["passed"] for r in records):
        return "a check record in the emitted certificate did not pass", blob
    kinds = [a["kind"] for a in doc["assumptions"]]
    if kinds != ASSUMPTION_KINDS:
        return "assumptions cited: %r" % kinds, blob
    n_parts = len(json.loads(task["group_text"])["decomposition"])
    if len(doc["blocks"]) != n_parts * task["gamma"]:
        return "%d blocks for %d parts x |Gamma| %d" % (
            len(doc["blocks"]), n_parts, task["gamma"]), blob
    return None, blob


def _canon(obj) -> str:
    return json.dumps(jsonio.encode(obj), sort_keys=True)


def _check_operators(task, out):
    inputs, res = out
    q = task["query"]
    if q == "mul":
        a, b = inputs
        if res.order() != a.order() + b.order():
            return "order of a*b is %d" % res.order(), _canon(res)
        quo, rem = right_divmod(res, b)
        if quo != a or not rem.is_zero():
            return "right division of a*b by b does not give (a, 0)", _canon(res)
        return None, _canon(res)
    if q == "divmod":
        a, b = inputs
        quo, rem = res
        text = json.dumps([jsonio.encode(quo), jsonio.encode(rem)], sort_keys=True)
        if rem.order() >= b.order() or quo * b + rem != a:
            return "a != q*b + r with order(r) < order(b)", text
        return None, text
    if q == "gcrd":
        a, b = inputs
        factor = parse_operator(task["factor"])
        if not (right_divides(res, a) and right_divides(res, b)):
            return "gcrd does not right-divide both inputs", _canon(res)
        if not right_divides(factor, res):
            return "planted factor does not right-divide the gcrd", _canon(res)
        return None, _canon(res)
    if q == "wronskian":
        elems = inputs
        if res.order() != len(elems) or not res.leading().is_one():
            return "not monic of order %d" % len(elems), _canon(res)
        if not all(res.apply(el).is_zero() for el in elems):
            return "an element is not annihilated", _canon(res)
        return None, _canon(res)
    # realize
    l = inputs
    report = realization.necessary_condition_report(res.equation_datum, task["kind"], l)
    text = json.dumps([jsonio.encode(res), jsonio.encode(report)], sort_keys=True)
    if not res.all_checks_passed():
        return "realization checks failed", text
    if not report.passed():
        return "necessary-condition report failed", text
    return None, text


def _check_fractions(task, out):
    g, d, log, back = out
    text = json.dumps([jsonio.encode(d), jsonio.encode(back)], sort_keys=True)
    if back != g:
        return "reassemble(decompose(g)) != g", text
    # distinct poles with their top multiplicity; compared by ==, not by hash
    found: list = []
    for term in d.terms:
        for entry in found:
            if entry[0] == term.pole:
                entry[1] = max(entry[1], term.mult)
                break
        else:
            found.append([term.pole, term.mult])
    planted = [[parse_k(pole), mult] for pole, mult in task["poles"]]
    if len(found) != len(planted) or not all(
        any(p == q and m == n for q, n in found) for p, m in planted
    ):
        return "poles found differ from the planted poles", text
    if [(p, c) for p, c in log] != [(t.pole, t.coeff) for t in d.terms if t.mult == 1]:
        return "logarithmic part is not the multiplicity-one terms", text
    return None, text


_ORACLES = {"certify": _check_certify, "operators": _check_operators,
            "fractions": _check_fractions}
