"""Command line front end.

Verbs: ore (divmod/mul/apply/gcrd), decompose, realize, check, block,
orbits, certify, selftest.  All numeric output is exact; --json emits
the machine-readable records documented in docs/formats.md.  The
environment variable PPV_TRUNC overrides the default working order.

Exit codes: 0 success, 1 failed verification, 2 malformed input or
another library error, 3 internal error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .descent import find_free_orbits, run_criterion
from .errors import DecodeError, PpvError, VerificationFailed
from .local_blocks import make_block
from .ore import gcrd as ore_gcrd
from .ore import right_divmod
from .parser import parse_basis, parse_expr, parse_k, parse_operator, parse_xrat
from .partial_fractions import decompose as pf_decompose
from .realization import (
    check_membership_ga,
    check_membership_gm,
    necessary_condition_report,
    realize_ga,
    realize_gm,
)
from .render import format_ore, format_poly, format_ratfunc
from .scalars import Scalar
from .series import default_order
from . import jsonio


def _read_json(path):
    with open(path) as fh:
        return json.loads(fh.read())


def _field(doc, key: str):
    if not isinstance(doc, dict) or key not in doc:
        raise DecodeError("expected a JSON object with a %r field" % key)
    return doc[key]


def _emit(args, payload, text: str) -> None:
    if getattr(args, "json", False) or getattr(args, "out", None):
        blob = json.dumps(payload, indent=2)
        if getattr(args, "out", None):
            with open(args.out, "w") as fh:
                fh.write(blob + "\n")
        else:
            print(blob)
    if not getattr(args, "json", False):
        print(text)


def _cmd_ore(args) -> int:
    a = parse_operator(args.a)
    if args.action == "apply":
        f = parse_expr(args.b)
        if isinstance(f, Scalar):
            from .rationals import k_const

            f = k_const(f)
        result = a.apply(f)
        _emit(args, jsonio.encode(result), "L(f) = %s" % format_ratfunc(result))
        return 0
    b = parse_operator(args.b)
    if args.action == "divmod":
        q, r = right_divmod(a, b)
        payload = {"quotient": jsonio.encode(q), "remainder": jsonio.encode(r)}
        _emit(args, payload, "quotient:  %s\nremainder: %s" % (format_ore(q), format_ore(r)))
    elif args.action == "mul":
        p = a * b
        _emit(args, jsonio.encode(p), "product: %s" % format_ore(p))
    elif args.action == "gcrd":
        g = ore_gcrd(a, b)
        _emit(args, jsonio.encode(g), "gcrd: %s" % format_ore(g))
    return 0


def _cmd_decompose(args) -> int:
    g = parse_xrat(args.expr)
    d = pf_decompose(g)
    lines = ["polynomial part: %s" % format_poly(d.poly_part)]
    for t in d.terms:
        lines.append(
            "  (%s) / (x - (%s))^%d" % (format_ratfunc(t.coeff), format_ratfunc(t.pole), t.mult)
        )
    log = d.logarithmic_part()
    lines.append(
        "logarithmic part: %s"
        % (", ".join("(%s, %s)" % (format_ratfunc(p), format_ratfunc(c)) for p, c in log) or "zero")
    )
    lines.append("has d/dx antiderivative in K(x): %s" % ("yes" if not log else "no"))
    _emit(args, jsonio.encode(d), "\n".join(lines))
    return 0


def _cmd_realize(args) -> int:
    l = parse_operator(args.op)
    basis = parse_basis(args.basis)
    real = realize_gm(l, basis) if args.kind == "gm" else realize_ga(l, basis)
    report = necessary_condition_report(real.equation_datum, args.kind, l)
    lines = [
        "kind: %s" % real.kind,
        "operator: %s" % format_ore(real.operator),
        "equation datum a = %s" % format_ratfunc(real.equation_datum),
        "checks:",
    ]
    lines += ["  %-46s %s" % (c.name, "pass" if c.passed else "FAIL") for c in real.checks]
    lines.append(
        "necessary condition: annihilation %s, minimality %s (witness order %d vs %d)"
        % (report.all_annihilated, report.minimal, report.witness_order, report.operator_order)
    )
    payload = {
        "realization": jsonio.encode(real),
        "necessary_condition": jsonio.encode(report),
    }
    _emit(args, payload, "\n".join(lines))
    return 0 if real.all_checks_passed() and report.passed() else 1


def _cmd_check(args) -> int:
    real = jsonio.decode(_field(_read_json(args.realization), "realization"))
    l = parse_operator(args.op)
    fn = check_membership_gm if real.kind == "gm" else check_membership_ga
    verdict = fn(real.model, l)
    _emit(
        args,
        {"membership": verdict},
        "membership of the %s model in the %s-group of %s: %s"
        % (real.kind, real.kind, format_ore(l), "yes" if verdict else "no"),
    )
    return 0 if verdict else 1


def _cmd_block(args) -> int:
    q = parse_expr(args.q)
    if not isinstance(q, Scalar):
        if hasattr(q, "is_constant") and q.is_constant():
            q = q.as_coefficient()
        else:
            raise PpvError("--q must be a constant point")
    kind = {"cyclic": "cyclic", "ga": "ga", "gmconst": "gm_const"}[args.kind]
    h = parse_k(args.h) if args.h is not None else None
    blk = make_block(kind, q, args.e, args.order, r=args.r, h=h)
    lines = ["block kind %s at z = %s (e = %d), order %d" % (kind, q, args.e, blk.order)]
    for c in blk.checks:
        lines.append("  %-52s %s" % (c.name, "pass" if c.passed else "FAIL"))
    _emit(args, jsonio.encode(blk), "\n".join(lines))
    return 0


def _cmd_orbits(args) -> int:
    gd = jsonio.decode(_read_json(args.gd))
    orbits = find_free_orbits(gd, args.count)
    payload = [jsonio.encode(o) for o in orbits]
    text = "\n".join(
        "orbit %d: {%s}" % (i + 1, ", ".join(str(p) for p in o.points))
        for i, o in enumerate(orbits)
    )
    _emit(args, payload, text)
    return 0


def _cmd_certify(args) -> int:
    group_doc = _read_json(args.group)
    group = jsonio.decode(_field(group_doc, "group"))
    parts = [jsonio.decode(p) for p in _field(group_doc, "decomposition")]
    gd = jsonio.decode(_read_json(args.galois))
    # run_criterion raises VerificationFailed unless every exact check passed
    cert = run_criterion(group, parts, gd, order=args.trunc, samples=args.samples)
    payload = jsonio.encode(cert)
    text_lines = [
        "certificate: %d parts, %d orbits, %d blocks"
        % (len(cert.decomposition), len(cert.orbits), len(cert.blocks)),
        "exact checks: all passed",
        "assumptions cited:",
    ]
    text_lines += ["  [%s] %s" % (a.kind, a.statement) for a in cert.assumptions]
    _emit(args, payload, "\n".join(text_lines))
    return 0


def _cmd_selftest(args) -> int:
    from .acceptance import run_all

    numbers = None
    if args.criteria:
        numbers = {int(x) for x in args.criteria.split(",")}
    results = run_all(order=args.trunc, numbers=numbers)
    failed = 0
    for res in results:
        mark = "PASS" if res.passed else "FAIL"
        print("[%s] criterion %d: %s (%.2fs)" % (mark, res.number, res.name, res.seconds))
        print("       %s" % res.details)
        if not res.passed:
            failed += 1
    print("%d/%d criteria passed" % (len(results) - failed, len(results)))
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ppv",
        description="Exact differential-algebra engine: operator calculus, "
        "order-one realizations, local building blocks, descent certificates.",
    )
    sub = ap.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("ore", help="operator arithmetic in K[Dt]")
    p.add_argument("action", choices=["divmod", "mul", "apply", "gcrd"])
    p.add_argument("a", help="operator, e.g. 't*Dt^2 + (1/t)*Dt + 3'")
    p.add_argument("b", help="second operator, or the argument for apply")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_ore)

    p = sub.add_parser("decompose", help="partial fraction decomposition over K(x)")
    p.add_argument("expr", help="rational function in x, e.g. '(x+1)/(x*(x-1))'")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser("realize", help="order-one realization from a fundamental set")
    p.add_argument("--kind", choices=["gm", "ga"], required=True)
    p.add_argument("--op", required=True)
    p.add_argument("--basis", required=True, help="comma-separated elements of K")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_realize)

    p = sub.add_parser("check", help="membership test for a stored realization model")
    p.add_argument("--membership", action="store_true", help="run the membership test")
    p.add_argument("--realization", required=True, help="JSON file from 'realize --json'")
    p.add_argument("--op", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("block", help="build and verify one local building block")
    p.add_argument("--kind", choices=["cyclic", "ga", "gmconst"], required=True)
    p.add_argument("--q", required=True, help="the point z = q")
    p.add_argument("--r", type=int, help="cyclic order (kind=cyclic)")
    p.add_argument("--h", help="element of K (kind=ga)")
    p.add_argument("--e", type=int, default=1, help="ramification index")
    p.add_argument("--order", type=int, default=None, help="working order (default %d)" % default_order())
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_block)

    p = sub.add_parser("orbits", help="find free orbits for a Galois datum")
    p.add_argument("--gd", required=True, help="Galois datum JSON file")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_orbits)

    p = sub.add_parser("certify", help="run the full descent pipeline")
    p.add_argument("--group", required=True, help="JSON with 'group' and 'decomposition'")
    p.add_argument("--galois", required=True, help="Galois datum JSON file")
    p.add_argument("--trunc", type=int, default=None, help="working order")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--out", help="write the certificate JSON here")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_certify)

    p = sub.add_parser("selftest", help="run the acceptance criteria")
    p.add_argument("--trunc", type=int, default=None)
    p.add_argument("--criteria", help="comma-separated criterion numbers")
    p.set_defaults(fn=_cmd_selftest)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except VerificationFailed as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except (PpvError, FileNotFoundError, json.JSONDecodeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except Exception as exc:
        print("internal error: %s: %s" % (type(exc).__name__, " ".join(str(exc).split())),
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
