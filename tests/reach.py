"""Reachability check: every function in src/ppv is entered by some verb, or says why not.

    PYTHONPATH=src python tests/reach.py

Profiles every call while it imports ppv and runs the traffic the program
is judged by: every task of the three default-seed benchmark pools, each
checked by its oracle (bench/workloads.py and bench/tasks.py, imported
read-only); `ppv selftest` in the README's three forms; the README's and
CI's other CLI calls; and malformed inputs that the tests and CI already
feed the CLI and the decoder.  Then it lists each function or method
defined under src/ppv that was never entered.  A name passes by rule
when Python calls it implicitly or it is not a function of its own:
dunders other than the arithmetic operators, comprehensions, lambdas,
class and module bodies.  Any other unreached name, an arithmetic
operator included, passes only with a row in KEPT that says why it stays.

Exits 1 on an unreached name with no row, on a stale row (its name is
reached now, or no longer defined), and on traffic that does not behave
as the README says; otherwise it prints the KEPT table and exits 0.
pytest does not collect this file; it takes about a minute on one core.
tests/test_reach.py tests the verdict itself.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import json
import os
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ppv"

_TRACER = "bench/tracer.py wraps it by name; it goes with ROADMAP item 6"
_KERNEL = "the shared series kernel calls it on either series type"
_LATTICE = "the divisibility lattice of ppv.groups, which the README documents"

# module.qualname -> why it stays although no traffic enters it
KEPT = {
    "series.TruncLaurent.dx": _TRACER,
    "series.TruncLaurent.dt": _TRACER,
    "series.TruncLaurent.dt0": _TRACER,
    "series.TruncLaurent.scale": _TRACER,
    "series.TwoVarLaurent.dt": _TRACER,
    "series.TwoVarLaurent.scale": _TRACER,
    "scalars.Scalar.__rsub__": _TRACER,
    "scalars.Scalar.__rtruediv__": _TRACER,
    "rationals.RatFunc.__rsub__": _TRACER,
    "rationals.RatFunc.__rtruediv__": _TRACER,
    "linalg.rref": _TRACER,
    "partial_fractions.has_antiderivative": _TRACER,
    "series.TruncLaurent.truncate": _KERNEL,
    "series.TruncLaurent.valuation": _KERNEL,
    "descent.GaloisDatum.compose": "sigma commutation on the monomial basis will call it (item 10)",
    "descent.GaloisDatum.identity": "sigma commutation on the monomial basis will call it (item 10)",
    "descent.root_subgroup_parts": "semisimple groups beyond SL2 will call it (item 7)",
    "groups.is_subgroup": _LATTICE,
    "groups._comparable": _LATTICE,
    "groups._comparable.<locals>.side": _LATTICE,
    "scalars.Scalar.coeffs": "__repr__ and the Fraction-reference tests read it",
}


def definitions(root: Path) -> dict:
    """{(file, first line): (name, kind)} for each code object compiled from root's files.

    A name is module.qualname, the module relative to root; kind is
    "class" for a class body, else "function".  Qualnames follow Python's
    rule, with <locals> inside a function body, and are built here so
    that they read the same on every Python version.
    """
    root, found = root.resolve(), {}

    def walk(code, path, prefix, in_class):
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                name = const.co_name
                qual = name if not prefix else (
                    "%s.%s" % (prefix, name) if in_class else "%s.<locals>.%s" % (prefix, name))
                # a function body gets a fresh namespace; a class body does not
                body = not const.co_flags & inspect.CO_NEWLOCALS
                found[path, const.co_firstlineno] = (
                    "%s.%s" % (module, qual), "class" if body else "function")
                walk(const, path, qual, body)

    for path in sorted(root.rglob("*.py")):
        parts = path.relative_to(root).with_suffix("").parts
        module = ".".join([p for p in parts if p != "__init__"] or [root.name])
        walk(compile(path.read_text(), str(path), "exec"), str(path), "", False)
    return found


# operators a program spells out: unlike a hook such as __repr__ or __hash__,
# each is entered only by an expression that uses it, so it needs a caller
_ARITHMETIC = {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
               "__truediv__", "__rtruediv__", "__neg__", "__pow__"}


def passes_by_rule(name: str, kind: str) -> bool:
    name = name.rsplit(".", 1)[-1]
    return kind == "class" or name.startswith("<") or (
        name.startswith("__") and name.endswith("__") and name not in _ARITHMETIC)


def entered(root: Path, run) -> set:
    """The (file, first line) of each code object under root that run() enters.

    The profile hook is set before run starts, so what run imports counts.
    """
    seen = set()

    def hook(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    old = sys.getprofile()
    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(old)
    prefix = str(root.resolve()) + os.sep
    files = {c.co_filename: os.path.realpath(c.co_filename) for c in seen}
    return {(files[c.co_filename], c.co_firstlineno) for c in seen
            if files[c.co_filename].startswith(prefix)}


def verdict(root: Path, reached: set, kept: dict) -> list[str]:
    """One line per problem: an unreached name with no reason, or a stale kept row."""
    names, problems = set(), []
    for (path, line), (name, kind) in sorted(definitions(root).items()):
        names.add(name)
        if (path, line) in reached:
            if name in kept:
                problems.append("stale: %s is reached now (%s:%d)" % (name, path, line))
        elif name not in kept and not passes_by_rule(name, kind):
            problems.append("unreached: %s (%s:%d)" % (name, path, line))
    problems += ["stale: %s names nothing defined" % name for name in sorted(set(kept) - names)]
    return problems


# ---------------------------------------------------------------------------
# the traffic


def _pools(failures: list):
    sys.path.insert(0, str(ROOT / "bench"))
    import tasks
    import workloads

    for workload in ("certify", "operators", "fractions"):
        for task in workloads.generate(workload, 0):
            task = tasks.prepare(task)
            try:
                out = tasks.run(workload, task)
            except Exception as exc:  # a planted defect must fail in its known way
                if type(exc).__name__ != workloads.KNOWN_DEFECTS.get(task["class"]):
                    failures.append("%s/%s raised %r" % (workload, task["id"], exc))
                continue
            reason, _ = tasks.check(workload, task, out)
            if reason is not None:
                failures.append("%s/%s: %s" % (workload, task["id"], reason))


def _cli(failures: list, argv: list, want: int) -> str:
    """Run ppv argv in-process; a failure when it does not exit want.  Returns stdout."""
    from ppv import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refuses a flag this way
            code = exc.code
    if code != want:
        failures.append("ppv %s exited %s, not %d: %s"
                        % (" ".join(argv), code, want, err.getvalue().strip()[-200:]))
    return out.getvalue()


def _verbs(failures: list, tmp: Path):
    from ppv import jsonio
    from ppv.descent import GaloisDatum, standard_sl2_decomposition
    from ppv.errors import DecodeError
    from ppv.parser import parse_k, parse_xrat
    from ppv.partial_fractions import decompose

    group, parts = standard_sl2_decomposition()
    doc = {"group": jsonio.encode(group), "decomposition": [jsonio.encode(p) for p in parts]}
    first = doc["decomposition"][0]
    docs = {
        # the README's SL2 certify input
        "group": doc,
        "galois": jsonio.encode(GaloisDatum.trivial()),
        # h = zeta(9) while Gamma moves k = Q(zeta_4): h lies outside k
        "outside_k": {**doc, "decomposition": [
            {**first, "h": jsonio.encode(parse_k("zeta(9)"))}, *doc["decomposition"][1:]]},
        "moves_k": jsonio.encode(GaloisDatum.build(2, field_order=4, generators=[(3, 0)])),
        # a part node where the group belongs
        "wrong_kind": {**doc, "group": first},
    }
    at = {name: str(tmp / (name + ".json")) for name in [*docs, "real", "cert"]}
    for name, node in docs.items():
        Path(at[name]).write_text(json.dumps(node))
    real = ["realize", "--kind", "ga", "--op", "t*Dt - 1", "--basis", "t", "--json"]
    Path(at["real"]).write_text(_cli(failures, real, 0))
    calls = [
        # the README
        (["ore", "divmod", "t*Dt + 1", "Dt"], 0),
        (["ore", "mul", "Dt", "t"], 0),
        (["ore", "apply", "t*Dt + 1", "t"], 0),
        # the gcrd verb, on two operators that share the right factor t*Dt - 1
        (["ore", "gcrd", "(Dt + 1)*(t*Dt - 1)", "Dt*(t*Dt - 1)"], 0),
        (["decompose", "(x+1)/(x*(x-1))"], 0),
        (["realize", "--kind", "gm", "--op", "Dt", "--basis", "1,t"], 0),
        (["check", "--membership", "--realization", at["real"], "--op", "t*Dt - 1"], 0),
        (["block", "--kind", "ga", "--q", "1", "--h", "t", "--e", "2"], 0),
        (["block", "--kind", "cyclic", "--q", "0", "--r", "2", "--e", "2"], 0),
        (["orbits", "--gd", at["galois"], "--count", "2"], 0),
        (["certify", "--group", at["group"], "--galois", at["galois"], "--trunc", "10",
          "--out", at["cert"]], 0),
        # the README's orbits at c + zeta_N: an element of Gamma moves k = Q(zeta_4)
        (["certify", "--group", at["group"], "--galois", at["moves_k"], "--trunc", "4",
          "--samples", "2"], 0),
        (["selftest"], 0),
        (["selftest", "--trunc", "4"], 0),
        (["selftest", "--criteria", "7,8"], 0),
        # CI: a power of an unreduced quotient, reduced before it is raised
        (["decompose", "((((x+1)/(x+1))^64)^64)/(x-1)"], 0),
        # CI: a non-member exits 1, malformed input exits 2
        (["check", "--membership", "--realization", at["real"], "--op", "Dt"], 1),
        (["decompose", "²"], 2),
        (["selftest", "--criteria", "99"], 2),
        (["certify", "--group", at["outside_k"], "--galois", at["moves_k"], "--trunc", "4",
          "--samples", "2"], 2),
        (["certify", "--group", at["wrong_kind"], "--galois", at["galois"]], 2),
    ]
    for argv, want in calls:
        _cli(failures, argv, want)
    text = Path(at["cert"]).read_text()
    if json.dumps(jsonio.encode(jsonio.decode(json.loads(text))), indent=2) + "\n" != text:
        failures.append("the certificate does not re-encode to its own bytes")
    # a partial-fraction multiplicity below 1 is refused by the decoder
    node = jsonio.encode(decompose(parse_xrat("1/((x - 1)^2*(x + 2))")))
    node["terms"][1]["mult"] = 0
    with contextlib.suppress(DecodeError):
        jsonio.decode(node)
        failures.append("a pf_decomp mult of 0 decoded")


def traffic() -> list[str]:
    """Run every verb above; returns what did not behave as expected."""
    failures: list[str] = []
    _pools(failures)
    with tempfile.TemporaryDirectory() as tmp:
        _verbs(failures, Path(tmp))
    return failures


def main() -> int:
    sys.path.insert(0, str(SRC.parent))
    failures: list[str] = []
    reached = entered(SRC, lambda: failures.extend(traffic()))
    problems = failures + verdict(SRC, reached, KEPT)
    if problems:
        print("\n".join(problems))
        return 1
    defined = definitions(SRC)
    ruled = sum(passes_by_rule(*d) for k, d in defined.items() if k not in reached)
    print("src/ppv defines %d functions, methods, class bodies, comprehensions and lambdas: "
          "%d entered, %d passed by rule, %d kept:"
          % (len(defined), len(reached & defined.keys()), ruled, len(KEPT)))
    for name, reason in KEPT.items():
        print("  %-36s %s" % (name, reason))
    return 0


if __name__ == "__main__":
    sys.exit(main())
