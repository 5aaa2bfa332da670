"""Span tracer that wraps ppv's public functions from outside.

ppv modules bind names with ``from .x import y``, so a function is
patched at every binding site: each ``ppv.*`` module attribute that is
the original object gets the wrapper (``ppv.descent.make_block``,
``ppv.ore.det``, ``ppv.cli.right_divmod``, ...).  Methods are patched on
their class (``Scalar.__mul__``, ``Poly.gcd``, ``TwoVarLaurent.__mul__``),
aliases such as ``__rmul__`` included.

Every wrapped call is a span.  A span's self time is its duration minus
the time its wrapped children cover; self times are summed per span
name, and inclusive times are summed over the outermost call of each
name.  Calls of module-level functions are also kept as span records
(name, start, end, parent span, task id) and written out when the run
ends; the hot arithmetic methods, called millions of times, are only
aggregated.  ``install``/``uninstall`` restore every patched attribute.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from collections import defaultdict

from ppv.rationals import Poly, RatFunc
from ppv.scalars import Scalar
from ppv.series import TruncLaurent, TwoVarLaurent
from ppv.ore import OrePoly

# module-level functions to wrap, by defining module
FUNCTIONS = {
    "ppv.ore": ("right_divmod", "right_divides", "gcrd", "compose_dt", "wronskian_matrix",
                "wronskian_det", "wronskian_operator", "solve_in_window"),
    "ppv.linalg": ("det", "nullspace", "rref"),
    "ppv.partial_fractions": ("decompose", "reassemble", "linear_roots",
                              "logarithmic_part", "has_antiderivative"),
    "ppv.realization": ("realize_in_window", "realize_gm", "realize_ga",
                        "fundamental_set_in_window", "necessary_condition_report",
                        "check_membership_gm", "check_membership_ga"),
    "ppv.parser": ("parse_expr", "parse_operator", "parse_k", "parse_xrat", "parse_basis"),
    "ppv.local_blocks": ("make_block", "block_cyclic", "block_ga_closure", "block_gm_const",
                         "fp_membership", "matrix_identity_check"),
    "ppv.descent": ("run_criterion", "find_free_orbits", "verify_sigma_commutes",
                    "verify_equivariance", "transport_block", "sigma_map"),
    "ppv.groups": ("closure_of_additive", "group_eq"),
    "ppv.jsonio": ("encode", "decode"),
}

# methods to wrap: (class, layer, method names); aggregated, never recorded
_ARITH = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
          "__truediv__", "__rtruediv__", "__neg__", "__pow__", "inv")
METHODS = (
    (Scalar, "scalars", _ARITH),
    (Poly, "rationals", ("__add__", "__sub__", "__mul__", "__rmul__", "__neg__", "divmod",
                         "gcd", "monic", "deriv", "scale")),
    (RatFunc, "rationals", _ARITH + ("deriv", "dx", "dt", "dt0")),
    (TruncLaurent, "series", ("__add__", "__sub__", "__mul__", "__neg__", "inv", "div",
                              "dx", "dt", "dt0", "agree", "scale")),
    (TwoVarLaurent, "series", ("__add__", "__sub__", "__mul__", "__neg__", "inv", "div",
                               "dx", "dt", "dt0", "agree", "scale", "mul_k")),
    (OrePoly, "ore", ("__add__", "__sub__", "__mul__", "__neg__", "scale", "monic", "apply")),
)

# recursive functions whose inner calls are aggregated, not recorded
_NOT_RECORDED = {"jsonio.encode", "jsonio.decode", "descent.sigma_map", "linalg.rref"}


class Tracer:
    def __init__(self):
        self.active = False
        self.task = None
        self.self_s = defaultdict(float)  # span name -> summed self time
        self.outer_s = defaultdict(float)  # span name -> inclusive time, outermost calls
        self.calls = defaultdict(int)  # span name -> calls
        self.counters = defaultdict(float)  # quantities the observers below count
        self.records: list[list] = []  # [name, start, end, parent record, task id]
        self._stack: list[list] = []  # [child time, record id or None]
        self._depth = defaultdict(int)
        self._patches: list[tuple] = []

    # -- patching ----------------------------------------------------------

    def install(self):
        for modname, names in FUNCTIONS.items():
            layer = modname.split(".")[1]
            mod = sys.modules[modname]
            for name in names:
                orig = getattr(mod, name)
                span = "%s.%s" % (layer, name)
                wrapper = self._wrap(span, orig, record=span not in _NOT_RECORDED)
                for site in [m for k, m in sys.modules.items() if k == "ppv" or k.startswith("ppv.")]:
                    for attr, value in list(vars(site).items()):
                        if value is orig:
                            self._patches.append((site, attr, orig))
                            setattr(site, attr, wrapper)
        for cls, layer, names in METHODS:
            for name in names:
                orig = cls.__dict__[name]
                span = "%s.%s.%s" % (layer, cls.__name__, name)
                self._patches.append((cls, name, orig))
                setattr(cls, name, self._wrap(span, orig, record=False))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- spans -------------------------------------------------------------

    def _wrap(self, span: str, fn, record: bool):
        stack, depth = self._stack, self._depth
        self_s, outer_s, calls = self.self_s, self.outer_s, self.calls
        clock = time.perf_counter
        observe = _OBSERVERS.get(span)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            name = span
            if observe is not None:
                name = observe(tracer, args) or span
            rec = None
            if record and not depth[name]:
                rec = len(tracer.records)
                parent = next((f[1] for f in reversed(stack) if f[1] is not None), None)
                tracer.records.append([name, 0.0, 0.0, parent, tracer.task])
            frame = [0.0, rec]
            stack.append(frame)
            depth[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                depth[name] -= 1
                stack.pop()
                dur = end - start
                self_s[name] += dur - frame[0]
                calls[name] += 1
                if not depth[name]:
                    outer_s[name] += dur
                if stack:
                    stack[-1][0] += dur
                if rec is not None:
                    tracer.records[rec][1:3] = [start, end]
            if result is not NotImplemented and span in _RESULT_OBSERVERS:
                _RESULT_OBSERVERS[span](tracer, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def task_span(self, task_id: str, cls: str):
        """One task: a recorded root span carrying the task id; tracing is on inside."""
        rec = len(self.records)
        self.records.append(["task:" + cls, time.perf_counter(), 0.0, None, task_id])
        self._stack.append([0.0, rec])
        self.task, self.active = task_id, True
        try:
            yield
        finally:
            self.active, self.task = False, None
            self._stack.pop()
            self.records[rec][2] = time.perf_counter()

    def dump(self, path: str):
        with open(path, "w") as fh:
            for i, (name, start, end, parent, task) in enumerate(self.records):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "task": task}) + "\n")
            fh.write(json.dumps({"self_s": self.self_s, "calls": self.calls,
                                 "outer_s": self.outer_s, "counters": self.counters}) + "\n")


# ---------------------------------------------------------------------------
# observers: split a span name by its arguments, or count what a call returns


def _scalar_inv(tracer, args):
    tracer.counters["scalars.inv_calls"] += 1
    return _scalar_order(tracer, args)


def _scalar_order(tracer, args):
    a = args[0]
    b = args[1] if len(args) > 1 else None
    cyclo = a.order > 1 or (isinstance(b, Scalar) and b.order > 1)
    return "scalars.cyclo" if cyclo else "scalars.q"


def _bits(c) -> int:
    """Largest numerator or denominator bit length in a ppv coefficient."""
    if isinstance(c, Scalar):
        return max((max(f.numerator.bit_length(), f.denominator.bit_length()) for f in c.coeffs),
                   default=0)
    if isinstance(c, RatFunc):
        return max(_bits(c.num), _bits(c.den))
    if isinstance(c, Poly):
        return max((_bits(x) for x in c.coeffs), default=0)
    return 0


def _gcd_inputs(tracer, args):
    bits = max(_bits(args[0]), _bits(args[1]))
    if bits > tracer.counters["rationals.max_coeff_bits"]:
        tracer.counters["rationals.max_coeff_bits"] = bits
    return None


def _gcd_result(tracer, args, result):
    if result.degree() >= 1:
        tracer.counters["rationals.gcd_useful"] += 1


def _compared(key):
    def observe(tracer, args, result):
        tracer.counters[key] += result.coefficients_compared
    return observe


def _agree(tracer, args, result):
    tracer.counters["series.agree_coeffs"] += result


_OBSERVERS = {"rationals.Poly.gcd": _gcd_inputs}
_OBSERVERS.update({"scalars.Scalar.%s" % n: _scalar_order for n in _ARITH})
_OBSERVERS["scalars.Scalar.inv"] = _scalar_inv
_RESULT_OBSERVERS = {
    "rationals.Poly.gcd": _gcd_result,
    "series.TwoVarLaurent.agree": _agree,
    "descent.verify_sigma_commutes": _compared("descent.coefficients_compared"),
    "descent.verify_equivariance": _compared("descent.coefficients_compared"),
}


# ---------------------------------------------------------------------------
# per-layer metrics


def _layer_self(tracer: Tracer, layer: str) -> float:
    return sum(v for k, v in tracer.self_s.items() if k.split(".")[0] == layer)


def _sum_calls(tracer: Tracer, prefix: str, names) -> int:
    return sum(tracer.calls["%s.%s" % (prefix, n)] for n in names)


def layer_metrics(tracer: Tracer) -> dict:
    """Every per-layer metric, as {name: (value, unit)}."""
    t = tracer
    gcd_calls = t.calls["rationals.Poly.gcd"]
    # parser functions call each other: sum the parser spans not inside another one
    parse_s = sum(end - start for name, start, end, parent, _ in t.records
                  if name.startswith("parser.")
                  and (parent is None or not t.records[parent][0].startswith("parser.")))
    return {
        "scalars.q_ops": (t.calls["scalars.q"], "count"),
        "scalars.q_self_s": (t.self_s["scalars.q"], "s"),
        "scalars.cyclo_ops": (t.calls["scalars.cyclo"], "count"),
        "scalars.cyclo_self_s": (t.self_s["scalars.cyclo"], "s"),
        "scalars.inv_calls": (t.counters["scalars.inv_calls"], "count"),
        "rationals.poly_gcd_calls": (gcd_calls, "count"),
        "rationals.poly_gcd_s": (t.outer_s["rationals.Poly.gcd"], "s"),
        "rationals.ratfunc_ops": (_sum_calls(t, "rationals.RatFunc", _ARITH), "count"),
        "rationals.self_s": (_layer_self(t, "rationals"), "s"),
        "rationals.max_coeff_bits": (t.counters["rationals.max_coeff_bits"], "bits"),
        "rationals.gcd_useful_ratio": (
            t.counters["rationals.gcd_useful"] / gcd_calls if gcd_calls else 0.0, "ratio"),
        "series.twovar_mul_calls": (t.calls["series.TwoVarLaurent.__mul__"], "count"),
        "series.twovar_inv_calls": (t.calls["series.TwoVarLaurent.inv"], "count"),
        "series.dt0_calls": (t.calls["series.TwoVarLaurent.dt0"], "count"),
        "series.agree_coeffs": (t.counters["series.agree_coeffs"], "count"),
        "series.self_s": (_layer_self(t, "series"), "s"),
        "ore.mul_calls": (t.calls["ore.OrePoly.__mul__"], "count"),
        "ore.right_divmod_calls": (t.calls["ore.right_divmod"], "count"),
        "ore.gcrd_s": (t.outer_s["ore.gcrd"], "s"),
        "ore.wronskian_operator_s": (t.outer_s["ore.wronskian_operator"], "s"),
        "ore.self_s": (_layer_self(t, "ore"), "s"),
        "linalg.det_calls": (t.calls["linalg.det"], "count"),
        "linalg.det_s": (t.outer_s["linalg.det"], "s"),
        "linalg.nullspace_s": (t.outer_s["linalg.nullspace"], "s"),
        "realization.realize_in_window_s": (t.outer_s["realization.realize_in_window"], "s"),
        "parser.parse_s": (parse_s, "s"),
        "partial_fractions.decompose_s": (t.outer_s["partial_fractions.decompose"], "s"),
        "partial_fractions.reassemble_s": (t.outer_s["partial_fractions.reassemble"], "s"),
        "partial_fractions.linear_roots_s": (t.outer_s["partial_fractions.linear_roots"], "s"),
        "local_blocks.make_block_s": (t.outer_s["local_blocks.make_block"], "s"),
        "descent.find_free_orbits_s": (t.outer_s["descent.find_free_orbits"], "s"),
        "descent.sigma_commutes_s": (t.outer_s["descent.verify_sigma_commutes"], "s"),
        "descent.transport_block_s": (t.outer_s["descent.transport_block"], "s"),
        "descent.equivariance_s": (t.outer_s["descent.verify_equivariance"], "s"),
        "descent.coefficients_compared": (t.counters["descent.coefficients_compared"], "count"),
        "jsonio.decode_s": (t.outer_s["jsonio.decode"], "s"),
        "jsonio.encode_s": (t.outer_s["jsonio.encode"], "s"),
        "jsonio.out_bytes": (t.counters["jsonio.out_bytes"], "bytes"),
    }
