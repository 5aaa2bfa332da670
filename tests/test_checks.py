import ast
from pathlib import Path

import ppv
from ppv.checks import window_check
from ppv.scalars import rational
from ppv.series import TruncLaurent, TwoVarLaurent, certified_window


def _elem(coeffs, inner_trunc=float("inf"), trunc=float("inf")):
    """TwoVarLaurent at q = 0 from {t-exp: {w-exp: int}}."""
    return TwoVarLaurent(
        rational(0),
        {n: TruncLaurent("w", {j: rational(c) for j, c in inner.items()}, inner_trunc)
         for n, inner in coeffs.items()},
        trunc,
    )


def test_window_check_pass_records_the_certified_window_and_count():
    a = _elem({0: {0: 1, 1: 2}, 1: {-1: 3}}, inner_trunc=5, trunc=4)
    b = _elem({0: {0: 1, 1: 2}, 1: {-1: 3}})
    rec = window_check("a = b", a, b, 10, note="why")
    assert rec.passed
    assert (rec.outer_order, rec.inner_order) == certified_window(a, b, 10) == (3, 4)
    assert rec.coefficients_compared == a.agree(b, 3, 4)
    assert rec.note == "why"


def test_window_check_fail_records_the_mismatch():
    a = _elem({0: {0: 1}, 2: {1: 5}})
    b = _elem({0: {0: 1}, 2: {1: 4}})
    rec = window_check("a = b", a, b, 6, note="why")
    assert not rec.passed
    assert (rec.outer_order, rec.inner_order) == (6, 6)
    assert rec.coefficients_compared == 0
    assert rec.note.startswith("t-order 2: series differ at order 1")


def _calls_and_handlers(path: Path):
    """(enclosing function, name) of each certified_window call and
    AssertionError handler in one module."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name == "certified_window":
                found.append((func, "certified_window"))
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if any(isinstance(t, ast.Name) and t.id == "AssertionError" for t in types):
                found.append((func, "except AssertionError"))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(path.read_text()), None)
    return found


def test_window_check_is_the_one_compare_and_catch():
    handlers, windows = set(), set()
    for path in sorted(Path(ppv.__file__).parent.glob("*.py")):
        for func, what in _calls_and_handlers(path):
            target = handlers if what == "except AssertionError" else windows
            target.add((path.stem, func))
    assert {module for module, _ in handlers} == {"checks", "series"}
    assert windows == {("checks", "window_check"), ("local_blocks", "fp_membership")}
