import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def _environment_reads(path: Path) -> bool:
    """Whether a module touches os.environ or os.getenv."""
    for node in ast.walk(ast.parse(path.read_text())):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "os" and node.attr in ("environ", "getenv")):
            return True
        if isinstance(node, ast.ImportFrom) and node.module == "os" and any(
                alias.name in ("environ", "getenv") for alias in node.names):
            return True
    return False


def test_only_the_cli_reads_the_environment():
    paths = sorted(Path(ppv.__file__).parent.glob("*.py"))
    assert {path.stem for path in paths if _environment_reads(path)} == {"cli"}


def _unused_imports(path: Path) -> set:
    """Names a module binds by a module-level import and never reads; __future__ is exempt."""
    tree = ast.parse(path.read_text())
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return bound - read


def test_no_module_imports_a_name_it_never_reads():
    paths = sorted(Path(ppv.__file__).parent.glob("*.py"))
    assert {(path.stem, name) for path in paths for name in _unused_imports(path)} == set()


@pytest.mark.parametrize("module", sorted(p.stem for p in Path(ppv.__file__).parent.glob("*.py")))
def test_every_module_imports_on_its_own(module):
    # the package imports none of its modules, so an import cycle would
    # otherwise show only for whichever module a caller imports first
    name = "ppv" if module == "__init__" else "ppv." + module
    src = str(Path(ppv.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = "import sys, %s; print(sorted(m for m in sys.modules if m.startswith('ppv.')))" % name
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    if module == "__init__":
        assert done.stdout.strip() == "[]"


def _imported_modules(path: Path) -> set:
    """Last name of every module a module imports, `from . import m` included."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            names.add((node.module or "").rsplit(".", 1)[-1])
            if node.module is None:
                names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
    return names


def test_operators_do_not_import_series_or_log_extensions():
    # OrePoly.apply acts through its argument's own *, so ore needs neither module
    imported = _imported_modules(Path(ppv.__file__).parent / "ore.py")
    assert "linalg" in imported  # the scan sees ore's own imports
    assert not imported & {"series", "logext"}


def _private_scalar_reads(path: Path) -> bool:
    """Whether a module reads Scalar's integer numerators or denominator."""
    return any(isinstance(node, ast.Attribute) and node.attr in ("_nums", "_den")
               for node in ast.walk(ast.parse(path.read_text())))


def test_only_scalars_reads_the_integer_representation():
    src = Path(ppv.__file__).parent
    paths = sorted(src.glob("*.py")) + sorted((src.parents[1] / "bench").glob("*.py"))
    assert {path.stem for path in paths if _private_scalar_reads(path)} == {"scalars"}
