"""The verdict of tests/reach.py, on a two-module package built for each test.

tests/reach.py runs the whole traffic, about a minute; these tests run
its verdict on a package small enough to trace in milliseconds.
"""

import importlib.util
import pathlib
import sys

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "reach", pathlib.Path(__file__).resolve().parent / "reach.py")
reach = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(reach)

_SHAPES = '''
def used():
    return [n for n in range(2)]


def unused():
    return 1


never = lambda: 2  # noqa: E731


class Box:
    def __repr__(self):
        return "Box"

    def __rsub__(self, other):
        return other

    def size(self):
        return (lambda: 1)()
'''

_USES = '''
from .shapes import Box, used


def run():
    return used(), Box().size()
'''


@pytest.fixture
def package(tmp_path, monkeypatch):
    """A package `reachpkg` of two modules, and the names its run() enters."""
    root = tmp_path / "reachpkg"
    root.mkdir()
    (root / "__init__.py").write_text("")
    (root / "shapes.py").write_text(_SHAPES)
    (root / "uses.py").write_text(_USES)
    monkeypatch.syspath_prepend(str(tmp_path))
    try:
        yield root, reach.entered(root, lambda: importlib.import_module("reachpkg.uses").run())
    finally:  # the next test builds its own reachpkg
        for name in [m for m in sys.modules if m.partition(".")[0] == "reachpkg"]:
            del sys.modules[name]


def test_an_uncalled_function_fails(package):
    root, reached = package
    problems = reach.verdict(root, reached, {"shapes.Box.__rsub__": "a reason"})
    assert [p.split(" (")[0] for p in problems] == ["unreached: shapes.unused"]


def test_an_uncalled_arithmetic_operator_fails(package):
    # unlike __repr__, no hook calls it, so it needs a caller or a KEPT row
    root, reached = package
    kept = {"shapes.unused": "a reason"}
    problems = [p.split(" (")[0] for p in reach.verdict(root, reached, kept)]
    assert problems == ["unreached: shapes.Box.__rsub__"]


def test_an_uncalled_dunder_passes_by_rule(package):
    root, reached = package
    at = {name: key for key, (name, _) in reach.definitions(root).items()}
    assert at["shapes.Box.__repr__"] not in reached and at["shapes.<lambda>"] not in reached
    assert not any("__repr__" in p for p in reach.verdict(root, reached, {}))


def test_a_kept_row_with_a_reason_passes(package):
    root, reached = package
    kept = {"shapes.unused": "a reason", "shapes.Box.__rsub__": "a reason"}
    assert reach.verdict(root, reached, kept) == []


def test_a_kept_row_that_is_reached_or_names_nothing_is_stale(package):
    root, reached = package
    kept = {"shapes.unused": "a reason", "shapes.Box.__rsub__": "a reason", "uses.run": "reached",
            "shapes.gone": "deleted"}
    problems = [p.split(" (")[0] for p in reach.verdict(root, reached, kept)]
    assert problems == ["stale: uses.run is reached now", "stale: shapes.gone names nothing defined"]


def test_every_kept_row_names_a_function_no_rule_passes():
    # the cheap half of the staleness check, without the traffic
    defined = dict(reach.definitions(reach.SRC).values())
    assert set(reach.KEPT) <= set(defined)
    assert not [name for name in reach.KEPT if reach.passes_by_rule(name, defined[name])]
    assert all(reach.KEPT.values())
