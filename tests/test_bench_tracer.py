"""The benchmark tracer's patch lists name only what ppv defines.

bench/tracer.py wraps methods through each class's own ``__dict__`` and
functions through their modules, so a refactor that moves a method to a
helper or renames a function would break ``bench/run.py --trace 1``.
"""

import importlib
import pathlib
import sys

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def _tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    return importlib.import_module("tracer")


def test_methods_are_defined_on_their_own_class(monkeypatch):
    tracer = _tracer(monkeypatch)
    missing = [(cls.__name__, name) for cls, _, names in tracer.METHODS
               for name in names if name not in cls.__dict__]
    assert not missing


def test_functions_exist_on_their_modules(monkeypatch):
    tracer = _tracer(monkeypatch)
    missing = [(mod, name) for mod, names in tracer.FUNCTIONS.items()
               for name in names if not callable(getattr(importlib.import_module(mod), name, None))]
    assert not missing
