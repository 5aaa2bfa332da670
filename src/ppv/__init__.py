"""Exact differential-algebra engine for parameterized differential equations.

Skew operator calculus over exact coefficient towers, truncated Laurent
series with twisted derivations, order-one realizations of additive and
multiplicative differential algebraic subgroups over K(x), local
building blocks at points of the z-line, and a Galois-descent pipeline
that emits machine-checkable realization certificates.

Callers import the submodules (``from ppv import series``, ``from
ppv.descent import GaloisDatum``); importing ``ppv`` alone loads none.
"""
