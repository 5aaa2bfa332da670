"""Finite descriptions of the differential algebraic subgroups in play.

Additive subgroups Ga^L = {x : L(x) = 0} and multiplicative subgroups
Gm^(L o dlog) = {u : L(dt(u)/u) = 0} are indexed by operators L in K[Dt];
two operators describe the same subgroup iff they agree up to a unit of
K, so comparisons normalize monic first.  Containment is governed by
right divisibility:

    Ga^L <= Ga^M          iff  L right-divides M
    Gm^(L..) <= Gm^(M..)  iff  L right-divides M

The constants of Gm correspond to the identity operator Dt^0.  Finite
cyclic groups and generated lists (with embedding data into a common
GL_n) cover the remaining repertoire.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import UnsupportedGroup
from .ore import OrePoly, right_divides


@dataclass(frozen=True)
class GaSub:
    """Additive subgroup cut out by the operator: {x : L(x) = 0}."""

    operator: OrePoly

    def __post_init__(self):
        if self.operator.is_zero():
            raise ValueError("Ga subgroup needs a nonzero operator")


@dataclass(frozen=True)
class GmSub:
    """Multiplicative subgroup {u : L(dt(u)/u) = 0}."""

    operator: OrePoly

    def __post_init__(self):
        if self.operator.is_zero():
            raise ValueError("Gm subgroup needs a nonzero operator")


@dataclass(frozen=True)
class GmConst:
    """The dt-constants of Gm; the operator role is played by Dt^0."""


@dataclass(frozen=True)
class FiniteCyclic:
    order: int

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("cyclic group order must be positive")


@dataclass(frozen=True)
class GeneratedPart:
    """A subgroup together with its embedding into the ambient GL_n."""

    group: "GroupSpec"
    embedding: tuple  # nested tuples over K: a nilpotent or generator matrix
    representation: str = ""


@dataclass(frozen=True)
class Generated:
    parts: tuple[GeneratedPart, ...]

    def __post_init__(self):
        sizes = {len(p.embedding) for p in self.parts}
        if len(sizes) > 1:
            raise ValueError("generated parts must embed into a common GL_n")


GroupSpec = GaSub | GmSub | GmConst | FiniteCyclic | Generated


def closure_of_additive(g, e: int = 1) -> GaSub:
    """Smallest differential algebraic subgroup of Ga containing g.

    For g != 0 this is Ga^L with L = g*Dt - dt(g)*Dt^0, which has no
    nontrivial proper subgroups; g = 0 gives the trivial group Ga^(Dt^0).
    With e > 1 the derivation in the operator is dt0(e).
    """
    if g.is_zero():
        return GaSub(OrePoly.constant(g.one_like(), e))
    l = OrePoly([-g.dt0(e), g], e=e)
    return GaSub(l)


def _operator_of(spec: GroupSpec) -> OrePoly:
    if isinstance(spec, (GaSub, GmSub)):
        return spec.operator
    raise UnsupportedGroup("no operator for %s" % type(spec).__name__)


def _comparable(a: GroupSpec, b: GroupSpec) -> tuple[OrePoly, OrePoly]:
    """Operators for a same-family comparison; GmConst joins the Gm side."""

    def side(s):
        if isinstance(s, GaSub):
            return "ga", s.operator
        if isinstance(s, GmSub):
            return "gm", s.operator
        if isinstance(s, GmConst):
            return "gm", None
        raise UnsupportedGroup("cannot compare %s" % type(s).__name__)

    fa, la = side(a)
    fb, lb = side(b)
    if fa != fb:
        raise UnsupportedGroup(
            "incomparable variants: %s vs %s" % (type(a).__name__, type(b).__name__)
        )
    sample = la if la is not None else lb
    if sample is None:
        raise UnsupportedGroup("comparison needs at least one explicit operator")
    identity = OrePoly.constant(sample.coeff(0).one_like(), sample.e)
    return (la if la is not None else identity, lb if lb is not None else identity)


def is_subgroup(a: GroupSpec, b: GroupSpec) -> bool:
    """True iff a is contained in b (a's operator right-divides b's)."""
    if isinstance(a, GmConst) and isinstance(b, GmConst):
        return True
    la, lb = _comparable(a, b)
    return right_divides(la, lb)


def group_eq(a: GroupSpec, b: GroupSpec) -> bool:
    """Equality of subgroups: operators agree after monic normalization."""
    if isinstance(a, (GmConst, FiniteCyclic)) or isinstance(b, (GmConst, FiniteCyclic)):
        return a == b
    if isinstance(a, Generated) or isinstance(b, Generated):
        return a == b
    if type(a) is not type(b):
        return False
    return _operator_of(a).monic() == _operator_of(b).monic()
