"""Elements of K(x) extended by logarithms log(x - beta).

A LogExtElem is tail + sum_beta c_beta * log(x - beta) with tail in
K(x), points beta in K and coefficients c_beta in K.  This is exactly
the shape of the solution models produced by the order-one realization
constructions, and it is closed under both derivations:

    dx(log(x - beta)) = 1/(x - beta)
    dt(log(x - beta)) = -dt(beta)/(x - beta)

so applying an operator in K[Dt] and asking whether the result lies in
K(x) (all log coefficients zero) is a finite, exact computation.
"""

from __future__ import annotations

from .rationals import RatFunc, f_const, k_const, x_var


def _x_minus(beta: RatFunc) -> RatFunc:
    return x_var(beta.czero.order) - f_const(beta)


class LogExtElem:
    """tail + sum of c_beta * log(x - beta), tail in K(x), c_beta in K."""

    __slots__ = ("tail", "logs")

    def __init__(self, tail: RatFunc, logs: dict | None = None):
        if tail.var != "x":
            raise ValueError("tail must be a rational function in x")
        clean = {}
        for beta, c in (logs or {}).items():
            if not c.is_zero():
                clean[beta] = c
        object.__setattr__(self, "tail", tail)
        object.__setattr__(self, "logs", clean)

    def __setattr__(self, *a):
        raise AttributeError("LogExtElem is immutable")

    def in_base_field(self) -> bool:
        """True when no log symbol survives, i.e. the element lies in K(x)."""
        return not self.logs

    def __add__(self, other):
        if not isinstance(other, LogExtElem):
            return NotImplemented
        logs = dict(self.logs)
        for beta, c in other.logs.items():
            cur = logs.get(beta)
            logs[beta] = c if cur is None else cur + c
        return LogExtElem(self.tail + other.tail, logs)

    def __mul__(self, c) -> "LogExtElem":
        """Multiply by an element of K; any other c (a Scalar) is read as k_const(c)."""
        if not isinstance(c, RatFunc):
            c = k_const(c)
        return LogExtElem(self.tail * c, {b: cb * c for b, cb in self.logs.items()})

    def dx(self) -> "LogExtElem":
        tail = self.tail.dx()
        for beta, c in self.logs.items():
            tail = tail + _x_minus(beta).inv() * c
        return LogExtElem(tail)

    def dt(self) -> "LogExtElem":
        tail = self.tail.dt()
        logs = {}
        for beta, c in self.logs.items():
            logs[beta] = c.dt()
            db = beta.dt()
            if not db.is_zero():
                tail = tail - _x_minus(beta).inv() * (c * db)
        return LogExtElem(tail, logs)

    def dt0(self, e: int) -> "LogExtElem":
        if e != 1:
            raise ValueError("log extensions are only used in the unramified case")
        return self.dt()

    def __eq__(self, other):
        if not isinstance(other, LogExtElem):
            return NotImplemented
        return self.tail == other.tail and self.logs == other.logs

    def __repr__(self):
        parts = [repr(self.tail)] if not self.tail.is_zero() else []
        for beta, c in self.logs.items():
            parts.append("(%s)*log(x-(%s))" % (c, beta))
        return "LogExt[%s]" % (" + ".join(parts) or "0")
