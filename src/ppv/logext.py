"""Elements of K(x) extended by logarithms log(x - beta).

A LogExtElem is tail + sum_beta c_beta * log(x - beta) with tail in
K(x), points beta in K and coefficients c_beta in K: the shape of the
solution models of the order-one realizations.  A model is data plus
dx, dx(log(x - beta)) = 1/(x - beta), which checks the model identity.
Membership never applies an operator to a model: since

    dt(c * log(x - beta)) = dt(c) * log(x - beta) - c * dt(beta)/(x - beta)

has its second term in K(x), also for a moving point beta, the log part
of L(model) is sum_beta L(c_beta) * log(x - beta), and L(model) lies in
K(x) exactly when L kills every coefficient c_beta
(ppv.realization reads `logs` only).
"""

from __future__ import annotations

from .rationals import RatFunc, f_const, x_var


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

    def dx(self) -> "LogExtElem":
        tail = self.tail.dx()
        for beta, c in self.logs.items():
            tail = tail + (x_var(beta.czero.order) - f_const(beta)).inv() * c
        return LogExtElem(tail)

    def __eq__(self, other):
        if not isinstance(other, LogExtElem):
            return NotImplemented
        return self.tail == other.tail and self.logs == other.logs

    def __repr__(self):
        parts = [repr(self.tail)] if not self.tail.is_zero() else []
        for beta, c in self.logs.items():
            parts.append("(%s)*log(x-(%s))" % (c, beta))
        return "LogExt[%s]" % (" + ".join(parts) or "0")
