"""Exception hierarchy shared across the package."""


class PpvError(Exception):
    """Base class for all library errors."""


class CoefficientFieldMismatch(PpvError):
    """Operands live over incompatible coefficient fields."""


class TruncationExhausted(PpvError):
    """A series is not known to enough orders to perform the operation."""


class NonInvertibleLeadingTerm(PpvError):
    """Division requires a nonzero leading coefficient inside the stored window."""


class SplitFieldError(PpvError):
    """A denominator does not factor into linear factors over the supported field."""


class DependentFamily(PpvError):
    """A family that must be independent over constants is dependent."""


class RealizationError(PpvError):
    """A realization precondition failed (bad basis, wrong cardinality, ...)."""


class UnsupportedGroup(PpvError):
    """The group variant is outside the supported repertoire for this operation."""


class VerificationFailed(PpvError):
    """An exact identity that certification depends on did not hold."""


class DecodeError(PpvError):
    """A JSON node is not a well-formed encoding of a ppv object."""


class ZeroOperatorDivision(PpvError, ZeroDivisionError):
    """Right division by the zero operator."""


class ParseError(PpvError):
    """Syntax error with position information."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__("%s (line %d, column %d)" % (message, line, column))
        self.line = line
        self.column = column
