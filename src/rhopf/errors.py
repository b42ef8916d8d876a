"""Exception hierarchy shared by all modules."""


class RhopfError(Exception):
    """Base class for engine errors."""


class DomainError(RhopfError):
    """Operation outside the coefficient field's domain (division by zero,
    denominator depending on a disallowed variable, ...)."""


class ExponentError(DomainError):
    """A monomial exponent left the packed range [-2^30, 2^30)."""


class ParseError(RhopfError):
    """Syntax error in an expression, element or R-matrix spec file."""

    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"{message} (line {line}, col {col})"
        super().__init__(message)


class ShapeError(RhopfError):
    """Tensor-leg counts are incompatible."""


class KindError(RhopfError):
    """A generator kind is not part of the active algebra flavor."""


class SingularError(RhopfError):
    """A matrix that must be invertible is singular."""


class UnsupportedRule(RhopfError):
    """A rewrite or Hopf table entry that is not defined was requested."""


class BudgetError(RhopfError):
    """A computation ran past its step budget."""


class ExpansionError(RhopfError):
    """A series expansion was requested in a direction where it does not
    exist."""
