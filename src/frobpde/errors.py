"""Exception hierarchy shared by all frobpde modules."""


class FrobPDEError(Exception):
    """Base class for all library errors."""


class ZeroConstantTerm(FrobPDEError):
    """Raised when an operation needs a unit series (nonzero constant term)."""


class DivisionBySeriesWithZeroConstantTerm(ZeroConstantTerm):
    """Division where the divisor series has zero constant term."""


class ExprSyntaxError(FrobPDEError):
    """Syntax error while parsing a coefficient expression.

    Carries the 0-based character offset into the text and its 1-based line and column.
    """

    def __init__(self, message, text, offset):
        self.offset = offset
        self.line = text.count("\n", 0, offset) + 1
        self.column = offset - text.rfind("\n", 0, offset)
        super().__init__(f"{message} at line {self.line}, column {self.column}")


class UnboundParameter(FrobPDEError):
    """A parameter name in an expression has no bound value."""


class Refusal(FrobPDEError):
    """A well-formed problem that has no answer: the CLI exits 2 on it."""


class ComplexCoefficients(Refusal):
    """Conic classification requested for a genuinely complex conic."""


class NoSolution(Refusal):
    """solve_for_s degenerated to a nonzero constant equation."""


class BasePointNotOnConic(Refusal):
    """The supplied exponent pair does not satisfy the indicial conic."""


class ResonantPoint(Refusal):
    """The recurrence would divide by (numerically) zero at some shift Q."""

    def __init__(self, message, hits=()):
        super().__init__(message)
        # list of ((q1, q2), magnitude) pairs
        self.hits = list(hits)


class MissingParameter(FrobPDEError):
    """A catalog entry was instantiated without a required parameter."""


class ConstraintViolated(Refusal):
    """Integer-point family preconditions failed (e.g. B^2 != 4AC)."""


class SchemaError(FrobPDEError):
    """Problem JSON does not match the expected schema.

    `pointer` is a JSON pointer to the offending member.
    """

    def __init__(self, message, pointer=""):
        super().__init__(f"{message} (at {pointer or '/'})")
        self.pointer = pointer


class OutsideEstimatedDomain(UserWarning):
    """Evaluation point lies outside the estimated bidisc of convergence."""
