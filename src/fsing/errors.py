"""Exception types shared across the package.

Plain input mistakes (a composite characteristic, a point off the variety,
a malformed file) get their own classes so callers and the CLI can map them
to exit codes.  A failed self-check of a certified result (a re-expansion,
a re-multiplication, a witness bound) raises TheoremContradictionError, an
explicit raise rather than an assert so that it survives ``python -O``.
"""


class FsingError(Exception):
    """Base class for all package errors."""


class NotPrimeError(FsingError):
    """Requested characteristic is not a prime in the supported range."""


class DegreeRangeError(FsingError):
    """Extension degree outside 1..4."""


class FieldMismatchError(FsingError):
    """Scalars from different fields were combined."""


class ContextMismatchError(FsingError):
    """Polynomials over different fields or variable contexts were combined."""


class ZeroInputError(FsingError):
    """Operation requires a nonzero input polynomial."""


class ExponentOverflowError(FsingError):
    """An exponent would leave the supported 16-bit range."""


class ZeroDivisorError(FsingError):
    """Division by the zero polynomial."""


class NameCollisionError(FsingError):
    """A fresh variable name clashes with an existing one."""


class NotSquareFreeSupportedError(FsingError):
    """Input has a support monomial with an exponent above one."""

    def __init__(self, message, offender=None):
        super().__init__(message)
        self.offender = offender


class ZeroOrConstantError(FsingError):
    """Factorization needs a nonconstant input."""


class CertificateSearchExhausted(FsingError):
    """A regularity certificate stage has no witness.

    The e = 1 witness of a stage exists exactly when its variable does not
    divide the factor being localized, which holds for every irreducible
    square-free supported factor; so this means a reducible factor, which
    only an ideal built directly with ``CIdeal(...)`` can hold.
    """


class TheoremContradictionError(FsingError):
    """A guaranteed property failed; carries a diagnostic dump."""

    def __init__(self, message, dump=None):
        super().__init__(message)
        self.dump = dump or {}


class PointNotOnVarietyError(FsingError):
    """Evaluation point does not lie on the zero set in question."""


class BudgetExceededError(FsingError):
    """A sampling or search budget ran out."""


class ParseError(FsingError):
    """Syntax error in an input file; records 1-based line and column."""

    def __init__(self, message, line, column):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class UnknownVariableError(ParseError):
    """Expression uses a variable outside the declared list."""


class BadFieldSpecError(ParseError):
    """Field directive is malformed or names a non-prime."""


class MatroidFormatError(FsingError):
    """Malformed matroid description."""


class HypothesisViolatedError(FsingError):
    """Modification inputs break a stated precondition."""

    def __init__(self, message, reason=None):
        super().__init__(message)
        self.reason = reason or message
