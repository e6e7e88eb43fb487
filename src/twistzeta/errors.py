"""Error taxonomy.

Everything raised on purpose by this package derives from TwistZetaError,
so frontends can map library failures to exit codes without matching on
messages.
"""


class TwistZetaError(Exception):
    """Base class for all library errors."""


class FieldMismatch(TwistZetaError):
    """Arithmetic mixed elements of two different cyclotomic fields."""


class ZeroInverse(TwistZetaError, ZeroDivisionError):
    """Inverse, or negative power, of the zero element."""


class DimensionMismatch(TwistZetaError):
    """Operands disagree on variable count or tuple length."""


class TwistIsOne(TwistZetaError):
    """A twist equals 1; every series handled here requires mu_n != 1."""


class MuPowerIsOne(TwistZetaError):
    """The requested shift a has mu^a = 1, which degenerates the relation."""


class NotLinearForm(TwistZetaError):
    """The linear fast path was invoked on an unsupported factor."""


class DependencyConditionViolated(TwistZetaError):
    """Some variable occurs in none of the linear factors."""


class OrthogonalityViolated(TwistZetaError):
    """A structured-quadratic square term is not orthogonal to the shift."""


class ApproxIllConditioned(TwistZetaError):
    """In approx mode a twist lies within tolerance of 1, so the series
    has no well-conditioned shift; twists holds the 1-based index of the
    first such twist."""

    def __init__(self, message: str, twists=()):
        super().__init__(message)
        self.twists = tuple(twists)


class EngineError(TwistZetaError):
    """Defensive failure inside the evaluator."""


class DocumentError(TwistZetaError):
    """Malformed problem document."""
