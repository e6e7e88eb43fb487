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
    """A twist within tolerance of 1 leaves no well-conditioned shift.

    twists holds the 1-based index of that twist, and fixed the frozen
    coordinates (j, c_j) of the boundary face (a stratum, in the
    message) whose default shift is refused, empty when that is the
    series queried itself; both count in the variables of the queried
    series.  strata splits fixed by level when that face is a face of a
    face: the coordinates frozen by the shift queried first, then those
    frozen by each default shift below it."""

    def __init__(self, message: str, twists=(), fixed=(), strata=()):
        super().__init__(message)
        self.twists = tuple(twists)
        self.fixed = tuple(fixed)
        self.strata = tuple(tuple(level) for level in strata)


class EngineError(TwistZetaError):
    """Defensive failure inside the evaluator."""


class DocumentError(TwistZetaError):
    """Malformed problem document."""
