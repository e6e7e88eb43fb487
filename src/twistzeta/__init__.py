"""Exact special values of twisted multivariable zeta series.

The series sums mu^m Q(m) / prod_t P_t(m)^(s_t) over integer points
m >= 1 in N variables, with unit-modulus twists mu_n != 1.  At negative
integer arguments s = -k the value is computed two independent ways: a
shift-and-difference recurrence that bottoms out in finite geometric
sums, and a closed separable formula over one-dimensional twisted zeta
values.  Both run in exact cyclotomic arithmetic; an Abel-summation
estimator provides a floating-point cross-check.
"""

from ._backend import BACKEND
from ._rational import RATIONAL_BACKEND, Rational, format_rational, parse_rational, rat
from .abel import abel_estimate, abel_richardson, richardson
from .closedform import closed_value, expand_numerator
from .conditions import ConditionReport, validate_conditions
from .cyclotomic import (
    CyclotomicElement,
    CyclotomicField,
    cyclotomic_polynomial,
)
from .document import ProblemDocument, ValueRecord
from .engine import (
    BoundaryPiece,
    PointTerm,
    Restricted,
    ShiftVector,
    StructuredQuadratic,
    ValueCache,
    ZetaInstance,
    boundary_decompose,
    choose_shift,
    linear_special_value,
    quadratic_delta,
    quadratic_special_value,
    special_value,
)
from .errors import (
    ApproxIllConditioned,
    DependencyConditionViolated,
    DimensionMismatch,
    DocumentError,
    EngineError,
    FieldMismatch,
    MuPowerIsOne,
    NotLinearForm,
    OrthogonalityViolated,
    TwistIsOne,
    TwistZetaError,
    ZeroInverse,
)
from .multipoly import SparsePolynomial
from .twists import (
    Twist,
    TwistVector,
    eulerian_negapolylog,
    monomial_sum,
    mu_power,
    negapolylog,
)

__version__ = "0.1.0"
