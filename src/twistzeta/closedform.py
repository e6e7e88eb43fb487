"""Reference evaluation through the separable product formula.

Expanding E = Q * prod_t P_t^(k_t) as sum_alpha a_alpha X^alpha turns
the twisted series at s = -k into the finite combination

    Z(-k) = sum_alpha a_alpha prod_n zeta_{mu_n}(-alpha_n),

a formal identity in the coefficients.  This route never touches the
recurrence machinery, so it serves as an independent oracle for it.
E is a product of SparsePolynomials, so it runs on integer numerators
over one denominator and closed_value reads E's stored table.
"""

from __future__ import annotations

import math
from typing import Sequence

from .errors import DimensionMismatch
from .multipoly import SparsePolynomial, graded_terms
from .twists import Scalar, TwistVector, monomial_sum

__all__ = ["closed_value", "expand_numerator"]


def expand_numerator(
    Q: SparsePolynomial,
    Ps: Sequence[SparsePolynomial],
    k: Sequence[int],
) -> SparsePolynomial:
    """The expanded polynomial E = Q * prod_t P_t^(k_t)."""
    if len(Ps) != len(k):
        raise DimensionMismatch(
            f"{len(Ps)} factors against {len(k)} exponents"
        )
    k = [int(kt) for kt in k]
    for P, kt in zip(Ps, k):
        if kt < 0:
            raise ValueError("exponents k_t must be naturals")
        if P.nvars != Q.nvars:
            raise DimensionMismatch("factor variable count")
    return math.prod((P**kt for P, kt in zip(Ps, k) if kt), start=Q)


def closed_value(
    Q: SparsePolynomial,
    Ps: Sequence[SparsePolynomial],
    k: Sequence[int],
    mus: TwistVector,
) -> Scalar:
    """Z(Q; P_1..P_T; mu; -k) by the separable closed formula."""
    if Q.nvars != len(mus):
        raise DimensionMismatch(
            f"{Q.nvars} variables against {len(mus)} twists"
        )
    E = expand_numerator(Q, Ps, k)
    return mus.lincomb(
        ((monomial_sum(alpha, mus), c) for alpha, c in graded_terms(E.nums)),
        E.den,
    )
