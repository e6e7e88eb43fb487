"""Reference evaluation through the separable product formula.

Expanding E = Q * prod_t P_t^(k_t) as sum_alpha a_alpha X^alpha turns
the twisted series at s = -k into the finite combination

    Z(-k) = sum_alpha a_alpha prod_n zeta_{mu_n}(-alpha_n),

a formal identity in the coefficients.  This route never touches the
recurrence machinery, so it serves as an independent oracle for it.
"""

from __future__ import annotations

from typing import Sequence

from .errors import DimensionMismatch
from .multipoly import SparsePolynomial
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
    E = Q
    for P, kt in zip(Ps, k):
        kt = int(kt)
        if kt < 0:
            raise ValueError("exponents k_t must be naturals")
        if P.nvars != Q.nvars:
            raise DimensionMismatch("factor variable count")
        if kt:
            E = E * P**kt
    return E


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
        (monomial_sum(alpha, mus), coef) for alpha, coef in E.sorted_terms()
    )
