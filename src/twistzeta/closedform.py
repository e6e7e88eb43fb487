"""Reference evaluation through the separable product formula.

Expanding E = Q * prod_t P_t^(k_t) as sum_alpha a_alpha X^alpha turns
the twisted series at s = -k into the finite combination

    Z(-k) = sum_alpha a_alpha prod_n zeta_{mu_n}(-alpha_n),

a formal identity in the coefficients.  This route never touches the
recurrence machinery, so it serves as an independent oracle for it.
The expansion runs on integer term tables over one denominator,
den_Q * prod_t den_t^(k_t), so no Fraction is formed inside the product.
"""

from __future__ import annotations

from typing import Sequence

from ._backend import kernels
from ._rational import Rational
from .errors import DimensionMismatch
from .multipoly import SparsePolynomial, graded_terms
from .twists import Scalar, TwistVector, monomial_sum

__all__ = ["closed_value", "expand_numerator"]


def _power_table(nums: dict, k: int, nvars: int) -> dict:
    """The integer table nums to the natural power k, by squaring."""
    result = {(0,) * nvars: 1}
    while k:
        if k & 1:
            result = kernels.mul_terms(result, nums)
        k >>= 1
        if k:
            nums = kernels.mul_terms(nums, nums)
    return result


def _expanded_table(
    Q: SparsePolynomial,
    Ps: Sequence[SparsePolynomial],
    k: Sequence[int],
) -> tuple[dict, int]:
    """E = Q * prod_t P_t^(k_t) as ({exps: int}, den)."""
    if len(Ps) != len(k):
        raise DimensionMismatch(
            f"{len(Ps)} factors against {len(k)} exponents"
        )
    nums, den = Q.int_table()
    for P, kt in zip(Ps, k):
        kt = int(kt)
        if kt < 0:
            raise ValueError("exponents k_t must be naturals")
        if P.nvars != Q.nvars:
            raise DimensionMismatch("factor variable count")
        if kt:
            pnums, pden = P.int_table()
            nums = kernels.mul_terms(nums, _power_table(pnums, kt, P.nvars))
            den *= pden**kt
    return nums, den


def expand_numerator(
    Q: SparsePolynomial,
    Ps: Sequence[SparsePolynomial],
    k: Sequence[int],
) -> SparsePolynomial:
    """The expanded polynomial E = Q * prod_t P_t^(k_t)."""
    nums, den = _expanded_table(Q, Ps, k)
    return SparsePolynomial._raw(
        Q.nvars, {e: Rational(c, den) for e, c in nums.items()}
    )


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
    nums, den = _expanded_table(Q, Ps, k)
    return mus.lincomb(
        ((monomial_sum(alpha, mus), c) for alpha, c in graded_terms(nums)),
        den,
    )
