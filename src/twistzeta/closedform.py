"""Reference evaluation through the separable product formula.

Expanding E = Q * prod_t P_t^(k_t) as sum_alpha a_alpha X^alpha turns
the twisted series at s = -k into the finite combination

    Z(-k) = sum_alpha a_alpha prod_n zeta_{mu_n}(-alpha_n),

a formal identity in the coefficients.  This route never touches the
recurrence machinery, so it serves as an independent oracle for it.
E is a product of SparsePolynomials, so it runs on integer numerators
over one denominator and closed_value reads E's stored table.

The sum is separable, so both modes contract it one variable at a
time against the rows zeta_{mu_n}(-j): the last variable by one
TwistVector.lincomb per exponent prefix, with E's integer numerators as
weights (in exact mode one integer dot product per coordinate), each
earlier one by one product per prefix, and E's denominator divides once
at the end.  Approx mode walks E in sorted exponent order, so its
doubles do not depend on the path each product of the expansion took.
"""

from __future__ import annotations

import math
import operator
from typing import Sequence

from .errors import DimensionMismatch
from .multipoly import SparsePolynomial
from .twists import Scalar, TwistVector, negapolylog

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
    k = list(map(operator.index, k))
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
    """Z(Q; P_1..P_T; mu; -k) by the separable closed formula.

    E's numerators are grouped by exponent prefix, and each group's last
    variable is summed in one TwistVector.lincomb over the values
    zeta_{mu_N}(-a_N) with the integer numerators as weights, in exact
    mode one CyclotomicField._dot and one normalization; contracting
    variable n < N then costs one product zeta_{mu_n}(-a_n) times the
    inner sum per distinct prefix (a_1..a_n), so N = 1 makes none.  The
    one step that depends on the mode: approx mode takes E's terms in
    sorted exponent order, since its sums follow term order and E's key
    order follows the product path mul_terms took.

    >>> from twistzeta import TwistVector
    >>> one, X = SparsePolynomial.one(1), SparsePolynomial.variable(1, 1)
    >>> closed_value(one, (X,), (1,), TwistVector.exact(2, [1]))
    <Q(zeta_2): -1/4>
    """
    if Q.nvars != len(mus):
        raise DimensionMismatch(
            f"{Q.nvars} variables against {len(mus)} twists"
        )
    E = expand_numerator(Q, Ps, k)
    lincomb, zero = mus.lincomb, mus.zero_scalar()
    level = E.nums  # prefix -> int numerator, then -> Scalar
    if mus.mode != "exact":
        # approx sums follow key order, which must not follow mul_terms
        level = dict(sorted(level.items()))
    nvars = len(mus)
    for n in range(nvars, 0, -1):
        mu = mus.single(n)
        groups: dict = {}
        for alpha, c in level.items():
            x = negapolylog(alpha[-1], mu)
            groups.setdefault(alpha[:-1], []).append(
                (x, c) if n == nvars else (x * c, 1)
            )
        den = E.den if n == 1 else 1
        level = {p: lincomb(pairs, den) for p, pairs in groups.items()}
    return level.get((), zero)
