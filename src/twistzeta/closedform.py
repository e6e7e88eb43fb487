"""Reference evaluation through the separable product formula.

Expanding E = Q * prod_t P_t^(k_t) as sum_alpha a_alpha X^alpha turns
the twisted series at s = -k into the finite combination

    Z(-k) = sum_alpha a_alpha prod_n zeta_{mu_n}(-alpha_n),

a formal identity in the coefficients.  This route never touches the
recurrence machinery, so it serves as an independent oracle for it.
E is a product of SparsePolynomials, so it runs on integer numerators
over one denominator, and each P_t^(k_t) starts from the last power
taken of P_t (SparsePolynomial.__pow__ keeps it on the factor), so a
box of k and Abel's expansion at the same k repeat no squaring.

The sum is separable, so both modes contract it one variable at a
time against the rows zeta_{mu_n}(-j), from the last variable to the
first, one sum per distinct exponent prefix.  Exact mode runs on
integers: each prefix is one CyclotomicField._dot of (numerators,
denominator, weight) triples, E's integer numerators weighting the last
variable and one kernels.cyclo_mul per prefix carrying each inner sum
out, as an unnormalized (num, den) pair, to the variable before; E's
denominator joins at the end, and the value is normalized once.  Approx
mode walks E in sorted exponent order, so its doubles do not depend on
the path each product of the expansion took.
"""

from __future__ import annotations

import math
import operator
from typing import Sequence

from ._backend import kernels
from .cyclotomic import CyclotomicField, _reduced
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

    E's numerators are grouped by exponent prefix and contracted from
    the last variable to the first, each variable's row
    zeta_{mu_n}(-a_n) read once.  Exact mode sums each prefix in one
    CyclotomicField._dot: the last variable with E's integer numerators
    as weights, each earlier one over the products zeta_{mu_n}(-a_n)
    times the inner sums, one kernels.cyclo_mul per distinct prefix
    (a_1..a_n), n < N, so N = 1 makes none; the sums stay unnormalized
    (num, den) pairs until the one normalization of the value.  Approx
    mode sums each prefix by TwistVector.lincomb, taking E's terms in
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
    if mus.mode == "exact":
        return _exact_contraction(E, mus)
    lincomb = mus.lincomb
    # approx sums follow key order, which must not follow mul_terms
    level = dict(sorted(E.nums.items()))  # prefix -> int, then -> Scalar
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
    return level.get((), mus.zero_scalar())


def _exact_contraction(E: SparsePolynomial, mus: TwistVector):
    """closed_value's exact sum over the expansion E, in integers: a
    prefix's inner sum (num, den) enters the prefix before it as the
    vector cyclo_mul(zeta_{mu_n}(-a_n).num, num) over the product of
    the denominators, with weight 1."""
    field = CyclotomicField.get(mus.order)
    if not E.nums:
        return field.zero
    dot, taps = field._dot, field.taps
    mul = kernels.cyclo_mul
    level = E.nums  # prefix -> int numerator, then -> (num, den)
    nvars = len(mus)
    for n in range(nvars, 0, -1):
        mu = mus.single(n)
        row: dict = {}  # a_n -> zeta_{mu_n}(-a_n)
        groups: dict = {}  # prefix -> its (num, den, weight) triples
        for alpha, v in level.items():
            a = alpha[-1]
            x = row.get(a)
            if x is None:
                x = row[a] = negapolylog(a, mu)
            if n == nvars:  # v is E's integer numerator
                term = (x.num, x.den, v)
            else:  # v is the inner sum (num, den) of the prefix alpha
                term = (mul(x.num, v[0], taps), x.den * v[1], 1)
            groups.setdefault(alpha[:-1], []).append(term)
        level = {p: dot(*zip(*terms)) for p, terms in groups.items()}
    num, den = level[()]
    return _reduced(field, num, den * E.den)
