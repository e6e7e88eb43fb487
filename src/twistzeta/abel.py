"""Numeric cross-check by Abel summation.

The series at s = -k sums (x mu)^m E(m) over the lattice for the
expanded numerator E = Q prod P_t^(k_t), then lets x -> 1-.  Each
monomial separates into per-variable sums of m^d w^m, so one table of
power sums per variable covers every term.  With no truncation bound
the per-variable sums are evaluated in closed form; with a bound M the
box [1,M]^N is summed directly, which is only usable while the tail
(growing like M^deg x^M) is already negligible.

The limit x -> 1- is taken by Richardson extrapolation over
x = 1 - 2^-j: the estimate is analytic in (1-x) near 0, so each Neville
stage cancels one more power of 2^-j.  Its radius of convergence
shrinks with min_n |1 - mu_n|, so the j move up for twists near 1.
"""

from __future__ import annotations

import math
from typing import Sequence

from ._backend import kernels
from .closedform import expand_numerator
from .engine import ZetaInstance, _as_k
from .errors import EngineError
from .multipoly import SparsePolynomial, graded_terms
from .twists import _grow_rows

__all__ = ["abel_estimate", "abel_richardson", "richardson"]


def _next_stirling_row(prev: tuple, n: int) -> tuple:
    row = [0] * (n + 1)
    for j in range(1, n + 1):
        row[j] = j * (prev[j] if j < n else 0) + prev[j - 1]
    return tuple(row)


_STIRLING_ROWS = {0: (1,)}


def _stirling_row(n: int) -> tuple[int, ...]:
    """Stirling set numbers S(n, 0..n)."""
    return _grow_rows(_STIRLING_ROWS, n, _next_stirling_row)


def _li_neg(d: int, w: complex) -> complex:
    """sum_{m>=1} m^d w^m for |w| < 1, via the Stirling expansion
    sum_j S(d,j) j! w^j / (1-w)^(j+1)."""
    g = 1.0 / (1.0 - w)
    acc = 0j
    wj = 1.0 + 0j
    fact = 1
    gj = g
    for j, s in enumerate(_stirling_row(d)):
        if j:
            wj *= w
            fact *= j
            gj *= g
        if s:
            acc += s * fact * wj * gj
    if d == 0:
        acc -= 1.0
    return acc


def _embedded_twists(inst: ZetaInstance) -> list[complex]:
    mus = inst.mus
    if mus.mode == "exact":
        return [mus.single(n).value().embed() for n in range(1, len(mus) + 1)]
    return [mus.mu(n) for n in range(1, len(mus) + 1)]


def abel_estimate(
    inst: ZetaInstance,
    k: Sequence[int],
    x: float,
    M: int | None = None,
) -> complex:
    """Abel sum of the expanded numerator at radius x in (0, 1).

    M = None sums each axis in closed form (the full lattice); a
    finite M sums the box [1, M]^N directly.
    """
    E = expand_numerator(inst.Q, inst.Ps, _as_k(inst, k))
    return _abel_sum(*_abel_terms(E), _embedded_twists(inst), x, M)


def _abel_terms(E: SparsePolynomial) -> tuple[list, int, list[int]]:
    """What _abel_sum reads of E: its terms in graded order, its
    denominator and its degree in each variable, found once for every
    radius."""
    maxdeg = [0] * E.nvars
    for alpha in E.nums:
        for n, e in enumerate(alpha):
            if e > maxdeg[n]:
                maxdeg[n] = e
    return graded_terms(E.nums), E.den, maxdeg


def _abel_sum(
    terms: list,
    den: int,
    maxdeg: list[int],
    twists: list[complex],
    x: float,
    M: int | None,
) -> complex:
    """sum over the lattice of (x mu)^m E(m) for E given by _abel_terms;
    abel_estimate's body, shared with abel_richardson so that E is
    expanded and sorted once for every radius."""
    if not 0.0 < x < 1.0:
        raise ValueError("x must lie strictly between 0 and 1")
    if not terms:
        return 0j
    ws = [x * mu for mu in twists]
    N = len(maxdeg)
    tables = []
    for n in range(N):
        w = ws[n]
        if M is None:
            tables.append([_li_neg(d, w) for d in range(maxdeg[n] + 1)])
        else:
            if M < 1:
                raise ValueError("the truncation bound must be >= 1")
            tables.append(
                kernels.power_sums_box(w.real, w.imag, M, maxdeg[n])
            )
    acc = 0j
    for alpha, c in terms:
        # int / int is correctly rounded: the double of the coefficient
        term = complex(c / den, 0.0)
        for n, e in enumerate(alpha):
            term *= tables[n][e]
        acc += term
    if not (math.isfinite(acc.real) and math.isfinite(acc.imag)):
        raise EngineError("Abel sum overflowed; use a smaller box or x")
    return acc


def richardson(values: Sequence[complex], ratio: float = 2.0) -> complex:
    """Extrapolate a sequence f(h_i) with h_i = h_0 / ratio^i to h = 0.

    Assumes an expansion f(h) = L + c_1 h + c_2 h^2 + ...; each Neville
    stage eliminates the next power.
    """
    if not values:
        raise ValueError("nothing to extrapolate")
    row = list(values)
    m = 0
    while len(row) > 1:
        m += 1
        factor = ratio**m
        row = [
            (factor * row[i] - row[i - 1]) / (factor - 1.0)
            for i in range(1, len(row))
        ]
    return row[0]


# 1 - 2^-j is the last radius below 1 in doubles at j = 52
_MAX_J = 52


def _radius_offset(twists: list[complex], jmax: int) -> int:
    """max(0, floor(-log2 min_n |1 - mu_n|)), capped so that the largest
    radius 1 - 2^-(jmax + offset) still lies below 1 in doubles.

    The estimate is analytic in h = 1 - x only for |h| below about
    |1 - mu_n|, so the radii move toward 1 as a twist nears 1; the
    offset is 0 for every twist of order r <= 6.
    """
    gap = min(abs(1.0 - w) for w in twists)
    return max(0, min(math.floor(-math.log2(gap)), _MAX_J - jmax))


def abel_richardson(
    inst: ZetaInstance,
    k: Sequence[int],
    js: Sequence[int] = (8, 9, 10, 11, 12),
    M: int | None = None,
) -> complex:
    """Richardson-extrapolated Abel estimate over x = 1 - 2^-j, each j
    raised by the same offset for twists near 1 (see _radius_offset)."""
    E = _abel_terms(expand_numerator(inst.Q, inst.Ps, _as_k(inst, k)))
    twists = _embedded_twists(inst)
    offset = _radius_offset(twists, max(js, default=0))
    return richardson(
        [_abel_sum(*E, twists, 1.0 - 2.0 ** -(j + offset), M) for j in js]
    )
