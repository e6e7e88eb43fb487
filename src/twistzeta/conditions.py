"""Sufficient-condition checks for the series to make sense.

The evaluator itself only needs mu != 1; convergence of the defining
series on a right half-lattice additionally wants each P_t positive on
[1, oo)^N and the product growing in every variable.  These checks are
one-sided: a pass certifies the instance through a sufficient rule, a
fail witnesses a violated necessary condition, anything else stays
unknown rather than guessing.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._rational import ZERO
from .engine import ZetaInstance
from .multipoly import SparsePolynomial

__all__ = ["ConditionReport", "validate_conditions"]

PASS = "pass"
FAIL = "fail"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class ConditionReport:
    """Three verdicts, each pass/fail/unknown, with per-factor detail."""

    positivity: str
    hypoellipticity: str
    growth: str
    factor_positivity: tuple[str, ...]
    factor_hypoellipticity: tuple[str, ...]
    notes: tuple[str, ...]

    @property
    def all_pass(self) -> bool:
        return (
            self.positivity == PASS
            and self.hypoellipticity == PASS
            and self.growth == PASS
        )

    def lines(self) -> list[str]:
        out = [
            f"positivity: {self.positivity}",
            f"hypoellipticity: {self.hypoellipticity}",
            f"growth: {self.growth}",
        ]
        out.extend(f"  note: {n}" for n in self.notes)
        return out


def _positivity_verdict(P: SparsePolynomial) -> str:
    at_one = P.eval((1,) * P.nvars)
    if at_one <= 0:
        # (1,..,1) lies in the summation region, so this is necessary
        return FAIL
    # P.nums over den > 0 carries the signs of the coefficients
    if all(c > 0 for c in P.nums.values()):
        return PASS
    return UNKNOWN


def _gram_psd(A: list[list]) -> bool:
    """Exact positive-semidefiniteness by rational elimination.

    A PSD matrix with a zero diagonal entry has the whole row zero, so
    no pivot search is needed: skip zero rows, reject negative pivots,
    take Schur complements otherwise.
    """
    n = len(A)
    A = [row[:] for row in A]
    for i in range(n):
        d = A[i][i]
        if d < 0:
            return False
        if not d:
            if any(A[i][j] for j in range(i, n)):
                return False
            continue
        for r in range(i + 1, n):
            f = A[r][i] / d
            if f:
                for c in range(i, n):
                    A[r][c] = A[r][c] - f * A[i][c]
    return True


def _is_structured_quadratic(P: SparsePolynomial) -> bool:
    """Does P match: PSD quadratic form + positive linear part in every
    variable + nonnegative constant?  Shape recognized from the
    expanded terms; the quadratic part is a sum of squares of rational
    vectors exactly when its Gram matrix is PSD."""
    N = P.nvars
    linear = [ZERO] * N
    constant = ZERO
    gram = [[ZERO] * N for _ in range(N)]
    for e, c in P.terms.items():
        deg = sum(e)
        if deg == 0:
            constant = c
        elif deg == 1:
            linear[e.index(1)] = c
        elif deg == 2:
            support = [i for i, x in enumerate(e) if x]
            if len(support) == 1:
                i = support[0]
                gram[i][i] = c
            else:
                i, j = support
                half = c / 2
                gram[i][j] = half
                gram[j][i] = half
        else:
            return False
    if constant < 0:
        return False
    if any(c <= 0 for c in linear):
        return False
    return _gram_psd(gram)


def _hypo_verdict(P: SparsePolynomial, positivity: str) -> str:
    if positivity == FAIL:
        return FAIL
    if all(c > 0 for c in P.nums.values()) and not P.is_zero:
        return PASS
    if _is_structured_quadratic(P):
        return PASS
    return UNKNOWN


def _aggregate(verdicts) -> str:
    if any(v == FAIL for v in verdicts):
        return FAIL
    if any(v == UNKNOWN for v in verdicts):
        return UNKNOWN
    return PASS


def validate_conditions(inst: ZetaInstance) -> ConditionReport:
    """Check positivity, hypoellipticity, and product growth.

    Positivity passes per factor on nonnegative stored coefficients
    with P(1,..,1) > 0, fails when P(1,..,1) <= 0.  Hypoellipticity
    passes on strictly positive coefficients, positive linear forms,
    or the sum-of-squares quadratic shape with positive linear part.
    Growth asks that every variable occur in some factor that passed
    hypoellipticity; a variable occurring in no factor at all is a
    definite fail.
    """
    notes: list[str] = []
    fpos = []
    fhyp = []
    for t, P in enumerate(inst.Ps, start=1):
        pv = _positivity_verdict(P)
        hv = _hypo_verdict(P, pv)
        fpos.append(pv)
        fhyp.append(hv)
        if pv == FAIL:
            notes.append(f"P_{t} is nonpositive at (1,..,1)")
        elif pv == UNKNOWN:
            notes.append(f"P_{t} has mixed signs; positivity not decided")
        if hv == UNKNOWN:
            notes.append(f"P_{t} matches no sufficient hypoellipticity rule")

    growth_flags = []
    for n in range(1, inst.nvars + 1):
        touching = [
            t for t, P in enumerate(inst.Ps) if P.depends_on(n)
        ]
        if not touching:
            growth_flags.append(FAIL)
            notes.append(f"no factor depends on X{n}")
        elif any(fhyp[t] == PASS for t in touching):
            growth_flags.append(PASS)
        else:
            growth_flags.append(UNKNOWN)
            notes.append(
                f"X{n} occurs only in factors without a hypoellipticity pass"
            )

    return ConditionReport(
        positivity=_aggregate(fpos),
        hypoellipticity=_aggregate(fhyp),
        growth=_aggregate(growth_flags),
        factor_positivity=tuple(fpos),
        factor_hypoellipticity=tuple(fhyp),
        notes=tuple(notes),
    )
