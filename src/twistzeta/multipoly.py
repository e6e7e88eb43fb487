"""Sparse multivariate polynomials over exact rationals.

A polynomial is stored the way CyclotomicElement is: integer numerators
nums, a map from exponent tuples to nonzero ints, over one denominator
den > 0 with gcd(den, *nums) == 1; zero is the empty map over 1.  Every
operation runs on the ints and returns this canonical form, so equal
polynomials have equal (nums, den).  Fractions appear only in building a
polynomial from outside input, in the read-only terms view and in the
value of eval.  Instances are immutable (callers must not mutate nums),
so they can be shared freely, hashed, and used as cache keys.

Variable indices in the public API are 1-based (X1..XN), matching the
serialized text form.
"""

from __future__ import annotations

import math
import operator
from typing import Iterable, Mapping

from ._backend import kernels
from ._rational import Rational
from .errors import DimensionMismatch

__all__ = [
    "NEG_INF",
    "SparsePolynomial",
    "graded_terms",
]

# total_degree of the zero polynomial; compares below every integer
NEG_INF = float("-inf")

def _coerce(value):
    if isinstance(value, (int, Rational)):
        return Rational(value)
    raise TypeError(f"coefficients must be exact rationals, got {type(value)!r}")


def graded_terms(table: Mapping) -> list:
    """The items of a term table in descending graded lexicographic
    order."""
    return sorted(
        table.items(), key=lambda item: (sum(item[0]), item[0]), reverse=True
    )


class SparsePolynomial:
    """Polynomial in nvars variables with exact rational coefficients,
    stored as integer numerators nums over one denominator den."""

    __slots__ = ("nvars", "nums", "den", "_hash", "_text", "_power")

    def __init__(self, nvars: int, terms: Mapping | Iterable = ()):
        if nvars < 0:
            raise DimensionMismatch("nvars must be nonnegative")
        table: dict = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for exps, coef in items:
            exps = tuple(map(operator.index, exps))
            if len(exps) != nvars:
                raise DimensionMismatch(
                    f"exponent tuple {exps} in {nvars} variables"
                )
            if any(e < 0 for e in exps):
                raise ValueError("exponents must be naturals")
            s = table.get(exps, 0) + _coerce(coef)
            if s:
                table[exps] = s
            else:
                table.pop(exps, None)
        # over the lcm of the reduced denominators the numerators already
        # have no common factor with den
        den = math.lcm(*(c.denominator for c in table.values()))
        self.nvars = nvars
        self.nums = {
            e: c.numerator * (den // c.denominator) for e, c in table.items()
        }
        self.den = den
        self._hash = None
        self._text = None
        self._power = None

    # Internal fast path: nums over den already canonical.
    @classmethod
    def _raw(cls, nvars: int, nums: dict, den: int = 1) -> "SparsePolynomial":
        p = object.__new__(cls)
        p.nvars = nvars
        p.nums = nums
        p.den = den
        p._hash = None
        p._text = None
        p._power = None
        return p

    @classmethod
    def _reduced(cls, nvars: int, nums: dict, den: int) -> "SparsePolynomial":
        """The canonical polynomial nums/den, for any den > 0."""
        if den != 1:
            g = math.gcd(den, *nums.values())
            if g != 1:
                nums = {e: c // g for e, c in nums.items()}
                den //= g
        return cls._raw(nvars, nums, den)

    @property
    def terms(self) -> dict:
        """The coefficients as exact rationals {exps: Rational}, lowest
        terms each, in the key order of nums; a new dict on each access."""
        den = self.den
        return {e: Rational(c, den) for e, c in self.nums.items()}

    @classmethod
    def constant(cls, nvars: int, value) -> "SparsePolynomial":
        p, q = _coerce(value).as_integer_ratio()
        return cls._raw(nvars, {(0,) * nvars: p} if p else {}, q)

    @classmethod
    def variable(cls, nvars: int, index: int) -> "SparsePolynomial":
        """The monomial X_index (1-based)."""
        if not 1 <= index <= nvars:
            raise DimensionMismatch(f"variable index {index} of {nvars}")
        exps = tuple(1 if i == index - 1 else 0 for i in range(nvars))
        return cls._raw(nvars, {exps: 1})

    @classmethod
    def zero(cls, nvars: int) -> "SparsePolynomial":
        return cls._raw(nvars, {})

    @classmethod
    def one(cls, nvars: int) -> "SparsePolynomial":
        return cls._raw(nvars, {(0,) * nvars: 1})

    # arithmetic

    def _check(self, other: "SparsePolynomial"):
        if self.nvars != other.nvars:
            raise DimensionMismatch(
                f"{self.nvars} variables against {other.nvars}"
            )

    def _plus(self, other, sign: int):
        """self + sign * other; the keys of self come first, then the new
        keys of other, each in its own order."""
        if not isinstance(other, SparsePolynomial):
            try:
                other = SparsePolynomial.constant(self.nvars, other)
            except TypeError:
                return NotImplemented
        self._check(other)
        ad, bd = self.den, other.den
        g = math.gcd(ad, bd)
        sa, sb = bd // g, sign * (ad // g)
        table = {e: c * sa for e, c in self.nums.items()}
        for e, c in other.nums.items():
            s = table.get(e, 0) + c * sb
            if s:
                table[e] = s
            else:
                del table[e]
        return SparsePolynomial._reduced(self.nvars, table, ad * sa)

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._plus(other, -1)

    def __neg__(self):
        return SparsePolynomial._raw(
            self.nvars, {e: -c for e, c in self.nums.items()}, self.den
        )

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, SparsePolynomial):
            self._check(other)
            return SparsePolynomial._reduced(
                self.nvars,
                kernels.mul_terms(self.nums, other.nums),
                self.den * other.den,
            )
        try:
            q = _coerce(other)
        except TypeError:
            return NotImplemented
        if not q:
            return SparsePolynomial.zero(self.nvars)
        p = q.numerator
        return SparsePolynomial._reduced(
            self.nvars,
            {e: c * p for e, c in self.nums.items()},
            self.den * q.denominator,
        )

    __rmul__ = __mul__

    def mul_ordered(self, other: "SparsePolynomial") -> "SparsePolynomial":
        """self * other with its terms in the schoolbook's order, the
        order in which the distributive loop first meets each exponent,
        at every size (a large product otherwise comes out in ascending
        order); for callers whose floating-point sums follow that order.
        """
        self._check(other)
        return SparsePolynomial._reduced(
            self.nvars,
            kernels.mul_terms(self.nums, other.nums, ordered=True),
            self.den * other.den,
        )

    def __pow__(self, k: int):
        """self^k by squaring, from the last power taken of self.

        The object keeps its last power k >= 2 as (k, self^k) in one
        slot, outside equality, hashing and the text forms, and no
        other: a repeated k returns it, a larger k multiplies it by
        self^(k - j) for its j, square by square, and a smaller k starts
        again from one."""
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            raise ValueError("polynomial powers must be naturals")
        if k < 2:
            return self if k else SparsePolynomial.one(self.nvars)
        last = self._power
        if last is not None and last[0] <= k:
            j, result = last
            if j == k:
                return result
            n = k - j
        else:
            result, n = SparsePolynomial.one(self.nvars), k
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        self._power = (k, result)
        return result

    # operators of the recurrence

    def shift(self, a: Iterable[int]) -> "SparsePolynomial":
        """p(X + a) for a vector of naturals a."""
        a = tuple(map(operator.index, a))
        if len(a) != self.nvars:
            raise DimensionMismatch("shift vector length")
        if any(x < 0 for x in a):
            raise ValueError("shift entries must be naturals")
        if not any(a):
            return self
        # the shift is invertible over Z[X], so it keeps the content of
        # the numerators and the result stays canonical over den
        return SparsePolynomial._raw(
            self.nvars, kernels.shift_terms(self.nums, a), self.den
        )

    def delta(self, a: Iterable[int]) -> "SparsePolynomial":
        """The finite difference p(X + a) - p(X)."""
        return self.shift(a) - self

    def restrict(self, fixed: Mapping[int, int]) -> "SparsePolynomial":
        """The face X_j = b_j for every index j of fixed: a polynomial in
        the other variables, renumbered in increasing original order.

        Each term folds its powers of the fixed values into its
        coefficient, and the terms keep the order in which the folding
        meets them.

        >>> X1 = SparsePolynomial.variable(2, 1)
        >>> X2 = SparsePolynomial.variable(2, 2)
        >>> (X1 * X2 + X2 ** 2).restrict({2: 2})
        SparsePolynomial(1, '2*X1^1 + 4*X1^0')
        """
        if any(not 1 <= j <= self.nvars for j in fixed):
            raise DimensionMismatch("fixed index out of range")
        if not all(isinstance(b, int) for b in fixed.values()):
            raise TypeError("face values must be ints")
        kept = [i for i in range(self.nvars) if i + 1 not in fixed]
        if not kept:
            raise DimensionMismatch("a face must keep a variable")
        frozen: dict = {}
        for exps, coef in self.nums.items():
            for j, b in fixed.items():
                e = exps[j - 1]
                if e:
                    coef = coef * b**e
            mono = tuple(exps[i] for i in kept)
            s = frozen.get(mono, 0) + coef
            if s:
                frozen[mono] = s
            else:
                frozen.pop(mono, None)
        return SparsePolynomial._reduced(len(kept), frozen, self.den)

    def eval(self, point: Iterable) -> "Rational":
        """Exact evaluation at a point of rationals or ints.

        With x_i = p_i/q_i and D_i the degree in X_i, each term is
        summed as c prod_i p_i^e_i q_i^(D_i - e_i) over
        den prod_i q_i^D_i, all in integers."""
        point = [Rational(x).as_integer_ratio() for x in point]
        if len(point) != self.nvars:
            raise DimensionMismatch("evaluation point length")
        nums = self.nums
        degs = [max((e[i] for e in nums), default=0) for i in range(self.nvars)]
        total = 0
        for exps, c in nums.items():
            for (p, q), e, D in zip(point, exps, degs):
                c *= p**e * q ** (D - e)
            total += c
        return Rational(
            total, self.den * math.prod(q**D for (p, q), D in zip(point, degs))
        )

    # structure queries

    def total_degree(self):
        """Largest |alpha| over stored terms, NEG_INF for the zero
        polynomial."""
        if not self.nums:
            return NEG_INF
        return max(sum(e) for e in self.nums)

    def depends_on(self, index: int) -> bool:
        """True when some stored term has a positive exponent of X_index."""
        if not 1 <= index <= self.nvars:
            raise DimensionMismatch(f"variable index {index} of {self.nvars}")
        return any(e[index - 1] for e in self.nums)

    @property
    def is_zero(self) -> bool:
        return not self.nums

    @property
    def is_constant(self) -> bool:
        return all(not any(e) for e in self.nums)

    def constant_value(self):
        """The coefficient of X^0 (the value of a constant polynomial)."""
        return Rational(self.nums.get((0,) * self.nvars, 0), self.den)

    # canonical form

    def sorted_terms(self) -> list:
        """The terms view in descending graded-lex order."""
        return graded_terms(self.terms)

    def canonical_text(self) -> str:
        """Deterministic text form, used in cache keys.

        Each term prints every variable: 'c*X1^e1*...*XN^eN', terms in
        descending graded-lex order joined by ' + ', each coefficient in
        lowest terms as 'p' or 'p/q'; the zero polynomial prints as '0'.
        Computed once per polynomial.
        """
        if self._text is not None:
            return self._text
        den = self.den
        chunks = []
        for exps, c in graded_terms(self.nums):
            vars_part = "*".join(
                f"X{i + 1}^{e}" for i, e in enumerate(exps)
            )
            g = math.gcd(c, den)
            body = f"{c // g}" if g == den else f"{c // g}/{den // g}"
            chunks.append(f"{body}*{vars_part}" if vars_part else body)
        self._text = " + ".join(chunks) if chunks else "0"
        return self._text

    def __eq__(self, other):
        if not isinstance(other, SparsePolynomial):
            return NotImplemented
        return (self.nvars, self.den, self.nums) == (
            other.nvars, other.den, other.nums
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(
                (self.nvars, self.den, frozenset(self.nums.items()))
            )
        return self._hash

    def __repr__(self):
        return f"SparsePolynomial({self.nvars}, {self.canonical_text()!r})"
