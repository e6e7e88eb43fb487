"""Sparse multivariate polynomials over exact rationals.

Terms live in a map from exponent tuples to nonzero coefficients; the
zero polynomial is the empty map.  Values are immutable after
construction and all operations return new polynomials, so instances can
be shared freely, hashed, and used as cache keys.

Variable indices in the public API are 1-based (X1..XN), matching the
serialized text form.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping

from ._backend import kernels
from ._rational import ONE, ZERO, Rational, format_rational
from .errors import DimensionMismatch, RestrictionRange

__all__ = [
    "NEG_INF",
    "SparsePolynomial",
    "depends_on",
    "poly_add",
    "poly_delta",
    "poly_eval",
    "poly_mul",
    "poly_pow",
    "poly_restrict",
    "poly_shift",
    "total_degree",
]

# total_degree of the zero polynomial; compares below every integer
NEG_INF = float("-inf")

def _coerce(value):
    if isinstance(value, (int, Rational)):
        return Rational(value)
    raise TypeError(f"coefficients must be exact rationals, got {type(value)!r}")


class SparsePolynomial:
    """Polynomial in nvars variables with exact rational coefficients."""

    __slots__ = ("nvars", "terms", "_hash", "_text")

    def __init__(self, nvars: int, terms: Mapping | Iterable = ()):
        if nvars < 0:
            raise DimensionMismatch("nvars must be nonnegative")
        table: dict = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for exps, coef in items:
            exps = tuple(int(e) for e in exps)
            if len(exps) != nvars:
                raise DimensionMismatch(
                    f"exponent tuple {exps} in {nvars} variables"
                )
            if any(e < 0 for e in exps):
                raise ValueError("exponents must be naturals")
            coef = _coerce(coef)
            if coef:
                prev = table.get(exps)
                if prev is None:
                    table[exps] = coef
                else:
                    s = prev + coef
                    if s:
                        table[exps] = s
                    else:
                        del table[exps]
        self.nvars = nvars
        self.terms = table
        self._hash = None
        self._text = None

    # Internal fast path: table already canonical, skip validation.
    @classmethod
    def _raw(cls, nvars: int, table: dict) -> "SparsePolynomial":
        p = object.__new__(cls)
        p.nvars = nvars
        p.terms = table
        p._hash = None
        p._text = None
        return p

    @classmethod
    def constant(cls, nvars: int, value) -> "SparsePolynomial":
        value = _coerce(value)
        table = {(0,) * nvars: value} if value else {}
        return cls._raw(nvars, table)

    @classmethod
    def variable(cls, nvars: int, index: int) -> "SparsePolynomial":
        """The monomial X_index (1-based)."""
        if not 1 <= index <= nvars:
            raise DimensionMismatch(f"variable index {index} of {nvars}")
        exps = tuple(1 if i == index - 1 else 0 for i in range(nvars))
        return cls._raw(nvars, {exps: ONE})

    @classmethod
    def zero(cls, nvars: int) -> "SparsePolynomial":
        return cls._raw(nvars, {})

    @classmethod
    def one(cls, nvars: int) -> "SparsePolynomial":
        return cls.constant(nvars, 1)

    # arithmetic

    def _check(self, other: "SparsePolynomial"):
        if self.nvars != other.nvars:
            raise DimensionMismatch(
                f"{self.nvars} variables against {other.nvars}"
            )

    def __add__(self, other):
        if not isinstance(other, SparsePolynomial):
            try:
                other = SparsePolynomial.constant(self.nvars, other)
            except TypeError:
                return NotImplemented
        self._check(other)
        table = dict(self.terms)
        for e, c in other.terms.items():
            prev = table.get(e)
            if prev is None:
                table[e] = c
            else:
                s = prev + c
                if s:
                    table[e] = s
                else:
                    del table[e]
        return SparsePolynomial._raw(self.nvars, table)

    __radd__ = __add__

    def __neg__(self):
        return SparsePolynomial._raw(
            self.nvars, {e: -c for e, c in self.terms.items()}
        )

    def __sub__(self, other):
        if not isinstance(other, SparsePolynomial):
            try:
                other = SparsePolynomial.constant(self.nvars, other)
            except TypeError:
                return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, SparsePolynomial):
            self._check(other)
            return SparsePolynomial._raw(
                self.nvars, kernels.mul_terms(self.terms, other.terms)
            )
        try:
            q = _coerce(other)
        except TypeError:
            return NotImplemented
        if not q:
            return SparsePolynomial.zero(self.nvars)
        return SparsePolynomial._raw(
            self.nvars, {e: c * q for e, c in self.terms.items()}
        )

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            raise ValueError("polynomial powers must be naturals")
        result = SparsePolynomial.one(self.nvars)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    # operators of the recurrence

    def shift(self, a: Iterable[int]) -> "SparsePolynomial":
        """p(X + a) for a vector of naturals a."""
        a = tuple(int(x) for x in a)
        if len(a) != self.nvars:
            raise DimensionMismatch("shift vector length")
        if any(x < 0 for x in a):
            raise ValueError("shift entries must be naturals")
        if not any(a):
            return self
        return SparsePolynomial._raw(
            self.nvars, kernels.shift_terms(self.terms, a)
        )

    def delta(self, a: Iterable[int]) -> "SparsePolynomial":
        """The finite difference p(X + a) - p(X)."""
        return self.shift(a) - self

    def restrict(
        self,
        a: Iterable[int],
        kept: Iterable[int],
        fixed: Mapping[int, int],
    ) -> "SparsePolynomial":
        """Substitute X_i -> a_i + d for kept indices i and X_j -> b_j for
        the fixed complement, producing a polynomial in the d variables.

        kept lists the surviving 1-based indices; fixed maps every other
        index j to a value b_j in {1..a_j}.  The kept variables are
        renumbered in increasing original order.
        """
        a = tuple(int(x) for x in a)
        if len(a) != self.nvars:
            raise DimensionMismatch("shift vector length")
        kept = sorted(int(i) for i in kept)
        if not kept:
            raise DimensionMismatch("kept index set must be nonempty")
        if any(not 1 <= i <= self.nvars for i in kept):
            raise DimensionMismatch("kept index out of range")
        comp = [j for j in range(1, self.nvars + 1) if j not in set(kept)]
        if sorted(fixed) != comp:
            raise DimensionMismatch(
                "fixed assignment must cover exactly the complement"
            )
        for j, b in fixed.items():
            if not 1 <= b <= a[j - 1]:
                raise RestrictionRange(
                    f"b_{j} = {b} outside 1..{a[j - 1]}"
                )
        q = len(kept)
        pos = {i: t for t, i in enumerate(kept)}
        out: dict = {}
        for exps, coef in self.terms.items():
            # multiplier from the fixed coordinates
            for j in comp:
                e = exps[j - 1]
                if e:
                    coef = coef * (fixed[j] ** e)
            # expand prod_i (a_i + d_i)^(e_i) over the kept coordinates
            partial = {(0,) * q: coef}
            for i in kept:
                e = exps[i - 1]
                if e == 0:
                    continue
                ai = a[i - 1]
                t = pos[i]
                base = {}
                if ai == 0:
                    mono = tuple(e if s == t else 0 for s in range(q))
                    base[mono] = ONE
                else:
                    for d in range(e + 1):
                        mono = tuple(d if s == t else 0 for s in range(q))
                        base[mono] = Rational(
                            math.comb(e, d) * ai ** (e - d)
                        )
                partial = kernels.mul_terms(partial, base)
            for mono, c in partial.items():
                prev = out.get(mono)
                if prev is None:
                    out[mono] = c
                else:
                    s = prev + c
                    if s:
                        out[mono] = s
                    else:
                        del out[mono]
        return SparsePolynomial._raw(q, out)

    def eval(self, point: Iterable) -> "Rational":
        """Exact evaluation at a point of rationals or ints."""
        point = [
            x if isinstance(x, Rational) else Rational(x) for x in point
        ]
        if len(point) != self.nvars:
            raise DimensionMismatch("evaluation point length")
        total = ZERO
        for exps, coef in self.terms.items():
            v = coef
            for x, e in zip(point, exps):
                if e:
                    v = v * x**e
            total += v
        return total

    # structure queries

    def total_degree(self):
        """Largest |alpha| over stored terms, NEG_INF for the zero
        polynomial."""
        if not self.terms:
            return NEG_INF
        return max(sum(e) for e in self.terms)

    def depends_on(self, index: int) -> bool:
        """True when some stored term has a positive exponent of X_index."""
        if not 1 <= index <= self.nvars:
            raise DimensionMismatch(f"variable index {index} of {self.nvars}")
        return any(e[index - 1] for e in self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def constant_value(self):
        """The coefficient of X^0 (the value of a constant polynomial)."""
        return self.terms.get((0,) * self.nvars, ZERO)

    # canonical form

    def sorted_terms(self) -> list:
        """Terms in descending graded lexicographic order."""
        return sorted(
            self.terms.items(),
            key=lambda item: (sum(item[0]), item[0]),
            reverse=True,
        )

    def canonical_text(self) -> str:
        """Deterministic text form, used in cache keys.

        Each term prints every variable: 'c*X1^e1*...*XN^eN', terms in
        descending graded-lex order joined by ' + '; the zero polynomial
        prints as '0'.  Computed once per polynomial.
        """
        if self._text is not None:
            return self._text
        chunks = []
        for exps, coef in self.sorted_terms():
            vars_part = "*".join(
                f"X{i + 1}^{e}" for i, e in enumerate(exps)
            )
            body = format_rational(coef)
            chunks.append(f"{body}*{vars_part}" if vars_part else body)
        self._text = " + ".join(chunks) if chunks else "0"
        return self._text

    def __eq__(self, other):
        if not isinstance(other, SparsePolynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(
                (self.nvars, frozenset(self.terms.items()))
            )
        return self._hash

    def __repr__(self):
        return f"SparsePolynomial({self.nvars}, {self.canonical_text()!r})"


# Operation-style wrappers matching the documented interface.


def poly_add(p: SparsePolynomial, q: SparsePolynomial) -> SparsePolynomial:
    return p + q


def poly_mul(p: SparsePolynomial, q: SparsePolynomial) -> SparsePolynomial:
    return p * q


def poly_pow(p: SparsePolynomial, k: int) -> SparsePolynomial:
    return p**k


def poly_shift(p: SparsePolynomial, a: Iterable[int]) -> SparsePolynomial:
    return p.shift(a)


def poly_delta(p: SparsePolynomial, a: Iterable[int]) -> SparsePolynomial:
    return p.delta(a)


def poly_restrict(
    p: SparsePolynomial,
    a: Iterable[int],
    kept: Iterable[int],
    fixed: Mapping[int, int],
) -> SparsePolynomial:
    return p.restrict(a, kept, fixed)


def poly_eval(p: SparsePolynomial, point: Iterable):
    return p.eval(point)


def total_degree(p: SparsePolynomial):
    return p.total_degree()


def depends_on(p: SparsePolynomial, index: int) -> bool:
    return p.depends_on(index)
