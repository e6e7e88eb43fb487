"""Twist tuples and one-dimensional twisted zeta values at negative
integers.

For a unit-modulus twist mu != 1 the Abel-summed value
zeta_mu(-n) = sum_{m>=1} mu^m m^n is a rational function of mu: applying
the operator z d/dz n times to the geometric sum z/(1-z) gives
A_n(z) / (1-z)^(n+1) with integer numerator coefficients.  Exact mode
realizes mu as a root of unity and evaluates in Q(zeta_r); approx mode
keeps complex doubles.  An Eulerian-number formula provides a second,
independent derivation of the same rational function, used as an oracle.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

from ._rational import Rational
from .cyclotomic import CyclotomicElement, CyclotomicField
from .errors import DimensionMismatch, TwistIsOne

__all__ = [
    "Twist",
    "TwistVector",
    "eulerian_negapolylog",
    "eulerian_row",
    "monomial_sum",
    "mu_power",
    "negapolylog",
    "operator_numerator",
]

Scalar = Union[CyclotomicElement, complex]

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Twist:
    """A single twist: zeta_r^e in exact mode, exp(i*theta) otherwise."""

    mode: str
    order: int | None = None
    exponent: int | None = None
    angle: float | None = None

    def __post_init__(self):
        if self.mode == "exact":
            if self.order is None or self.order < 1:
                raise ValueError("exact twist needs a positive order")
            if self.exponent is None:
                raise ValueError("exact twist needs an exponent")
            if self.exponent % self.order == 0:
                raise TwistIsOne(
                    f"zeta_{self.order}^{self.exponent} equals 1"
                )
        elif self.mode == "approx":
            if self.angle is None:
                raise ValueError("approx twist needs an angle")
            if not 0.0 < self.angle < _TWO_PI:
                raise TwistIsOne(
                    "approx twist angle must lie strictly inside (0, 2*pi)"
                )
        else:
            raise ValueError(f"unknown twist mode {self.mode!r}")

    def value(self) -> Scalar:
        if self.mode == "exact":
            return CyclotomicField.get(self.order).root(self.exponent)
        return cmath.exp(1j * self.angle)


_shared_twist = functools.lru_cache(maxsize=None)(Twist)


@dataclass(frozen=True)
class TwistVector:
    """The tuple mu in (unit circle minus {1})^N.

    Exact mode stores one common order r with exponents e_n, so every
    mu_n = zeta_r^e_n lives in the single field Q(zeta_r).  Approx mode
    stores angles in (0, 2*pi).
    """

    mode: str
    order: int | None = None
    exponents: tuple[int, ...] | None = None
    angles: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.mode == "exact":
            if self.order is None or self.order < 1:
                raise ValueError("exact mode needs a positive common order")
            if not self.exponents:
                raise ValueError("twist vector must not be empty")
            object.__setattr__(
                self, "exponents", tuple(int(e) for e in self.exponents)
            )
            for e in self.exponents:
                if e % self.order == 0:
                    raise TwistIsOne(f"zeta_{self.order}^{e} equals 1")
        elif self.mode == "approx":
            if not self.angles:
                raise ValueError("twist vector must not be empty")
            object.__setattr__(
                self, "angles", tuple(float(t) for t in self.angles)
            )
            for t in self.angles:
                if not 0.0 < t < _TWO_PI:
                    raise TwistIsOne(
                        "angles must lie strictly inside (0, 2*pi)"
                    )
        else:
            raise ValueError(f"unknown twist mode {self.mode!r}")

    @classmethod
    def exact(cls, order: int, exponents: Iterable[int]) -> "TwistVector":
        return cls(mode="exact", order=order, exponents=tuple(exponents))

    @classmethod
    def approx(cls, angles: Iterable[float]) -> "TwistVector":
        return cls(mode="approx", angles=tuple(angles))

    def __len__(self) -> int:
        return len(self.exponents if self.mode == "exact" else self.angles)

    def single(self, n: int) -> Twist:
        """The n-th twist (1-based) as a standalone spec, one shared
        instance per spec: the negapolylog memo then matches it by
        identity, without a call of the dataclass __eq__."""
        if not 1 <= n <= len(self):
            raise DimensionMismatch(f"twist index {n} of {len(self)}")
        if self.mode == "exact":
            return _shared_twist("exact", self.order, self.exponents[n - 1])
        return _shared_twist("approx", None, None, self.angles[n - 1])

    def sub(self, indices: Sequence[int]) -> "TwistVector":
        """The sub-vector over the given 1-based indices, in order."""
        for i in indices:
            if not 1 <= i <= len(self):
                raise DimensionMismatch(f"twist index {i} of {len(self)}")
        if self.mode == "exact":
            return TwistVector.exact(
                self.order, tuple(self.exponents[i - 1] for i in indices)
            )
        return TwistVector.approx(
            tuple(self.angles[i - 1] for i in indices)
        )

    def mu(self, n: int) -> Scalar:
        """The value of mu_n as a Scalar in this vector's mode."""
        return self.single(n).value()

    def power_exponent(self, a: Sequence[int]) -> int:
        """The exponent e with mu^a = zeta_r^e, exact mode only."""
        return sum(int(x) * e for x, e in zip(a, self.exponents))

    def to_approx(self) -> "TwistVector":
        if self.mode == "approx":
            return self
        return TwistVector.approx(
            tuple(
                _TWO_PI * ((e % self.order) / self.order)
                for e in self.exponents
            )
        )

    # Scalar helpers: every evaluator builds its constants through these,
    # which keeps exact and approx code paths identical in shape.

    def zero_scalar(self) -> Scalar:
        if self.mode == "exact":
            return CyclotomicField.get(self.order).zero
        return 0j

    def one_scalar(self) -> Scalar:
        if self.mode == "exact":
            return CyclotomicField.get(self.order).one
        return 1 + 0j

    def scale(self, s: Scalar, q) -> Scalar:
        """Multiply a Scalar by an exact rational, staying in mode."""
        if self.mode == "exact":
            return s * q
        return s * float(q)

    def lincomb(self, pairs: Iterable, den: int = 1) -> Scalar:
        """sum of s * c / den over (Scalar, exact rational) pairs.

        Exact mode normalizes once (CyclotomicField.lincomb); approx mode
        scales term by term in pair order, the same doubles as a loop of
        scale() and + starting from zero."""
        if self.mode == "exact":
            return CyclotomicField.get(self.order).lincomb(pairs, den)
        acc = 0j
        if den == 1:
            for s, c in pairs:
                acc = acc + s * float(c)
        else:
            for s, c in pairs:
                acc = acc + s * float(c / den)
        return acc

    @staticmethod
    def order_of_text(text: str) -> int | None:
        """The common order r when text begins with the canonical text of
        exact twists, None for any other text."""
        head, sep, _ = text.partition(";e=")
        if sep and head.startswith("zeta(r=") and head[7:].isdecimal():
            return int(head[7:])
        return None

    def canonical_text(self) -> str:
        if self.mode == "exact":
            es = ",".join(
                str(e % self.order) for e in self.exponents
            )
            return f"zeta(r={self.order};e={es})"
        ts = ",".join(repr(t) for t in self.angles)
        return f"angles({ts})"


def _grow_rows(rows: dict, n: int, step) -> tuple:
    """rows[n] of a table whose keys run without gaps from its first one,
    each missing row m computed as step(rows[m - 1], m) upward from the
    largest row held: a deep first call costs no stack."""
    for m in range(next(iter(rows)) + len(rows), n + 1):
        rows[m] = step(rows[m - 1], m)
    return rows[n]


def _next_operator_row(prev: tuple, n: int) -> tuple:
    """A_n from A_(n-1)."""
    deriv = [i * c for i, c in enumerate(prev)][1:]
    # (1-z) * deriv
    work = [0] * (len(prev) + 1)
    for i, c in enumerate(deriv):
        work[i] += c
        work[i + 1] -= c
    for i, c in enumerate(prev):
        work[i] += n * c
    out = [0] + work  # multiply by z
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


_OPERATOR_ROWS = {0: (0, 1)}


def operator_numerator(n: int) -> tuple[int, ...]:
    """Coefficients of A_n, low degree first, where applying z d/dz n
    times to z/(1-z) equals A_n(z) / (1-z)^(n+1).

    A_0 = z and A_{n+1}(z) = z * ((1-z) A_n'(z) + (n+1) A_n(z)).
    """
    if n < 0:
        raise ValueError("n must be a natural number")
    return _grow_rows(_OPERATOR_ROWS, n, _next_operator_row)


def _next_eulerian_row(prev: tuple, n: int) -> tuple:
    """Row n of the Eulerian triangle from row n - 1."""
    row = []
    for j in range(n):
        left = prev[j] if j < len(prev) else 0
        right = prev[j - 1] if j >= 1 else 0
        row.append((j + 1) * left + (n - j) * right)
    return tuple(row)


_EULERIAN_ROWS = {1: (1,)}


def eulerian_row(n: int) -> tuple[int, ...]:
    """Row n of the Eulerian triangle, entries <n over j> for j = 0..n-1.

    Built from the additive recurrence
    <n,j> = (j+1) <n-1,j> + (n-j) <n-1,j-1>.
    """
    if n < 1:
        raise ValueError("the triangle starts at n = 1")
    return _grow_rows(_EULERIAN_ROWS, n, _next_eulerian_row)


def _horner(coeffs: Sequence[int], z: Scalar, one: Scalar) -> Scalar:
    acc = one * 0
    for c in reversed(coeffs):
        acc = acc * z + one * c
    return acc


@functools.lru_cache(maxsize=None)
def negapolylog(n: int, mu: Twist) -> Scalar:
    """zeta_mu(-n) = sum_{m>=1} mu^m m^n in the Abel sense.

    Computed as A_n(mu) / (1-mu)^(n+1) with A_n from the operator
    iteration.  For exact twists mu = zeta_r^e the numerator is
    CyclotomicField.root_sum of the integer coefficients of A_n (one
    folded vector of length r, no Horner products in the field) and
    the power of 1/(1-mu) comes from
    CyclotomicField.inverse_one_minus_root (the root-of-unity identity,
    memoized per twist on the field), not from a Euclid inverse.
    Approx twists evaluate A_n by Horner in complex doubles.

    >>> negapolylog(0, Twist(mode="exact", order=2, exponent=1))
    <Q(zeta_2): -1/2>
    """
    if n < 0:
        raise ValueError("n must be a natural number")
    if mu.mode == "exact":
        field = CyclotomicField.get(mu.order)
        num = field.root_sum(operator_numerator(n), mu.exponent)
        return num * field.inverse_one_minus_root(mu.exponent, n + 1)
    z = mu.value()
    num = _horner(operator_numerator(n), z, 1 + 0j)
    return num / (1 - z) ** (n + 1)


@functools.lru_cache(maxsize=None)
def _euclid_inverse_one_minus(order: int, e: int) -> CyclotomicElement:
    """1/(1 - zeta_r^e) by the extended Euclidean algorithm, once per
    twist: the oracle's own inverse, independent of the root-of-unity
    identity behind CyclotomicField.inverse_one_minus_root."""
    field = CyclotomicField.get(order)
    return (field.one - field.root(e)).inverse()


@functools.lru_cache(maxsize=None)
def eulerian_negapolylog(n: int, mu: Twist) -> Scalar:
    """Independent oracle for negapolylog, n >= 1:

    zeta_mu(-n) = (sum_j <n over j> mu^(n-j)) / (1-mu)^(n+1).
    """
    if n < 1:
        raise ValueError("the Eulerian formula needs n >= 1")
    row = eulerian_row(n)
    z = mu.value()
    if mu.mode == "exact":
        acc = CyclotomicField.get(mu.order).zero
        for j, c in enumerate(row):
            acc = acc + (z ** (n - j)) * c
        inv = _euclid_inverse_one_minus(mu.order, mu.exponent)
        return acc * inv ** (n + 1)
    acc = 0j
    for j, c in enumerate(row):
        acc += c * z ** (n - j)
    return acc / (1 - z) ** (n + 1)


def monomial_sum(alpha: Sequence[int], mus: TwistVector) -> Scalar:
    """prod_n zeta_{mu_n}(-alpha_n), the separable value of one monomial."""
    if len(alpha) != len(mus):
        raise DimensionMismatch(
            f"exponent tuple of length {len(alpha)} against {len(mus)} twists"
        )
    acc = mus.one_scalar()
    for n, a in enumerate(alpha, start=1):
        acc = acc * negapolylog(int(a), mus.single(n))
    return acc


def mu_power(mus: TwistVector, a: Sequence[int]) -> Scalar:
    """mu^a = prod_n mu_n^(a_n); in exact mode zeta_r^e for the exponent
    e = sum_n a_n e_n of TwistVector.power_exponent."""
    if len(a) != len(mus):
        raise DimensionMismatch(
            f"power tuple of length {len(a)} against {len(mus)} twists"
        )
    if mus.mode == "exact":
        return CyclotomicField.get(mus.order).root(mus.power_exponent(a))
    acc = mus.one_scalar()
    for n, e in enumerate(a, start=1):
        e = int(e)
        if e:
            acc = acc * (mus.mu(n) ** e)
    return acc
