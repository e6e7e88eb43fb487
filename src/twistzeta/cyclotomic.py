"""Exact arithmetic in cyclotomic fields Q(zeta_r).

An element is a coordinate vector of length phi(r) in the power basis
1, z, ..., z^(phi(r)-1), where z is a fixed primitive r-th root of unity,
kept fully reduced modulo the r-th cyclotomic polynomial.  The
coordinates are exact rationals stored as integer numerators over one
common denominator in lowest terms (the layout of ANTIC's nf_elem), so
scalings, sums and products run on plain ints, and equality of the
stored vectors is equality in the field: values can be compared across
independently computed routes.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator

from ._backend import kernels
from ._rational import Rational, format_rational
from .errors import DimensionMismatch, EngineError, FieldMismatch, ZeroInverse

__all__ = [
    "CyclotomicElement",
    "CyclotomicField",
    "cyclotomic_polynomial",
]


def _divisors(r: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= r:
        if r % d == 0:
            small.append(d)
            if d != r // d:
                large.append(r // d)
        d += 1
    return small + large[::-1]


def _exact_div(num: list[int], den: tuple[int, ...]) -> list[int]:
    """Divide integer polynomials (low degree first); den is monic and
    must divide num exactly."""
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for i in range(len(out) - 1, -1, -1):
        c = num[i + dd]
        if c:
            out[i] = c
            for j, dj in enumerate(den):
                num[i + j] -= c * dj
    if any(num[:dd]):
        raise ArithmeticError("division was not exact")
    return out


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(r: int) -> tuple[int, ...]:
    """Integer coefficients of the r-th cyclotomic polynomial, low degree
    first, monic.

    Computed by exact division of x^r - 1 by the product of the
    polynomials of all proper divisors of r.

    >>> cyclotomic_polynomial(1)
    (-1, 1)
    >>> cyclotomic_polynomial(4)
    (1, 0, 1)
    >>> cyclotomic_polynomial(6)
    (1, -1, 1)
    """
    if r < 1:
        raise ValueError("order must be a positive integer")
    if r == 1:
        return (-1, 1)
    coeffs = [0] * (r + 1)
    coeffs[0] = -1
    coeffs[r] = 1
    for d in _divisors(r):
        if d < r:
            coeffs = _exact_div(coeffs, cyclotomic_polynomial(d))
    return tuple(coeffs)


def _totient(r: int) -> int:
    phi = r
    n = r
    p = 2
    while p * p <= n:
        if n % p == 0:
            phi -= phi // p
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        phi -= phi // n
    return phi


class CyclotomicField:
    """The field Q(zeta_r) with its reduction data.

    Instances are interned per order, so elements of one order always
    share the same field object.
    """

    __slots__ = (
        "order",
        "degree",
        "modulus",
        "taps",
        "_root",
        "_one_minus_root_powers",
    )

    def __init__(self, order: int):
        modulus = cyclotomic_polynomial(order)
        phi = len(modulus) - 1
        if phi != _totient(order):
            raise AssertionError("cyclotomic degree is not the totient")
        self.order = order
        self.degree = phi
        self.modulus = modulus
        # the reduction data of kernels.cyclo_fold and cyclo_mul
        self.taps = tuple((t, c) for t, c in enumerate(modulus[:phi]) if c)
        self._root = cmath.exp(2j * math.pi / order)
        # e -> [1, x, x^2, ...] with x = 1/(1 - zeta_r^e), grown on demand
        self._one_minus_root_powers: dict = {}

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def get(order: int) -> "CyclotomicField":
        return CyclotomicField(order)

    def element(self, coords) -> "CyclotomicElement":
        coords = [_exact(c) for c in coords]
        if len(coords) != self.degree:
            raise DimensionMismatch(
                f"expected {self.degree} coordinates, got {len(coords)}"
            )
        return _from_rationals(self, coords)

    def constant(self, value) -> "CyclotomicElement":
        p, q = _ratio(_exact(value))
        return CyclotomicElement(self, (p,) + (0,) * (self.degree - 1), q)

    def _dot(self, nums, dens, weights) -> tuple[list, int]:
        """(num, den) of sum_j weights[j] * nums[j] / dens[j], for
        coordinate vectors nums of this field, positive int denominators
        dens and int weights, not normalized: every exact sum of field
        elements runs here.

        Each weight absorbs the factor that brings its vector to the
        least common denominator.  The loop then runs along the shorter
        side: with fewer vectors than coordinates each scaled vector is
        added in turn, otherwise every coordinate is one integer dot
        product of the weights with that coordinate's column."""
        den = math.lcm(*dens)
        if den != 1:
            weights = [w * (den // d) for w, d in zip(weights, dens)]
        if len(nums) < self.degree:
            acc = [0] * self.degree
            for w, num in zip(weights, nums):
                acc = [a + w * y for a, y in zip(acc, num)]
            return acc, den
        mul = operator.mul
        return [
            sum(map(mul, weights, column)) for column in zip(*nums)
        ], den

    @property
    def zero(self) -> "CyclotomicElement":
        return self.constant(0)

    @property
    def one(self) -> "CyclotomicElement":
        return self.constant(1)

    def root(self, e: int = 1) -> "CyclotomicElement":
        """The element zeta_r^e: one slot of a folded root vector."""
        return self.root_sum((0, 1), e)

    def inverse_one_minus_root(
        self, e: int, power: int = 1
    ) -> "CyclotomicElement":
        """1/(1 - zeta_r^e) to the given natural power, for zeta_r^e != 1.

        For a root of unity w != 1 with w^r = 1, the sum
        sum_{j=1}^{r-1} j w^j equals r/(w - 1), so 1/(1 - w) is
        -(1/r) sum_j j zeta_r^(e j mod r): an integer vector reduced
        once modulo the monic Phi_r, with no rational arithmetic and no
        polynomial gcd.  The inverse and its powers are memoized per
        e mod r on the field.
        """
        if power < 0:
            raise ValueError("the power must be a natural number")
        e %= self.order
        powers = self._one_minus_root_powers.get(e)
        if powers is None:
            if not e:
                raise ZeroInverse(f"zeta_{self.order}^0 - 1 is zero")
            powers = [self.one, self._inverse_one_minus_root(e)]
            self._one_minus_root_powers[e] = powers
        while len(powers) <= power:
            powers.append(powers[-1] * powers[1])
        return powers[power]

    def _inverse_one_minus_root(self, e: int) -> "CyclotomicElement":
        r = self.order
        vec = [0] * r
        for j in range(1, r):
            vec[e * j % r] -= j
        num = kernels.cyclo_fold(vec, self.degree, self.taps)
        return _reduced(self, num, r)

    def root_sum(self, coeffs, e: int) -> "CyclotomicElement":
        """sum_i c_i zeta_r^(e i) for integer coefficients c_0, c_1, ...

        Each c_i lands in slot e i mod r of one integer vector of length
        r, which is then reduced once modulo the monic Phi_r: no field
        product per coefficient and no rational arithmetic.
        """
        r = self.order
        e %= r
        vec = [0] * r
        slot = 0
        for c in coeffs:
            vec[slot] += c
            slot += e
            if slot >= r:
                slot -= r
        return CyclotomicElement(
            self, kernels.cyclo_fold(vec, self.degree, self.taps), 1
        )

    def __repr__(self) -> str:
        return f"CyclotomicField({self.order})"


_EXACT_TYPES = (int, Rational)


def _exact(c):
    """c as an exact rational; floats and complex numbers are refused."""
    if isinstance(c, (float, complex)):
        raise TypeError(
            f"coordinates must be exact rationals, not {type(c).__name__}"
        )
    return c if isinstance(c, _EXACT_TYPES) else Rational(c)


def _ratio(x):
    """(p, q) in lowest terms with q > 0 for an exact scalar, else None."""
    if isinstance(x, int):
        return int(x), 1
    if isinstance(x, Rational):
        return x.numerator, x.denominator
    return None


def _from_rationals(field: CyclotomicField, coords) -> "CyclotomicElement":
    """The canonical element with these exact coordinates.

    Over den = lcm of the reduced denominators the numerators already
    have no common factor with den, so no further gcd is needed."""
    pairs = [_ratio(c) for c in coords]
    den = math.lcm(*(q for _, q in pairs))
    num = tuple(p * (den // q) for p, q in pairs)
    return CyclotomicElement(field, num, den)


def _reduced(field: CyclotomicField, num, den: int):
    """The canonical element num/den, for integer numerators num and any
    den > 0."""
    if den != 1:
        g = math.gcd(den, *num)
        if g != 1:
            return CyclotomicElement(
                field, tuple([c // g for c in num]), den // g
            )
    return CyclotomicElement(field, tuple(num), den)


def _fixed_pi(bits: int) -> int:
    """pi * 2^bits to within 8 * bits units, by Machin's formula
    pi = 16 arctan(1/5) - 4 arctan(1/239)."""

    def arctan_inv(x: int) -> int:
        term = total = (1 << bits) // x
        n = 1
        while term:
            term //= -x * x
            n += 2
            total += term // n
        return total

    return 16 * arctan_inv(5) - 4 * arctan_inv(239)


def _embed_fixed(num: tuple, den: int, order: int) -> complex:
    """sum_i num_i zeta_r^i / den at zeta_r = exp(2 pi i / r), summed
    exactly in integers over fixed-point powers of zeta_r and rounded
    once; the precision doubles until the error bound, one unit of the
    last place per |num_i|, is below 2^-64 of the sum."""
    total = sum(map(abs, num))
    bits = 64 + max(0, total.bit_length() - den.bit_length())
    while True:
        # zeta_r to bits + guard fractional bits by the exponential series,
        # its powers by repeated products
        work = bits + 32 + len(num).bit_length()
        one, shift = 1 << work, 32 + len(num).bit_length()
        theta = 2 * _fixed_pi(work) // order
        cos, sin, tr, ti, j = 0, 0, one, 0, 0
        while tr or ti:
            cos, sin, j = cos + tr, sin + ti, j + 1
            tr, ti = -ti * theta // (one * j), tr * theta // (one * j)
        x, y, re, im = one, 0, 0, 0
        for c in num:  # each power rounded to bits fractional bits
            re += c * (((x >> (shift - 1)) + 1) >> 1)
            im += c * (((y >> (shift - 1)) + 1) >> 1)
            x, y = (x * cos - y * sin) >> work, (x * sin + y * cos) >> work
        if max(abs(re), abs(im)) >= total << 64:
            scale = den << bits
            return complex(re / scale, im / scale)
        bits *= 2


class CyclotomicElement:
    """An exact element of Q(zeta_r); immutable and canonical.

    The coordinates are num[i] / den with integer numerators and one
    shared denominator den > 0, where gcd(den, *num) == 1; zero is
    stored with den == 1.  Equal elements therefore have equal
    (num, den), which is what equality and hashing compare.
    """

    __slots__ = ("field", "num", "den")

    def __init__(self, field: CyclotomicField, num: tuple, den: int):
        self.field = field
        self.num = num
        self.den = den

    @property
    def coords(self) -> tuple:
        """The coordinates as exact rationals, lowest terms each."""
        den = self.den
        return tuple(Rational(c, den) for c in self.num)

    def _operand(self, other):
        """(num, den) of another element or exact scalar, or None."""
        if isinstance(other, CyclotomicElement):
            if other.field.order != self.field.order:
                raise FieldMismatch(
                    f"orders {self.field.order} and {other.field.order}"
                )
            return other.num, other.den
        pq = _ratio(other)
        if pq is None:
            return None
        return (pq[0],) + (0,) * (self.field.degree - 1), pq[1]

    def _add(self, operand, wa: int, wb: int) -> "CyclotomicElement":
        """wa * self + wb * operand, for an operand (num, den) of
        _operand and int weights."""
        bn, bd = operand
        num, den = self.field._dot((self.num, bn), (self.den, bd), (wa, wb))
        return _reduced(self.field, num, den)

    def __add__(self, other):
        operand = self._operand(other)
        if operand is None:
            return NotImplemented
        return self._add(operand, 1, 1)

    __radd__ = __add__

    def __sub__(self, other):
        operand = self._operand(other)
        if operand is None:
            return NotImplemented
        return self._add(operand, 1, -1)

    def __rsub__(self, other):
        operand = self._operand(other)
        if operand is None:
            return NotImplemented
        return self._add(operand, -1, 1)

    def __neg__(self):
        return CyclotomicElement(
            self.field, tuple(-c for c in self.num), self.den
        )

    def __mul__(self, other):
        field = self.field
        if isinstance(other, CyclotomicElement):
            if other.field.order != field.order:
                raise FieldMismatch(
                    f"orders {field.order} and {other.field.order}"
                )
            num = kernels.cyclo_mul(self.num, other.num, field.taps)
            return _reduced(field, num, self.den * other.den)
        pq = _ratio(other)
        if pq is None:
            return NotImplemented
        p, q = pq
        return _reduced(field, [c * p for c in self.num], self.den * q)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        result = self.field.one
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def inverse(self) -> "CyclotomicElement":
        """Multiplicative inverse by fraction-free elimination (Bareiss,
        Math. Comp. 22, 1968), in integers only.

        Column j of the matrix M of multiplication by num is num * z^j
        reduced modulo Phi_r.  Elimination on [M | e_0] keeps every entry
        a minor of it, each step dividing exactly by the previous pivot,
        and ends on the pivot det = +-det(M); integer back substitution
        then gives y = det * M^-1 e_0, so 1/num = y/det and the inverse
        of num/den is den * y / det."""
        if self.is_zero:
            raise ZeroInverse("zero has no inverse")
        field = self.field
        phi, taps = field.degree, field.taps
        cols = [
            kernels.cyclo_fold([0] * j + list(self.num), phi, taps)
            for j in range(phi)
        ]
        rows = [list(row) + [0] for row in zip(*cols)]
        rows[0][-1] = 1
        # Phi_r is irreducible, so M is invertible and a pivot exists
        upper, det = [], 1
        while rows:
            pivot = rows.pop(next(i for i, row in enumerate(rows) if row[0]))
            head, tail = pivot[0], pivot[1:]
            rows = [
                [(head * a - row[0] * b) // det for a, b in zip(row[1:], tail)]
                for row in rows
            ]
            upper.append(pivot)
            det = head
        y: list = []
        for row in reversed(upper):
            rest = det * row[-1] - sum(map(operator.mul, row[1:-1], y))
            y.insert(0, rest // row[0])
        if det < 0:
            det, y = -det, [-c for c in y]
        return _reduced(field, [self.den * c for c in y], det)

    @property
    def is_zero(self) -> bool:
        return not any(self.num)

    def embed(self) -> complex:
        """Numeric value at z = exp(2 pi i / r), in double precision.

        A coordinate or modulus beyond the double range raises EngineError."""
        # int / int is correctly rounded, the same double as float(p/q)
        z = self.field._root
        num, den = self.num, self.den
        acc = 0j
        try:
            for c in reversed(num):
                acc = acc * z + c / den
            n, d = abs(acc).as_integer_ratio()
            # sum_i |num_i| > 2^26 den |acc|: more than half of the bits
            # of the double sum may have cancelled out
            if sum(map(abs, num)) * d > (den * n) << 26:
                return _embed_fixed(num, den, self.field.order)
        except (OverflowError, ValueError):  # ValueError: a NaN sum
            raise EngineError(
                "value exceeds the double range; no decimal form"
            ) from None
        return acc

    def coords_text(self) -> str:
        return ",".join(format_rational(c) for c in self.coords)

    def __eq__(self, other):
        if isinstance(other, CyclotomicElement):
            return (
                self.field.order == other.field.order
                and self.den == other.den
                and self.num == other.num
            )
        operand = self._operand(other)
        if operand is None:
            return NotImplemented
        return (self.num, self.den) == operand

    def __hash__(self):
        return hash((self.field.order, self.num, self.den))

    def __bool__(self):
        return not self.is_zero

    def __str__(self) -> str:
        parts = []
        for i, c in enumerate(self.coords):
            if not c:
                continue
            q = format_rational(c)
            if i == 0:
                parts.append(q)
            elif i == 1:
                parts.append(f"{q}*z")
            else:
                parts.append(f"{q}*z^{i}")
        return " + ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"<Q(zeta_{self.field.order}): {self}>"
