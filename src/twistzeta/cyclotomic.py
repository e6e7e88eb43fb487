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
from ._rational import ONE, ZERO, Rational, format_rational
from .errors import DimensionMismatch, EngineError, FieldMismatch, ZeroInverse

__all__ = [
    "CyclotomicElement",
    "CyclotomicField",
    "cyclotomic_polynomial",
    "elem_add",
    "elem_inv",
    "elem_mul",
    "elem_pow",
    "embed",
    "root_of_unity",
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

    __slots__ = ("order", "degree", "modulus", "reduction_rows", "_root")

    def __init__(self, order: int):
        modulus = cyclotomic_polynomial(order)
        phi = len(modulus) - 1
        if phi != _totient(order):
            raise AssertionError("cyclotomic degree is not the totient")
        self.order = order
        self.degree = phi
        self.modulus = modulus
        self.reduction_rows = self._build_rows(modulus, phi)
        self._root = cmath.exp(2j * math.pi / order)

    @staticmethod
    def _build_rows(modulus: tuple[int, ...], phi: int) -> tuple:
        # rows[j] = integer coordinates of z^(phi+j), for j = 0..phi-2;
        # a product of two reduced elements never needs more.
        rows = []
        row = [-c for c in modulus[:phi]]
        rows.append(tuple(row))
        for _ in range(phi - 2):
            top = row[phi - 1]
            row = [0] + row[: phi - 1]
            if top:
                first = rows[0]
                row = [row[i] + top * first[i] for i in range(phi)]
            rows.append(tuple(row))
        return tuple(rows)

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

    def lincomb(self, pairs, den: int = 1) -> "CyclotomicElement":
        """sum of x * c over (element, exact scalar) pairs, divided by the
        positive int den.

        The sum runs on integer numerators over a running common
        denominator and is normalized once at the end, instead of one
        scaling and one sum (each with its own gcd) per term.
        """
        order = self.order
        acc = None
        acc_den = 1
        for x, c in pairs:
            if x.field.order != order:
                raise FieldMismatch(f"orders {order} and {x.field.order}")
            if type(c) is int:
                p, q = c, 1
            else:
                pq = _ratio(c)
                if pq is None:
                    raise TypeError(
                        f"coefficients must be exact rationals, not "
                        f"{type(c).__name__}"
                    )
                p, q = pq
            if not p:
                continue
            xd = x.den * q
            if acc is None:
                acc = [y * p for y in x.num]
                acc_den = xd
            elif xd == acc_den:
                acc = [s + y * p for s, y in zip(acc, x.num)]
            else:
                g = math.gcd(acc_den, xd)
                sa = xd // g
                p *= acc_den // g
                acc = [s * sa + y * p for s, y in zip(acc, x.num)]
                acc_den *= sa
        if acc is None:
            return self.zero
        return _reduced(self, tuple(acc), acc_den * den)

    @property
    def zero(self) -> "CyclotomicElement":
        return self.constant(0)

    @property
    def one(self) -> "CyclotomicElement":
        return self.constant(1)

    def root(self, e: int = 1) -> "CyclotomicElement":
        """The element zeta_r^e."""
        e %= self.order
        if self.degree == 1:
            # r = 1 or 2: z is 1 or -1
            base = self.constant(-1) if self.order == 2 else self.one
        else:
            num = [0] * self.degree
            num[1] = 1
            base = CyclotomicElement(self, tuple(num), 1)
        return base**e

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


def _reduced(field: CyclotomicField, num: tuple, den: int):
    """The canonical element num/den, for any den > 0."""
    if den != 1:
        g = math.gcd(den, *num)
        if g != 1:
            num = tuple([c // g for c in num])
            den //= g
    return CyclotomicElement(field, num, den)


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

    def _add(self, bn: tuple, bd: int) -> "CyclotomicElement":
        an, ad = self.num, self.den
        if ad == bd:
            return _reduced(self.field, tuple(map(operator.add, an, bn)), ad)
        if not any(an):
            return CyclotomicElement(self.field, bn, bd)
        if not any(bn):
            return self
        g = math.gcd(ad, bd)
        sa, sb = bd // g, ad // g
        num = tuple([x * sa + y * sb for x, y in zip(an, bn)])
        if g == 1:
            # a prime of ad (or bd) divides every numerator only if it
            # divides every a (or b) numerator, which canonical form rules out
            return CyclotomicElement(self.field, num, ad * bd)
        return _reduced(self.field, num, ad * sa)

    def __add__(self, other):
        operand = self._operand(other)
        if operand is None:
            return NotImplemented
        return self._add(*operand)

    __radd__ = __add__

    def __sub__(self, other):
        operand = self._operand(other)
        if operand is None:
            return NotImplemented
        bn, bd = operand
        return self._add(tuple(-c for c in bn), bd)

    def __rsub__(self, other):
        operand = self._operand(other)
        if operand is None:
            return NotImplemented
        return (-self)._add(*operand)

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
            num = kernels.cyclo_mul(self.num, other.num, field.reduction_rows)
            return _reduced(field, num, self.den * other.den)
        pq = _ratio(other)
        if pq is None:
            return NotImplemented
        p, q = pq
        if q == 1:
            if p == 1:
                return self
            if not p:
                return CyclotomicElement(field, (0,) * field.degree, 1)
        # p/q and num/den are both in lowest terms, so only p against den
        # and q against the numerators can cancel.
        num, den = self.num, self.den
        g = math.gcd(p, den)
        if g != 1:
            p //= g
            den //= g
        if q != 1:
            g = math.gcd(q, *num)
            if g != 1:
                q //= g
                num = [c // g for c in num]
            den *= q
        return CyclotomicElement(field, tuple([c * p for c in num]), den)

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
        """Multiplicative inverse via the extended Euclidean algorithm on
        the numerator polynomial and the field polynomial over Q; the
        inverse of num/den is den times the inverse of num."""
        if self.is_zero:
            raise ZeroInverse("zero has no inverse")
        # Invariant: old_r = old_s * num + (...) * modulus, over Q[x].
        old_r = [Rational(c) for c in self.num]
        r = [Rational(c) for c in self.field.modulus]
        old_s = [ONE]
        s: list = [ZERO]
        while any(r):
            q, rem = _poly_divmod(old_r, r)
            old_r, r = r, rem
            old_s, s = s, _poly_sub(old_s, _poly_mul(q, s))
        # old_r is now a nonzero constant gcd (the modulus is irreducible)
        lead = _poly_trim(old_r)
        if len(lead) != 1:
            raise ZeroInverse("element shares a factor with the modulus")
        scale = self.den / lead[0]
        coeffs = [c * scale for c in old_s[: self.field.degree]]
        coeffs += [ZERO] * (self.field.degree - len(coeffs))
        return _from_rationals(self.field, coeffs)

    @property
    def is_zero(self) -> bool:
        return not any(self.num)

    @property
    def is_one(self) -> bool:
        num = self.num
        return self.den == 1 and num[0] == 1 and not any(num[1:])

    def embed(self) -> complex:
        """Numeric value at z = exp(2 pi i / r), in double precision.

        A coordinate beyond the double range raises EngineError."""
        # int / int is correctly rounded, the same double as float(p/q)
        z = self.field._root
        den = self.den
        acc = 0j
        try:
            for c in reversed(self.num):
                acc = acc * z + c / den
        except OverflowError:
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


def _poly_trim(p: list) -> list:
    i = len(p)
    while i > 0 and not p[i - 1]:
        i -= 1
    return p[:i]


def _poly_sub(a: list, b: list) -> list:
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else ZERO
        y = b[i] if i < len(b) else ZERO
        out.append(x - y)
    return out


def _poly_mul(a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            if y:
                out[i + j] += x * y
    return out


def _poly_divmod(a: list, b: list) -> tuple[list, list]:
    a = _poly_trim(list(a))
    b = _poly_trim(list(b))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if len(a) < len(b):
        return [], a
    q = [ZERO] * (len(a) - len(b) + 1)
    inv_lead = ONE / b[-1]
    for i in range(len(q) - 1, -1, -1):
        c = a[i + len(b) - 1] * inv_lead
        if c:
            q[i] = c
            for j, bj in enumerate(b):
                a[i + j] -= c * bj
    return q, _poly_trim(a)


# Operation-style aliases used by the tests and the docs.


def elem_add(a: CyclotomicElement, b: CyclotomicElement) -> CyclotomicElement:
    return a + b


def elem_mul(a: CyclotomicElement, b: CyclotomicElement) -> CyclotomicElement:
    return a * b


def elem_inv(a: CyclotomicElement) -> CyclotomicElement:
    return a.inverse()


def elem_pow(a: CyclotomicElement, n: int) -> CyclotomicElement:
    return a**n


def root_of_unity(r: int, e: int) -> CyclotomicElement:
    """zeta_r^e as an element of Q(zeta_r)."""
    return CyclotomicField.get(r).root(e)


def embed(a: CyclotomicElement) -> complex:
    return a.embed()
