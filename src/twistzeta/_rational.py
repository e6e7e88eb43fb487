"""Exact rational scalar type shared by every module: fractions.Fraction."""

from __future__ import annotations

from fractions import Fraction

Rational = Fraction
RATIONAL_BACKEND = "fraction"

ZERO = Rational(0)
ONE = Rational(1)


def rat(num: int | str, den: int = 1):
    """Build a Rational from ints or from a 'p/q' string.

    >>> rat(3, 6) == rat("1/2")
    True
    """
    if isinstance(num, str):
        if den != 1:
            raise ValueError("string form takes no separate denominator")
        return parse_rational(num)
    return Rational(num, den)


def parse_rational(text: str):
    """Parse 'p' or 'p/q'; the denominator must be positive.

    >>> parse_rational("-4/6") == rat(-2, 3)
    True
    """
    body = text.strip()
    num, sep, den = body.partition("/")
    try:
        n = int(num)
        d = int(den) if sep else 1
    except ValueError:
        raise ValueError(f"not a rational literal: {text!r}") from None
    if d <= 0:
        raise ValueError(f"denominator must be positive: {text!r}")
    return Rational(n, d)


def format_rational(q) -> str:
    """Canonical text: 'p' when the denominator is 1, else 'p/q'."""
    n = q.numerator
    d = q.denominator
    return f"{n}" if d == 1 else f"{n}/{d}"
