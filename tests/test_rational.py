"""The rational scalar: parsing, formatting, arithmetic sanity."""

import fractions

import pytest

from twistzeta._rational import (
    ONE,
    RATIONAL_BACKEND,
    ZERO,
    Rational,
    format_rational,
    parse_rational,
    rat,
)


def test_backend_is_declared():
    assert RATIONAL_BACKEND == "fraction" and Rational is fractions.Fraction


def test_parse_plain_integer():
    assert parse_rational("7") == rat(7, 1)
    assert parse_rational("-3") == rat(-3, 1)


def test_parse_fraction_normalizes():
    assert parse_rational("-4/6") == rat(-2, 3)
    assert parse_rational("10/5") == rat(2, 1)


def test_parse_rejects_garbage():
    for bad in ("", "1/0", "a/b", "1/2/3", "1.5", "one"):
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_format_round_trips():
    for num in (0, 1, -1, 5, -7):
        for den in (1, 2, 3, 12):
            q = rat(num, den)
            assert parse_rational(format_rational(q)) == q


def test_format_whole_numbers_have_no_slash():
    assert format_rational(rat(4, 2)) == "2"
    assert format_rational(ZERO) == "0"
    assert format_rational(ONE) == "1"


def test_arithmetic_matches_fractions():
    a = rat(3, 4)
    b = rat(-2, 5)
    fa = fractions.Fraction(3, 4)
    fb = fractions.Fraction(-2, 5)
    assert a + b == rat(7, 20) and fa + fb == fractions.Fraction(7, 20)
    assert a * b == rat(-3, 10)
    assert a / b == rat(-15, 8)
    assert a - b == rat(23, 20)
