from fractions import Fraction

from apsn.values import (
    Approx,
    Exact,
    format_rational,
    parse_rational,
    sign_with_band,
)


def test_sign_with_band():
    assert sign_with_band(Exact(Fraction(-1, 10**12))) == (-1, False)
    assert sign_with_band(Approx(5e-10, 1e-9)) == (0, False)
    assert sign_with_band(Approx(5e-8, 1e-9)) == (1, True)
    assert sign_with_band(Approx(-5e-8, 1e-9)) == (-1, True)
    assert sign_with_band(Approx(1e-3, 1e-9)) == (1, False)


def test_parse_and_format_rational():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("7") == Fraction(7)
    assert format_rational(Fraction(3, 4)) == "3/4"
    assert format_rational(Fraction(5)) == "5"
