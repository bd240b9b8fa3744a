import math
from fractions import Fraction

from apsn.values import (
    AMBIGUITY_BAND,
    format_rational,
    parse_rational,
    sign_with_band,
)


def test_sign_with_band():
    tol = 1e-9
    band = AMBIGUITY_BAND * tol
    assert sign_with_band(0.0, tol) == (0, False)
    for s in (1, -1):
        assert sign_with_band(s * 5e-10, tol) == (0, False)
        assert sign_with_band(s * tol, tol) == (0, False)
        assert sign_with_band(s * math.nextafter(tol, 1), tol) == (s, True)
        assert sign_with_band(s * 5e-8, tol) == (s, True)
        assert sign_with_band(s * band, tol) == (s, True)
        assert sign_with_band(s * math.nextafter(band, 1), tol) == (s, False)
        assert sign_with_band(s * 1e-3, tol) == (s, False)


def test_parse_and_format_rational():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("7") == Fraction(7)
    assert format_rational(Fraction(3, 4)) == "3/4"
    assert format_rational(Fraction(5)) == "5"
