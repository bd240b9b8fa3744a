import math
from fractions import Fraction

from apsn.values import (
    AMBIGUITY_BAND,
    FRAGILE_MARGIN,
    format_rational,
    on_band_edge,
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


def test_on_band_edge_marks_both_edges_of_the_band():
    tol = 1e-9
    band = AMBIGUITY_BAND * tol
    for s in (1, -1):
        for edge in (tol, band):
            assert on_band_edge(s * edge, tol, 0.0, s * edge)
            assert on_band_edge(s * (edge - 0.9 * FRAGILE_MARGIN), tol, 0.0, 0.5)
            assert not on_band_edge(s * (edge + 2 * FRAGILE_MARGIN), tol, 0.0, 0.5)
        # the margin scales with the larger value once it exceeds 1
        assert on_band_edge(s * (tol + 3 * FRAGILE_MARGIN), tol, 4.0, 4.0)
        assert not on_band_edge(s * 0.5 * tol, tol, 0.0, 0.5)
        assert not on_band_edge(s * 10 * tol, tol, 0.0, 0.5)
    # a tolerance of 0 makes every delta near zero fragile
    assert on_band_edge(0.0, 0.0, 0.3, 0.3)
    assert on_band_edge(1e-16, 0.0, 0.3, 0.3)
    assert not on_band_edge(1e-9, 0.0, 0.3, 0.3)


def test_parse_and_format_rational():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("7") == Fraction(7)
    assert format_rational(Fraction(3, 4)) == "3/4"
    assert format_rational(Fraction(5)) == "5"
