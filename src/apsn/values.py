"""Numeric values for centrality results.

Exact values are arbitrary-precision rationals and compare exactly.
Approximate values are floats tagged with a tolerance, and their signs are
read through the ambiguity band below.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

DEFAULT_TOLERANCE = 1e-9

#: Multiplier for the "too close to call" band around the tolerance: an
#: approximate delta with tol < |x| <= AMBIGUITY_BAND * tol keeps its sign
#: but is reported as ambiguous instead of being trusted blindly.
AMBIGUITY_BAND = 1000.0


@dataclass(frozen=True)
class Exact:
    value: Fraction

    def __post_init__(self):
        if not isinstance(self.value, Fraction):
            object.__setattr__(self, "value", Fraction(self.value))


@dataclass(frozen=True)
class Approx:
    value: float
    tol: float = DEFAULT_TOLERANCE


Value = Union[Exact, Approx]


def exact(x) -> Exact:
    return Exact(Fraction(x))


def sign_with_band(delta: Value) -> tuple[int, bool]:
    """Classify a delta as (-1 | 0 | +1, ambiguous).

    Exact deltas get their true sign and are never ambiguous.  Approximate
    deltas within the tolerance are zero; within the wider ambiguity band
    they keep their sign but are flagged ambiguous.
    """
    if isinstance(delta, Exact):
        d = delta.value
        return ((d > 0) - (d < 0), False)
    x, tol = delta.value, delta.tol
    if abs(x) <= tol:
        return (0, False)
    sign = 1 if x > 0 else -1
    return (sign, abs(x) <= AMBIGUITY_BAND * tol)


def parse_rational(text: str) -> Fraction:
    """Parse ``p/q`` or a plain integer/decimal string into a Fraction."""
    return Fraction(text.strip())


def format_rational(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def value_to_json(v: Value):
    if isinstance(v, Exact):
        return {"exact": format_rational(v.value)}
    return {"approx": v.value, "tol": v.tol}
