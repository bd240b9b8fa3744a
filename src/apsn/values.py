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


@dataclass(frozen=True, slots=True)
class Exact:
    value: Fraction

    def __post_init__(self):
        if not isinstance(self.value, Fraction):
            object.__setattr__(self, "value", Fraction(self.value))


@dataclass(frozen=True, slots=True)
class Approx:
    value: float
    tol: float = DEFAULT_TOLERANCE


Value = Union[Exact, Approx]


def sign_with_band(x: float, tol: float) -> tuple[int, bool]:
    """The only sign classifier: (-1 | 0 | +1, near) of a raw float delta.

    |x| <= tol gives (0, False); tol < |x| <= AMBIGUITY_BAND * tol keeps its
    sign and is near; larger deltas keep their sign and are not near.  Exact
    deltas never come here, since their sign is the true one.  The two use
    sites read the result differently:

    * the flip engine (``game._eval_flip``) takes it as it is.  The tolerant
      policy declares deltas within tol equal, and the asymptotic rules
      decide on that zero (a zero gain refuses an addition, a zero loss
      accepts a removal), so only a near delta leaves a verdict open;
    * the axiom falsifier (``structure._delta_class``) also counts sign 0 as
      near.  Its axioms claim strict changes, and a float zero cannot tell a
      true zero (a violation) from a tiny change lost to rounding, so the
      instance goes to ``near_band``.
    """
    if abs(x) <= tol:
        return (0, False)
    return (1 if x > 0 else -1, abs(x) <= AMBIGUITY_BAND * tol)


#: Half-width, relative to max(1, |before|, |after|), of the zone around each
#: edge of ``sign_with_band`` in which a delta is fragile.  Two labelings of
#: one graph give the spectral kernels' flip deltas that differ by at most
#: 2.0e-15 in that unit (every labeled graph with n <= 6, eigenvector,
#: PageRank and Katz), 500 times below the margin.
FRAGILE_MARGIN = 1e-12


def on_band_edge(x: float, tol: float, before: float, after: float) -> bool:
    """Whether the float delta x = after - before is fragile: within
    ``FRAGILE_MARGIN`` of tol or of AMBIGUITY_BAND * tol in magnitude, where
    last-digit noise could change how ``sign_with_band`` reads it.  For
    tol >= 0 these are its only edges (a delta within tol of zero reads 0)."""
    margin = FRAGILE_MARGIN * max(1.0, abs(before), abs(after))
    size = abs(x)
    return abs(size - tol) <= margin or abs(size - AMBIGUITY_BAND * tol) <= margin


def parse_rational(text: str) -> Fraction:
    """Parse ``p/q`` or a plain integer/decimal string into a Fraction."""
    return Fraction(text.strip())


def format_rational(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def value_to_json(v: Value):
    if isinstance(v, Exact):
        return {"exact": format_rational(v.value)}
    return {"approx": v.value, "tol": v.tol}
