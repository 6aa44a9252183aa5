"""Exact rationals at the package boundary: the JSON wire format and the
integer lattice positions live on.

The wire format is "p/q" in lowest terms with q > 0, "p" alone when q == 1.
`fractions.Fraction` already guarantees lowest terms and positive
denominator, and its ``str`` is this format, so these are thin converters.  Inside the package a position
is an integer ``n`` standing for ``n / denom``; ``to_lattice`` and
``ceil_lattice`` bring a rational in, ``format_lattice`` takes one out.
"""

from __future__ import annotations

import math
from fractions import Fraction


def parse_ratio(s: str) -> Fraction:
    if not isinstance(s, str):
        raise ValueError(f"expected 'p/q' string, got {type(s).__name__}")
    return Fraction(s)


def to_lattice(x, denom: int) -> int:
    """The integer n with n / denom == x; ValueError when x is off the lattice."""
    scaled = Fraction(x) * denom
    if scaled.denominator != 1:
        raise ValueError(f"{x} is not a multiple of 1/{denom}")
    return scaled.numerator


def ceil_lattice(x, denom: int) -> int:
    """Least integer n with n / denom >= x, so n' < n iff n' / denom < x."""
    return math.ceil(Fraction(x) * denom)


def format_lattice(n: int, denom: int) -> str:
    return str(Fraction(n, denom))
