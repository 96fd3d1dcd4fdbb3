"""Shared numeric comparison helpers.

Every feasibility verdict and equality check in the package goes through
these: comparisons use a relative tolerance with an absolute floor, and a
relative tolerance of exactly 0 selects strict comparisons (useful when the
inputs are exact, e.g. dyadic rationals).
"""

import math

from .errors import MalformedInputError

DEFAULT_REL_TOL = 1e-9
ABS_FLOOR = 1e-12


def check_tolerance(rel: float) -> None:
    """Raise MalformedInputError unless ``rel`` is a usable relative tolerance.

    A NaN, infinite or negative tolerance would turn every comparison into
    a silent verdict, so public entry points reject it up front.
    """
    if not 0.0 <= rel < math.inf:
        raise MalformedInputError(f"relative tolerance must be finite and >= 0, got {rel}")


def comparison_tolerance(scale: float, rel: float = DEFAULT_REL_TOL) -> float:
    """Absolute slack allowed when comparing numbers of the given magnitude."""
    if rel == 0.0:
        return 0.0
    return max(rel * abs(scale), ABS_FLOOR)


def approx_leq(a: float, b: float, rel: float = DEFAULT_REL_TOL) -> bool:
    return a <= b + comparison_tolerance(max(abs(a), abs(b)), rel)


def approx_eq(a: float, b: float, rel: float = DEFAULT_REL_TOL) -> bool:
    return abs(a - b) <= comparison_tolerance(max(abs(a), abs(b)), rel)
