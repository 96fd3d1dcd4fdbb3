"""Shared numeric comparison helpers.

Every feasibility verdict and equality check in the package goes through
these: comparisons use a relative tolerance with an absolute floor, and a
relative tolerance of exactly 0 selects strict comparisons (useful when the
inputs are exact, e.g. dyadic rationals). The slack has one formula in two
forms: ``comparison_tolerance`` for one scale, ``comparison_tolerances`` for
an array of scales.
"""

import math

import numpy as np

from .errors import MalformedInputError

DEFAULT_REL_TOL = 1e-9
ABS_FLOOR = 1e-12
_NEG_INF = -math.inf


def check_tolerance(rel: float) -> None:
    """Raise MalformedInputError unless ``rel`` is a usable relative tolerance.

    A NaN, infinite or negative tolerance would turn every comparison into
    a silent verdict, so public entry points reject it up front, and a
    tolerance that does not compare with numbers (a str, None) as well. A
    bool (Python's or numpy's) compares as 0 or 1, so ``rel=True`` would
    pass as a 100% slack; it is rejected too.
    """
    try:
        if not isinstance(rel, (bool, np.bool_)) and 0.0 <= rel < math.inf:
            return
    except (TypeError, ValueError):  # a str or None, or an array with no single truth value
        pass
    raise MalformedInputError(f"relative tolerance must be finite and >= 0, got {rel!r}")


def comparison_tolerance(scale: float, rel: float = DEFAULT_REL_TOL) -> float:
    """Absolute slack allowed when comparing numbers of the given magnitude."""
    if rel == 0.0:
        return 0.0
    return max(rel * abs(scale), ABS_FLOOR)


def comparison_tolerances(scale: np.ndarray, rel: float = DEFAULT_REL_TOL):
    """Elementwise ``comparison_tolerance`` for an array of nonnegative scales.
    At ``rel == 0`` this is the int 0, which keeps integer arrays in integer
    arithmetic; an overflowing slack reads as inf, as in ``approx_leq``."""
    if rel == 0.0:
        return 0
    with np.errstate(over="ignore"):
        return np.maximum(rel * scale, ABS_FLOOR)


def rounding_slack(n: int, scale: float) -> float:
    """A gap that the rounding of n more additions or divisions, on values
    below n times ``scale``, cannot close: n(n+1)·2**-48 of ``scale``, folded
    left to right."""
    return n * (n + 1) * scale * 2.0 ** -48


def approx_leq(a: float, b: float, rel: float = DEFAULT_REL_TOL) -> bool:
    # The slack is never negative, so ``a <= b`` decides at once, except at
    # b = -inf: a nonzero slack is infinite there, and -inf + inf is NaN.
    if a <= b and b > _NEG_INF:
        return True
    return a <= b + comparison_tolerance(max(abs(a), abs(b)), rel)


def approx_eq(a: float, b: float, rel: float = DEFAULT_REL_TOL) -> bool:
    return abs(a - b) <= comparison_tolerance(max(abs(a), abs(b)), rel)
