import math
import sys

from hypothesis import example, given, settings, strategies as st

import numpy as np

from sirshare.numeric import approx_leq, comparison_tolerance, comparison_tolerances

_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, sys.float_info.max,
            -sys.float_info.max, math.inf, -math.inf, math.nan]
_FLOATS = st.one_of(st.sampled_from(_SPECIAL), st.floats(allow_nan=True, allow_infinity=True))


def _written_out(a, b, rel):
    return a <= b + (0.0 if rel == 0 else max(rel * max(abs(a), abs(b)), 1e-12))


@settings(max_examples=400, deadline=None)
@given(_FLOATS, _FLOATS, st.sampled_from([0.0, 1e-9, 1e-3]))
@example(-math.inf, -math.inf, 1e-9)  # the fast path must not answer here: -inf + inf is NaN
@example(-math.inf, -math.inf, 0.0)
@example(1.0, 1.0 + 1e-13, 1e-9)
def test_approx_leq_is_the_written_out_formula(a, b, rel):
    assert approx_leq(a, b, rel) == _written_out(a, b, rel)


def test_comparison_tolerances_is_the_scalar_slack_elementwise():
    scale = np.array([0.0, 1e-20, 1.0, 3.5e5, 1e300, 1.7e308])
    for rel in (1e-9, 0.3, 1e308):
        expected = [comparison_tolerance(x, rel) for x in scale.tolist()]
        assert comparison_tolerances(scale, rel).tolist() == expected  # 1e308 * 1.7e308 is inf
    assert comparison_tolerances(scale, 0.0) == 0 and type(comparison_tolerances(scale, 0.0)) is int
