import math
import sys

from hypothesis import example, given, settings, strategies as st

import numpy as np

import sirshare as ss
from sirshare.numeric import approx_leq, comparison_tolerance, comparison_tolerances, rounding_slack
from sirshare.search import _rounding_slack

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


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=64), st.floats(min_value=0.0, max_value=1e300))
def test_rounding_slack_is_the_written_out_fold(n, scale):
    assert rounding_slack(n, scale) == ((n * (n + 1)) * scale) * 2.0 ** -48


def test_the_searches_and_the_limit_regime_share_one_rounding_bound():
    for inst in (ss.generate_lower_bound_instance(5), ss.generate_exp_tight_instance(7),
                 ss.reduce_hampath(6, [(1, 2), (2, 3)])):
        top = max(map(max, inst.rows))
        assert _rounding_slack(inst) == inst.n * (inst.n + 1) * top * 2.0 ** -48
        assert _rounding_slack(inst) == rounding_slack(inst.n, top)
