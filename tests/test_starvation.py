import itertools
import math

import numpy as np
import pytest

import sirshare as ss
from sirshare.errors import DegenerateDistanceError, SizeError, UnsupportedModeError

from corpus import central_product, harmonic, random_euclidean_instance, with_regime


def test_zero_detour_route_all_factors_one():
    inst = ss.line_instance([5.0, 3.0, 1.0], 0.0)
    report = ss.starvation_report(inst, ss.Route.single_dropoff([1, 2, 3]))
    assert report.per_passenger == (1.0, 1.0, 1.0)
    assert report.route_factor == 1.0
    assert report.feasible


def test_sqrt_tight_n4_report():
    inst = ss.generate_sqrt_tight_instance(4)
    report = ss.starvation_report(inst, ss.Route.single_dropoff([1, 2, 3, 4]))
    assert report.route_factor == pytest.approx(central_product(4) - 1.0, rel=1e-9)
    assert report.route_factor <= 2.0 * math.sqrt(4)
    (check,) = report.bound_checks
    assert check.name == "sqrt" and check.holds


def test_exp_tight_n3_report():
    inst = ss.generate_exp_tight_instance(3)
    report = ss.starvation_report(inst, ss.Route.single_dropoff([1, 2, 3]))
    assert report.route_factor == 7.0
    (check,) = report.bound_checks
    assert check.name == "exp" and check.bound == 8.0 and check.holds


def test_last_rider_factor_always_one():
    rng = np.random.default_rng(2)
    inst = random_euclidean_instance(rng, 5)
    for perm in itertools.permutations(range(1, 6)):
        report = ss.starvation_report(inst, ss.Route.single_dropoff(perm))
        assert report.per_passenger[-1] == pytest.approx(1.0)


def test_factors_at_least_one_on_metric():
    rng = np.random.default_rng(3)
    for _ in range(10):
        inst = random_euclidean_instance(rng, 4)
        for perm in itertools.permutations(range(1, 5)):
            report = ss.starvation_report(inst, ss.Route.single_dropoff(perm))
            assert all(g >= 1.0 - 1e-12 for g in report.per_passenger)


def test_degenerate_distance_error():
    inst = ss.line_instance([0.0, 2.0], 0.0)  # first pickup sits on the dropoff
    with pytest.raises(DegenerateDistanceError):
        ss.starvation_report(inst, ss.Route.single_dropoff([2, 1]))


def test_report_rejects_multi_dropoff():
    table = ss.from_euclidean([(0, 0), (1, 0), (0, 1), (1, 1)])
    inst = ss.Instance(dist=table, n=2, dropoff_mode="multi",
                       alpha_op=1.0, alphas=(1.0, 1.0))
    route = ss.Route(events=(("P", 1), ("P", 2), ("D", 1), ("D", 2)))
    with pytest.raises(UnsupportedModeError):
        ss.starvation_report(inst, route)


# ---------------------------------------------------------------------------
# min_route_starvation
# ---------------------------------------------------------------------------

def test_min_route_sqrt_tight_is_reverse_sweep():
    inst = ss.generate_sqrt_tight_instance(4)
    route, gamma = ss.min_route_starvation(inst)
    assert route.pickup_order == (4, 3, 2, 1)
    assert gamma == pytest.approx(1.0, abs=1e-12)


def test_min_route_lower_bound_unique():
    inst = ss.generate_lower_bound_instance(3)
    route, gamma = ss.min_route_starvation(inst)
    assert route.pickup_order == (1, 2, 3)
    assert gamma == pytest.approx(11.0 / 6.0, rel=1e-9)


def test_min_route_single_rider():
    inst = ss.generate_sqrt_tight_instance(1)
    route, gamma = ss.min_route_starvation(inst)
    assert route.pickup_order == (1,)
    assert gamma == 1.0


def test_min_route_infeasible_marker():
    inst = ss.line_instance([-5.0, 5.0], 0.0)
    assert ss.min_route_starvation(inst) is None


@pytest.mark.parametrize("positions, rider", [([0.0, 2.0], 2), ([2.0, 0.0, 3.0], 3)])
def test_min_route_pickup_on_dropoff_raises(positions, rider):
    # the first feasible order in pickup order names its degenerate rider
    inst = ss.line_instance(positions, 0.0)
    with pytest.raises(DegenerateDistanceError) as err:
        ss.min_route_starvation(inst)
    assert str(err.value) == f"rider {rider} boards at the dropoff; starvation factor undefined"


def test_min_route_pickup_on_dropoff_without_feasible_route():
    assert ss.min_route_starvation(ss.line_instance([-1.0, 0.0, 1.0], 0.0)) is None


def test_min_route_size_cap_and_override():
    inst = ss.line_instance(list(range(1, 13)), 0.0)
    with pytest.raises(SizeError):
        ss.min_route_starvation(inst)
    route, gamma = ss.min_route_starvation(inst, cap=12)
    assert gamma == pytest.approx(1.0)
    assert route.pickup_order == tuple(range(12, 0, -1))


# ---------------------------------------------------------------------------
# lower_bound_value
# ---------------------------------------------------------------------------

def test_lower_bound_value_examples():
    assert ss.lower_bound_value(3, 1.0, [1.0, 1.0, 1.0]) == pytest.approx(11.0 / 6.0)
    assert ss.lower_bound_value(1, 2.0, [3.0]) == 1.0
    assert ss.lower_bound_value(5, 1.0, [0.0] * 5) == pytest.approx(5.0)


@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_lower_bound_value_harmonic_identity(n):
    assert ss.lower_bound_value(n, 1.0, [1.0] * n) == pytest.approx(harmonic(n), rel=1e-12)


# ---------------------------------------------------------------------------
# regime bound sweeps (small versions; the full corpora run in acceptance)
# ---------------------------------------------------------------------------

def test_sqrt_bound_small_corpus():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        inst = random_euclidean_instance(rng, n, alpha_low=1.0)
        bound = 2.0 * math.sqrt(n)
        for perm in itertools.permutations(range(1, n + 1)):
            route = ss.Route.single_dropoff(perm)
            if ss.sir_feasible(inst, route).feasible:
                report = ss.starvation_report(inst, route)
                assert report.route_factor <= bound + 1e-9


def test_infinite_regime_feasible_iff_zero_detour():
    rng = np.random.default_rng(6)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        base = random_euclidean_instance(rng, n)
        inst = with_regime(base, "infinite")
        for perm in itertools.permutations(range(1, n + 1)):
            route = ss.Route.single_dropoff(perm)
            feasible = ss.sir_feasible(inst, route).feasible
            detours = ss.single_dropoff_detours(inst, route)
            zero_detour = all(d <= 1e-9 * max(1.0, inst.direct_distance(p))
                              for d, p in zip(detours, perm[1:]))
            assert feasible == zero_detour
            if feasible:
                report = ss.starvation_report(inst, route)
                assert report.route_factor == pytest.approx(1.0, abs=1e-12)
