import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sirshare as ss
from sirshare.errors import ConstructionError, MalformedInputError

from corpus import (
    central_product,
    count_directed_hamiltonian_paths,
    random_graph,
)

RNG = np.random.default_rng(7)


# ---------------------------------------------------------------------------
# validate_metric / from_euclidean
# ---------------------------------------------------------------------------

def test_validate_metric_colinear_points():
    table = ss.from_euclidean([0.0, 1.0, 2.0])
    report = ss.validate_metric(table)
    assert report.ok
    assert table.metric_flag


def test_validate_metric_triangle_violation():
    mat = [[0, 1, 10], [1, 0, 1], [10, 1, 0]]
    report = ss.validate_metric(mat)
    assert not report.ok
    kinds = {v.kind for v in report.violations}
    assert kinds == {"triangle"}
    worst = max(v.excess for v in report.violations)
    assert worst == pytest.approx(8.0)


def test_validate_metric_hampath_instance_not_metric():
    inst = ss.reduce_hampath(3, [(1, 2), (2, 3)], ell=1.0)
    # non-adjacent vertices sit at distance ell > 2 * ell/3 via the middle one
    report = ss.validate_metric(inst.dist)
    assert not report.ok
    assert not inst.dist.metric_flag
    assert report.by_kind("triangle")


def test_validate_metric_rejects_non_square():
    with pytest.raises(MalformedInputError):
        ss.validate_metric([[0, 1, 2], [1, 0, 1]])


def test_validate_metric_rejects_nan():
    with pytest.raises(MalformedInputError):
        ss.validate_metric([[0, float("nan")], [1, 0]])


def test_validate_metric_reports_asymmetry_and_negativity():
    mat = [[0.0, 2.0], [1.0, 0.0]]
    report = ss.validate_metric(mat)
    assert report.by_kind("asymmetric")
    mat2 = [[0.0, -1.0], [-1.0, 0.0]]
    assert ss.validate_metric(mat2).by_kind("negative")


def test_from_euclidean_345_triangle():
    table = ss.from_euclidean([(0.0, 0.0), (3.0, 4.0)])
    assert table.entries[0, 1] == pytest.approx(5.0)


def test_from_euclidean_single_point():
    table = ss.from_euclidean([(2.0, 7.0)])
    assert table.size == 1
    assert table.entries[0, 0] == 0.0


def test_from_euclidean_line():
    table = ss.from_euclidean([0.0, 1.0, 2.0])
    assert table.entries[0, 2] == pytest.approx(2.0)


def test_from_euclidean_mixed_dimensions():
    with pytest.raises(MalformedInputError):
        ss.from_euclidean([(0.0, 0.0), (1.0,)])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.floats(-50, 50), st.floats(-50, 50)),
                min_size=2, max_size=8))
def test_from_euclidean_always_metric_at_tight_tolerance(coords):
    table = ss.from_euclidean(coords)
    assert ss.validate_metric(table, rel_tol=1e-12).ok


# ---------------------------------------------------------------------------
# lower-bound generator
# ---------------------------------------------------------------------------

def test_lower_bound_n3_equal_weights_distances():
    inst = ss.generate_lower_bound_instance(3, alpha_op=1.0, ell=1.0)
    assert inst.pickup_distance(1, 2) == pytest.approx(0.5)
    assert inst.pickup_distance(2, 3) == pytest.approx(1.0 / 3.0)
    for j in range(1, 4):
        assert inst.direct_distance(j) == pytest.approx(1.0)
    assert inst.dist.metric_flag


def test_lower_bound_n1_trivial():
    inst = ss.generate_lower_bound_instance(1)
    result = ss.sir_feasible(inst, ss.Route.single_dropoff([1]))
    assert result.feasible
    assert result.slacks == ()


def test_lower_bound_n3_starvation_factor():
    inst = ss.generate_lower_bound_instance(3)
    report = ss.starvation_report(inst, ss.Route.single_dropoff([1, 2, 3]))
    assert report.route_factor == pytest.approx(11.0 / 6.0, rel=1e-12)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_lower_bound_unique_route_random_positive_weights(n):
    for trial in range(5):
        alphas = RNG.uniform(0.2, 4.0, size=n)
        inst = ss.generate_lower_bound_instance(
            n, alpha_op=float(RNG.uniform(0.5, 2.0)), alphas=alphas
        )
        found = ss.enumerate_sir_routes(inst)
        assert [r.pickup_order for r in found.routes] == [tuple(range(1, n + 1))]
        gamma = ss.starvation_report(inst, found.routes[0]).route_factor
        assert gamma == pytest.approx(
            ss.lower_bound_value(n, inst.alpha_op, inst.alphas), rel=1e-9
        )


def test_lower_bound_rejects_zero_weights():
    with pytest.raises(ConstructionError):
        ss.generate_lower_bound_instance(3, alphas=[1.0, 0.0, 1.0])


def test_lower_bound_slack_clamped_stays_metric():
    # wildly uneven weights force the clamp well below the requested slack
    inst = ss.generate_lower_bound_instance(5, alphas=[20.0, 0.3, 9.0, 0.5, 2.0],
                                            slack=0.5)
    assert ss.validate_metric(inst.dist).ok


# ---------------------------------------------------------------------------
# sqrt-tight generator
# ---------------------------------------------------------------------------

def test_sqrt_tight_n2_values():
    inst = ss.generate_sqrt_tight_instance(2)
    assert inst.direct_distance(2) == pytest.approx(4.0 / 3.0, rel=1e-12)
    detours = ss.single_dropoff_detours(inst, ss.Route.single_dropoff([1, 2]))
    assert detours[0] == pytest.approx(inst.direct_distance(2) / 2.0, rel=1e-12)


def test_sqrt_tight_n1():
    inst = ss.generate_sqrt_tight_instance(1, ell=2.5)
    assert inst.direct_distance(1) == pytest.approx(2.5)


@pytest.mark.parametrize("n", [2, 4, 6])
def test_sqrt_tight_every_stage_tight(n):
    inst = ss.generate_sqrt_tight_instance(n)
    result = ss.sir_feasible(inst, ss.Route.single_dropoff(range(1, n + 1)))
    assert result.feasible
    for s in result.stages:
        assert s.slack == pytest.approx(0.0, abs=1e-9)


def test_sqrt_tight_gamma_matches_product():
    inst = ss.generate_sqrt_tight_instance(4)
    report = ss.starvation_report(inst, ss.Route.single_dropoff([1, 2, 3, 4]))
    assert report.route_factor == pytest.approx(central_product(4) - 1.0, rel=1e-12)
    assert report.route_factor == pytest.approx(2.657142857142857, rel=1e-9)


def test_sqrt_tight_reverse_route_zero_detour():
    n = 5
    inst = ss.generate_sqrt_tight_instance(n)
    reverse = ss.Route.single_dropoff(range(n, 0, -1))
    assert ss.sir_feasible(inst, reverse).feasible
    report = ss.starvation_report(inst, reverse)
    assert report.route_factor == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# exp-tight generator
# ---------------------------------------------------------------------------

def test_exp_tight_distances():
    inst = ss.generate_exp_tight_instance(3)
    assert [inst.direct_distance(i) for i in (1, 2, 3)] == [1.0, 2.0, 4.0]
    assert inst.regime == "zero"


def test_exp_tight_n1():
    inst = ss.generate_exp_tight_instance(1, ell=3.0)
    assert inst.direct_distance(1) == pytest.approx(3.0)


def test_exp_tight_route_feasible_with_exact_gamma():
    inst = ss.generate_exp_tight_instance(3)
    route = ss.Route.single_dropoff([1, 2, 3])
    assert ss.sir_feasible(inst, route).feasible
    report = ss.starvation_report(inst, route)
    assert report.route_factor == 7.0


# ---------------------------------------------------------------------------
# hardness reductions
# ---------------------------------------------------------------------------

def test_hampath_path_graph_two_routes():
    inst = ss.reduce_hampath(3, [(1, 2), (2, 3)])
    found = ss.enumerate_sir_routes(inst)
    assert [r.pickup_order for r in found.routes] == [(1, 2, 3), (3, 2, 1)]


def test_hampath_complete_graph_all_routes():
    inst = ss.reduce_hampath(3, [(1, 2), (1, 3), (2, 3)])
    assert len(ss.enumerate_sir_routes(inst).routes) == 6


def test_hampath_edgeless_graph_no_routes():
    inst = ss.reduce_hampath(2, [])
    assert ss.enumerate_sir_routes(inst).routes == ()


def test_hampath_counts_match_dfs_oracle():
    rng = np.random.default_rng(101)
    for _ in range(25):
        n_vertices, edges = random_graph(rng, int(rng.integers(2, 7)))
        inst = ss.reduce_hampath(n_vertices, edges)
        found = len(ss.enumerate_sir_routes(inst).routes)
        assert found == count_directed_hamiltonian_paths(n_vertices, edges)


def test_hampath_rejects_self_loop():
    with pytest.raises(ConstructionError):
        ss.reduce_hampath(3, [(1, 1)])


def test_path_tsp_all_permutations_feasible():
    import itertools

    inst = ss.reduce_path_tsp(ss.from_euclidean([0.0, 1.0, 3.0]))
    for perm in itertools.permutations([1, 2, 3]):
        assert ss.sir_feasible(inst, ss.Route.single_dropoff(perm)).feasible


def test_path_tsp_optimal_cost_is_path_weight_plus_l():
    inst = ss.reduce_path_tsp(ss.from_euclidean([0.0, 1.0, 3.0]))
    big_l = inst.direct_distance(1)
    best = ss.opt_sir_route(inst)
    assert best is not None
    assert best[1] == pytest.approx(3.0 + big_l, rel=1e-12)


def test_path_tsp_n2_symmetric():
    inst = ss.reduce_path_tsp(ss.from_euclidean([0.0, 4.0]))
    big_l = inst.direct_distance(1)
    best = ss.opt_sir_route(inst)
    assert best[1] == pytest.approx(4.0 + big_l, rel=1e-12)


def test_path_tsp_degenerate_zero_metric():
    with pytest.raises(ConstructionError):
        ss.reduce_path_tsp([[0.0, 0.0], [0.0, 0.0]])


def test_path_tsp_requires_metric_input():
    with pytest.raises(MalformedInputError):
        ss.reduce_path_tsp([[0, 1, 10], [1, 0, 1], [10, 1, 0]])


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_instance_json_roundtrip(tmp_path):
    inst = ss.generate_lower_bound_instance(4, alphas=[1.0, 2.0, 0.5, 1.5])
    path = tmp_path / "inst.json"
    inst.save(path)
    loaded = ss.Instance.load(path)
    assert loaded.n == inst.n
    assert loaded.alphas == inst.alphas
    assert np.allclose(loaded.dist.entries, inst.dist.entries)
    assert loaded.dist.metric_flag == inst.dist.metric_flag


def test_instance_from_dict_with_coords():
    data = {
        "n": 2,
        "dropoff_mode": "single",
        "coords": [[0.0, 0.0], [3.0, 4.0], [0.0, 4.0]],
        "alpha_op": 1.0,
        "alphas": [1.0, 1.0],
        "regime": "finite",
    }
    inst = ss.Instance.from_dict(data)
    assert inst.pickup_distance(1, 2) == pytest.approx(5.0)
    assert inst.dist.metric_flag


def test_instance_rejects_matrix_and_coords_together():
    data = {
        "n": 1,
        "dropoff_mode": "single",
        "coords": [[0.0], [1.0]],
        "distance_matrix": [[0.0, 1.0], [1.0, 0.0]],
        "alpha_op": 1.0,
        "alphas": [1.0],
        "regime": "finite",
    }
    with pytest.raises(MalformedInputError):
        ss.Instance.from_dict(data)


def test_instance_rejects_missing_keys():
    with pytest.raises(MalformedInputError):
        ss.Instance.from_dict({"n": 1})


def test_instance_rejects_bad_alpha_op():
    table = ss.from_euclidean([0.0, 1.0])
    with pytest.raises(MalformedInputError):
        ss.Instance(dist=table, n=1, dropoff_mode="single",
                    alpha_op=0.0, alphas=(1.0,))


def test_route_validation_rejects_bad_permutation():
    inst = ss.generate_lower_bound_instance(3)
    with pytest.raises(MalformedInputError):
        ss.Route.single_dropoff([1, 1, 2]).validate(inst)


def test_route_validation_rejects_drop_before_pickup():
    inst = ss.generate_lower_bound_instance(2)
    bad = ss.Route(events=(("P", 1), ("D", 2), ("P", 2), ("D", 1)))
    with pytest.raises(MalformedInputError):
        bad.validate(inst)


@pytest.mark.parametrize("alpha_op, alphas", [
    (1.0, (math.nan, 1.0)),
    (1.0, (1.0, math.inf)),
    (math.inf, (1.0, 1.0)),
    (math.nan, (1.0, 1.0)),
], ids=["nan-alpha", "inf-alpha", "inf-alpha-op", "nan-alpha-op"])
def test_instance_rejects_non_finite_rates(alpha_op, alphas):
    table = ss.from_euclidean([0.0, 1.0, 3.0])
    with pytest.raises(MalformedInputError):
        ss.Instance(dist=table, n=2, dropoff_mode="single",
                    alpha_op=alpha_op, alphas=alphas)


@pytest.mark.parametrize("field, text", [
    ("alphas", "[NaN, 1.0]"),
    ("alphas", "[1.0, Infinity]"),
    ("alpha_op", "Infinity"),
])
def test_instance_from_json_rejects_non_finite_rates(field, text):
    data = ss.generate_sqrt_tight_instance(2).to_dict()
    data[field] = json.loads(text)
    with pytest.raises(MalformedInputError):
        ss.Instance.from_dict(data)


MULTI_INTERLEAVED = ss.Route(events=(("P", 1), ("D", 1), ("P", 2), ("D", 2)))


@pytest.mark.parametrize("route, message", [
    (ss.Route.single_dropoff([1, 1, 2]),
     "route must pick up each of the 3 points exactly once, got (1, 1, 2)"),
    (ss.Route.single_dropoff([1, 2]),
     "route must pick up each of the 3 points exactly once, got (1, 2)"),
    (ss.Route(events=(("P", 1), ("P", 2), ("P", 3), ("D", 1), ("D", 1), ("D", 3))),
     "route must drop off each rider exactly once"),
    (ss.Route(events=(("P", 1), ("D", 2), ("P", 2), ("P", 3), ("D", 1), ("D", 3))),
     "rider 2 dropped off before boarding"),
    (ss.Route(events=(("P", 1), ("P", 2), ("X", 9), ("P", 3), ("D", 1), ("D", 2), ("D", 3))),
     "unknown event kind 'X'"),
    (ss.Route(events=(("P", 1), ("D", 1), ("P", 2), ("P", 3), ("D", 2), ("D", 3))),
     "single-dropoff routes finish all pickups before the shared dropoff"),
])
def test_route_validation_messages_hold_on_repeat(route, message):
    inst = ss.generate_lower_bound_instance(3)
    for _ in range(2):  # the second call reads the cached route checks
        with pytest.raises(MalformedInputError) as info:
            route.validate(inst)
        assert str(info.value) == message


def test_route_validation_cache_does_not_leak_across_instances():
    route = ss.Route.single_dropoff([1, 2, 3])
    route.validate(ss.generate_lower_bound_instance(3))
    with pytest.raises(MalformedInputError, match="each of the 4 points"):
        route.validate(ss.generate_lower_bound_instance(4))

    multi = ss.Instance(dist=ss.from_euclidean([0.0, 1.0, 5.0, 7.0]), n=2,
                        dropoff_mode="multi", alpha_op=1.0, alphas=(1.0, 1.0))
    single = ss.generate_sqrt_tight_instance(2)
    MULTI_INTERLEAVED.validate(multi)
    with pytest.raises(MalformedInputError, match="finish all pickups"):
        MULTI_INTERLEAVED.validate(single)
    MULTI_INTERLEAVED.validate(multi)
