import itertools
import math

import numpy as np
import pytest

import sirshare as ss
from sirshare.errors import MalformedInputError, SizeError, UnsupportedModeError
from sirshare.numeric import DEFAULT_REL_TOL

from corpus import (
    brute_force_path_tsp,
    count_directed_hamiltonian_paths,
    random_euclidean_instance,
    random_graph,
    random_line_positions,
    with_regime,
)


def unpruned_feasible_set(instance, rel=DEFAULT_REL_TOL):
    out = []
    for perm in itertools.permutations(range(1, instance.n + 1)):
        if ss.sir_feasible(instance, ss.Route.single_dropoff(perm), rel=rel).feasible:
            out.append(perm)
    return out


# ---------------------------------------------------------------------------
# enumerate_sir_routes
# ---------------------------------------------------------------------------

def test_enumerate_path_graph_routes():
    inst = ss.reduce_hampath(3, [(1, 2), (2, 3)])
    result = ss.enumerate_sir_routes(inst)
    assert [r.pickup_order for r in result.routes] == [(1, 2, 3), (3, 2, 1)]


def test_enumerate_single_rider():
    inst = ss.generate_sqrt_tight_instance(1)
    result = ss.enumerate_sir_routes(inst)
    assert [r.pickup_order for r in result.routes] == [(1,)]


def test_enumerate_interior_dropoff_is_empty():
    inst = ss.line_instance([-3.0, 2.0, 4.0], 0.0)
    result = ss.enumerate_sir_routes(inst)
    assert result.routes == ()
    assert result.optimal is None


def _scan_corpus():
    rng = np.random.default_rng(8)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        inst = random_euclidean_instance(rng, n, alpha_low=0.2, alpha_high=2.0)
        yield inst
        yield with_regime(inst, "infinite")
    for n in range(2, 7):
        # every stage of the designated route sits exactly on its budget
        yield ss.generate_lower_bound_instance(n)
        yield ss.generate_sqrt_tight_instance(n)
        yield ss.generate_exp_tight_instance(n)  # vanishing-weight regime
    yield ss.generate_lower_bound_instance(4, alphas=[1.0, 2.0, 0.5, 1.5])
    yield ss.reduce_hampath(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 3), (2, 5)])
    yield ss.reduce_hampath(*random_graph(rng, 6, 0.5))


def least_starved(instance, routes, rel):
    # first route with the least starvation factor, each scored on its own
    best = None
    for route in routes:
        gamma = max(ss.starvation_report(instance, route, rel=rel).per_passenger)
        if best is None or gamma < best[1]:
            best = (route, gamma)
    return best


def scan_stats(instance, rel):
    # the walk expands every prefix that passes its stages, and prunes at the
    # first prefix that fails one
    nodes, prunes = set(), set()
    n = instance.n
    for perm in itertools.permutations(range(1, n + 1)):
        fv = ss.sir_feasible(instance, ss.Route.single_dropoff(perm), rel=rel).first_violation
        fv = n + 1 if fv is None else fv
        nodes.update(perm[:k] for k in range(fv))
        if fv <= n:
            prunes.add(perm[:fv])
    return ss.SearchStats(nodes_expanded=len(nodes), prunes=len(prunes))


def test_enumerate_matches_unpruned_scan():
    """Search prunes by exactly the stage test sir_feasible applies."""
    for rel in (DEFAULT_REL_TOL, 0.0):
        for inst in _scan_corpus():
            result = ss.enumerate_sir_routes(inst, rel=rel)
            pruned = [r.pickup_order for r in result.routes]
            assert pruned == unpruned_feasible_set(inst, rel=rel), (rel, inst.n)
            assert result.stats == scan_stats(inst, rel), (rel, inst.n)
            assert ss.opt_sir_route(inst, rel=rel) == result.optimal
            try:
                expected = least_starved(inst, result.routes, rel)
            except ss.SirshareError as exc:
                with pytest.raises(type(exc)):
                    ss.min_route_starvation(inst, rel=rel)
            else:
                assert ss.min_route_starvation(inst, rel=rel) == expected


def test_enumerate_lexicographic_and_limit():
    inst = ss.reduce_hampath(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
    full = ss.enumerate_sir_routes(inst)
    orders = [r.pickup_order for r in full.routes]
    assert orders == sorted(orders)
    assert len(orders) == 24
    cut = ss.enumerate_sir_routes(inst, limit=5)
    assert len(cut.routes) == 5
    assert cut.truncated
    assert cut.optimal is not None  # optimal still over everything found
    counted = ss.enumerate_sir_routes(inst, limit=0)
    assert counted.routes == () and counted.truncated
    assert counted.optimal == full.optimal and counted.stats == full.stats
    with pytest.raises(MalformedInputError, match="route limit"):
        ss.enumerate_sir_routes(inst, limit=-1)


def test_enumerate_routes_equal_single_dropoff_routes():
    inst = ss.reduce_hampath(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
    routes = ss.enumerate_sir_routes(inst).routes
    expected = tuple(ss.Route.single_dropoff(p) for p in itertools.permutations(range(1, 5)))
    assert routes == expected
    assert [hash(r) for r in routes] == [hash(r) for r in expected]
    assert [r.to_tokens() for r in routes] == [r.to_tokens() for r in expected]


def test_enumerate_cap_and_override():
    inst = ss.line_instance(list(range(1, 12)), 0.0)
    with pytest.raises(SizeError):
        ss.enumerate_sir_routes(inst)
    result = ss.enumerate_sir_routes(inst, cap=11, limit=3)
    assert result.routes


def test_enumerate_rejects_multi_dropoff():
    table = ss.from_euclidean([(0, 0), (1, 0), (0, 1), (1, 1)])
    inst = ss.Instance(dist=table, n=2, dropoff_mode="multi",
                       alpha_op=1.0, alphas=(1.0, 1.0))
    with pytest.raises(UnsupportedModeError):
        ss.enumerate_sir_routes(inst)


def test_enumerate_prune_stats_reported():
    inst = ss.reduce_hampath(5, [(1, 2), (2, 3), (3, 4), (4, 5)])
    result = ss.enumerate_sir_routes(inst)
    assert result.stats == ss.SearchStats(nodes_expanded=26, prunes=40)
    # truncating the listing does not truncate the walk
    assert ss.enumerate_sir_routes(inst, limit=1).stats == result.stats


@pytest.mark.parametrize("rel", [math.nan, math.inf, -1e-9], ids=["nan", "inf", "negative"])
@pytest.mark.parametrize("search", [ss.enumerate_sir_routes, ss.opt_sir_route,
                                    ss.min_route_starvation],
                         ids=["enumerate", "opt", "min_starvation"])
def test_search_rejects_bad_tolerance(search, rel):
    inst = ss.generate_sqrt_tight_instance(5)  # 8 feasible boarding orders
    with pytest.raises(MalformedInputError):
        search(inst, rel=rel)


# ---------------------------------------------------------------------------
# opt_sir_route
# ---------------------------------------------------------------------------

def test_opt_route_line_path_tsp():
    inst = ss.reduce_path_tsp(ss.from_euclidean([0.0, 1.0, 3.0]))
    big_l = inst.direct_distance(1)
    route, dist = ss.opt_sir_route(inst)
    assert dist == pytest.approx(3.0 + big_l)
    # brute force over all 6 permutations agrees
    sub = inst.dist.entries[:3, :3].tolist()
    assert dist - big_l == pytest.approx(brute_force_path_tsp(sub))


def test_opt_route_single_rider():
    inst = ss.generate_sqrt_tight_instance(1, ell=2.0)
    route, dist = ss.opt_sir_route(inst)
    assert dist == pytest.approx(2.0)


def test_opt_route_sqrt_tight_reverse():
    inst = ss.generate_sqrt_tight_instance(3)
    route, dist = ss.opt_sir_route(inst)
    assert route.pickup_order == (3, 2, 1)
    assert dist == pytest.approx(inst.direct_distance(3), rel=1e-12)


def test_opt_route_infeasible():
    inst = ss.line_instance([-1.0, 1.0], 0.0)
    assert ss.opt_sir_route(inst) is None


def test_opt_route_agrees_with_enumeration_min():
    rng = np.random.default_rng(9)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        inst = random_euclidean_instance(rng, n, alpha_low=0.3, alpha_high=2.0)
        result = ss.enumerate_sir_routes(inst)
        best = ss.opt_sir_route(inst)
        if result.optimal is None:
            assert best is None
        else:
            assert best[1] == pytest.approx(result.optimal[1], rel=1e-12)
            assert best[0] == result.optimal[0]


# ---------------------------------------------------------------------------
# opt_sir_route and min_route_starvation against a permutation scan
# ---------------------------------------------------------------------------

def scan_optima(instance, rel):
    """(shortest, least starved) feasible route with its value, or None each.

    Scans every boarding order with ``sir_feasible`` and folds distances on
    its own: the route's length adds the hops left to right, then the last
    rider's direct distance; a rider's travel adds the hops backwards from
    the last rider's direct distance. Ties go to the first order scanned,
    which is the lexicographically smallest."""
    rows = instance.rows
    shortest = least_starved = None
    for order in itertools.permutations(range(1, instance.n + 1)):
        route = ss.Route.single_dropoff(order)
        if not ss.sir_feasible(instance, route, rel=rel).feasible:
            continue
        length = 0.0
        for a, b in zip(order, order[1:]):
            length += rows[a - 1][b - 1]
        length += instance.direct_distance(order[-1])
        travel = instance.direct_distance(order[-1])
        gamma = 1.0
        for a, b in zip(order[-2::-1], order[::-1]):
            travel += rows[a - 1][b - 1]
            gamma = max(gamma, travel / instance.direct_distance(a))
        if shortest is None or length < shortest[1]:
            shortest = (route, length)
        if least_starved is None or gamma < least_starved[1]:
            least_starved = (route, gamma)
    return shortest, least_starved


def _oracle_corpus():
    rng = np.random.default_rng(71)
    for n in range(2, 8):
        for _ in range(2):
            yield f"path-tsp n={n}", ss.reduce_path_tsp(
                ss.from_euclidean(rng.uniform(0.0, 10.0, size=(n, 2)).tolist()))
    for n in range(3, 8):
        # decimal coordinates on a 0.1 grid: many equal lengths, some equal
        # only after rounding
        for dim in (1, 2):
            points = (rng.integers(0, 20, size=(n, dim)) * 0.1).tolist()
            yield f"grid{dim}d n={n}", ss.reduce_path_tsp(ss.from_euclidean(points))
    # the prefix (3,4,2) is a few ulps longer than (4,3,2), yet (3,4,2,1,5)
    # and (4,3,2,1,5) have the same length, so the smaller order must win
    yield "grid2d collision", ss.reduce_path_tsp(ss.from_euclidean(
        (np.array([[11, 7], [9, 10], [7, 10], [9, 12], [10, 6]]) * 0.1).tolist()))
    for n in range(3, 7):  # all pairwise distances equal: every order ties
        yield f"uniform n={n}", ss.reduce_path_tsp(1.0 - np.eye(n))
    # zero weights: (1,2,3,4) and the shorter (1,4,3,2) both starve by
    # exactly 3, through their second rider
    yield "equal factors", ss.Instance(
        dist=ss.from_euclidean([(5, 10), (3, 8), (4, 9), (5, 8), (4, 7)]), n=4,
        dropoff_mode="single", alpha_op=1.0, alphas=(0.0,) * 4, regime="zero")
    for n in range(3, 8):
        yield f"hampath n={n}", ss.reduce_hampath(*random_graph(rng, n, 0.6))
    for n in range(2, 8):
        yield f"lower-bound n={n}", ss.generate_lower_bound_instance(n)
        yield f"sqrt-tight n={n}", ss.generate_sqrt_tight_instance(n)
        yield f"exp-tight n={n}", ss.generate_exp_tight_instance(n)


@pytest.mark.parametrize("rel", [DEFAULT_REL_TOL, 0.0], ids=["default", "exact"])
def test_optima_match_permutation_scan(rel):
    for name, inst in _oracle_corpus():
        shortest, least_starved = scan_optima(inst, rel)
        assert ss.opt_sir_route(inst, rel=rel) == shortest, name
        assert ss.min_route_starvation(inst, rel=rel) == least_starved, name


# ---------------------------------------------------------------------------
# line_metric_verdict
# ---------------------------------------------------------------------------

def test_line_verdict_sweep_route():
    route = ss.line_metric_verdict([1.0, 2.0, 5.0], 0.0)
    assert route.pickup_order == (3, 2, 1)
    inst = ss.line_instance([1.0, 2.0, 5.0], 0.0)
    assert ss.sir_feasible(inst, route).feasible
    assert ss.starvation_report(inst, route).route_factor == pytest.approx(1.0)


def test_line_verdict_sweep_is_minimum_distance():
    positions = [1.0, 2.0, 5.0]
    route = ss.line_metric_verdict(positions, 0.0)
    inst = ss.line_instance(positions, 0.0)
    opt_route, opt_dist = ss.opt_sir_route(inst)
    assert opt_route == route
    assert opt_dist == pytest.approx(5.0)


def test_line_verdict_opposite_sides_infeasible():
    assert ss.line_metric_verdict([-5.0, 5.0], 0.0) is None


def test_line_verdict_single_pickup():
    route = ss.line_metric_verdict([3.0], 0.0)
    assert route.pickup_order == (1,)


def test_line_verdict_dropoff_on_boundary():
    route = ss.line_metric_verdict([0.0, 5.0], 0.0)  # dropoff equals min pickup
    assert route is not None
    inst = ss.line_instance([0.0, 5.0], 0.0)
    assert ss.sir_feasible(inst, route).feasible


@pytest.mark.parametrize("positions, dropoff", [
    ([math.nan, 1.0], 0.0),
    ([1.0, math.inf], 0.0),
    ([1.0, 2.0], math.nan),
    ([1.0, "x"], 0.0),
    ([1.0, None], 0.0),
    ([], 0.0),
])
def test_line_verdict_rejects_bad_positions(positions, dropoff):
    with pytest.raises(MalformedInputError):
        ss.line_metric_verdict(positions, dropoff)


def test_line_verdict_agrees_with_enumeration_small():
    rng = np.random.default_rng(10)
    for k in range(60):
        n = int(rng.integers(1, 6))
        positions, dropoff = random_line_positions(rng, n, interior=bool(k % 2) and n >= 2)
        verdict = ss.line_metric_verdict(positions, dropoff)
        inst = ss.line_instance(positions, dropoff)
        found = ss.enumerate_sir_routes(inst)
        assert (verdict is not None) == bool(found.routes)
        if verdict is not None:
            assert ss.sir_feasible(inst, verdict).feasible


# ---------------------------------------------------------------------------
# reduction cross-checks (small versions; full corpora in acceptance)
# ---------------------------------------------------------------------------

def test_hampath_route_count_small():
    rng = np.random.default_rng(11)
    for _ in range(15):
        n_vertices, edges = random_graph(rng, int(rng.integers(2, 6)))
        inst = ss.reduce_hampath(n_vertices, edges)
        assert len(ss.enumerate_sir_routes(inst).routes) == \
            count_directed_hamiltonian_paths(n_vertices, edges)


def test_path_tsp_optimum_small():
    rng = np.random.default_rng(12)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        pts = rng.uniform(0.0, 10.0, size=(n, 2))
        table = ss.from_euclidean(pts)
        inst = ss.reduce_path_tsp(table)
        big_l = inst.direct_distance(1)
        _, dist = ss.opt_sir_route(inst)
        # compare in the route's own fold order (legs summed, then L) so the
        # equality is exact in floating point
        assert dist == brute_force_path_tsp(table.entries.tolist()) + big_l
