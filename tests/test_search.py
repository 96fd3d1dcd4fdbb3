import copy
import gc
import itertools
import math
import pickle
import tracemalloc

import numpy as np
import pytest

import sirshare as ss
from sirshare import search as search_module
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
from search_oracle import reference_opt_route


def unpruned_feasible_set(instance, rel=DEFAULT_REL_TOL):
    out = []
    for perm in itertools.permutations(range(1, instance.n + 1)):
        if ss.sir_feasible(instance, ss.Route.single_dropoff(perm), rel=rel).feasible:
            out.append(perm)
    return out


every_search = pytest.mark.parametrize(
    "search", [ss.enumerate_sir_routes, ss.opt_sir_route, ss.min_route_starvation],
    ids=["enumerate", "opt", "min_starvation"])


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
    assert len(result.routes) == 0
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
    assert len(counted.routes) == 0 and counted.truncated
    assert counted.optimal == full.optimal and counted.stats == full.stats
    with pytest.raises(MalformedInputError, match="route limit"):
        ss.enumerate_sir_routes(inst, limit=-1)


def test_enumerate_routes_equal_single_dropoff_routes():
    inst = ss.reduce_hampath(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
    routes = ss.enumerate_sir_routes(inst).routes
    expected = tuple(ss.Route.single_dropoff(p) for p in itertools.permutations(range(1, 5)))
    assert tuple(routes) == expected
    assert [hash(r) for r in routes] == [hash(r) for r in expected]
    assert [r.to_tokens() for r in routes] == [r.to_tokens() for r in expected]


def test_route_listing_contract(monkeypatch):
    inst = ss.reduce_hampath(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
    perms = list(itertools.permutations(range(1, 5)))
    routes = ss.enumerate_sir_routes(inst).routes
    assert isinstance(routes, ss.RouteListing)
    assert len(routes) == 24 and routes.orders.shape == (24, 4)
    assert routes.orders.dtype == np.uint8
    for k in (0, 5, 23, -1, -24):
        assert routes[k] == ss.Route.single_dropoff(perms[k])
    with pytest.raises(IndexError):
        routes[24]
    cut = routes[3:9:2]
    assert isinstance(cut, ss.RouteListing)
    assert cut.orders.tolist() == [list(p) for p in perms[3:9:2]]
    assert cut == ss.RouteListing(np.array(perms[3:9:2], dtype=np.uint8))
    assert list(routes) == [ss.Route.single_dropoff(p) for p in perms]
    monkeypatch.setattr(search_module, "_ITER_ROWS", 5)  # 24 rows in chunks of 5
    assert list(routes) == [ss.Route.single_dropoff(p) for p in perms]
    assert all(type(x) is int for r in (*routes, routes[7]) for x in r.pickup_order)
    for orders in (routes.orders, cut.orders):
        with pytest.raises(ValueError):
            orders[0, 0] = 2
    again = ss.enumerate_sir_routes(inst).routes
    assert again == routes and hash(again) == hash(routes)
    assert routes != routes[:-1] and routes != tuple(routes)
    copied = pickle.loads(pickle.dumps(routes))
    assert copied == routes and not copied.orders.flags.writeable


@pytest.mark.parametrize("limit, count, truncated",
                         [(None, 24, False), (0, 0, True), (1, 1, True), (2, 2, True)])
def test_route_listing_shapes(limit, count, truncated):
    inst = ss.reduce_hampath(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
    result = ss.enumerate_sir_routes(inst, limit=limit)
    assert result.routes.orders.shape == (count, 4) and result.truncated is truncated
    empty = ss.enumerate_sir_routes(ss.line_instance([-3.0, 2.0, 4.0], 0.0), limit=limit)
    assert empty.routes.orders.shape == (0, 3) and empty.routes.orders.dtype == np.uint8
    assert not empty.truncated and list(empty.routes) == []


def test_enumerate_cap_and_override():
    inst = ss.line_instance(list(range(1, 12)), 0.0)
    with pytest.raises(SizeError):
        ss.enumerate_sir_routes(inst)
    result = ss.enumerate_sir_routes(inst, cap=11, limit=3)
    assert result.routes


def test_dynamic_programs_refuse_a_state_table_they_cannot_allocate():
    # 2**64 states: Python refuses the list at once, without allocating it
    inst = ss.generate_lower_bound_instance(64)
    with pytest.raises(SizeError, match="2\\*\\*64 states"):
        ss.opt_sir_route(inst, cap=64)
    with pytest.raises(SizeError, match="2\\*\\*64 states"):
        ss.min_route_starvation(inst, cap=64)


def test_opt_route_refuses_value_tables_before_allocating_them(monkeypatch):
    # 40 * 2**40 states: more than any machine's memory, so nothing is allocated
    tracemalloc.start()
    try:
        with pytest.raises(SizeError, match="2\\*\\*40 states"):
            ss.opt_sir_route(ss.generate_lower_bound_instance(40), cap=40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    # the bound is the machine's memory: on a 1 MB machine, n = 12 does not fit
    inst = ss.generate_lower_bound_instance(12)
    assert ss.opt_sir_route(inst, cap=12)[0].pickup_order == tuple(range(1, 13))
    monkeypatch.setattr(search_module.os, "sysconf", lambda name: 256 if name == "SC_PHYS_PAGES" else 4096)
    with pytest.raises(SizeError, match="2\\*\\*12 states"):
        ss.opt_sir_route(inst, cap=12)


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
    assert type(result.stats.nodes_expanded) is int and type(result.stats.prunes) is int
    # truncating the listing does not truncate the walk
    assert ss.enumerate_sir_routes(inst, limit=1).stats == result.stats


def search_outcomes(rel):
    """Everything the searches report on the scan corpus, distances as repr."""
    out = []
    for inst in _scan_corpus():
        for limit in (None, 2):
            result = ss.enumerate_sir_routes(inst, limit=limit, rel=rel)
            optimal = result.optimal and (result.optimal[0], repr(result.optimal[1]))
            out.append((result.routes, optimal, result.stats, result.truncated))
        best = ss.opt_sir_route(inst, rel=rel)
        out.append(best and (best[0], repr(best[1])))
        try:
            out.append(ss.min_route_starvation(inst, rel=rel))
        except ss.SirshareError as exc:
            out.append(type(exc))
    return out


@pytest.mark.parametrize("block", [1, 2])
def test_block_boundaries_change_nothing(monkeypatch, block):
    expected = {rel: search_outcomes(rel) for rel in (DEFAULT_REL_TOL, 0.0)}
    monkeypatch.setattr(search_module, "_BLOCK", block)
    for rel, outcomes in expected.items():
        assert search_outcomes(rel) == outcomes, rel


def test_exact_ties_keep_the_first_order_across_blocks(monkeypatch):
    inst = ss.reduce_hampath(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
    rows = inst.rows
    lengths = {sum(rows[a - 1][b - 1] for a, b in zip(p, p[1:])) + inst.direct[p[-1]]
               for p in itertools.permutations(range(1, 5))}
    assert len(lengths) == 1  # every boarding order ties exactly
    monkeypatch.setattr(search_module, "_BLOCK", 1)  # each complete order is its own block
    result = ss.enumerate_sir_routes(inst)
    assert len(result.routes) == 24
    assert result.optimal[0].pickup_order == (1, 2, 3, 4)
    assert result.optimal == ss.opt_sir_route(inst)


def test_count_only_walk_memory_is_bounded():
    # a walk that held a whole level at once would peak near 120 MB here
    rng = np.random.default_rng(0)
    inst = ss.reduce_path_tsp(ss.from_euclidean(rng.uniform(0.0, 10.0, size=(9, 2)).tolist()))
    tracemalloc.start()
    try:
        result = ss.enumerate_sir_routes(inst, limit=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.stats == ss.SearchStats(nodes_expanded=986_410, prunes=0)
    assert peak < 22 * 2**20  # 10.6 MB measured at _BLOCK = 2**14


def test_listed_routes_hold_only_their_orders():
    # with one events tuple per listed route this listing retained 20.2 MB
    rng = np.random.default_rng(0)
    inst = ss.reduce_path_tsp(ss.from_euclidean(rng.uniform(0.0, 10.0, size=(8, 2)).tolist()))
    tracemalloc.start()
    try:
        result = ss.enumerate_sir_routes(inst)
        listed = tracemalloc.get_traced_memory()[0]
        for route in result.routes:
            route.events
        derived = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(result.routes) == 40_320
    # 7.1 MB measured on Python 3.11; about 15 MB on 3.10, where the routes' dicts share no keys
    assert listed < 18 * 2**20
    # events built with a tuple per event would take about 40 MB more
    assert derived < 32 * 2**20  # 23.6 MB measured: one event per label and rank, shared


def test_listing_makes_no_object_per_order():
    # one Route per listed order made 80,665 GC-tracked objects and retained 7.1 MB here
    rng = np.random.default_rng(0)
    inst = ss.reduce_path_tsp(ss.from_euclidean(rng.uniform(0.0, 10.0, size=(8, 2)).tolist()))
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        result = ss.enumerate_sir_routes(inst)
        tracked = len(gc.get_objects()) - before
    finally:
        gc.enable()
    del result
    inst = ss.reduce_path_tsp(ss.from_euclidean(rng.uniform(0.0, 10.0, size=(8, 2)).tolist()))
    tracemalloc.start()
    try:
        result = ss.enumerate_sir_routes(inst)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(result.routes) == 40_320
    # 60 measured: the result, the walk's closures and the instance's cached tables
    assert tracked < 100
    assert retained < 2 * 2**20  # 0.62 MB measured, 315 KB of it the orders


def test_enumerate_leaves_no_reference_cycle():
    # the walk's nested ``extend`` held itself through its closure cell: 21 objects,
    # the listing's blocks among them, waited for the collector after every call
    rng = np.random.default_rng(0)
    inst = ss.reduce_path_tsp(ss.from_euclidean(rng.uniform(0.0, 10.0, size=(8, 2)).tolist()))
    ss.enumerate_sir_routes(inst, limit=0)  # the instance's cached tables
    gc.collect()
    gc.disable()
    try:
        result = ss.enumerate_sir_routes(inst)
        freed = gc.collect()
    finally:
        gc.enable()
    assert len(result.routes) == 40_320
    assert freed == 0


@pytest.mark.parametrize("rel", [math.nan, math.inf, -1e-9, "1e-9", None],
                         ids=["nan", "inf", "negative", "str", "none"])
@every_search
def test_search_rejects_bad_tolerance(search, rel):
    inst = ss.generate_sqrt_tight_instance(5)  # 8 feasible boarding orders
    with pytest.raises(MalformedInputError):
        search(inst, rel=rel)


@pytest.mark.parametrize("cap", [None, "10", 10.0, True], ids=["none", "str", "float", "bool"])
@every_search
def test_search_rejects_ill_typed_cap(search, cap):
    inst = ss.generate_sqrt_tight_instance(5)
    with pytest.raises(MalformedInputError, match="cap must be an integer"):
        search(inst, cap=cap)


@pytest.mark.parametrize("limit", ["3", 2.5, True], ids=["str", "float", "bool"])
def test_enumerate_rejects_ill_typed_limit(limit):
    inst = ss.generate_sqrt_tight_instance(5)
    with pytest.raises(MalformedInputError, match="route limit must be an integer"):
        ss.enumerate_sir_routes(inst, limit=limit)


def test_search_accepts_numpy_integer_cap_and_limit():
    inst = ss.generate_sqrt_tight_instance(5)
    cut = ss.enumerate_sir_routes(inst, limit=np.int64(2), cap=np.int64(5))
    assert cut.routes == ss.enumerate_sir_routes(inst).routes[:2] and cut.truncated
    assert ss.opt_sir_route(inst, cap=np.int64(5)) == ss.opt_sir_route(inst)
    with pytest.raises(SizeError):
        ss.min_route_starvation(inst, cap=np.int64(4))


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


def _lockstep_corpus():
    yield from _oracle_corpus()
    rng = np.random.default_rng(72)
    for n in range(8, 11):
        for p in (0.35, 0.6):
            yield f"hampath n={n} p={p}", ss.reduce_hampath(*random_graph(rng, n, p))
    for n in (8, 9):
        for dim in (1, 2):
            points = (rng.integers(0, 20, size=(n, dim)) * 0.1).tolist()
            yield f"grid{dim}d n={n}", ss.reduce_path_tsp(ss.from_euclidean(points))
    for n in (7, 8):
        yield f"uniform n={n}", ss.reduce_path_tsp(1.0 - np.eye(n))
    for n in range(3, 9):
        inst = random_euclidean_instance(rng, n, alpha_low=0.3, alpha_high=2.0)
        yield f"zero n={n}", with_regime(inst, "zero")


def survivors_by_layer(inst, rel):
    """How many states of each popcount layer ``opt_sir_route``'s label DP visits."""
    keep = search_module._near_optimal(inst, inst._stage_verdicts(rel))
    counts = [0] * (inst.n + 1)
    for mask in np.nonzero(keep)[1].tolist():
        counts[mask.bit_count()] += 1
    return counts


@pytest.mark.parametrize("rel", [DEFAULT_REL_TOL, 0.0], ids=["default", "exact"])
def test_opt_route_matches_the_label_dp_over_every_state(rel):
    crowded = []
    for name, inst in _lockstep_corpus():
        want = reference_opt_route(inst, rel)
        got = ss.opt_sir_route(inst, cap=inst.n, rel=rel)
        if want is None:
            assert got is None, name
            continue
        assert got[0] == want[0] and repr(got[1]) == repr(want[1]), name
        if max(survivors_by_layer(inst, rel)) > 1:
            crowded.append(name)
    # near-ties and exact ties: more than one state of a layer survives
    assert {"grid2d collision", "hampath n=8 p=0.6"} <= set(crowded)


def test_exact_ties_keep_every_reachable_state():
    # every order of the all-equal table has the same length, so every state survives
    n = 6
    inst = ss.reduce_path_tsp(1.0 - np.eye(n))
    assert survivors_by_layer(inst, DEFAULT_REL_TOL) == [0] + [math.comb(n, k) * k for k in range(1, n + 1)]
    # the lower-bound instance's identity is its only feasible order: one state per layer
    assert survivors_by_layer(ss.generate_lower_bound_instance(n), DEFAULT_REL_TOL) == [0] + [1] * n


# ---------------------------------------------------------------------------
# the stage test: one helper, the searches' table and the instance's kept grid
# ---------------------------------------------------------------------------

def hair_instance(alphas=(1.0, 1.0)):
    # both pickups 1 from the dropoff and 0.5000000000005 apart: with equal rates
    # the stage-2 detour exceeds its budget of 0.5 by about 5e-13, within the
    # default tolerance and outside rel=0
    gap = 0.5000000000005
    table = ss.DistanceTable.from_matrix([[0.0, gap, 1.0], [gap, 0.0, 1.0], [1.0, 1.0, 0.0]])
    return ss.Instance(dist=table, n=2, dropoff_mode="single", alpha_op=1.0, alphas=alphas)


def test_kept_stage_grid_follows_the_tolerance_asked():
    inst = hair_instance()
    route = ss.Route.single_dropoff((1, 2))
    for rel in (DEFAULT_REL_TOL, 0.0, DEFAULT_REL_TOL, 0.0):
        fits = rel > 0
        for probe in (route, ss.Route.single_dropoff((1, 2))):  # a kept verdict, a fresh one
            assert ss.sir_feasible(inst, probe, rel=rel).feasible == fits, rel
        assert len(ss.enumerate_sir_routes(inst, rel=rel).routes) == 2 * fits, rel
        assert (ss.opt_sir_route(inst, rel=rel) is not None) == fits, rel
        assert (ss.min_route_starvation(inst, rel=rel) is not None) == fits, rel
        assert bool(inst._stage_verdicts(rel)[2, 1, 1]) == fits, rel
        assert inst._stage_grid(rel)[2][2] == [False, fits, True], rel  # a = 2 adds no detour


def test_feasibility_and_searches_apply_one_stage_test(monkeypatch):
    # every single-dropoff stage verdict goes through instances._stage_fits; a route's
    # check asks it for the route's n - 1 columns only, and a repeat check asks nothing
    calls = []
    fits = ss.instances._stage_fits

    def spy(detour, budget, rel):
        calls.append(np.broadcast_shapes(np.shape(detour), np.shape(budget)))
        return fits(detour, budget, rel)

    monkeypatch.setattr(ss.instances, "_stage_fits", spy)
    n = 5
    inst = ss.generate_lower_bound_instance(n)
    assert ss.sir_feasible(inst, ss.Route.single_dropoff(range(1, n + 1))).feasible
    assert ss.sir_feasible(inst, ss.Route.single_dropoff(range(1, n + 1))).feasible
    assert calls == [(n - 1, n + 1)]
    ss.enumerate_sir_routes(inst)
    ss.opt_sir_route(inst)
    ss.min_route_starvation(inst)
    assert calls[1:] == [(n - 1, n, n)] * 3


def test_a_new_instance_keeps_its_own_stage_grid():
    inst = hair_instance()
    route = ss.Route.single_dropoff((1, 2))
    assert not ss.sir_feasible(inst, route, rel=0.0).feasible
    twin = hair_instance()
    assert twin._stage_grid(0.0) is not inst._stage_grid(0.0)
    # a lighter first rider widens the stage-2 budget to 1 / 1.5
    lighter = hair_instance(alphas=(0.5, 1.0))
    assert ss.sir_feasible(lighter, route, rel=0.0).feasible
    assert not ss.sir_feasible(inst, route, rel=0.0).feasible  # still read from its own grid
    # a pickled or copied instance leaves the grid and the cached tables behind
    for clone in (pickle.loads(pickle.dumps(inst)), copy.deepcopy(inst), copy.copy(inst)):
        assert set(vars(clone)) == {"dist", "n", "dropoff_mode", "alpha_op", "alphas", "regime"}
        assert not ss.sir_feasible(clone, route, rel=0.0).feasible
        assert ss.sir_feasible(clone, route).feasible


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


@pytest.mark.parametrize("positions, dropoff", [
    (["3", "5"], "0"),
    ([3.0, 5.0], "0"),
    ([True, 2.0], 0),
    ([1.0, 2.0], False),
    ([1.0, np.bool_(True)], 0.0),
    ([1.0, b"2"], 0.0),
], ids=["strings", "string-dropoff", "bool", "bool-dropoff", "numpy-bool", "bytes"])
def test_line_verdict_refuses_positions_that_are_not_real_numbers(positions, dropoff):
    with pytest.raises(MalformedInputError, match="^line positions must be real numbers$"):
        ss.line_metric_verdict(positions, dropoff)
    with pytest.raises(MalformedInputError, match="^line positions must be real numbers$"):
        ss.line_instance(positions, dropoff)


def test_line_verdict_names_an_int_beyond_float_range():
    with pytest.raises(MalformedInputError, match="must be finite"):
        ss.line_metric_verdict([10 ** 400, 1.0], 0.0)
    assert ss.line_metric_verdict([np.int64(3), 5], np.float32(0.0)).pickup_order == (2, 1)


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
