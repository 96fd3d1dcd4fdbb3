import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sirshare as ss
from sirshare.errors import ConstructionError, MalformedInputError, UnsupportedModeError
from sirshare.numeric import ABS_FLOOR

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


@pytest.mark.parametrize("build", [
    lambda: ss.line_instance([1e200, -1e200], 0.0),  # distances overflow to inf
    lambda: ss.reduce_path_tsp([[0, 1], [1, 0]], margin=math.inf),
    lambda: ss.DistanceTable(entries=np.array([[0.0, math.nan], [math.nan, 0.0]]),
                             metric_flag=True),
], ids=["euclidean-overflow", "path-tsp-infinite-margin", "direct-table"])
def test_tables_are_checked_when_built(build):
    with pytest.raises(MalformedInputError, match="NaN or infinite"):
        build()


def test_table_does_not_freeze_the_callers_array():
    entries = np.array([[0.0, 1.0], [1.0, 0.0]])
    table = ss.DistanceTable(entries=entries, metric_flag=True)
    entries[0, 1] = 5.0
    assert table.entries[0, 1] == 1.0 and not table.entries.flags.writeable


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.floats(-50, 50), st.floats(-50, 50)),
                min_size=2, max_size=8))
def test_from_euclidean_always_metric_at_tight_tolerance(coords):
    table = ss.from_euclidean(coords)
    assert ss.validate_metric(table, rel_tol=1e-12).ok


def _reference_metric_report(entries, rel):
    """The m^3 formulation: every (a, b, c) at once, pairs by a Python loop."""
    d = np.asarray(entries, dtype=float)
    m = d.shape[0]

    def tol(scale):
        return 0.0 if rel == 0.0 else max(rel * abs(scale), ABS_FLOOR)

    found = []
    for a in range(m):
        if abs(d[a, a]) > tol(d[a, a]):
            found.append(ss.MetricViolation("diagonal", (a,), abs(float(d[a, a]))))
    for a in range(m):
        for b in range(a + 1, m):
            if abs(d[a, b] - d[b, a]) > tol(max(abs(d[a, b]), abs(d[b, a]))):
                found.append(ss.MetricViolation("asymmetric", (a, b),
                                                abs(float(d[a, b] - d[b, a]))))
            if d[a, b] < -tol(d[a, b]):
                found.append(ss.MetricViolation("negative", (a, b), -float(d[a, b])))
    if m >= 3:
        sums = d[:, :, None] + d[None, :, :]
        direct = np.broadcast_to(d[:, None, :], sums.shape)
        scale = np.maximum(np.abs(direct), np.abs(sums))
        tols = np.zeros_like(scale) if rel == 0.0 else np.maximum(rel * scale, ABS_FLOOR)
        for a, b, c in np.argwhere(direct > sums + tols):
            if a < c and b != a and b != c:
                found.append(ss.MetricViolation(
                    "triangle", (int(a), int(b), int(c)),
                    float(d[a, c] - (d[a, b] + d[b, c]))))
    return ss.MetricReport(ok=not found, violations=tuple(found))


def _seeded_tables(m, rng):
    """A clean Euclidean table, a tie-heavy integer one, and planted violations."""
    pts = rng.uniform(0.0, 10.0, size=(m, 2))
    diff = pts[:, None, :] - pts[None, :, :]
    euclid = np.sqrt((diff * diff).sum(axis=2))
    yield euclid
    ints = rng.integers(0, 4, size=(m, m)).astype(float)
    ints = ints + ints.T
    np.fill_diagonal(ints, 0.0)
    yield ints
    planted = euclid.copy()
    a, b, c = rng.integers(0, m, size=3)
    planted[a, a] += 1e-3                             # diagonal
    planted[a, b] += 10.0 if a != b else 0.0          # asymmetric
    planted[b, c] = planted[c, b] = -0.25 if b != c else planted[b, c]  # negative
    planted[c, a] = planted[a, c] = planted[a, c] * (1.0 + 2e-9)  # near the tolerance
    yield planted
    far = euclid.copy()
    far[0, m - 1] = far[m - 1, 0] = 25.0              # exceeds every two-leg sum
    yield far


@pytest.mark.parametrize("as_table", [False, True], ids=["list", "table"])
@pytest.mark.parametrize("rel", [1e-9, 0.0, 0.3])
def test_validate_metric_matches_cube_reference(rel, as_table):
    rng = np.random.default_rng(11)
    kinds = set()
    for m in range(1, 41):
        for entries in _seeded_tables(m, rng):
            expected = _reference_metric_report(entries, rel)
            if as_table:
                arg = ss.DistanceTable(entries=entries.copy(), metric_flag=False)
            else:
                arg = entries.tolist()
            assert ss.validate_metric(arg, rel) == expected, (m, rel)
            kinds.update(v.kind for v in expected.violations)
    assert kinds == {"diagonal", "asymmetric", "negative", "triangle"}


def test_validate_metric_boundary_is_within_tolerance():
    # each entry sits exactly on its tolerance, which the strict checks allow
    assert ss.validate_metric([[1e-12]]).ok  # floor 1e-12
    assert ss.validate_metric([[0, -1e-12], [-1e-12, 0]]).ok
    assert ss.validate_metric([[0, 2], [1, 0]], 0.5).ok  # gap 1 = 0.5 * 2
    triangle = [[0, 1, 4], [1, 0, 1], [4, 1, 0]]  # 4 = (1 + 1) + 0.5 * 4
    assert ss.validate_metric(triangle, 0.5).ok
    assert ss.validate_metric(triangle, 0.25).violations == (
        ss.MetricViolation("triangle", (0, 1, 2), 2.0),)
    assert ss.validate_metric([[0, 1, 2], [1, 0, 1], [2, 1, 0]], 0.0).ok  # an exact tie


def test_declared_metric_flag_load_runs_no_triangle_scan(monkeypatch):
    planted = [[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]]
    real = ss.instances.validate_metric
    calls = []

    def counted(table, rel_tol=ss.numeric.DEFAULT_REL_TOL):
        calls.append(rel_tol)
        return real(table, rel_tol)

    monkeypatch.setattr(ss.instances, "validate_metric", counted)
    declared = ss.DistanceTable.from_matrix(planted, metric_flag=True)
    assert (calls, declared.metric_flag, declared.load_check) == ([], True, None)
    # the claim is checked on request, and the hard checks still run at load
    assert [v.kind for v in declared.metric_report().violations] == ["triangle"]
    assert calls == [1e-9]
    with pytest.raises(MalformedInputError, match="asymmetric"):
        ss.DistanceTable.from_matrix([[0, 1], [2, 0]], metric_flag=True)
    with pytest.raises(MalformedInputError):
        ss.DistanceTable.from_matrix([[0, 1], [1, 0]], metric_flag=True, rel_tol=-1.0)
    calls.clear()
    computed = ss.DistanceTable.from_matrix(planted)
    assert calls == [1e-9] and computed.metric_flag is False
    assert computed.metric_report() is computed.load_check[1]
    assert calls == [1e-9]


def test_from_matrix_checks_and_copies_the_table_once(monkeypatch):
    real = ss.instances._as_square_matrix
    seen = []

    def counted(entries):
        seen.append(type(entries).__name__)
        return real(entries)

    monkeypatch.setattr(ss.instances, "_as_square_matrix", counted)
    for flag in (None, True):
        seen.clear()
        table = ss.DistanceTable.from_matrix([[0.0, 1.0], [1.0, 0.0]], metric_flag=flag)
        assert seen == ["list"]
        assert not table.entries.flags.writeable


def test_from_matrix_reports_first_hard_violation():
    # pair (0, 1) is both asymmetric and negative: asymmetry is reported first
    with pytest.raises(MalformedInputError,
                       match=r"asymmetric violation at \(0, 1\)$"):
        ss.DistanceTable.from_matrix([[0, -1, 2], [1, 0, 1], [2, 1, 0]])
    # pairs come in (a, b) order: negative (0, 1) before asymmetric (0, 2)
    with pytest.raises(MalformedInputError,
                       match=r"negative violation at \(0, 1\)$"):
        ss.DistanceTable.from_matrix([[0, -1, 2], [-1, 0, 1], [3, 1, 0]])


def test_validate_metric_memory_is_quadratic():
    pts = np.random.default_rng(3).uniform(0.0, 10.0, size=(400, 2))
    table = ss.from_euclidean([tuple(p) for p in pts])
    tracemalloc.start()
    try:
        report = ss.validate_metric(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok
    # one 400^3 float array alone would take 512 MB
    assert peak < 16 * 2 ** 20, peak


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
    ("1", (1.0, 1.0)),
    (True, (1.0, 1.0)),
    (1.0, ("x", 1.0)),
    (10 ** 400, (1.0, 1.0)),
], ids=["nan-alpha", "inf-alpha", "inf-alpha-op", "nan-alpha-op", "string-alpha-op",
        "bool-alpha-op", "string-alpha", "huge-int-alpha-op"])
def test_instance_rejects_non_finite_rates(alpha_op, alphas):
    table = ss.from_euclidean([0.0, 1.0, 3.0])
    with pytest.raises(MalformedInputError):
        ss.Instance(dist=table, n=2, dropoff_mode="single",
                    alpha_op=alpha_op, alphas=alphas)


@pytest.mark.parametrize("n", [2.0, 2.7, "2", None, True, np.float64(2.0)],
                         ids=["float", "fraction", "string", "none", "bool", "numpy-float"])
def test_instance_rejects_ill_typed_n(n):
    table = ss.from_euclidean([0.0, 1.0, 3.0])
    with pytest.raises(MalformedInputError, match="must be an integer"):
        ss.Instance(dist=table, n=n, dropoff_mode="single", alpha_op=1.0, alphas=(1.0, 1.0))


def test_instance_stores_an_integral_n_as_int():
    table = ss.from_euclidean([0.0, 1.0, 3.0])
    inst = ss.Instance(dist=table, n=np.int64(2), dropoff_mode="single",
                       alpha_op=1.0, alphas=(1.0, 1.0))
    assert type(inst.n) is int and inst.n == 2


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


@pytest.mark.parametrize("field, value", [
    ("n", 2.7),
    ("n", "2"),
    ("n", True),
    ("alphas", "11"),
    ("alphas", [1.0, "1"]),
    ("alpha_op", True),
    ("alpha_op", "1"),
    ("alpha_op", 10 ** 400),
    ("metric_flag", "false"),
], ids=["n-float", "n-string", "n-bool", "alphas-string", "alphas-string-item",
        "alpha_op-bool", "alpha_op-string", "alpha_op-huge-int", "metric_flag-string"])
def test_instance_from_json_rejects_ill_typed_fields(field, value):
    data = ss.generate_sqrt_tight_instance(2).to_dict()
    data[field] = value
    with pytest.raises(MalformedInputError):
        ss.Instance.from_dict(data)


_MULTI = ss.Instance(dist=ss.from_euclidean([0.0, 1.0, 5.0, 7.0]), n=2,
                     dropoff_mode="multi", alpha_op=1.0, alphas=(1.0, 1.0))
_ROUTE = ss.Route.single_dropoff([1, 2])
_TABLE = ss.CostShareTable(shares=((1.0,), (1.0, 1.0)))


@pytest.mark.parametrize("call", [
    lambda: ss.single_dropoff_detours(_MULTI, _ROUTE),
    lambda: ss.benefit_breakdown(_MULTI, _ROUTE, _TABLE),
    lambda: ss.beta_fair_table(_MULTI, _ROUTE, [0.5]),
    lambda: ss.xc_table(_MULTI, _ROUTE),
    lambda: ss.verify_fairness_ratios(_MULTI, _ROUTE, _TABLE, [0.5]),
    lambda: ss.starvation_report(_MULTI, _ROUTE),
    lambda: ss.enumerate_sir_routes(_MULTI),
    lambda: ss.opt_sir_route(_MULTI),
    lambda: ss.min_route_starvation(_MULTI),
    lambda: ss.optimal_allocation(_MULTI),
    lambda: ss.build_network(_MULTI, 1),
    lambda: ss.brute_force_allocation(_MULTI),
], ids=["detours", "benefit", "beta", "xc", "ratios", "starvation", "enumerate", "opt",
        "min-starvation", "allocate", "network", "brute-force"])
def test_single_dropoff_entry_points_reject_multi_dropoff(call):
    with pytest.raises(UnsupportedModeError, match="only defined for single-dropoff instances"):
        call()


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
