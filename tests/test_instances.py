import copy
import itertools
import json
import math
import pickle
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
from route_oracle import reference_pickup_order, reference_validate

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


@pytest.mark.parametrize("coords", [[[10 ** 400, 0], [1, 1]], [10 ** 400, 0.0]],
                         ids=["points", "line"])
def test_coordinates_beyond_float_range_are_named(coords):
    with pytest.raises(MalformedInputError) as info:
        ss.from_euclidean(coords)
    assert str(info.value) == "coordinate beyond float range: int too large to convert to float"


@pytest.mark.parametrize("load", [
    ss.DistanceTable.from_matrix,
    lambda matrix: ss.Instance.from_dict({"n": 1, "dropoff_mode": "single", "alpha_op": 1.0,
                                          "alphas": [1.0], "regime": "finite",
                                          "distance_matrix": matrix}),
], ids=["from_matrix", "from_dict"])
def test_table_entries_beyond_float_range_are_named(load):
    with pytest.raises(MalformedInputError) as info:
        load([[0, 10 ** 400], [1, 0]])
    assert str(info.value) == \
        "distance table entry beyond float range: int too large to convert to float"


@pytest.mark.parametrize("build", [
    lambda: ss.line_instance([1e200, -1e200], 0.0),  # distances overflow to inf
    lambda: ss.reduce_path_tsp([[0, 1], [1, 0]], margin=1e308),  # 2 * 1 * (1 + 1e308) is inf
    lambda: ss.DistanceTable(entries=np.array([[0.0, math.nan], [math.nan, 0.0]]),
                             metric_flag=True),
], ids=["euclidean-overflow", "path-tsp-overflowing-margin", "direct-table"])
def test_tables_are_checked_when_built(build):
    with pytest.raises(MalformedInputError, match="NaN or infinite"):
        build()


@pytest.mark.parametrize("build", [
    ss.DistanceTable.from_matrix,
    lambda entries: ss.DistanceTable(entries=np.array(entries), metric_flag=True),
], ids=["from_matrix", "direct-table"])
def test_tables_whose_sums_overflow_are_rejected(build):
    # largest magnitude times m**2 must be finite: 1.5e308 * 9 is not, 1e307 * 9 is
    big = [[0.0, 1e308, 1.5e308], [1e308, 0.0, 1e308], [1.5e308, 1e308, 0.0]]
    with pytest.raises(MalformedInputError, match="sums over 3 points would overflow"):
        build(big)
    assert build([[0.0, 1e307, 1e307], [1e307, 0.0, 1e307], [1e307, 1e307, 0.0]]).size == 3


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


@pytest.mark.parametrize("duplicate", [
    lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy, copy.copy,
], ids=["pickle", "deepcopy", "copy"])
def test_a_copied_distance_table_stays_read_only(duplicate):
    inst = ss.generate_lower_bound_instance(3)
    for table in (duplicate(inst.dist), duplicate(inst).dist):
        assert not table.entries.flags.writeable
        with pytest.raises(ValueError):
            table.entries[0, 1] = 0.0
        assert np.array_equal(table.entries, inst.dist.entries)
        assert table.metric_flag == inst.dist.metric_flag
    assert inst.dist.entries[0, 1] == 0.5


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


def test_exp_tight_positions_beyond_float_range_are_refused():
    with pytest.raises(ConstructionError, match="beyond float range"):
        ss.generate_exp_tight_instance(1100)


@pytest.mark.parametrize("n, ell", [(1024, 1.0), (600, 1.0), (513, 1.0), (512, 2.0), (2, 1e200)])
def test_exp_tight_squared_distances_beyond_float_range_are_refused(n, ell):
    # from_euclidean squares each distance, so the farthest pickup must stay below 2**512
    with pytest.raises(ConstructionError, match=f"pickup {n} at 2\\*\\*{n - 1} \\* ell .*beyond float range"):
        ss.generate_exp_tight_instance(n, ell=ell)


def test_exp_tight_reaches_its_float_limit():
    inst = ss.generate_exp_tight_instance(512)
    assert inst.direct_distance(512) == 2.0 ** 511


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
    assert len(ss.enumerate_sir_routes(inst).routes) == 0


@pytest.mark.parametrize("rel", [1e-9, 0.0], ids=["default", "exact"])
def test_hampath_counts_match_dfs_oracle(rel):
    rng = np.random.default_rng(101)
    graphs = [random_graph(rng, int(rng.integers(2, 7))) for _ in range(25)]
    # path graphs: at n = 6, 9 and 10 the float (ell/n + ell) - ell exceeds ell/n,
    # so an edge distance of ell/n would fold past the stage budget at rel=0
    graphs += [(n, [(v, v + 1) for v in range(1, n)]) for n in range(3, 13)]
    for n_vertices, edges in graphs:
        inst = ss.reduce_hampath(n_vertices, edges)
        found = len(ss.enumerate_sir_routes(inst, cap=12, rel=rel).routes)
        assert found == count_directed_hamiltonian_paths(n_vertices, edges), (n_vertices, edges)


def test_hampath_rejects_self_loop():
    with pytest.raises(ConstructionError):
        ss.reduce_hampath(3, [(1, 1)])


@pytest.mark.parametrize("make, message", [
    (lambda: ss.generate_lower_bound_instance(0), "need n >= 1"),
    (lambda: ss.generate_sqrt_tight_instance(0), "need n >= 1"),
    (lambda: ss.generate_exp_tight_instance(-1), "need n >= 1"),
    (lambda: ss.reduce_hampath(1, []), "need at least 2 vertices"),
    (lambda: ss.reduce_hampath(3, [(1, 4)]), "edge \\(1,4\\) out of range 1..3"),
    (lambda: ss.reduce_hampath(3, [(0, 2)]), "edge \\(0,2\\) out of range 1..3"),
    (lambda: ss.reduce_path_tsp([[0.0]]), "need at least 2 pickup points"),
], ids=["lower-bound-n0", "sqrt-tight-n0", "exp-tight-negative", "hampath-one-vertex",
        "hampath-edge-above", "hampath-edge-below", "path-tsp-one-point"])
def test_generators_reject_degenerate_sizes(make, message):
    with pytest.raises(ConstructionError, match=message):
        make()


@pytest.mark.parametrize("n", [2.5, 3.0, "3", True, None], ids=["fraction", "whole-float", "str",
                                                               "bool", "none"])
@pytest.mark.parametrize("make", [
    ss.generate_lower_bound_instance,
    ss.generate_sqrt_tight_instance,
    ss.generate_exp_tight_instance,
    lambda n: ss.reduce_hampath(n, [(1, 2)]),
], ids=["lower-bound", "sqrt-tight", "exp-tight", "hampath"])
def test_generators_reject_a_size_that_is_not_an_integer(make, n):
    make(np.int64(3))
    with pytest.raises(MalformedInputError, match="must be an integer"):
        make(n)


@pytest.mark.parametrize("make", [
    lambda: ss.generate_lower_bound_instance(3, alphas=["x", 1, 1]),
    lambda: ss.generate_lower_bound_instance(3, alphas=[None, 1, 1]),
    lambda: ss.generate_lower_bound_instance(3, alphas=[math.inf, 1, 1]),
    lambda: ss.generate_lower_bound_instance(3, alphas=[True, 1, 1]),
    lambda: ss.generate_lower_bound_instance(3, alphas=[1, 1]),
    lambda: ss.generate_lower_bound_instance(3, alpha_op="2"),
    lambda: ss.generate_lower_bound_instance(3, ell="1"),
    lambda: ss.generate_lower_bound_instance(3, slack=None),
    lambda: ss.generate_sqrt_tight_instance(3, ell="1"),
    lambda: ss.reduce_hampath(3, [(1, 2.7)]),
    lambda: ss.reduce_hampath(3, [(1, "x")]),
    lambda: ss.reduce_hampath(3, [(1, 2, 3)]),
    lambda: ss.reduce_hampath(3, [(True, 2)]),
    lambda: ss.line_instance(["a", 2], 0),
    lambda: ss.line_instance([3, 2], None),
    lambda: ss.line_instance([3, 2], 0, alpha_op="1"),
], ids=["alpha-str", "alpha-none", "alpha-inf", "alpha-bool", "alpha-count", "alpha-op-str",
        "ell-str", "slack-none", "sqrt-ell-str", "edge-fraction", "edge-str", "edge-triple",
        "edge-bool", "line-position-str", "line-dropoff-none", "line-rate-str"])
def test_generators_reject_ill_typed_input(make):
    with pytest.raises(MalformedInputError):
        make()


@pytest.mark.parametrize("make, name", [
    (lambda: ss.generate_lower_bound_instance(3, ell=math.inf), "ell"),
    (lambda: ss.generate_lower_bound_instance(3, slack=math.inf), "slack"),
    (lambda: ss.generate_lower_bound_instance(3, alpha_op=math.inf), "alpha_op"),
    (lambda: ss.generate_sqrt_tight_instance(3, ell=math.inf), "ell"),
    (lambda: ss.generate_exp_tight_instance(3, ell=np.float64(math.inf)), "ell"),
    (lambda: ss.reduce_hampath(3, [(1, 2)], ell=math.inf), "ell"),
    (lambda: ss.reduce_path_tsp([[0, 1], [1, 0]], margin=math.inf), "margin"),
], ids=["lower-bound-ell", "lower-bound-slack", "lower-bound-alpha-op", "sqrt-ell", "exp-ell",
        "hampath-ell", "path-tsp-margin"])
def test_generators_name_an_infinite_parameter(make, name):
    with pytest.raises(MalformedInputError) as info:
        make()
    assert str(info.value) == f"{name} must be finite, got inf"


@pytest.mark.parametrize("make, name", [
    (lambda: ss.generate_sqrt_tight_instance(3, ell=10**400), "ell"),
    (lambda: ss.reduce_path_tsp([[0, 1], [1, 0]], margin=10**400), "margin"),
    (lambda: ss.generate_lower_bound_instance(3, slack=10**400), "slack"),
], ids=["sqrt-ell", "path-tsp-margin", "lower-bound-slack"])
def test_generators_name_an_integer_beyond_float_range(make, name):
    with pytest.raises(MalformedInputError) as info:
        make()
    assert str(info.value) == f"{name} must be finite, got an integer beyond float range"


def test_generators_still_take_integral_and_numpy_values():
    inst = ss.generate_lower_bound_instance(3, alpha_op=2, alphas=[np.float64(1.5), 1, 2])
    assert inst.alpha_op == 2.0 and inst.alphas == (1.5, 1.0, 2.0)
    assert ss.reduce_hampath(3, [np.array([1, 2]), [2, np.int64(3)]]).n == 3
    assert ss.line_instance([np.float64(3.0), 2], np.int64(0)).dist.entries[0].tolist() == [0, 1, 3]


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


_JSON_LEAF = (st.none() | st.booleans() | st.integers() | st.just(10**400) | st.floats()
              | st.text(max_size=8))
_JSON = st.recursive(
    _JSON_LEAF,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=12,
)


@st.composite
def _instance_documents(draw):
    """A well-typed instance document with a few fields replaced by arbitrary JSON."""
    n = draw(st.integers(1, 3))
    table_key = draw(st.sampled_from(["coords", "distance_matrix"]))
    fields = {
        "n": st.just(n),
        "dropoff_mode": st.sampled_from(["single", "multi"]),
        "alpha_op": st.floats(0.5, 2.0),
        "alphas": st.lists(st.floats(0.0, 2.0), min_size=n, max_size=n),
        "regime": st.sampled_from(["finite", "zero", "infinite"]),
        "metric_flag": st.none() | st.booleans(),
        "coords": st.lists(st.floats(-9, 9), min_size=n + 1, max_size=2 * n),
        "distance_matrix": st.lists(st.lists(st.floats(0, 9), max_size=4), max_size=4),
    }
    del fields["distance_matrix" if table_key == "coords" else "coords"]
    arbitrary = draw(st.sets(st.sampled_from(sorted(fields)), max_size=3))
    return {key: draw(_JSON if key in arbitrary else well_typed)
            for key, well_typed in fields.items()}


@settings(max_examples=200, deadline=None)
@given(_instance_documents())
def test_instance_from_dict_raises_only_package_errors(data):
    # any JSON document yields an Instance or a SirshareError, which the CLI reports
    # as a tool error; anything else escapes as a traceback
    try:
        inst = ss.Instance.from_dict(data)
    except ss.SirshareError:
        return
    assert isinstance(inst, ss.Instance)


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
    lambda: ss.brute_force_allocation(_MULTI),
], ids=["detours", "benefit", "beta", "xc", "ratios", "starvation", "enumerate", "opt",
        "min-starvation", "allocate", "brute-force"])
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


@pytest.mark.parametrize("build", [
    lambda: ss.Route.single_dropoff([1.9, 2.2, 3.0]),
    lambda: ss.Route.single_dropoff([True, 2, 3]),
    lambda: ss.Route.single_dropoff(["1", "2", "3"]),
    lambda: ss.Route(events=(("P", 1.0), ("P", 2.0), ("P", 3), ("D", 1), ("D", 2), ("D", 3))),
    lambda: ss.Route(events=(("P", 1), ("P", 2), ("P", 3), ("D", True), ("D", 2), ("D", 3))),
    lambda: ss.Route(events=(("P", "a"), ("P", 2), ("P", 3), ("D", 1), ("D", 2), ("D", 3))),
], ids=["float-order", "bool-order", "str-order", "float-events", "bool-dropoff", "str-events"])
def test_route_labels_must_be_integers(build):
    inst = ss.generate_lower_bound_instance(3)
    with pytest.raises(MalformedInputError, match="route labels must be integers"):
        ss.sir_feasible(inst, build())
    # numpy integers are labels too
    assert ss.sir_feasible(inst, ss.Route.single_dropoff(np.arange(1, 4))).feasible
    assert ss.sir_feasible(inst, ss.Route(events=tuple(
        [("P", p) for p in np.arange(1, 4)] + [("D", r) for r in (1, 2, 3)]))).feasible


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


def _three_ways(order):
    """One order as a listed route, a ``single_dropoff`` route and a route built from events.

    A permutation is read from the listing of every order of its riders; no
    search lists any other order, so that one is read from a one-row listing.
    """
    n = len(order)
    if sorted(order) == list(range(1, n + 1)):
        everyone = ss.reduce_hampath(n, list(itertools.combinations(range(1, n + 1), 2)))
        listed = ss.enumerate_sir_routes(everyone).routes
        k = sorted(itertools.permutations(range(1, n + 1))).index(tuple(order))
    else:
        listed, k = ss.RouteListing(np.array([order], dtype=np.uint8)), 0
    assert listed.orders[k].tolist() == list(order)
    events = tuple(("P", p) for p in order) + tuple(("D", r) for r in range(1, n + 1))
    return listed[k], ss.Route.single_dropoff(order), ss.Route(events=events)


@pytest.mark.parametrize("reads", [(), ("events", "pickup_order"), ("pickup_order", "events")],
                         ids=["unread", "events-first", "order-first"])
@pytest.mark.parametrize("order", [(3, 1, 2), (1, 2, 3), (1, 1, 2), (2, 3)])
def test_single_dropoff_routes_match_routes_built_from_events(order, reads):
    routes = _three_ways(order)
    for route in routes:
        for name in reads:
            getattr(route, name)
    copies = [pickle.loads(pickle.dumps(r)) for r in routes] + [copy.deepcopy(r) for r in routes]
    events = routes[2].events
    for route in routes + tuple(copies):
        assert type(route) is ss.Route
        assert route == routes[2] and hash(route) == hash(routes[2])
        assert route != ss.Route.single_dropoff((4,) + order)
        assert repr(route) == f"Route(events={events!r})"
        assert route.events == events and route.pickup_order == order and route.n == len(order)
        assert route.to_tokens() == ",".join(map(str, order))
    inst = ss.generate_lower_bound_instance(3)
    verdicts = set()
    for route in routes + tuple(copies):
        try:
            route.validate(inst)
            verdicts.add(None)
        except MalformedInputError as exc:
            verdicts.add(str(exc))
    assert len(verdicts) == 1
    assert (verdicts == {None}) == (sorted(order) == [1, 2, 3])


def test_to_tokens_of_an_order_derives_no_events():
    listed = ss.enumerate_sir_routes(ss.generate_sqrt_tight_instance(5)).routes
    orders = [order for n in range(5) for order in itertools.product(range(1, n + 1), repeat=n)]
    for route in tuple(listed) + tuple(ss.Route.single_dropoff(order) for order in orders):
        tokens = route.to_tokens()
        assert "events" not in vars(route)
        assert ss.Route(events=route.events).to_tokens() == tokens
        assert route.to_tokens() == tokens  # now read from the derived events


def test_validate_of_an_order_derives_no_events():
    inst = ss.generate_lower_bound_instance(4)
    listed = ss.enumerate_sir_routes(ss.generate_sqrt_tight_instance(4)).routes
    orders = list(itertools.product(range(1, 5), repeat=4)) + [(1, 2, 3), (1, 2, 3, 4, 5)]
    for route in tuple(listed) + tuple(ss.Route.single_dropoff(order) for order in orders):
        try:
            route.validate(inst)
            ss.sir_feasible(inst, route)
            verdict = None
        except MalformedInputError as exc:
            verdict = str(exc)
        assert "events" not in vars(route)
        with_events = ss.Route(events=route.events)  # the full event walk
        try:
            with_events.validate(inst)
            assert verdict is None
        except MalformedInputError as exc:
            assert verdict == str(exc)
        assert (verdict is None) == (sorted(route.pickup_order) == [1, 2, 3, 4])


# ---------------------------------------------------------------------------
# Route shape: the canonical fast path against the reference walk
# ---------------------------------------------------------------------------

_SINGLE_BY_N = {k: ss.generate_lower_bound_instance(k) for k in range(1, 7)}
_MULTI_BY_N = {k: ss.Instance(dist=ss.from_euclidean([float(x) for x in range(2 * k)]), n=k,
                              dropoff_mode="multi", alpha_op=1.0, alphas=(1.0,) * k)
               for k in range(1, 7)}

_RELABEL = [lambda x: x == 1, lambda x: np.bool_(x == 1), np.int64, str, float]
_EDITS = ["permuted-tail", "interleaved", "relabel", "missing", "label-type", "unknown-kind",
          "wrong-arity"]


@st.composite
def _event_sequences(draw):
    """Canonical single-dropoff events of 0..5 riders, with up to two edits."""
    n = draw(st.integers(0, 5))
    events = [("P", p) for p in draw(st.permutations(range(1, n + 1)))]
    events += [("D", r) for r in range(1, n + 1)]
    for edit in draw(st.lists(st.sampled_from(_EDITS), max_size=2)):
        if not events:
            break
        i = draw(st.integers(0, len(events) - 1))
        if not (isinstance(events[i], tuple) and len(events[i]) == 2):
            continue  # a wrong-arity edit took this event
        kind, label = events[i]
        if edit == "permuted-tail":
            events[n:] = draw(st.permutations(events[n:]))
        elif edit == "interleaved":
            events.insert(draw(st.integers(0, len(events) - 1)), events.pop(i))
        elif edit == "relabel":  # a duplicate or out-of-range label
            events[i] = (kind, draw(st.integers(0, n + 1)))
        elif edit == "missing":
            del events[i]
        elif edit == "label-type":
            events[i] = (kind, draw(st.sampled_from(_RELABEL))(label))
        elif edit == "unknown-kind":
            events[i] = (draw(st.sampled_from(["X", "p", "", None])), label)
        else:
            events[i] = draw(st.sampled_from([(kind, label, 0), (kind,), 5, f"{kind}{label}"]))
    return draw(st.sampled_from([tuple, list]))(events)


def _outcome(call):
    try:
        call()
    except Exception as exc:  # the class and message are what is compared
        return type(exc), str(exc)
    return None


@settings(max_examples=400, deadline=None)
@given(_event_sequences())
def test_route_shape_matches_the_reference_walk(events):
    k = max(len(events) // 2, 1)
    instances = [_SINGLE_BY_N[k], _MULTI_BY_N[k], _SINGLE_BY_N[k + 1]]
    shared = ss.Route(events=events)  # its shape check is cached across the instances
    twin = tuple(events)
    # a list or a generator gives the route of its tuple twin
    alike = [ss.Route(events=twin), ss.Route(events=list(twin)), ss.Route(events=(e for e in twin))]
    for route in alike:
        assert route.events == twin and route == shared and hash(route) == hash(shared)
        assert pickle.loads(pickle.dumps(route)) == shared
    for inst in instances:
        want = _outcome(lambda: reference_validate(twin, inst))
        for route in (shared, *alike):
            assert _outcome(lambda: route.validate(inst)) == want
            if want is None:
                order = reference_pickup_order(twin)
                assert route.pickup_order == order
                assert list(map(type, route.pickup_order)) == list(map(type, order))


def test_canonical_event_routes_take_the_order_only_check():
    events = (("P", 3), ("P", 1), ("P", 2), ("D", 1), ("D", 2), ("D", 3))
    route = ss.Route(events=events)
    route.validate(ss.generate_lower_bound_instance(3))
    assert route.pickup_order == (3, 1, 2) and vars(route)["_shape"] == (3, None, False)
    # a numpy label takes the walk, and passes it
    numpy_labels = ss.Route(events=events[:2] + (("P", np.int64(2)),) + events[3:])
    numpy_labels.validate(ss.generate_lower_bound_instance(3))
    assert numpy_labels.pickup_order == (3, 1, 2)


@pytest.mark.parametrize("events", [
    (("P", 1, 0), ("P", 2), ("D", 1), ("D", 2)),
    (("P", 1), ("P",), ("D", 1), ("D", 2)),
    (("P", 1), 2, ("D", 1), ("D", 2)),
    5,
    None,
], ids=["triple", "single", "int-event", "int-events", "none-events"])
def test_malformed_events_raise_a_package_error(events):
    inst = ss.line_instance([3, 2], 0)
    for _ in range(2):  # a malformed route caches no shape
        with pytest.raises(MalformedInputError) as info:
            ss.sir_feasible(inst, ss.Route(events=events))
        assert str(info.value) == f"route events must be (kind, label) pairs, got {events!r}"
