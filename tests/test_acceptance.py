"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion
lines as they complete. The shared permutation sweep behind criteria 1, 3,
and 4 is built once per session (see conftest.py).
"""

import itertools
import math
import time

import numpy as np
import pytest

import sirshare as ss
from sirshare.errors import InfeasibleRouteError

from corpus import (
    brute_force_path_tsp,
    central_product,
    count_directed_hamiltonian_paths,
    harmonic,
    random_euclidean_instance,
    random_feasible_instance,
    random_graph,
    random_line_positions,
    random_multi_instance,
    random_multi_route,
    with_regime,
)


def record(criterion: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"\nACCEPTANCE criterion {criterion} ({name}): {status}{suffix}")


# ---------------------------------------------------------------------------
# 1. feasibility characterization equivalence
# ---------------------------------------------------------------------------

def test_criterion_1_characterization_equivalence(theorem_sweep):
    sweep = theorem_sweep
    ok = not sweep["disagreements"] and sweep["elapsed"] < 60.0
    record(
        1, "characterization equivalence", ok,
        f"{sweep['routes_checked']} routes over 500 instances, "
        f"{len(sweep['disagreements'])} disagreements, "
        f"{sweep['elapsed']:.1f}s",
    )
    assert not sweep["disagreements"], sweep["disagreements"][:5]
    assert sweep["elapsed"] < 60.0


def test_criterion_1_holds_in_the_zero_regime_whatever_the_stored_sensitivities():
    # The vanishing-weight regime prices no inconvenience, so nonzero stored
    # sensitivities must move neither the verdict nor the witness table.
    rng = np.random.default_rng(3)
    cases = []
    for n in range(2, 6):
        for _ in range(12):
            inst = random_euclidean_instance(rng, n, regime="zero")
            cases += [(inst, ss.Route.single_dropoff(perm))
                      for perm in itertools.permutations(range(1, n + 1))]
    rng = np.random.default_rng(5)
    for _ in range(400):
        n = int(rng.integers(2, 5))
        inst = random_multi_instance(rng, n)
        cases.append((with_regime(inst, "zero", alphas=inst.alphas), random_multi_route(rng, n)))
    assert all(min(inst.alphas) > 0.0 for inst, _ in cases)
    feasible = {"single": 0, "multi": 0}
    disagreements = []
    for inst, route in cases:
        verdict = ss.sir_feasible(inst, route).feasible
        try:
            built = ss.is_sir(inst, route, ss.witness_scheme(inst, route))[0]
        except InfeasibleRouteError:
            built = False
        feasible[inst.dropoff_mode] += verdict
        if verdict != built:
            disagreements.append((inst.dropoff_mode, route.to_tokens(), verdict))
    assert not disagreements, disagreements[:5]
    assert feasible["single"] > 0 and feasible["multi"] > 0, feasible


# ---------------------------------------------------------------------------
# 2. exact worst-case value on the lower-bound instance
# ---------------------------------------------------------------------------

def test_criterion_2_lower_bound_exact_value():
    # With equal weights at n=2 uniqueness cannot hold: if (1, 2) reaches
    # factor 3/2 then d12 = 1.5*l1 - l2 and its stage forces l1 <= l2, which
    # leaves (2, 1) a slack of 2*(l2 - l1) >= 0. So n=2 is checked for the
    # mirrored pair the construction forces, n >= 3 for uniqueness.
    value_failures = []
    uniqueness_failures = []
    pair_failures = []
    for n in range(2, 9):
        inst = ss.generate_lower_bound_instance(n)
        found = ss.min_route_starvation(inst)
        target = harmonic(n)
        if found is None or abs(found[1] - target) > 1e-9 * target:
            value_failures.append((n, None if found is None else found[1], target))
        routes = ss.enumerate_sir_routes(inst).routes
        if n == 2:
            pair = [
                (r.pickup_order,
                 tuple(s.slack for s in ss.sir_feasible(inst, r).stages),
                 ss.starvation_report(inst, r).route_factor)
                for r in routes
            ]
            expected = [((1, 2), (0.0,), target), ((2, 1), (0.0,), target)]
            if pair != expected:
                pair_failures.append(pair)
        else:
            orders = [r.pickup_order for r in routes]
            if orders != [tuple(range(1, n + 1))]:
                uniqueness_failures.append((n, orders))
    ok = not value_failures and not uniqueness_failures and not pair_failures
    record(
        2, "lower-bound harmonic value + uniqueness", ok,
        f"value failures {value_failures}, uniqueness failures (n>=3) "
        f"{uniqueness_failures}, n=2 mirrored pair "
        f"{'ok' if not pair_failures else pair_failures}",
    )
    assert not value_failures, value_failures
    assert not uniqueness_failures, uniqueness_failures
    assert not pair_failures, pair_failures


# ---------------------------------------------------------------------------
# 3. sqrt ceiling and its tight instance
# ---------------------------------------------------------------------------

def test_criterion_3_sqrt_ceiling(theorem_sweep):
    sweep_ok = not theorem_sweep["sqrt_violations"]
    tight_failures = []
    for n in range(2, 11):
        inst = ss.generate_sqrt_tight_instance(n)
        route = ss.Route.single_dropoff(range(1, n + 1))
        assert ss.sir_feasible(inst, route).feasible
        gamma = ss.starvation_report(inst, route).route_factor
        target = central_product(n) - 1.0
        if abs(gamma - target) > 1e-9 * target:
            tight_failures.append((n, gamma, target))
        if gamma > 2.0 * math.sqrt(n) + 1e-9:
            tight_failures.append((n, gamma, 2.0 * math.sqrt(n)))
    ok = sweep_ok and not tight_failures
    record(
        3, "sqrt starvation ceiling", ok,
        f"{theorem_sweep['feasible_routes']} feasible routes checked, "
        f"{len(theorem_sweep['sqrt_violations'])} ceiling violations, "
        f"tight-instance failures {tight_failures}",
    )
    assert sweep_ok, theorem_sweep["sqrt_violations"][:5]
    assert not tight_failures, tight_failures


# ---------------------------------------------------------------------------
# 4. exponential ceiling in the vanishing-weight regime
# ---------------------------------------------------------------------------

def test_criterion_4_exponential_ceiling(theorem_sweep):
    sweep_ok = not theorem_sweep["exp_violations"]
    exact_failures = []
    for n in range(1, 13):
        inst = ss.generate_exp_tight_instance(n)
        route = ss.Route.single_dropoff(range(1, n + 1))
        assert ss.sir_feasible(inst, route).feasible
        gamma = ss.starvation_report(inst, route).route_factor
        if gamma != float(2 ** n - 1):
            exact_failures.append((n, gamma))
    ok = sweep_ok and not exact_failures
    record(
        4, "exponential ceiling (vanishing weights)", ok,
        f"{len(theorem_sweep['exp_violations'])} ceiling violations, "
        f"exactness failures {exact_failures}",
    )
    assert sweep_ok, theorem_sweep["exp_violations"][:5]
    assert not exact_failures, exact_failures


# ---------------------------------------------------------------------------
# 5. dominant-weight regime: feasible = zero detour, factor 1
# ---------------------------------------------------------------------------

def test_criterion_5_dominant_weight_regime():
    rng = np.random.default_rng(505)
    failures = []
    feasible_seen = 0
    for k in range(200):
        n = int(rng.integers(2, 7))
        if k % 2 == 0:
            base = random_euclidean_instance(rng, n)
        else:
            positions = rng.uniform(1.0, 10.0, size=n)  # dropoff at 0, one side
            coords = [[float(p)] for p in positions] + [[0.0]]
            base = ss.Instance(dist=ss.from_euclidean(coords), n=n,
                               dropoff_mode="single", alpha_op=1.0,
                               alphas=(1.0,) * n)
        inst = with_regime(base, "infinite")
        for perm in itertools.permutations(range(1, n + 1)):
            route = ss.Route.single_dropoff(perm)
            feasible = ss.sir_feasible(inst, route).feasible
            detours = ss.single_dropoff_detours(inst, route)
            scale = max(inst.direct_distance(p) for p in perm)
            zero_detour = all(d <= 1e-9 * scale for d in detours)
            if feasible != zero_detour:
                failures.append((k, perm, "feasible != zero detour"))
            if feasible:
                feasible_seen += 1
                gamma = ss.starvation_report(inst, route).route_factor
                if abs(gamma - 1.0) > 1e-12:
                    failures.append((k, perm, f"gamma {gamma}"))
    ok = not failures
    record(
        5, "dominant-weight regime", ok,
        f"{feasible_seen} zero-detour routes found, {len(failures)} failures",
    )
    assert feasible_seen > 0  # the colinear half guarantees sweeps exist
    assert not failures, failures[:5]


# ---------------------------------------------------------------------------
# 6. fair-share characterization
# ---------------------------------------------------------------------------

def test_criterion_6_fair_share_characterization():
    rng = np.random.default_rng(606)
    failures = []

    # ratio verification on 100 random feasible (instance, beta) pairs
    for _ in range(100):
        n = int(rng.integers(2, 7))
        inst = random_feasible_instance(rng, n)
        route = ss.Route.single_dropoff(range(1, n + 1))
        betas = [float(b) for b in rng.uniform(0.0, 1.0, size=n - 1)]
        table = ss.beta_fair_table(inst, route, betas)
        ok, _ = ss.verify_fairness_ratios(inst, route, table, betas)
        if not ok:
            failures.append(("ratios", n))

    # segment-split table equals the harmonic-beta table elementwise
    for _ in range(40):
        n = int(rng.integers(2, 7))
        inst = random_feasible_instance(rng, n, equal_rates=True)
        route = ss.Route.single_dropoff(range(1, n + 1))
        xc = ss.xc_table(inst, route)
        bt = ss.beta_fair_table(inst, route, [1.0 / j for j in range(2, n + 1)])
        for j in range(1, n + 1):
            for i in range(1, j + 1):
                a, b = xc.value(i, j), bt.value(i, j)
                if abs(a - b) > 1e-9 * max(1.0, abs(a), abs(b)):
                    failures.append(("xc", n, i, j, a, b))

    # extreme-scheme identities hold exactly
    for _ in range(30):
        n = int(rng.integers(2, 6))
        inst = random_feasible_instance(rng, n)
        route = ss.Route.single_dropoff(range(1, n + 1))
        detours = ss.single_dropoff_detours(inst, route)
        t0 = ss.beta_fair_table(inst, route, [0.0] * (n - 1))
        t1 = ss.beta_fair_table(inst, route, [1.0] * (n - 1))
        for j in range(2, n + 1):
            for i in range(1, j):
                expected = t0.value(i, j - 1) - inst.alphas[i - 1] * detours[j - 2]
                if t0.value(i, j) != expected:
                    failures.append(("beta0-transfer", n, i, j))
            if t1.value(j, j) != inst.alpha_op * inst.direct_distance(j):
                failures.append(("beta1-fare", n, j))

    ok = not failures
    record(6, "fair-share characterization", ok, f"{len(failures)} failures")
    assert not failures, failures[:5]


# ---------------------------------------------------------------------------
# 7. hardness-reduction cross-checks
# ---------------------------------------------------------------------------

def test_criterion_7_reduction_cross_checks():
    rng = np.random.default_rng(707)
    failures = []

    graphs = [
        (3, [(1, 2), (2, 3)]),          # path
        (3, [(1, 2), (1, 3), (2, 3)]),  # complete
        (2, []),                        # edgeless
    ]
    while len(graphs) < 200:
        graphs.append(random_graph(rng, int(rng.integers(2, 8))))
    for n_vertices, edges in graphs:
        inst = ss.reduce_hampath(n_vertices, edges)
        found = len(ss.enumerate_sir_routes(inst).routes)
        expected = count_directed_hamiltonian_paths(n_vertices, edges)
        if found != expected:
            failures.append(("hampath", n_vertices, edges, found, expected))

    for _ in range(30):
        n = int(rng.integers(2, 8))
        pts = rng.uniform(0.0, 10.0, size=(n, 2))
        table = ss.from_euclidean(pts)
        inst = ss.reduce_path_tsp(table)
        big_l = inst.direct_distance(1)
        _, dist = ss.opt_sir_route(inst)
        oracle = brute_force_path_tsp(table.entries.tolist())
        if dist != oracle + big_l:  # same fold order, exact
            failures.append(("path-tsp", n, dist, oracle + big_l))

    ok = not failures
    record(7, "hardness-reduction cross-checks", ok,
           f"{len(graphs)} graphs + 30 metrics, {len(failures)} failures")
    assert not failures, failures[:5]


# ---------------------------------------------------------------------------
# 8. allocation correctness and runtime
# ---------------------------------------------------------------------------

def test_criterion_8_allocation():
    rng = np.random.default_rng(808)
    failures = []
    for _ in range(200):
        n = int(rng.integers(1, 9))
        inst = random_euclidean_instance(rng, n)
        fast = ss.optimal_allocation(inst)  # the dual certificate checks every count it weighs
        oracle = ss.brute_force_allocation(inst)
        if abs(fast.total_miles - oracle.total_miles) > 1e-9 * max(1.0, oracle.total_miles):
            failures.append((n, fast.total_miles, oracle.total_miles))

    big = random_euclidean_instance(rng, 50)
    start = time.perf_counter()
    ss.optimal_allocation(big)
    elapsed = time.perf_counter() - start

    ok = not failures and elapsed < 1.0
    record(8, "allocation vs oracle + runtime", ok,
           f"{len(failures)} cost mismatches, n=50 sweep {elapsed:.3f}s")
    assert not failures, failures[:5]
    assert elapsed < 1.0, f"n=50 allocation took {elapsed:.3f}s"


# ---------------------------------------------------------------------------
# 9. line-metric verdict agrees with enumeration
# ---------------------------------------------------------------------------

def test_criterion_9_line_metric_verdict():
    rng = np.random.default_rng(909)
    failures = []
    interior_cases = 0
    for k in range(500):
        n = int(rng.integers(1, 8))
        interior = bool(k % 2) and n >= 2
        positions, dropoff = random_line_positions(rng, n, interior)
        if interior:
            interior_cases += 1
        verdict = ss.line_metric_verdict(positions, dropoff)
        inst = ss.line_instance(positions, dropoff)
        enumerated = ss.enumerate_sir_routes(inst).routes
        if (verdict is not None) != bool(enumerated):
            failures.append((positions, dropoff, verdict, len(enumerated)))
        elif verdict is not None:
            if not ss.sir_feasible(inst, verdict).feasible:
                failures.append((positions, dropoff, "sweep route infeasible"))
            if verdict.pickup_order not in {r.pickup_order for r in enumerated}:
                failures.append((positions, dropoff, "sweep route not enumerated"))
    ok = not failures
    record(9, "line-metric verdict", ok,
           f"500 instances ({interior_cases} interior), {len(failures)} failures")
    assert interior_cases > 100
    assert not failures, failures[:5]
