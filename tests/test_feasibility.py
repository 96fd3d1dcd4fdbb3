import itertools
import math

import numpy as np
import pytest

import sirshare as ss
from sirshare.errors import BudgetBalanceError, InfeasibleRouteError, MalformedInputError

from corpus import (
    random_euclidean_instance,
    random_feasible_instance,
    random_multi_instance,
    random_multi_route,
)


def n2_instance(alpha_op=1.0, alphas=(1.0, 1.0)):
    # S1D=10, S2D=6, S1S2=5
    mat = np.array([[0.0, 5.0, 10.0], [5.0, 0.0, 6.0], [10.0, 6.0, 0.0]])
    table = ss.DistanceTable.from_matrix(mat)
    return ss.Instance(dist=table, n=2, dropoff_mode="single",
                       alpha_op=alpha_op, alphas=alphas)


def grid_multi_instance():
    # pickups on y=0 at x=0,1,2; dropoffs directly above on y=1
    coords = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0),
              (0.0, 1.0), (1.0, 1.0), (2.0, 1.0)]
    table = ss.from_euclidean(coords)
    return ss.Instance(dist=table, n=3, dropoff_mode="multi",
                       alpha_op=1.0, alphas=(1.0, 1.0, 1.0))


# ---------------------------------------------------------------------------
# conditional_route
# ---------------------------------------------------------------------------

def test_conditional_route_single_dropoff_prefix():
    route = ss.Route.single_dropoff([1, 2, 3])
    cut = ss.conditional_route(route, 2)
    assert cut.pickup_order == (1, 2)
    assert cut.events == (("P", 1), ("P", 2), ("D", 1), ("D", 2))


def test_conditional_route_full_is_identity():
    route = ss.Route.single_dropoff([2, 3, 1])
    assert ss.conditional_route(route, 3) == route


def test_conditional_route_multi_deletes_later_riders():
    route = ss.Route(events=(("P", 1), ("P", 2), ("D", 2), ("P", 3),
                             ("D", 1), ("D", 3)))
    cut = ss.conditional_route(route, 2)
    assert cut.events == (("P", 1), ("P", 2), ("D", 2), ("D", 1))


def test_conditional_route_stage_out_of_range():
    route = ss.Route.single_dropoff([1, 2])
    with pytest.raises(MalformedInputError):
        ss.conditional_route(route, 3)


# ---------------------------------------------------------------------------
# stage_costs
# ---------------------------------------------------------------------------

def test_stage_costs_multi_hand_summed():
    inst = grid_multi_instance()
    route = ss.Route(events=(("P", 1), ("P", 2), ("D", 2), ("P", 3),
                             ("D", 1), ("D", 3)))
    costs = ss.stage_costs(inst, route)
    # stage 2 conditional route: P1(0,0) P2(1,0) D2(1,1) D1(0,1): three unit legs
    assert costs.d[2] == pytest.approx(3.0)
    assert costs.d_i[1][2] == pytest.approx(3.0)
    assert costs.d_i[2][2] == pytest.approx(1.0)
    assert costs.ic[1][2] == pytest.approx(2.0)  # traveled 3 vs direct 1
    assert costs.ic[2][2] == pytest.approx(0.0)
    # full route: P1 P2 D2 P3 D1 D3
    d_full = 1.0 + 1.0 + math.sqrt(2.0) + math.sqrt(5.0) + 2.0
    assert costs.d[3] == pytest.approx(d_full)


def test_stage_costs_last_arrival_example_structure():
    rng = np.random.default_rng(3)
    inst = random_euclidean_instance(rng, 3)
    route = ss.Route.single_dropoff([1, 2, 3])
    costs = ss.stage_costs(inst, route)
    d12 = inst.pickup_distance(1, 2)
    d23 = inst.pickup_distance(2, 3)
    s3d = inst.direct_distance(3)
    s1d = inst.direct_distance(1)
    assert costs.ic[1][3] == pytest.approx(
        inst.alphas[0] * (d12 + d23 + s3d - s1d), rel=1e-12
    )
    assert costs.ic[3][3] == pytest.approx(0.0, abs=1e-12)


def test_stage_costs_n1():
    inst = ss.generate_sqrt_tight_instance(1, ell=4.0)
    costs = ss.stage_costs(inst, ss.Route.single_dropoff([1]))
    assert costs.oc[1] == pytest.approx(4.0)
    assert costs.ic[1][1] == pytest.approx(0.0)


def test_stage_costs_n2_hand_values():
    inst = n2_instance()
    costs = ss.stage_costs(inst, ss.Route.single_dropoff([1, 2]))
    assert costs.d[2] == pytest.approx(11.0)
    assert costs.ic[1][2] == pytest.approx(1.0)


def test_stage_costs_nonnegative_inconvenience_on_metric():
    rng = np.random.default_rng(11)
    for _ in range(20):
        inst = random_euclidean_instance(rng, 4)
        for perm in itertools.permutations(range(1, 5)):
            costs = ss.stage_costs(inst, ss.Route.single_dropoff(perm))
            for j in range(1, 5):
                for i in range(1, j + 1):
                    assert costs.ic[i][j] >= -1e-9


def test_stage_costs_oc_consistency():
    rng = np.random.default_rng(13)
    inst = random_euclidean_instance(rng, 5)
    route = ss.Route.single_dropoff([3, 1, 5, 2, 4])
    costs = ss.stage_costs(inst, route)
    for j in range(1, 6):
        assert costs.oc[j] == pytest.approx(inst.alpha_op * costs.d[j], rel=1e-12)


# ---------------------------------------------------------------------------
# is_ir / is_sir
# ---------------------------------------------------------------------------

def test_is_ir_witness_table_passes():
    inst = n2_instance()
    route = ss.Route.single_dropoff([1, 2])
    table = ss.witness_scheme(inst, route)
    ok, violations = ss.is_ir(inst, route, table)
    assert ok and not violations


def test_is_ir_detects_overcharged_first_rider():
    inst = n2_instance()
    route = ss.Route.single_dropoff([1, 2])
    table = ss.CostShareTable(shares=((10.0,), (11.0, 0.0)))
    ok, violations = ss.is_ir(inst, route, table)
    assert not ok
    assert violations == [(1, pytest.approx(2.0))]


def test_is_ir_single_rider_equality():
    inst = ss.generate_sqrt_tight_instance(1, ell=2.0)
    route = ss.Route.single_dropoff([1])
    table = ss.CostShareTable(shares=((2.0,),))
    ok, _ = ss.is_ir(inst, route, table)
    assert ok


def test_is_ir_budget_balance_precondition_names_stage():
    inst = n2_instance()
    route = ss.Route.single_dropoff([1, 2])
    table = ss.CostShareTable(shares=((10.0,), (5.0, 5.0)))  # stage 2 sums to 10, not 11
    with pytest.raises(BudgetBalanceError) as err:
        ss.is_ir(inst, route, table)
    assert err.value.stage == 2


def test_is_sir_witness_true_and_overpriced_incoming_false():
    inst = n2_instance()
    route = ss.Route.single_dropoff([1, 2])
    assert ss.is_sir(inst, route, ss.witness_scheme(inst, route))[0]
    bad = ss.CostShareTable(shares=((10.0,), (4.0, 7.0)))  # rider 2 above private fare
    ok, violations = ss.is_sir(inst, route, bad)
    assert not ok
    assert (2, 2, pytest.approx(1.0)) in violations


def test_is_sir_false_for_every_scheme_on_infeasible_route():
    inst = n2_instance()
    route = ss.Route.single_dropoff([2, 1])  # detour 9 > budget 5
    oc = 5.0 + 10.0
    for split in (0.0, 3.0, 7.5, 15.0, -2.0):
        table = ss.CostShareTable(shares=((6.0,), (split, oc - split)))
        assert not ss.is_sir(inst, route, table)[0]


# ---------------------------------------------------------------------------
# sir_feasible
# ---------------------------------------------------------------------------

def test_sir_feasible_three_rider_conditions_match_closed_form():
    rng = np.random.default_rng(23)
    for _ in range(20):
        inst = random_euclidean_instance(rng, 3, alpha_low=0.1, alpha_high=3.0)
        route = ss.Route.single_dropoff([1, 2, 3])
        result = ss.sir_feasible(inst, route)
        a_op = inst.alpha_op
        a1, a2, _ = inst.alphas
        d12, d23 = inst.pickup_distance(1, 2), inst.pickup_distance(2, 3)
        s1, s2, s3 = (inst.direct_distance(i) for i in (1, 2, 3))
        cond2 = d12 + s2 - s1 <= a_op / (a_op + a1) * s2 + 1e-9
        cond3 = d23 + s3 - s2 <= a_op / (a_op + a1 + a2) * s3 + 1e-9
        assert result.feasible == (cond2 and cond3)


def test_sir_feasible_n2_forward_and_reverse():
    inst = n2_instance()
    fwd = ss.sir_feasible(inst, ss.Route.single_dropoff([1, 2]))
    assert fwd.feasible
    assert fwd.stages[0].lhs == pytest.approx(1.0)
    assert fwd.stages[0].rhs == pytest.approx(3.0)
    rev = ss.sir_feasible(inst, ss.Route.single_dropoff([2, 1]))
    assert not rev.feasible
    assert rev.stages[0].lhs == pytest.approx(9.0)
    assert rev.stages[0].rhs == pytest.approx(5.0)


def test_sir_feasible_single_rider_vacuous():
    inst = ss.generate_sqrt_tight_instance(1)
    result = ss.sir_feasible(inst, ss.Route.single_dropoff([1]))
    assert result.feasible and result.slacks == ()


def test_sir_feasible_zero_and_infinite_regime_bounds():
    from corpus import with_regime

    inst = n2_instance()
    route = ss.Route.single_dropoff([1, 2])
    zero = ss.sir_feasible(with_regime(inst, "zero"), route)
    assert zero.stages[0].rhs == pytest.approx(6.0)  # full direct distance
    infinite = ss.sir_feasible(with_regime(inst, "infinite"), route)
    assert infinite.stages[0].rhs == 0.0
    assert not infinite.feasible  # detour 1 > 0


def multi_dropoff_twin(inst):
    """The instance with one dropoff point per rider, every one of them at D."""
    points = list(range(inst.n)) + [inst.n] * inst.n
    table = ss.DistanceTable(entries=inst.dist.entries[np.ix_(points, points)],
                             metric_flag=inst.dist.metric_flag)
    return ss.Instance(dist=table, n=inst.n, dropoff_mode="multi", alpha_op=inst.alpha_op,
                       alphas=inst.alphas, regime=inst.regime)


def test_sir_feasible_general_form_agrees_on_single_dropoff():
    # the closed form on each instance against the stage-cost form on its
    # twin; the feasible-by-construction instances give both verdicts
    rng = np.random.default_rng(31)
    feasible = 0
    for _ in range(15):
        for inst in (random_euclidean_instance(rng, 4, alpha_low=0.1),
                     random_feasible_instance(rng, 4)):
            twin = multi_dropoff_twin(inst)
            for perm in itertools.permutations(range(1, 5)):
                route = ss.Route.single_dropoff(perm)
                fast = ss.sir_feasible(inst, route)
                general = ss.sir_feasible(twin, route)
                assert fast.first_violation == general.first_violation
                feasible += fast.feasible
    assert feasible > 0


# ---------------------------------------------------------------------------
# witness_scheme
# ---------------------------------------------------------------------------

def test_witness_single_rider():
    inst = ss.generate_sqrt_tight_instance(1, ell=3.0)
    table = ss.witness_scheme(inst, ss.Route.single_dropoff([1]))
    assert table.to_rows() == [[3.0]]


def test_witness_n2_values():
    inst = n2_instance()
    table = ss.witness_scheme(inst, ss.Route.single_dropoff([1, 2]))
    assert table.value(1, 2) == pytest.approx(9.0)
    assert table.value(2, 2) == pytest.approx(2.0)
    assert sum(table.shares[1]) == pytest.approx(11.0)
    assert table.value(2, 2) <= 6.0


def test_witness_infeasible_raises_with_stage():
    inst = n2_instance()
    with pytest.raises(InfeasibleRouteError) as err:
        ss.witness_scheme(inst, ss.Route.single_dropoff([2, 1]))
    assert err.value.stage == 2


def test_witness_budget_balanced_at_every_stage():
    rng = np.random.default_rng(37)
    checked = 0
    while checked < 10:
        inst = random_euclidean_instance(rng, 5, alpha_low=0.1)
        for perm in itertools.permutations(range(1, 6)):
            route = ss.Route.single_dropoff(perm)
            if not ss.sir_feasible(inst, route).feasible:
                continue
            table = ss.witness_scheme(inst, route)
            costs = ss.stage_costs(inst, route)
            for res, oc in zip(ss.budget_balance_residuals(table, costs),
                               costs.oc[1:]):
                assert abs(res) <= 1e-9 * max(1.0, oc)
            checked += 1
            break


def test_witness_disutility_monotone_and_flat_for_existing():
    inst = ss.generate_lower_bound_instance(4)
    route = ss.Route.single_dropoff([1, 2, 3, 4])
    table = ss.witness_scheme(inst, route)
    trace = ss.disutility_trace(inst, route, table)
    for i in range(1, 5):
        row = trace.row(i)
        for j in range(1, 5):
            assert row[j] <= row[j - 1] + 1e-9
            if j > i:  # existing riders are exactly compensated
                assert row[j] == pytest.approx(row[j - 1], rel=1e-12)


def test_prefix_property_on_feasible_routes():
    rng = np.random.default_rng(41)
    found = 0
    while found < 8:
        inst = random_euclidean_instance(rng, 5, alpha_low=0.1)
        for perm in itertools.permutations(range(1, 6)):
            route = ss.Route.single_dropoff(perm)
            if ss.sir_feasible(inst, route).feasible:
                for k in range(1, 5):
                    prefix_inst = _restrict(inst, perm[:k])
                    prefix_route = ss.Route.single_dropoff(range(1, k + 1))
                    assert ss.sir_feasible(prefix_inst, prefix_route).feasible
                found += 1
                break


def _restrict(inst, labels):
    """Sub-instance over the given pickup labels, preserving boarding order."""
    idx = [p - 1 for p in labels] + [inst.n]
    entries = inst.dist.entries[np.ix_(idx, idx)]
    table = ss.DistanceTable(entries=entries.copy(), metric_flag=inst.dist.metric_flag)
    return ss.Instance(dist=table, n=len(labels), dropoff_mode="single",
                       alpha_op=inst.alpha_op, alphas=inst.alphas[:len(labels)])


def test_equivalence_small_corpus_unrestricted_alphas():
    rng = np.random.default_rng(43)
    for _ in range(60):
        n = int(rng.integers(2, 6))
        inst = random_euclidean_instance(rng, n, alpha_low=0.0, alpha_high=3.0)
        for perm in itertools.permutations(range(1, n + 1)):
            route = ss.Route.single_dropoff(perm)
            verdict = ss.sir_feasible(inst, route).feasible
            try:
                table = ss.witness_scheme(inst, route)
                witness_ok = ss.is_sir(inst, route, table)[0]
            except InfeasibleRouteError:
                witness_ok = False
            assert verdict == witness_ok


def test_equivalence_multi_dropoff_general_form():
    rng = np.random.default_rng(47)
    for _ in range(40):
        n = int(rng.integers(2, 5))
        inst = random_multi_instance(rng, n)
        route = random_multi_route(rng, n)
        verdict = ss.sir_feasible(inst, route).feasible
        try:
            table = ss.witness_scheme(inst, route)
            witness_ok = ss.is_sir(inst, route, table)[0]
        except InfeasibleRouteError:
            witness_ok = False
        assert verdict == witness_ok


# ---------------------------------------------------------------------------
# tolerance validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("rel", [math.nan, math.inf, -1e-9], ids=["nan", "inf", "negative"])
@pytest.mark.parametrize("check", [
    lambda inst, route, rel: ss.sir_feasible(inst, route, rel=rel),
    lambda inst, route, rel: ss.starvation_report(inst, route, rel=rel),
    lambda inst, route, rel: ss.validate_metric(inst.dist, rel),
], ids=["sir_feasible", "starvation_report", "validate_metric"])
def test_entry_points_reject_bad_tolerance(check, rel):
    inst = ss.generate_sqrt_tight_instance(5)
    route = ss.Route.single_dropoff((5, 4, 3, 2, 1))  # feasible at the default tolerance
    assert ss.sir_feasible(inst, route).feasible
    with pytest.raises(MalformedInputError, match="relative tolerance"):
        check(inst, route, rel)


@pytest.mark.parametrize("rel", [math.nan, math.inf, -1e-9], ids=["nan", "inf", "negative"])
@pytest.mark.parametrize("check", [
    lambda inst, route, table, rel: ss.is_sir(inst, route, table, rel=rel),
    lambda inst, route, table, rel: ss.is_ir(inst, route, table, rel=rel),
    lambda inst, route, table, rel: ss.reverse_meter(inst, route, table, rel=rel),
    lambda inst, route, table, rel: ss.benefit_breakdown(inst, route, table, rel=rel),
    lambda inst, route, table, rel: ss.xc_table(inst, route, rel=rel),
    lambda inst, route, table, rel: ss.beta_fair_table(inst, route, [0.5], rel=rel),
    lambda inst, route, table, rel: ss.verify_fairness_ratios(inst, route, table, [0.5], rel=rel),
    lambda inst, route, table, rel: ss.extract_allocation(
        ss.build_network(inst, 1), ss.min_cost_max_flow(ss.build_network(inst, 1)), rel=rel),
    lambda inst, route, table, rel: ss.optimal_allocation(inst, rel=rel),
], ids=["is_sir", "is_ir", "reverse_meter", "benefit_breakdown", "xc_table",
        "beta_fair_table", "verify_fairness_ratios", "extract_allocation",
        "optimal_allocation"])
def test_table_checkers_reject_bad_tolerance(check, rel):
    inst = n2_instance()
    route = ss.Route.single_dropoff((1, 2))
    overpriced = ss.CostShareTable(shares=((10.0,), (4.0, 7.0)))  # balanced, not SIR
    assert not ss.is_sir(inst, route, overpriced)[0]
    check(inst, route, overpriced, 1e-9)  # the same call runs at a usable tolerance
    with pytest.raises(MalformedInputError, match="relative tolerance"):
        check(inst, route, overpriced, rel)
