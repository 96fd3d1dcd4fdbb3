import copy
import dataclasses
import itertools
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sirshare as ss
from sirshare import feasibility
from sirshare.errors import (
    BudgetBalanceError,
    IndeterminateRatioError,
    InfeasibleRouteError,
    MalformedInputError,
)
from sirshare.numeric import approx_leq

from corpus import (
    line_multi_case,
    random_euclidean_instance,
    random_feasible_instance,
    random_multi_instance,
    random_multi_route,
    with_regime,
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


@pytest.mark.parametrize("j", [1.5, 1.0, "1", True], ids=["fraction", "whole-float", "str", "bool"])
def test_conditional_route_stage_must_be_an_integer(j):
    route = ss.Route.single_dropoff([1, 2])
    with pytest.raises(MalformedInputError, match="stage j must be an integer"):
        ss.conditional_route(route, j)


@pytest.mark.parametrize("order", [[1, 2], [1, 1, 2], [1, 9, 2], [1, 2, 3, 4]],
                         ids=["short", "repeat", "unknown-label", "long"])
def test_single_dropoff_detours_validates_the_route(order):
    inst = ss.line_instance([3.0, 2.0, 1.0], 0.0)
    assert ss.single_dropoff_detours(inst, ss.Route.single_dropoff([1, 2, 3])) == (0.0, 0.0)
    with pytest.raises(MalformedInputError, match="exactly once"):
        ss.single_dropoff_detours(inst, ss.Route.single_dropoff(order))


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
# one ledger per (instance, route)
# ---------------------------------------------------------------------------

def test_stage_costs_are_kept_per_route():
    inst = ss.generate_sqrt_tight_instance(6)
    route = ss.Route.single_dropoff([1, 2, 3, 4, 5, 6])
    assert ss.stage_costs(inst, route) is ss.stage_costs(inst, route)


def test_a_second_instance_gets_its_own_costs():
    route = ss.Route.single_dropoff([2, 1, 3])
    first, second = ss.generate_sqrt_tight_instance(3), ss.generate_lower_bound_instance(3)
    for inst in (first, second, first):
        costs = ss.stage_costs(inst, route)
        assert costs == ss.stage_costs(inst, ss.Route.single_dropoff([2, 1, 3]))
        assert ss.stage_costs(inst, route) is costs
    assert ss.stage_costs(first, route) != ss.stage_costs(second, route)
    with pytest.raises(MalformedInputError):  # a kept ledger never skips the route check
        ss.stage_costs(ss.generate_sqrt_tight_instance(4), route)


def _ledger_pass(inst, route):
    """Every checker on one (instance, route), in the order of a ledger op."""
    table = ss.witness_scheme(inst, route)
    out = [table, ss.is_sir(inst, route, table), ss.is_ir(inst, route, table),
           ss.reverse_meter(inst, route, table), ss.disutility_trace(inst, route, table)]
    if inst.dropoff_mode == "single":
        betas = [0.5] * (inst.n - 1)
        beta = ss.beta_fair_table(inst, route, betas)
        out += [beta, ss.benefit_breakdown(inst, route, beta),
                ss.verify_fairness_ratios(inst, route, beta, betas)]
    else:
        out.append(ss.sir_feasible(inst, route))
    for j in range(2, inst.n + 1):
        try:
            out.append(ss.neutral_beta(inst, route, j))
        except IndeterminateRatioError as exc:  # no rider is inconvenienced at stage j
            out.append(repr(exc))
    return out


def _multi_ledger_case():
    """A feasible multi-dropoff route: every leg heads towards the origin,
    and two riders leave before the last boarding."""
    coords = [1.0, 2.0, 3.0, 4.0, 0.0, 1.5, 0.5, 2.5]  # pickups 1..4, then their dropoffs
    inst = ss.Instance(dist=ss.from_euclidean(coords), n=4, dropoff_mode="multi",
                       alpha_op=1.0, alphas=(1.0, 2.0, 0.5, 1.0))
    route = ss.Route(events=(("P", 4), ("P", 3), ("D", 1), ("P", 2),
                             ("D", 3), ("P", 1), ("D", 2), ("D", 4)))
    return inst, route


@pytest.mark.parametrize("case", ["single", "multi"])
def test_one_ledger_pass_builds_stage_costs_once(case, monkeypatch):
    if case == "single":
        inst = random_feasible_instance(np.random.default_rng(5), 12)
        route = ss.Route.single_dropoff(range(1, 13))
    else:
        inst, route = _multi_ledger_case()
    built = []
    init = ss.StageCosts.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ss.StageCosts, "__init__", counted)
    _ledger_pass(inst, route)
    _ledger_pass(inst, route)
    assert len(built) == 1


def test_ledger_results_do_not_depend_on_the_first_checker():
    inst = random_feasible_instance(np.random.default_rng(9), 8)
    order = range(1, 9)
    table = ss.witness_scheme(inst, ss.Route.single_dropoff(order))
    checks = {
        "stage_costs": lambda r: ss.stage_costs(inst, r),
        "witness": lambda r: ss.witness_scheme(inst, r),
        "is_sir": lambda r: ss.is_sir(inst, r, table),
        "is_ir": lambda r: ss.is_ir(inst, r, table),
        "reverse_meter": lambda r: ss.reverse_meter(inst, r, table),
        "neutral_beta": lambda r: ss.neutral_beta(inst, r, 5),
    }
    fresh = {name: repr(check(ss.Route.single_dropoff(order))) for name, check in checks.items()}
    for first in checks:
        route = ss.Route.single_dropoff(order)
        names = [first] + [name for name in checks if name != first]
        assert {name: repr(checks[name](route)) for name in names} == fresh, first


def test_an_order_only_route_derives_no_events_in_its_ledger():
    inst = random_feasible_instance(np.random.default_rng(21), 7)
    route = ss.Route.single_dropoff(range(1, 8))
    table = ss.witness_scheme(inst, route)
    ss.is_sir(inst, route, table)
    ss.is_ir(inst, route, table)
    meter = ss.reverse_meter(inst, route, table)
    assert "events" not in vars(route)
    assert meter == ss.reverse_meter(inst, ss.Route(events=route.events), table)


@pytest.mark.parametrize("build", [ss.Route.single_dropoff, lambda order: ss.Route(
    events=tuple(("P", p) for p in order) + tuple(("D", r) for r in range(1, len(order) + 1)))],
    ids=["single_dropoff", "events"])
def test_a_route_pickles_and_copies_without_its_ledger(build):
    inst = random_feasible_instance(np.random.default_rng(20), 20)
    route = build(range(1, 21))
    before = len(pickle.dumps(route))
    _ledger_pass(inst, route)
    assert "_ledger" in vars(route)
    for copied in (pickle.loads(pickle.dumps(route)), copy.deepcopy(route), copy.copy(route)):
        assert copied == route and hash(copied) == hash(route) and repr(copied) == repr(route)
        assert "_ledger" not in vars(copied)
    assert len(pickle.dumps(route)) <= before
    assert ss.stage_costs(inst, copy.deepcopy(route)) == ss.stage_costs(inst, route)


# ---------------------------------------------------------------------------
# one verdict per (instance, route, rel)
# ---------------------------------------------------------------------------

@pytest.fixture
def stage_checks(monkeypatch):
    """The (instance, route, rel) of every stage walk ``sir_feasible`` makes."""
    walks = []
    walk = feasibility._stage_check

    def counted(instance, route, rel):
        walks.append((instance, route, rel))
        return walk(instance, route, rel)

    monkeypatch.setattr(feasibility, "_stage_check", counted)
    return walks


def _events_of(order):
    return tuple(("P", p) for p in order) + tuple(("D", r) for r in range(1, len(order) + 1))


@pytest.mark.parametrize("case", ["single", "single-events", "multi"])
def test_one_stage_walk_per_instance_route_and_tolerance(case, stage_checks):
    if case == "multi":
        inst, route = _multi_ledger_case()
    else:
        inst = random_feasible_instance(np.random.default_rng(5), 8)
        build = ss.Route.single_dropoff if case == "single" else ss.Route
        route = build(range(1, 9) if case == "single" else _events_of(range(1, 9)))
    first = ss.sir_feasible(inst, route)
    _ledger_pass(inst, route)  # witness_scheme and beta_fair_table ask again
    if inst.dropoff_mode == "single":
        ss.starvation_report(inst, route)
    again = ss.sir_feasible(inst, route)
    assert stage_checks == [(inst, route, 1e-9)]
    assert again is not first and "stages" not in vars(again)  # a fresh, unread result
    assert again == first == ss.sir_feasible(inst, copy.copy(route))


def test_a_new_tolerance_or_instance_walks_the_stages_again(stage_checks):
    order = (2, 1, 3)
    route = ss.Route(events=_events_of(order))
    first, second = ss.generate_sqrt_tight_instance(3), ss.generate_lower_bound_instance(3)
    calls = [(first, 1e-9), (first, 0.0), (first, 0.0), (second, 0.0), (second, 0.0),
             (first, 0.0), (first, 1e-9)]
    for inst, rel in calls:
        assert ss.sir_feasible(inst, route, rel=rel) == ss.sir_feasible(
            inst, ss.Route.single_dropoff(order), rel=rel)
    walked = [(inst, rel) for inst, r, rel in stage_checks if r is route]
    assert walked == [calls[k] for k in (0, 1, 3, 5, 6)]
    with pytest.raises(MalformedInputError):  # a kept verdict never skips the route check
        ss.sir_feasible(ss.generate_sqrt_tight_instance(4), route)
    for rel in (True, np.True_, -1.0):  # nor the tolerance check, even where True == 1
        ss.sir_feasible(first, route, rel=1)
        with pytest.raises(MalformedInputError, match="relative tolerance"):
            ss.sir_feasible(first, route, rel=rel)


def test_an_infeasible_route_is_walked_once_and_fails_at_its_stage(stage_checks):
    inst = ss.generate_lower_bound_instance(4)
    route = ss.Route(events=_events_of((4, 3, 2, 1)))
    stage = ss.sir_feasible(inst, route).first_violation
    for build in (ss.witness_scheme, lambda i, r: ss.beta_fair_table(i, r, [0.5] * 3)):
        with pytest.raises(InfeasibleRouteError) as info:
            build(inst, route)
        assert info.value.stage == stage
    assert len(stage_checks) == 1


@pytest.mark.parametrize("build", [ss.Route.single_dropoff, lambda order: ss.Route(
    events=_events_of(order))], ids=["single_dropoff", "events"])
def test_a_route_pickles_and_copies_without_its_verdict(build, stage_checks):
    inst = random_feasible_instance(np.random.default_rng(20), 9)
    route = build(range(1, 10))
    before = pickle.dumps(route)
    verdict = ss.sir_feasible(inst, route)
    assert "_verdict" in vars(route)
    for copied in (pickle.loads(pickle.dumps(route)), copy.deepcopy(route), copy.copy(route)):
        assert copied == route and hash(copied) == hash(route) and repr(copied) == repr(route)
        assert not {"_verdict", "_shape", "_ledger"} & set(vars(copied))
        assert ss.sir_feasible(inst, copied) == verdict
    assert pickle.dumps(route) == before
    assert [r is route for _, r, _ in stage_checks] == [True, False, False, False]


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


def _lean_verdict_cases():
    rng = np.random.default_rng(43)
    for n in (1, 2, 4, 5):
        base = random_euclidean_instance(rng, n, alpha_low=0.5)
        for inst in (base, with_regime(base, "zero"), with_regime(base, "infinite")):
            for perm in itertools.islice(itertools.permutations(range(1, n + 1)), 0, None, 7):
                yield inst, ss.Route.single_dropoff(perm)
    yield random_feasible_instance(rng, 5), ss.Route.single_dropoff(range(1, 6))
    for n in (2, 3, 4):
        for _ in range(4):
            inst = random_multi_instance(rng, n)
            route = random_multi_route(rng, n)
            for regime in ("finite", "zero", "infinite"):
                yield with_regime(inst, regime), route
    for n in (3, 4, 6):  # feasible with slack at every stage
        yield random_feasible_instance(rng, n), ss.Route.single_dropoff(range(1, n + 1))


_VIEWS = {
    "eq": lambda r: (r, r.feasible, r.first_violation),
    "hash": hash,
    "repr": repr,
    "slacks": lambda r: r.slacks,
    "pickle": lambda r: pickle.loads(pickle.dumps(r)),
    "deepcopy": copy.deepcopy,
}


def test_unread_stages_match_an_eager_result():
    # sir_feasible builds its stages on first read; every view of a result
    # must equal that of the constructor's result, before that read and after
    seen = {True: 0, False: 0}
    for inst, route in _lean_verdict_cases():
        for rel in (1e-9, 0.0):
            probe = ss.sir_feasible(inst, route, rel=rel)
            stages = probe.stages
            assert [s.stage for s in stages] == list(range(2, inst.n + 1))
            if inst.dropoff_mode == "single":
                order = route.pickup_order
                assert [(s.lhs, s.rhs) for s in stages] == [
                    (inst.detour[a][b], inst.budget[j][b])
                    for j, a, b in zip(range(2, inst.n + 1), order, order[1:])]
            fails = [s.stage for s in stages if not approx_leq(s.lhs, s.rhs, rel)]
            assert probe.first_violation == (fails[0] if fails else None)
            eager = ss.FeasibilityResult(not fails, stages, probe.first_violation)
            assert eager == ss.FeasibilityResult(feasible=not fails, stages=stages,
                                                 first_violation=probe.first_violation)
            seen[eager.feasible] += 1
            for name, view in _VIEWS.items():
                result = ss.sir_feasible(inst, route, rel=rel)
                assert "stages" not in vars(result)
                assert view(result) == view(eager), name
                assert "stages" in vars(result), name  # every view reads them
                assert view(result) == view(eager), name
    assert seen[True] > 10 and seen[False] > 10


def test_feasibility_result_stays_frozen():
    result = ss.sir_feasible(ss.generate_lower_bound_instance(3), ss.Route.single_dropoff([1, 2, 3]))
    for name in ("feasible", "stages", "first_violation"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(result, name, None)
    assert result.feasible and len(result.stages) == 2


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


def _shortcut_case(rng):
    """Route P1 P2 D1 D2 on a non-metric table in ``infinite``: rider 2 rides
    far shorter than their direct trip, so the riders' side is negative and
    the limit accepts the route; with rider 1's detour and weight drawn wide,
    the stored sensitivities accept it in some draws and not in others."""
    m = np.zeros((4, 4))
    ranges = {(0, 1): (5, 25), (0, 2): (5, 15), (0, 3): (1, 20),
              (1, 2): (0.05, 1), (1, 3): (20, 1000), (2, 3): (0.1, 3)}
    for (a, b), (lo, hi) in ranges.items():
        m[a, b] = m[b, a] = rng.uniform(lo, hi)
    alphas = (float(np.exp(rng.uniform(np.log(0.1), np.log(1000)))),
              float(np.exp(rng.uniform(np.log(0.01), np.log(10)))))
    inst = ss.Instance(dist=ss.DistanceTable.from_matrix(m), n=2, dropoff_mode="multi",
                       alpha_op=float(rng.uniform(0.5, 2.0)), alphas=alphas, regime="infinite")
    return inst, ss.Route(events=(("P", 1), ("P", 2), ("D", 1), ("D", 2)))


def _witness_cases():
    """Tight generators, every stage on its budget (also in ``infinite``, where
    the exponential instance's collinear boardings add no detour), the
    multi-dropoff corpus and non-metric ``infinite`` shortcuts."""
    for n in range(2, 40):
        rng = np.random.default_rng(n)
        aop = float(rng.uniform(0.5, 2.0))
        weights = [aop * float(rng.uniform(0.3, 3.0)) for _ in range(n)]
        exp_tight = ss.generate_exp_tight_instance(n)
        for inst in (ss.generate_lower_bound_instance(n),
                     ss.generate_lower_bound_instance(n, alpha_op=aop, alphas=weights),
                     ss.generate_sqrt_tight_instance(n), exp_tight,
                     with_regime(exp_tight, "infinite")):
            for order in (range(1, n + 1), range(n, 0, -1)):
                yield "tight", inst, ss.Route.single_dropoff(order)
    rng = np.random.default_rng(31)
    for k in range(120):
        n = 2 + k % 4
        inst, route = random_multi_instance(rng, n), random_multi_route(rng, n)
        line, line_route = line_multi_case(rng, n)
        for regime in ("finite", "zero", "infinite"):
            yield "multi", with_regime(inst, regime), route
            yield "multi", with_regime(line, regime), line_route
    for _ in range(200):
        yield ("shortcut", *_shortcut_case(rng))


@pytest.mark.parametrize("rel", [1e-9, 0.0], ids=["default", "exact"])
def test_witness_refuses_exactly_where_sir_feasible_rejects(rel):
    # the witness refuses exactly the routes sir_feasible rejects, at the same stage,
    # tight stages at rel=0 included; in ``infinite`` it also refuses, at the first
    # failing stage, a route the stored sensitivities reject (the ``finite`` verdict),
    # and every table it builds is SIR
    seen = dict.fromkeys(("built", "refused", "built infinite", "refused in the limit only"), 0)
    for family, inst, route in _witness_cases():
        stage = ss.sir_feasible(inst, route, rel=rel).first_violation
        limit_only = stage is None and inst.regime == "infinite"
        if limit_only:
            stage = ss.sir_feasible(with_regime(inst, "finite"), route, rel=rel).first_violation
        where = (family, route.to_tokens(), inst.regime)
        fresh = copy.copy(route)  # no kept verdict: the witness decides afresh
        try:
            table = ss.witness_scheme(inst, fresh, rel=rel)
        except InfeasibleRouteError as err:
            assert err.stage == stage is not None, where
            seen["refused in the limit only" if limit_only else "refused"] += 1
        else:
            assert stage is None, where
            # at rel=0 is_sir compares strictly, and the shares carry the rounding of the
            # stage costs they fold: a few tables here miss by an ulp, none by 1e-12
            assert ss.is_sir(inst, route, table, rel=rel or 1e-12)[0], where
            seen["built infinite" if inst.regime == "infinite" else "built"] += 1
    assert min(seen.values()) >= 20 and seen["built"] + seen["refused"] >= 500, seen


def test_witness_refuses_a_route_feasible_only_in_the_limit():
    # P1 P2 D1 D2: boarding 2 makes rider 1 ride 10.1 further and takes rider 2 home in
    # 1.1 against a direct 1000, so the unweighted riders' side is -988.8 and the limit
    # accepts; at the stored weights rider 1's 10.1 costs 10,100, and rider 2 may pay at
    # most about 2,000 (their fare of 1,000 plus the 998.9 their ride saves them)
    m = np.full((4, 4), 1000.0)
    np.fill_diagonal(m, 0.0)
    for a, b, d in ((0, 2, 10.0), (0, 1, 20.0), (1, 2, 0.1), (2, 3, 1.0)):
        m[a, b] = m[b, a] = d
    inst = ss.Instance(dist=ss.DistanceTable.from_matrix(m), n=2, dropoff_mode="multi",
                       alpha_op=1.0, alphas=(1000.0, 1.0), regime="infinite")
    route = ss.Route(events=(("P", 1), ("P", 2), ("D", 1), ("D", 2)))
    result = ss.sir_feasible(inst, route)
    assert result.feasible and result.stages[0].lhs == pytest.approx(-988.8)
    with pytest.raises(InfeasibleRouteError, match="only as the sensitivities grow") as err:
        ss.witness_scheme(inst, route)
    assert err.value.stage == 2
    assert not ss.sir_feasible(with_regime(inst, "finite"), route).feasible


def test_one_route_check_stays_quadratic_in_memory():
    # the check reads its route's n - 1 columns of the stage verdicts, never the
    # whole (n+1) x (n+1) x n table, which at n = 512 would take over 134 MB
    n = 512
    inst = ss.generate_exp_tight_instance(n)
    route = ss.Route.single_dropoff(range(1, n + 1))
    inst.detour, inst.budget  # the instance's own O(n**2) tables, built outside the trace
    tracemalloc.start()
    try:
        result = ss.sir_feasible(inst, route, rel=0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.feasible
    assert peak < 16 * 2 ** 20, peak


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

@pytest.mark.parametrize("rel", [math.nan, math.inf, -1e-9, "1e-9", None, True, np.True_],
                         ids=["nan", "inf", "negative", "str", "none", "bool", "numpy-bool"])
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


@pytest.mark.parametrize("rel", [math.nan, math.inf, -1e-9, "1e-9", None, True, np.True_],
                         ids=["nan", "inf", "negative", "str", "none", "bool", "numpy-bool"])
@pytest.mark.parametrize("check", [
    lambda inst, route, table, rel: ss.is_sir(inst, route, table, rel=rel),
    lambda inst, route, table, rel: ss.is_ir(inst, route, table, rel=rel),
    lambda inst, route, table, rel: ss.reverse_meter(inst, route, table, rel=rel),
    lambda inst, route, table, rel: ss.benefit_breakdown(inst, route, table, rel=rel),
    lambda inst, route, table, rel: ss.xc_table(inst, route, rel=rel),
    lambda inst, route, table, rel: ss.beta_fair_table(inst, route, [0.5], rel=rel),
    lambda inst, route, table, rel: ss.verify_fairness_ratios(inst, route, table, [0.5], rel=rel),
    lambda inst, route, table, rel: ss.optimal_allocation(inst, rel=rel),
], ids=["is_sir", "is_ir", "reverse_meter", "benefit_breakdown", "xc_table",
        "beta_fair_table", "verify_fairness_ratios", "optimal_allocation"])
def test_table_checkers_reject_bad_tolerance(check, rel):
    inst = n2_instance()
    route = ss.Route.single_dropoff((1, 2))
    overpriced = ss.CostShareTable(shares=((10.0,), (4.0, 7.0)))  # balanced, not SIR
    assert not ss.is_sir(inst, route, overpriced)[0]
    check(inst, route, overpriced, 1e-9)  # the same call runs at a usable tolerance
    with pytest.raises(MalformedInputError, match="relative tolerance"):
        check(inst, route, overpriced, rel)


# ---------------------------------------------------------------------------
# share-table input check
# ---------------------------------------------------------------------------

def _line_two(shares):
    return ss.line_instance([3, 2], 0), (1, 2), shares


def _nan_table(n):
    return ss.generate_lower_bound_instance(n), tuple(range(1, n + 1)), \
        tuple((math.nan,) * j for j in range(1, n + 1))


def _witness_plus_a_row():
    inst, order = ss.line_instance([3, 2], 0), (1, 2)
    shares = ss.witness_scheme(inst, ss.Route.single_dropoff(order)).shares
    return inst, order, shares + ((0.0, 0.0, 0.0),)


BAD_SHARE_TABLES = {
    "nan-n2": lambda: _nan_table(2),
    "nan-n4": lambda: _nan_table(4),
    "nan-n6": lambda: _nan_table(6),
    "inf": lambda: _line_two(((3.0,), (math.inf, 0.0))),
    "row-short": lambda: _line_two(((3.0,),)),
    "share-short": lambda: _line_two(((3.0,), (3.0,))),
    "extra-share": lambda: _line_two(((3.0,), (1.0, 2.0, 0.0))),
    "extra-row": _witness_plus_a_row,
    "str": lambda: _line_two(((3.0,), ("x", 3.0))),
    "none": lambda: _line_two(((3.0,), (1.0, None))),
    "bool": lambda: _line_two(((3.0,), (True, 2.0))),
    "numpy-bool": lambda: _line_two(((3.0,), (np.True_, 2.0))),
    "numpy-bool-row": lambda: _line_two(((3.0,), np.array([True, True]))),
}


@pytest.mark.parametrize("case", list(BAD_SHARE_TABLES))
@pytest.mark.parametrize("check", [
    lambda inst, route, table: ss.is_sir(inst, route, table),
    lambda inst, route, table: ss.is_ir(inst, route, table),
    lambda inst, route, table: ss.reverse_meter(inst, route, table),
    lambda inst, route, table: ss.disutility_trace(inst, route, table),
    lambda inst, route, table: ss.benefit_breakdown(inst, route, table),
    lambda inst, route, table: ss.verify_fairness_ratios(inst, route, table,
                                                         [0.5] * (inst.n - 1)),
], ids=["is_sir", "is_ir", "reverse_meter", "disutility_trace", "benefit_breakdown",
        "verify_fairness_ratios"])
def test_table_checkers_reject_a_malformed_share_table(check, case):
    inst, order, shares = BAD_SHARE_TABLES[case]()
    route = ss.Route.single_dropoff(order)
    try:
        check(inst, route, ss.witness_scheme(inst, route))  # a well-formed table passes the check
    except IndeterminateRatioError:  # every stage of a lower-bound route is tight: no ratios
        assert case.startswith("nan")
    with pytest.raises(MalformedInputError, match="share table"):
        check(inst, route, ss.CostShareTable(shares=shares))


_FLAWS = {
    "nan": lambda row, k: row[:k] + [math.nan] + row[k + 1:],
    "inf": lambda row, k: row[:k] + [math.inf] + row[k + 1:],
    "-inf": lambda row, k: row[:k] + [-math.inf] + row[k + 1:],
    "overflowing-sum": lambda row, k: [1.5e308] * len(row),
    "bool": lambda row, k: row[:k] + [True] + row[k + 1:],
    "numpy-bool": lambda row, k: row[:k] + [np.False_] + row[k + 1:],
    "str": lambda row, k: row[:k] + ["1.0"] + row[k + 1:],
    "none": lambda row, k: row[:k] + [None] + row[k + 1:],
    "int-beyond-float": lambda row, k: row[:k] + [10 ** 400] + row[k + 1:],
    "cancelling-ints": lambda row, k: [10 ** 400, -10 ** 400] + [0] * (len(row) - 2),
    "share-short": lambda row, k: row[:k] + row[k + 1:],
    "extra-share": lambda row, k: row + [row[k]],
}

_SHARES = st.floats(min_value=-1e6, max_value=1e6)


@st.composite
def _flawed_table(draw):
    flaw = draw(st.sampled_from(sorted(_FLAWS)))
    least = 2 if flaw in ("overflowing-sum", "cancelling-ints") else 1  # two shares in a row
    n = draw(st.integers(min_value=least, max_value=6))
    rows = [draw(st.lists(_SHARES, min_size=j, max_size=j)) for j in range(1, n + 1)]
    j = draw(st.integers(min_value=least, max_value=n))
    rows[j - 1] = _FLAWS[flaw](rows[j - 1], draw(st.integers(min_value=0, max_value=j - 1)))
    as_tuples = draw(st.booleans())
    return flaw, [tuple(row) for row in rows] if as_tuples else rows


@settings(max_examples=300, deadline=None)
@given(_flawed_table())
def test_a_malformed_share_table_is_refused_when_it_is_built(case):
    flaw, shares = case
    with pytest.raises(MalformedInputError, match="share table"):
        ss.CostShareTable(shares=shares)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=6).flatmap(
    lambda n: st.tuples(*(st.lists(_SHARES, min_size=j, max_size=j) for j in range(1, n + 1)))))
def test_a_share_table_keeps_its_rows_as_tuples(rows):
    listed = ss.CostShareTable(shares=list(rows))
    built = ss.CostShareTable(shares=tuple(map(tuple, rows)))
    assert type(listed.shares) is tuple and all(type(row) is tuple for row in listed.shares)
    assert listed == built and hash(listed) == hash(built) and repr(listed) == repr(built)
    assert listed.to_rows() == [list(row) for row in rows]
    for copied in (pickle.loads(pickle.dumps(built)), copy.deepcopy(built), copy.copy(built)):
        assert copied == built


def test_a_numpy_row_is_kept_as_a_tuple_of_its_values():
    table = ss.CostShareTable(shares=(np.array([3.0]), np.array([1.0, 2.0])))
    assert table.shares == ((3.0,), (1.0, 2.0)) and type(table.shares[1]) is tuple


@pytest.mark.parametrize("duplicate", [
    lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy, copy.copy,
], ids=["pickle", "deepcopy", "copy"])
def test_a_copied_share_table_is_checked_again(duplicate):
    table = ss.CostShareTable(shares=((3.0,), (1.0, 2.0)))
    assert duplicate(table) == table
    object.__setattr__(table, "shares", ((3.0,), (1.0, math.nan)))  # past the check
    with pytest.raises(MalformedInputError, match="share table"):
        duplicate(table)


def test_every_built_share_table_round_trips_through_the_constructor():
    rng = np.random.default_rng(30)
    built = 0
    for n in range(1, 9):
        for equal_rates in (False, True):
            inst = random_feasible_instance(rng, n, equal_rates=equal_rates)
            route = ss.Route.single_dropoff(tuple(range(1, n + 1)))
            tables = [ss.witness_scheme(inst, route),
                      ss.beta_fair_table(inst, route, rng.uniform(0.0, 1.0, size=n - 1).tolist())]
            if equal_rates:
                tables.append(ss.xc_table(inst, route))
            for table in tables:
                assert ss.CostShareTable(shares=table.shares) == table
                built += 1
    multi, route = line_multi_case(rng, 4)
    table = ss.witness_scheme(multi, route)
    assert ss.CostShareTable(shares=table.shares) == table
    assert built == 40
