"""SIR feasibility against an independent linear program (``lp_oracle``).

The program constrains every rider at every boarding from their own on,
dropped off or not, so it also pins the one disutility rule of
``disutility_trace``: a rider who has left may not be charged more later.
The ``infinite`` regime is checked against the program at very large
sensitivities.
"""

import itertools

import numpy as np
import pytest

pytest.importorskip("scipy")

import sirshare as ss  # noqa: E402
from sirshare.numeric import DEFAULT_REL_TOL  # noqa: E402

from conftest import SWEEP_SEED  # noqa: E402
from corpus import (  # noqa: E402
    criterion_one_instances,
    line_multi_case,
    random_multi_instance,
    random_multi_route,
    with_regime,
)
from lp_oracle import sir_margin  # noqa: E402

TIE = 1e-7  # margins within this fraction of the largest fare are too close to call
# ``infinite`` is the limit of growing sensitivities; the program stands for it with every
# sensitivity at BIG times the operator rate (at 10**6 a jittered line case whose riders
# ride 4e-7 out of their way is still on the finite side of the limit)
BIG = 1e9


def _leaves_early(route):
    """Whether some rider is dropped off before a later boarding."""
    return any(kind == "D" for kind, _ in route.events[:route.n])


def _lp(inst, route, departed=True):
    n = inst.n
    alphas = {"zero": (0.0,) * n,
              "infinite": (BIG * inst.alpha_op,) * n}.get(inst.regime, inst.alphas)
    dropoff = (lambda p: n) if inst.dropoff_mode == "single" else (lambda p: n + p - 1)
    return sir_margin(inst.dist.entries, route.events, dropoff, inst.alpha_op, alphas,
                      departed=departed)


def _scale(inst):
    return inst.alpha_op * float(inst.dist.entries.max())


def _balanced(inst, route, shares):
    """The program's shares as a table, each newcomer's share closing the
    stage's budget exactly (the solver meets equalities only to its tolerance)."""
    costs = ss.stage_costs(inst, route)
    rows = []
    for j, row in enumerate(shares, start=1):
        rows.append(row[:-1] + (costs.oc[j] - sum(row[:-1]),))
    return ss.CostShareTable(shares=tuple(rows))


@pytest.mark.parametrize("regime", ["finite", "zero"])
def test_lp_oracle_agrees_with_sir_feasible_on_routes_with_early_dropoffs(regime):
    rng = np.random.default_rng(11)
    counts = {"feasible": 0, "feasible_early": 0, "weaker_only": 0}
    for k in range(600 if regime == "finite" else 150):
        inst, route = line_multi_case(rng, 2 + k % 4, regime=regime)
        lp = _lp(inst, route)
        tie = TIE * _scale(inst)
        assert abs(lp.margin) > tie, (k, lp.margin)
        verdict = ss.sir_feasible(inst, route).feasible
        assert verdict == (lp.margin > 0), (k, lp.margin)
        # the program's own table: is_sir reads the same rule as the program
        assert ss.is_sir(inst, route, _balanced(inst, route, lp.shares))[0] == verdict, k
        counts["feasible"] += verdict
        counts["feasible_early"] += verdict and _leaves_early(route)
        if not verdict and _leaves_early(route):
            # a table that only balances by charging riders who have left
            weaker = _lp(inst, route, departed=False)
            if weaker.margin > tie:
                counts["weaker_only"] += 1
                table = _balanced(inst, route, weaker.shares)
                assert not ss.is_sir(inst, route, table)[0], k
    if regime == "finite":
        assert counts["feasible_early"] >= 100, counts
        assert counts["weaker_only"] >= 100, counts
    else:
        assert counts["feasible_early"] >= 20, counts


@pytest.mark.parametrize("regime", ["finite", "zero"])
def test_lp_oracle_agrees_with_sir_feasible_on_a_criterion_one_slice(regime):
    instances = [with_regime(inst, regime)
                 for inst in criterion_one_instances(SWEEP_SEED, 40) if inst.n <= 4]
    feasible = 0
    for inst in instances:
        for perm in itertools.permutations(range(1, inst.n + 1)):
            route = ss.Route.single_dropoff(perm)
            lp = _lp(inst, route)
            assert abs(lp.margin) > TIE * _scale(inst), (inst.n, perm, lp.margin)
            verdict = ss.sir_feasible(inst, route).feasible
            assert verdict == (lp.margin > 0), (inst.n, perm, lp.margin)
            feasible += verdict
    assert len(instances) == 17 and feasible >= 10, feasible


def test_lp_oracle_agrees_with_sir_feasible_in_the_infinite_regime():
    # where the riders' side ties (a rider who has left rides no detour, and a
    # newcomer riding straight to their dropoff adds none), the operator's side
    # decides; on exactly collinear stops far from the origin the tie shows up
    # as a few ulps either way, which must not decide it, at rel=0 either
    rng = np.random.default_rng(13)
    cases = []
    for k in range(300):
        n = 2 + k % 4
        cases.append(line_multi_case(rng, n, regime="infinite"))
        cases.append(line_multi_case(rng, n, regime="infinite", jitter=0.0))
        cases.append(line_multi_case(rng, n, regime="infinite", jitter=0.0, scale=1e4))
        inst = random_multi_instance(rng, n)
        cases.append((with_regime(inst, "infinite"), random_multi_route(rng, n)))
    for inst in criterion_one_instances(SWEEP_SEED, 40):
        if inst.n <= 4:
            inst = with_regime(inst, "infinite")
            cases += [(inst, ss.Route.single_dropoff(perm))
                      for perm in itertools.permutations(range(1, inst.n + 1))]
    counts = {"feasible": 0, "infeasible": 0, "too_close": 0}
    for k, (inst, route) in enumerate(cases):
        lp = _lp(inst, route)
        if abs(lp.margin) <= TIE * _scale(inst):
            counts["too_close"] += 1
            continue
        for rel in (DEFAULT_REL_TOL, 0.0):
            verdict = ss.sir_feasible(inst, route, rel=rel).feasible
            assert verdict == (lp.margin > 0), (k, rel, route.to_tokens(), lp.margin)
        counts["feasible" if verdict else "infeasible"] += 1
    assert counts["feasible"] >= 100 and counts["infeasible"] >= 700, counts
    assert counts["too_close"] <= len(cases) // 100, counts


def test_a_rider_who_has_left_cannot_pay_for_a_later_boarding():
    # route P1 D1 P2 D2: rider 2 pays the full fare less their (zero) inconvenience,
    # and stage 2's budget is balanced by raising rider 1's share after their dropoff
    route = ss.Route(events=(("P", 1), ("D", 1), ("P", 2), ("D", 2)))
    rng = np.random.default_rng(47)
    for _ in range(300):
        inst = random_multi_instance(rng, 2)
        assert not ss.sir_feasible(inst, route).feasible
        costs = ss.stage_costs(inst, route)
        aop = inst.alpha_op
        s22 = aop * costs.direct[2] - costs.ic[2][2]
        table = ss.CostShareTable(shares=((aop * costs.direct[1],), (costs.oc[2] - s22, s22)))
        ok, violations = ss.is_sir(inst, route, table)
        assert not ok and [v[:2] for v in violations] == [(1, 2)]
        ok, violations = ss.is_ir(inst, route, table)
        assert not ok and [v[0] for v in violations] == [1]
        assert ss.reverse_meter(inst, route, table).row(1)[2] > aop * costs.direct[1]
