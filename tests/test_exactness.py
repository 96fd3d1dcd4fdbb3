"""Exactness oracles: stage quantities and share tables are compared with ``==``.

Each oracle evaluates the paper's per-cell formula straight from the raw
distance table, in the fold order the library documents, so a cached table
or a running sum that reassociates a single addition fails here. Nothing
below calls the library code it pins.
"""

import functools
import itertools
import operator

import numpy as np
import pytest

import sirshare as ss
from sirshare.numeric import approx_leq

from corpus import (
    random_euclidean_instance,
    random_feasible_instance,
    random_line_positions,
    random_multi_instance,
    random_multi_route,
    with_regime,
)


def left_fold(terms):
    """``terms`` added left to right from int 0: what ``sum`` computes on
    CPython before 3.12 (3.12's ``sum`` compensates float rounding)."""
    return functools.reduce(operator.add, terms, 0)


def raw(instance):
    """The distance table as given, the operator rate and the sensitivities."""
    return instance.dist.entries.tolist(), instance.alpha_op, instance.alphas


def random_orders(rng, n, count):
    return [tuple(range(1, n + 1))] + [
        tuple(int(p) for p in rng.permutation(np.arange(1, n + 1))) for _ in range(count)
    ]


def test_xc_table_equals_triple_sum_formula():
    rng = np.random.default_rng(8)
    checked = 0
    for n in range(1, 31):
        inst = random_feasible_instance(rng, n, equal_rates=True)
        rows, aop, _ = raw(inst)
        for order in random_orders(rng, n, 2):
            p = (None,) + order  # p[k]: pickup of the k-th rider
            sd = [0.0] + [rows[q - 1][n] for q in order]
            seg = [0.0, 0.0] + [rows[p[k - 1] - 1][p[k] - 1] for k in range(2, n + 1)]
            det = [0.0, 0.0] + [seg[k] + sd[k] - sd[k - 1] for k in range(2, n + 1)]
            expected = [
                [aop * (left_fold(seg[k] / (k - 1) for k in range(i + 1, j + 1)) + sd[j] / j
                        + (i - 1) * det[i]
                        - left_fold(det[k] for k in range(i + 1, j + 1)))
                 for i in range(1, j + 1)]
                for j in range(1, n + 1)
            ]
            assert ss.xc_table(inst, ss.Route.single_dropoff(order)).to_rows() == expected
            checked += 1
    assert checked == 90


@pytest.mark.parametrize("regime", ["finite", "zero", "infinite"])
def test_sir_feasible_stages_equal_detour_and_budget(regime):
    rng = np.random.default_rng(9)
    for n in range(1, 16):
        base = random_euclidean_instance(rng, n, alpha_low=0.2)
        inst = base if regime == "finite" else with_regime(base, regime, alphas=base.alphas)
        rows, aop, alphas = raw(inst)
        prefix = list(itertools.accumulate(alphas, initial=0.0))
        for order in random_orders(rng, n, 3):
            stages = ss.sir_feasible(inst, ss.Route.single_dropoff(order)).stages
            assert [s.stage for s in stages] == list(range(2, n + 1))
            for s in stages:
                a, b = order[s.stage - 2], order[s.stage - 1]
                sd_b = rows[b - 1][n]
                assert s.lhs == rows[a - 1][b - 1] + sd_b - rows[a - 1][n]
                if regime == "zero":
                    assert s.rhs == sd_b
                elif regime == "infinite":
                    assert s.rhs == 0.0
                else:
                    assert s.rhs == sd_b / (1.0 + prefix[s.stage - 1] / aop)


# 1e308 overflows the slack to inf, which approx_leq reads as "always fits"
@pytest.mark.parametrize("rel", [1e-9, 0.0, 1e308], ids=["default", "exact", "overflowing"])
def test_stage_verdicts_equal_approx_leq_per_cell(rel):
    rng = np.random.default_rng(12)
    corpus = []
    for n in range(1, 9):
        base = random_euclidean_instance(rng, n, alpha_low=0.2)
        corpus += [base, with_regime(base, "zero"), with_regime(base, "infinite"),
                   ss.generate_lower_bound_instance(n),  # stages on budget, at rel=0 too
                   ss.generate_sqrt_tight_instance(n),
                   ss.generate_exp_tight_instance(n),  # vanishing weights
                   # collinear stops leave detours of a few ulps, which only the floor admits
                   with_regime(ss.line_instance(*random_line_positions(rng, n, False)),
                               "infinite")]
    assert {inst.regime for inst in corpus} == {"finite", "zero", "infinite"}
    for inst in corpus:
        n = inst.n
        expected = np.zeros((n + 1, n + 1, n), dtype=bool)
        expected[1, 0] = True  # anyone may board first; stage 1 has no detour test
        for j, a, b in itertools.product(range(2, n + 1), range(1, n + 1), range(1, n + 1)):
            expected[j, a, b - 1] = approx_leq(inst.detour[a][b], inst.budget[j][b], rel)
        passes = inst._stage_verdicts(rel)
        assert passes.dtype == bool
        np.testing.assert_array_equal(passes, expected, err_msg=f"n={n} {inst.regime}")


def single_dropoff_cells(instance, order):
    """(d, d_i, direct) of a single-dropoff route, one cell at a time.

    Rider i's distance at stage j is the hop prefix up to j less the hop
    prefix up to i, plus rider j's direct trip.
    """
    rows, _, _ = raw(instance)
    n = len(order)
    hops = [rows[a - 1][b - 1] for a, b in zip(order, order[1:])]
    prefix = list(itertools.accumulate(hops, initial=0.0))
    direct = [0.0] + [rows[p - 1][n] for p in order]
    d = [0.0] + [prefix[j - 1] + direct[j] for j in range(1, n + 1)]
    d_i = [[prefix[j - 1] - prefix[i - 1] + direct[j] if 1 <= i <= j else 0.0
            for j in range(n + 1)] for i in range(n + 1)]
    return d, d_i, direct


def multi_dropoff_cells(instance, route):
    """(d, d_i, direct) of a route with a dropoff per rider, by walking each
    stage's conditional route: every leg is added to the total and to every
    rider aboard, each starting from 0.0."""
    rows, _, _ = raw(instance)
    n = instance.n
    order = route.pickup_order
    direct = [0.0] + [rows[p - 1][n + p - 1] for p in order]
    d = [0.0] * (n + 1)
    d_i = [[0.0] * (n + 1) for _ in range(n + 1)]
    for j in range(1, n + 1):
        points, aboard_at, rank = [], [], 0
        for kind, idx in route.events:
            if kind == "P":
                rank += 1
                if rank <= j:
                    points.append(idx - 1)
                    aboard_at.append((rank, "on"))
            elif idx <= j:
                points.append(n + order[idx - 1] - 1)
                aboard_at.append((idx, "off"))
        legs = [rows[u][v] for u, v in zip(points, points[1:])]
        d[j] = left_fold([0.0] + legs)
        for i in range(1, j + 1):
            on = aboard_at.index((i, "on"))
            off = aboard_at.index((i, "off"))
            d_i[i][j] = left_fold([0.0] + legs[on:off])
    return d, d_i, direct


def check_stage_costs(instance, route, cells):
    _, aop, alphas = raw(instance)
    d, d_i, direct = cells
    n = instance.n
    costs = ss.stage_costs(instance, route)
    assert costs.n == n
    assert costs.direct == tuple(direct)
    assert costs.d == tuple(d)
    assert costs.d_i == tuple(map(tuple, d_i))
    assert costs.oc == tuple(aop * x for x in d)
    assert costs.ic == tuple(
        tuple(alphas[i - 1] * (d_i[i][j] - direct[i]) if 1 <= i <= j else 0.0
              for j in range(n + 1))
        for i in range(n + 1)
    )


def test_stage_costs_equal_per_cell_reference():
    rng = np.random.default_rng(10)
    for n in range(1, 21):
        inst = random_euclidean_instance(rng, n, alpha_low=0.0)
        for order in random_orders(rng, n, 2):
            check_stage_costs(inst, ss.Route.single_dropoff(order),
                              single_dropoff_cells(inst, order))
    for n in range(1, 9):
        inst = random_multi_instance(rng, n)
        for _ in range(4):
            route = random_multi_route(rng, n)
            check_stage_costs(inst, route, multi_dropoff_cells(inst, route))
