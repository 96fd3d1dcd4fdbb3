"""Starvation factors: how far riders travel relative to their direct trip.

A rider's starvation factor on a route is their traveled distance divided by
their direct distance to the dropoff; the route's factor is the maximum over
riders. Feasible routes obey regime-dependent ceilings (1 when sensitivities
dominate, 2*sqrt(n) when none is below the operator rate, 2**n when they
vanish), and a matching-weights lower bound holds across instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import DegenerateDistanceError
from .feasibility import sir_feasible
from .instances import (
    REGIME_INFINITE,
    REGIME_ZERO,
    Instance,
    Route,
    _checked_rates,
    _prefix_sums,
    _stage_denominators,
)
from .numeric import DEFAULT_REL_TOL, approx_leq, check_tolerance
from .search import (
    DEFAULT_CAP,
    _check_searchable,
    _masks,
    _rounding_slack,
    _search,
    _subset_dp,
)


@dataclass(frozen=True)
class BoundCheck:
    name: str  # "no_detour" | "sqrt" | "exp"
    bound: float
    holds: bool


@dataclass(frozen=True)
class StarvationReport:
    per_passenger: tuple[float, ...]
    route_factor: float
    bound_checks: tuple[BoundCheck, ...]
    feasible: bool


def _per_passenger_factors(instance: Instance, order: Sequence[int]) -> list[float]:
    rows = instance.rows
    n = len(order)
    sd = [instance.direct_distance(p) for p in order]
    for r, dist in enumerate(sd, start=1):
        if dist <= 0.0:
            raise DegenerateDistanceError(
                f"rider {r} boards at the dropoff; starvation factor undefined"
            )
    factors = []
    suffix = sd[n - 1]  # distance remaining from the i-th pickup to the end
    factors.append(1.0)
    for i in range(n - 1, 0, -1):
        suffix += rows[order[i - 1] - 1][order[i] - 1]
        factors.append(suffix / sd[i - 1])
    factors.reverse()
    return factors


def starvation_report(instance: Instance, route: Route,
                      rel: float = DEFAULT_REL_TOL) -> StarvationReport:
    """Per-rider and route starvation factors plus applicable ceiling checks.

    Ceiling checks only apply to feasible routes, and only the ceiling whose
    weight condition the instance meets is reported.
    """
    check_tolerance(rel)
    instance.require_single_dropoff("the starvation report")
    feasible = sir_feasible(instance, route, rel=rel).feasible
    factors = _per_passenger_factors(instance, route.pickup_order)
    gamma = max(factors)

    checks: list[BoundCheck] = []
    if feasible:
        n = instance.n
        if instance.regime == REGIME_INFINITE:
            checks.append(BoundCheck("no_detour", 1.0, approx_leq(gamma, 1.0, rel)))
        elif instance.regime == REGIME_ZERO:
            bound = float(2 ** n)
            checks.append(BoundCheck("exp", bound, approx_leq(gamma, bound, rel)))
        elif all(a >= instance.alpha_op for a in instance.alphas):
            bound = 2.0 * math.sqrt(n)
            checks.append(BoundCheck("sqrt", bound, approx_leq(gamma, bound, rel)))
    return StarvationReport(
        per_passenger=tuple(factors),
        route_factor=gamma,
        bound_checks=tuple(checks),
        feasible=feasible,
    )


def min_route_starvation(instance: Instance, cap: int = DEFAULT_CAP,
                         rel: float = DEFAULT_REL_TOL):
    """Feasible route with the smallest starvation factor, or None.

    A rider's factor depends only on the route from their pickup on, so this
    is a backward ``search._subset_dp`` over (set of riders boarding last,
    the first of them): O(2**n * n) states, and O(2**n * n**2) time times
    the labels a state keeps. Each label is (suffix distance, largest
    factor, suffix order); the suffix distance folds as
    ``_per_passenger_factors`` folds it, from the last rider's direct
    distance backwards, so the factor is bit for bit the one
    ``starvation_report`` gives.

    Exact ties keep the lexicographically smallest pickup sequence. The
    label rule lives in this function's ``grow`` step: a label is dropped
    when another is no longer, starves no more and has the smaller order,
    or starves less and is shorter by more than ``search._rounding_slack``;
    either way no prefix can make the dropped label win. A state keeps one
    label per (distance, factor) trade-off and per rounding near-tie; on
    path-TSP tables that is one label.

    A rider whose pickup is the dropoff has no factor: the lexicographically
    first feasible order reports the first such rider on it.
    """
    _check_searchable(instance, cap, rel)
    n = instance.n
    direct = instance.direct
    if min(direct[1:]) <= 0.0:
        _search(instance, rel, cap,
                lambda orders, dists: _per_passenger_factors(instance, orders[0].tolist()))
        return None
    rows = instance.rows
    slack = _rounding_slack(instance)
    # before[j][b]: the pickups a after which b may board j-th, as a bitmask
    before = [[0] + row
              for row in _masks(instance._stage_verdicts(rel)[:, 1:].transpose(0, 2, 1))]

    def grow(into: list, labels: list, first: int, p: int) -> None:
        hop, own = rows[p - 1][first - 1], direct[p]
        for dist, factor, order in labels:
            dist += hop
            mine = dist / own
            if mine > factor:
                factor = mine
            order = (p,) + order
            # a suffix beats another when it is no longer, starves no more and
            # has the smaller order, or starves less and is shorter by more than ``slack``
            for d, f, o in into:
                if f <= factor and (d <= dist and o < order or f < factor and d + slack < dist):
                    break
            else:
                if into:
                    into[:] = [(d, f, o) for d, f, o in into
                               if not (factor <= f and (dist <= d and order < o
                                                        or factor < f and dist + slack < d))]
                into.append((dist, factor, order))

    # the first of a suffix of k riders boards at stage n - k + 1
    ends = _subset_dp(n, lambda mask: before[n + 1 - mask.bit_count()],
                      {f: [(direct[f], 1.0, (f,))] for f in range(1, n + 1)}, grow)
    if not ends:
        return None
    factor, order = min((f, o) for labels in ends.values() for _, f, o in labels)
    return Route.single_dropoff(order), factor


def lower_bound_value(n: int, alpha_op: float, alphas: Sequence[float]) -> float:
    """A lower bound on the worst-case least starvation factor with these weights.

    Sum over stages of the stage detour budget as a fraction of the direct
    distance; with equal weights this is the n-th harmonic number, and it
    approaches n as the sensitivities vanish. The lower-bound instance with
    these weights (``generate_lower_bound_instance``) has every feasible
    route at exactly this factor, so the worst case is at least this value;
    it is not the worst case itself, since other instances can force a
    larger least factor. The rates must fit an instance of n riders.
    """
    alpha_op, alphas = _checked_rates(n, alpha_op, alphas)
    total = 0.0
    for denom in _stage_denominators(alpha_op, _prefix_sums(alphas)):
        total += 1.0 / denom
    return total
