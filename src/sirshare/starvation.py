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
    _stage_denominators,
)
from .numeric import DEFAULT_REL_TOL, approx_leq, check_tolerance
from .search import DEFAULT_CAP, _check_searchable, _rounding_slack, _search, _stage_table


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


def _keep(labels: list[tuple[float, float, tuple[int, ...]]], dist: float,
          factor: float, order: tuple[int, ...], slack: float) -> None:
    """Add the suffix ``(dist, factor, order)`` to a state's labels unless a
    kept one beats it, and drop the kept ones it beats. A suffix beats
    another when it is no longer, starves no more and has the smaller order,
    or when it starves less and is shorter by more than ``slack``."""
    for d, f, o in labels:
        if f <= factor and (d <= dist and o < order or f < factor and d + slack < dist):
            return
    if labels:
        labels[:] = [(d, f, o) for d, f, o in labels
                     if not (factor <= f and (dist <= d and order < o
                                              or factor < f and dist + slack < d))]
    labels.append((dist, factor, order))


def min_route_starvation(instance: Instance, cap: int = DEFAULT_CAP,
                         rel: float = DEFAULT_REL_TOL):
    """Feasible route with the smallest starvation factor, or None.

    A rider's factor depends only on the route from their pickup on, so this
    is a backward dynamic program over (set of riders boarding last, the
    first of them): O(2**n * n) states, and O(2**n * n**2) time times the
    labels a state keeps. Each label is (suffix distance, largest factor,
    suffix order); the suffix distance folds as ``_per_passenger_factors``
    folds it, from the last rider's direct distance backwards, so the factor
    is bit for bit the one ``starvation_report`` gives.

    Exact ties keep the lexicographically smallest pickup sequence. A label
    is dropped when another is no longer, starves no more and has the
    smaller order, or starves less and is shorter by more than
    ``search._rounding_slack``: either way no prefix can make the dropped
    label win. A state keeps one label per (distance, factor) trade-off and
    per rounding near-tie; on path-TSP tables that is one label.

    A rider whose pickup is the dropoff has no factor: the lexicographically
    first feasible order reports the first such rider on it.
    """
    _check_searchable(instance, cap, rel)
    n = instance.n
    direct = instance.direct
    if min(direct[1:]) <= 0.0:
        _search(instance, rel, cap,
                lambda order, dist: _per_passenger_factors(instance, order))
        return None
    rows = instance.rows
    slack = _rounding_slack(instance)
    full = (1 << n) - 1
    # before[j][b]: the pickups a after which b may board j-th, as a bitmask
    before = [[0] + [sum(1 << (a - 1) for a in range(1, n + 1) if stage[a] >> (b - 1) & 1)
                     for b in range(1, n + 1)] for stage in _stage_table(instance, rel)]
    # states[suffix][first]: labels of the feasible orders of ``suffix`` starting at ``first``
    states: list[dict[int, list] | None] = [None] * (full + 1)
    for f in range(1, n + 1):
        states[1 << (f - 1)] = {f: [(direct[f], 1.0, (f,))]}
    for suffix in range(1, full):
        here = states[suffix]
        if here is None:
            continue
        states[suffix] = None  # every predecessor is a larger set
        stage = before[n - suffix.bit_count() + 1]  # ``first`` boards at this stage
        for first, labels in here.items():
            preds = stage[first] & ~suffix
            while preds:
                bit = preds & -preds
                preds ^= bit
                p = bit.bit_length()
                wider = suffix | bit
                prev = states[wider]
                if prev is None:
                    prev = states[wider] = {}
                into = prev.setdefault(p, [])
                hop, own = rows[p - 1][first - 1], direct[p]
                for dist, factor, order in labels:
                    dist += hop
                    mine = dist / own
                    _keep(into, dist, mine if mine > factor else factor, (p,) + order, slack)
    if not states[full]:
        return None
    factor, order = min((f, o) for labels in states[full].values() for _, f, o in labels)
    return Route.single_dropoff(order), factor


def lower_bound_value(n: int, alpha_op: float, alphas: Sequence[float]) -> float:
    """Worst-case minimum starvation factor achievable with these weights.

    Sum over stages of the stage detour budget as a fraction of the direct
    distance; with equal weights this is the n-th harmonic number, and it
    approaches n as the sensitivities vanish. The rates must fit an
    instance of n riders.
    """
    alpha_op, alphas = _checked_rates(n, alpha_op, alphas)
    total = 0.0
    for denom in _stage_denominators(alpha_op, alphas):
        total += 1.0 / denom
    return total
