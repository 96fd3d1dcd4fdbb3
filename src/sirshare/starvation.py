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

from .errors import DegenerateDistanceError, UnsupportedModeError
from .feasibility import sir_feasible
from .instances import REGIME_INFINITE, REGIME_ZERO, SINGLE, Instance, Route
from .numeric import DEFAULT_REL_TOL, check_tolerance
from .search import DEFAULT_CAP, _search


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
    if instance.dropoff_mode != SINGLE:
        raise UnsupportedModeError("starvation factors are defined for single-dropoff routes")
    feasible = sir_feasible(instance, route, rel=rel).feasible
    factors = _per_passenger_factors(instance, route.pickup_order)
    gamma = max(factors)

    checks: list[BoundCheck] = []
    if feasible:
        n = instance.n
        if instance.regime == REGIME_INFINITE:
            checks.append(BoundCheck("no_detour", 1.0, gamma <= 1.0 + rel * n + 1e-12))
        elif instance.regime == REGIME_ZERO:
            bound = float(2 ** n)
            checks.append(BoundCheck("exp", bound, gamma <= bound + rel * bound))
        elif all(a >= instance.alpha_op for a in instance.alphas):
            bound = 2.0 * math.sqrt(n)
            checks.append(BoundCheck("sqrt", bound, gamma <= bound + rel * bound))
    return StarvationReport(
        per_passenger=tuple(factors),
        route_factor=gamma,
        bound_checks=tuple(checks),
        feasible=feasible,
    )


def min_route_starvation(instance: Instance, cap: int = DEFAULT_CAP,
                         rel: float = DEFAULT_REL_TOL):
    """Feasible route with the smallest starvation factor, or None.

    Exhaustive over feasible boarding orders (which is why the size cap
    exists); exact ties keep the lexicographically smallest pickup sequence.
    """
    best, best_gamma = None, math.inf

    def visit(order: tuple[int, ...], dist: float) -> None:
        nonlocal best, best_gamma
        gamma = max(_per_passenger_factors(instance, order))
        if gamma < best_gamma:
            best = order
            best_gamma = gamma

    _search(instance, rel, cap, visit)
    return None if best is None else (Route.single_dropoff(best), best_gamma)


def lower_bound_value(n: int, alpha_op: float, alphas: Sequence[float]) -> float:
    """Worst-case minimum starvation factor achievable with these weights.

    Sum over stages of the stage detour budget as a fraction of the direct
    distance; with equal weights this is the n-th harmonic number, and it
    approaches n as the sensitivities vanish.
    """
    alphas = [float(a) for a in alphas]
    total = 0.0
    acc = 0.0
    for j in range(1, n + 1):
        total += 1.0 / (1.0 + acc / alpha_op)
        if j - 1 < len(alphas):
            acc += alphas[j - 1]
    return total
