"""Exact search over feasible single-dropoff routes.

Each stage constraint involves only the two pickups it connects and the
stage number, so every search request first tabulates all stage verdicts
once, from the stage test that ``sir_feasible`` applies to the instance's
``detour`` and ``budget`` tables: ``ok[j][a]`` is a bitmask of the pickups that
may board j-th right after pickup a, and each search walks the set bits of
``ok[j][last]`` that are still free, lowest label first.
The problem is NP-hard in general (``reduce_hampath``), so the searches are
exponential; the line metric with equal rates is the polynomial special case.

- ``opt_sir_route`` is a dynamic program over (set of boarded pickups, last
  pickup), the recursion of Bellman (1962) and Held & Karp (1962).
- ``starvation.min_route_starvation`` is its backward counterpart over (set
  of riders still to board, first of them).
- ``enumerate_sir_routes`` must list every feasible order, so it walks the
  boarding orders depth first in lexicographic pickup order and cuts a
  prefix as soon as its last stage fails.

The optimum and the listing fold a route's distance the same way (hops left
to right, then the last rider's direct distance), and all three break exact
ties towards the lexicographically smallest pickup sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import MalformedInputError, SizeError
from .instances import Instance, Route
from .numeric import DEFAULT_REL_TOL, approx_leq, check_tolerance

DEFAULT_CAP = 10


@dataclass(frozen=True)
class SearchStats:
    nodes_expanded: int
    prunes: int


@dataclass(frozen=True)
class SearchResult:
    routes: tuple[Route, ...]
    optimal: tuple[Route, float] | None
    stats: SearchStats
    truncated: bool


def _check_searchable(instance: Instance, cap: int, rel: float) -> None:
    check_tolerance(rel)
    instance.require_single_dropoff("route search")
    if instance.n > cap:
        raise SizeError(
            f"n={instance.n} exceeds the exact-search cap {cap}; "
            "raise the cap explicitly to search anyway"
        )


def _stage_table(instance: Instance, rel: float) -> list[list[int]]:
    """``ok[j][a]``: the pickups that may board j-th right after pickup a.

    Bit b-1 of ``ok[j][a]`` is set when pickup b may. ``ok[1][0]`` holds
    every pickup, because anyone may board first.
    """
    n = instance.n
    detour, budget = instance.detour, instance.budget
    labels = range(1, n + 1)
    ok = [[0] * (n + 1) for _ in range(n + 1)]
    ok[1][0] = (1 << n) - 1
    for j in range(2, n + 1):
        cap = budget[j]
        for a in labels:
            row = detour[a]
            ok[j][a] = sum(1 << (b - 1) for b in labels if approx_leq(row[b], cap[b], rel))
    return ok


def _search(instance: Instance, rel: float, cap: int,
            visit: Callable[[tuple[int, ...], float], object]) -> SearchStats:
    """Walk the feasible boarding orders in lexicographic pickup order.

    ``visit(order, distance)`` sees each feasible complete order with its
    total distance (hops left to right, then the last rider's direct trip).
    """
    _check_searchable(instance, cap, rel)
    n = instance.n
    hops = [[0.0] * n] + instance.rows[:n]  # the first boarding adds no hop
    ok = _stage_table(instance, rel)
    direct = instance.direct
    nodes = prunes = 0
    order: list[int] = []

    def dfs(last: int, free: int, partial_dist: float) -> None:
        nonlocal nodes, prunes
        nodes += 1
        if not free:
            visit(tuple(order), partial_dist + direct[last])
            return
        allowed = free & ok[len(order) + 1][last]
        prunes += (free & ~allowed).bit_count()
        row = hops[last]
        while allowed:
            bit = allowed & -allowed
            allowed ^= bit
            b = bit.bit_length()
            order.append(b)
            dfs(b, free ^ bit, partial_dist + row[b - 1])
            order.pop()

    dfs(0, (1 << n) - 1, 0.0)
    return SearchStats(nodes_expanded=nodes, prunes=prunes)


def _rounding_slack(instance: Instance) -> float:
    """A distance gap that no n further roundings can close.

    Every partial sum of a route is below T = n * (largest table entry), and
    each addition or division rounds by at most 2**-53 of its result, so
    after n more steps two values that started more than 2(n+1)·2**-53·T
    apart still compare the same way. This returns 16 times that bound.
    """
    n = instance.n
    return n * (n + 1) * max(map(max, instance.rows)) * 2.0 ** -48


def enumerate_sir_routes(instance: Instance, limit: int | None = None,
                         cap: int = DEFAULT_CAP,
                         rel: float = DEFAULT_REL_TOL) -> SearchResult:
    """All feasible boarding orders, in lexicographic pickup order.

    ``limit`` truncates the returned route list (the minimum-distance route
    is still taken over everything enumerated; 0 lists none). The walk
    expands each feasible prefix once, and each listed order costs one tuple
    concatenation (``Route._single_dropoff_batch``).
    """
    if limit is not None and limit < 0:
        raise MalformedInputError(f"route limit must be >= 0, got {limit}")
    orders: list[tuple[int, ...]] = []
    found = 0
    best: tuple[tuple[int, ...], float] | None = None

    def visit(order: tuple[int, ...], dist: float) -> None:
        nonlocal found, best
        found += 1
        if limit is None or len(orders) < limit:
            orders.append(order)
        if best is None or dist < best[1]:
            best = (order, dist)

    stats = _search(instance, rel, cap, visit)
    return SearchResult(
        routes=Route._single_dropoff_batch(orders, instance.n),
        optimal=None if best is None else (Route.single_dropoff(best[0]), best[1]),
        stats=stats,
        truncated=limit is not None and found > len(orders),
    )


def _keep(labels: list[tuple[float, tuple[int, ...]]], dist: float,
          order: tuple[int, ...], slack: float) -> None:
    """Add the prefix ``(dist, order)`` to a state's labels unless a kept one
    beats it, and drop the kept ones it beats. A prefix beats another when it
    is no longer and has the smaller order, or is shorter by more than
    ``slack``."""
    for d, o in labels:
        if d + slack < dist or (d <= dist and o < order):
            return
    if labels:
        labels[:] = [(d, o) for d, o in labels
                     if not (dist + slack < d or (dist <= d and order < o))]
    labels.append((dist, order))


def opt_sir_route(instance: Instance, cap: int = DEFAULT_CAP,
                  rel: float = DEFAULT_REL_TOL):
    """Minimum-total-distance feasible route, or None if none exists.

    Forward dynamic program over (set of boarded pickups, last pickup): the
    Bellman--Held--Karp recursion, O(2**n * n**2) time over O(2**n * n)
    states, each holding its best prefixes as (partial distance, order), so
    the orders take O(2**n * n**2) memory.
    Distances fold as the walk folds them: hops left to right, then the
    last rider's direct distance.

    Exact ties keep the lexicographically smallest pickup sequence, even
    where rounding makes two different partial distances end in the same
    total: a state keeps a longer prefix beside a shorter one while its
    order is smaller and the gap is within ``_rounding_slack``, which no
    later rounding can close. Such near-ties are rare, so a state almost
    always holds one prefix.
    """
    _check_searchable(instance, cap, rel)
    n = instance.n
    rows = instance.rows
    ok = _stage_table(instance, rel)
    slack = _rounding_slack(instance)
    full = (1 << n) - 1
    # states[mask][last]: labels of the feasible orders of ``mask`` ending at ``last``
    states: list[dict[int, list] | None] = [None] * (full + 1)
    for p in range(1, n + 1):
        states[1 << (p - 1)] = {p: [(0.0, (p,))]}
    for mask in range(1, full):
        here = states[mask]
        if here is None:
            continue
        states[mask] = None  # every successor is a larger mask
        stage = ok[mask.bit_count() + 1]
        for last, labels in here.items():
            row, succs = rows[last - 1], stage[last] & ~mask
            while succs:
                bit = succs & -succs
                succs ^= bit
                b = bit.bit_length()
                succ = states[mask | bit]
                if succ is None:
                    succ = states[mask | bit] = {}
                into = succ.setdefault(b, [])
                hop = row[b - 1]
                for dist, order in labels:
                    _keep(into, dist + hop, order + (b,), slack)
    ends = states[full]
    if not ends:
        return None
    dist, order = min((d + instance.direct_distance(last), o)
                      for last, labels in ends.items() for d, o in labels)
    return Route.single_dropoff(order), dist


def line_metric_verdict(positions: Sequence[float], dropoff: float):
    """Feasibility verdict for pickups on a line with equal rates.

    When the dropoff is at or beyond one end of the pickups, sweeping from
    the farthest pickup toward the dropoff incurs zero detour for everyone,
    so that route is returned (it is also the shortest feasible one). A
    strictly interior dropoff admits no feasible route: some boarding must
    jump across it, and the jump's detour always exceeds its budget.

    Returns the sweep Route, or None when infeasible.
    """
    try:
        positions = [float(p) for p in positions]
        d = float(dropoff)
    except (TypeError, ValueError) as exc:
        raise MalformedInputError(f"line positions must be numbers: {exc}") from None
    if not positions:
        raise MalformedInputError("need at least one pickup position")
    if not all(math.isfinite(x) for x in positions + [d]):
        raise MalformedInputError("line positions must be finite")
    lo, hi = min(positions), max(positions)
    if lo < d < hi:
        return None
    labels = sorted(range(1, len(positions) + 1),
                    key=lambda k: (-abs(positions[k - 1] - d), k))
    return Route.single_dropoff(labels)
