"""Enumeration and optimization over feasible single-dropoff routes.

Each stage constraint involves only the two pickups it connects and the
stage number, so every search request first tabulates all stage verdicts
once (``ok[j][a][b]``, from the stage test that ``sir_feasible`` applies).
One depth-first engine walks the boarding orders in lexicographic pickup
order for every search question, with two cuts: a prefix that fails its
last stage never extends to a feasible route, and a prefix whose partial
distance already reaches the caller's bound cannot beat it (the remaining
legs are nonnegative). The search is exhaustive (the problem is hard in
general); the line metric with equal rates is the polynomial special case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import SizeError, UnsupportedModeError
from .feasibility import _single_dropoff_stage
from .instances import SINGLE, Instance, Route
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
    if instance.dropoff_mode != SINGLE:
        raise UnsupportedModeError("route search is only defined for single-dropoff instances")
    if instance.n > cap:
        raise SizeError(
            f"n={instance.n} exceeds the exact-search cap {cap}; "
            "raise the cap explicitly to search anyway"
        )


def _stage_table(instance: Instance, rel: float) -> list[list[list[bool]]]:
    """``ok[j][a][b]``: may the j-th rider board at pickup b right after pickup a?"""
    n = instance.n
    ok = [[[False] * (n + 1) for _ in range(n + 1)] for _ in range(n + 1)]
    for j in range(2, n + 1):
        for a in range(1, n + 1):
            for b in range(1, n + 1):
                ok[j][a][b] = approx_leq(*_single_dropoff_stage(instance, a, b, j), rel)
    return ok


def _search(instance: Instance, rel: float, cap: int,
            visit: Callable[[tuple[int, ...], float], float | None]) -> SearchStats:
    """Walk the feasible boarding orders in lexicographic pickup order.

    ``visit(order, distance)`` sees each feasible complete order with its
    total distance (hops left to right, then the last rider's direct trip).
    If it returns a distance, the rest of the walk cuts every prefix whose
    partial distance already reaches it.
    """
    _check_searchable(instance, cap, rel)
    n = instance.n
    rows = instance.rows
    ok = _stage_table(instance, rel)
    nodes = prunes = 0
    bound = None

    order: list[int] = []
    used = [False] * (n + 1)

    def dfs(partial_dist: float) -> None:
        nonlocal nodes, prunes, bound
        if bound is not None and partial_dist >= bound:
            return
        nodes += 1
        depth = len(order)
        if depth == n:
            cut = visit(tuple(order), partial_dist + instance.direct_distance(order[-1]))
            if cut is not None:
                bound = cut
            return
        for label in range(1, n + 1):
            if used[label]:
                continue
            if depth > 0 and not ok[depth + 1][order[-1]][label]:
                prunes += 1
                continue
            used[label] = True
            order.append(label)
            hop = 0.0 if depth == 0 else rows[order[-2] - 1][label - 1]
            dfs(partial_dist + hop)
            order.pop()
            used[label] = False

    dfs(0.0)
    return SearchStats(nodes_expanded=nodes, prunes=prunes)


def enumerate_sir_routes(instance: Instance, limit: int | None = None,
                         cap: int = DEFAULT_CAP,
                         rel: float = DEFAULT_REL_TOL) -> SearchResult:
    """All feasible boarding orders, in lexicographic pickup order.

    ``limit`` truncates the returned route list (the minimum-distance route
    is still taken over everything enumerated).
    """
    routes: list[Route] = []
    found = 0
    best: tuple[tuple[int, ...], float] | None = None

    def visit(order: tuple[int, ...], dist: float) -> None:
        nonlocal found, best
        found += 1
        if limit is None or len(routes) < limit:
            routes.append(Route.single_dropoff(order))
        if best is None or dist < best[1]:
            best = (order, dist)

    stats = _search(instance, rel, cap, visit)
    return SearchResult(
        routes=tuple(routes),
        optimal=None if best is None else (Route.single_dropoff(best[0]), best[1]),
        stats=stats,
        truncated=limit is not None and found > len(routes),
    )


def opt_sir_route(instance: Instance, cap: int = DEFAULT_CAP,
                  rel: float = DEFAULT_REL_TOL):
    """Minimum-total-distance feasible route, or None if none exists.

    Branch and bound: the incumbent's distance bounds the rest of the walk.
    Exact ties keep the lexicographically smallest pickup sequence.
    """
    best: tuple[tuple[int, ...], float] | None = None

    def visit(order: tuple[int, ...], dist: float) -> float:
        nonlocal best
        if best is None or dist < best[1]:
            best = (order, dist)
        return best[1]

    _search(instance, rel, cap, visit)
    return None if best is None else (Route.single_dropoff(best[0]), best[1])


def line_metric_verdict(positions: Sequence[float], dropoff: float):
    """Feasibility verdict for pickups on a line with equal rates.

    When the dropoff is at or beyond one end of the pickups, sweeping from
    the farthest pickup toward the dropoff incurs zero detour for everyone,
    so that route is returned (it is also the shortest feasible one). A
    strictly interior dropoff admits no feasible route: some boarding must
    jump across it, and the jump's detour always exceeds its budget.

    Returns the sweep Route, or None when infeasible.
    """
    positions = [float(p) for p in positions]
    if not positions:
        raise UnsupportedModeError("need at least one pickup position")
    d = float(dropoff)
    lo, hi = min(positions), max(positions)
    if lo < d < hi:
        return None
    labels = sorted(range(1, len(positions) + 1),
                    key=lambda k: (-abs(positions[k - 1] - d), k))
    return Route.single_dropoff(labels)
