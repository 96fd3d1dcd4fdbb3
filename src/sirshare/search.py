"""Enumeration and optimization over feasible single-dropoff routes.

Each stage constraint involves only the two pickups it connects and the
stage number, so every search request first tabulates all stage verdicts
once (``ok[j][a][b]``, from the stage test that ``sir_feasible`` applies).
A boarding-order prefix that fails its last constraint can never extend to
a feasible route; both depth-first searches prune on that table. Finding
the shortest feasible route is exhaustive (the problem is hard in
general), with a branch-and-bound cut on partial distance. The line metric
with equal rates is the polynomial special case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import SizeError, UnsupportedModeError
from .feasibility import _single_dropoff_stage
from .instances import SINGLE, Instance, Route
from .numeric import DEFAULT_REL_TOL, approx_leq

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


def _check_searchable(instance: Instance, cap: int) -> None:
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


def enumerate_sir_routes(instance: Instance, limit: int | None = None,
                         cap: int = DEFAULT_CAP,
                         rel: float = DEFAULT_REL_TOL) -> SearchResult:
    """All feasible boarding orders, in lexicographic pickup order.

    ``limit`` truncates the returned route list (the minimum-distance route
    is still taken over everything enumerated).
    """
    _check_searchable(instance, cap)
    n = instance.n
    rows = instance.rows
    ok = _stage_table(instance, rel)
    routes: list[Route] = []
    total_found = 0
    nodes = 0
    prunes = 0
    best: tuple[Route, float] | None = None

    order: list[int] = []
    used = [False] * (n + 1)

    def dfs(partial_dist: float) -> None:
        nonlocal nodes, prunes, best, total_found
        nodes += 1
        depth = len(order)
        if depth == n:
            total_found += 1
            route = Route.single_dropoff(order)
            if limit is None or len(routes) < limit:
                routes.append(route)
            full = partial_dist + instance.direct_distance(order[-1])
            if best is None or full < best[1]:
                best = (route, full)
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
    return SearchResult(
        routes=tuple(routes),
        optimal=best,
        stats=SearchStats(nodes_expanded=nodes, prunes=prunes),
        truncated=limit is not None and total_found > len(routes),
    )


def opt_sir_route(instance: Instance, cap: int = DEFAULT_CAP,
                  rel: float = DEFAULT_REL_TOL):
    """Minimum-total-distance feasible route, or None if none exists.

    Branch and bound: a partial boarding order is cut once its accumulated
    distance already reaches the incumbent (remaining legs are nonnegative,
    so zero is an admissible completion bound). Exact ties keep the
    lexicographically smallest pickup sequence.
    """
    _check_searchable(instance, cap)
    n = instance.n
    rows = instance.rows
    ok = _stage_table(instance, rel)
    best: tuple[Route, float] | None = None

    order: list[int] = []
    used = [False] * (n + 1)

    def dfs(partial_dist: float) -> None:
        nonlocal best
        if best is not None and partial_dist >= best[1]:
            return
        depth = len(order)
        if depth == n:
            full = partial_dist + instance.direct_distance(order[-1])
            if best is None or full < best[1]:
                best = (Route.single_dropoff(order), full)
            return
        for label in range(1, n + 1):
            if used[label]:
                continue
            if depth > 0 and not ok[depth + 1][order[-1]][label]:
                continue
            used[label] = True
            order.append(label)
            hop = 0.0 if depth == 0 else rows[order[-2] - 1][label - 1]
            dfs(partial_dist + hop)
            order.pop()
            used[label] = False

    dfs(0.0)
    return best


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
