"""Reference computations the benchmark checks the library against.

Nothing here imports ``sirshare``. Every function works from plain distance
rows (lists of floats, the pickups first and the shared dropoff last) and
the rates, so a defect in the library cannot hide inside its own check.
Comparisons use the library's documented rule: a relative tolerance of
1e-9 with an absolute floor of 1e-12.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

REL = 1e-9
FLOOR = 1e-12


def slack(a: float, b: float) -> float:
    return max(REL * max(abs(a), abs(b)), FLOOR)


def leq(a: float, b: float) -> bool:
    return a <= b + slack(a, b)


def close(a: float, b: float) -> bool:
    return abs(a - b) <= slack(a, b)


# ---------------------------------------------------------------------------
# Single-dropoff routes: pickup labels are 1-based, the dropoff is row n.
# ---------------------------------------------------------------------------

def stage_budget(sd: float, weight_before: float, alpha_op: float, regime: str) -> float:
    """Largest detour the j-th boarding may add, given the newcomer's direct
    distance ``sd`` and the summed sensitivity of the riders already aboard."""
    if regime == "zero":
        return sd
    if regime == "infinite":
        return 0.0
    return sd / (1.0 + weight_before / alpha_op)


def feasible(rows, order, alphas, alpha_op, regime) -> bool:
    drop = len(rows) - 1
    weight = 0.0
    for j in range(2, len(order) + 1):
        a, b = order[j - 2] - 1, order[j - 1] - 1
        weight += alphas[j - 2]
        detour = rows[a][b] + rows[b][drop] - rows[a][drop]
        if not leq(detour, stage_budget(rows[b][drop], weight, alpha_op, regime)):
            return False
    return True


def route_length(rows, order) -> float:
    """Hops folded left to right, then the last pickup to the dropoff."""
    total = 0.0
    for a, b in zip(order, order[1:]):
        total += rows[a - 1][b - 1]
    return total + rows[order[-1] - 1][len(rows) - 1]


def starvation_factor(rows, order) -> float:
    """Largest ratio of a rider's ride to their direct distance."""
    drop = len(rows) - 1
    worst = 0.0
    ride = rows[order[-1] - 1][drop]
    for i in range(len(order) - 1, -1, -1):
        if i < len(order) - 1:
            ride += rows[order[i] - 1][order[i + 1] - 1]
        worst = max(worst, ride / rows[order[i] - 1][drop])
    return worst


def starvation_ceiling(n, alphas, alpha_op, regime) -> float | None:
    """The paper's ceiling on feasible routes, when its weight condition holds."""
    if regime == "infinite":
        return 1.0
    if regime == "zero":
        return float(2 ** n)
    if all(a >= alpha_op for a in alphas):
        return 2.0 * math.sqrt(n)
    return None


def stage_lengths(rows, order) -> list[float]:
    """d[j]: length of the route once the first j riders have boarded."""
    drop = len(rows) - 1
    d = [0.0]
    hops = 0.0
    for j in range(1, len(order) + 1):
        if j >= 2:
            hops += rows[order[j - 2] - 1][order[j - 1] - 1]
        d.append(hops + rows[order[j - 1] - 1][drop])
    return d


def disutility_rows(shares, rows, order, alphas, alpha_op) -> list[list[float]]:
    """Rider i's share plus inconvenience at stages i-1 (private fare) .. n."""
    n = len(order)
    drop = len(rows) - 1
    direct = [rows[p - 1][drop] for p in order]
    d = stage_lengths(rows, order)
    out = []
    for i in range(1, n + 1):
        row = [alpha_op * direct[i - 1]]
        for j in range(i, n + 1):
            ride = d[j] - (d[i] - direct[i - 1])  # distance from pickup i to the end
            row.append(shares[j - 1][i - 1] + alphas[i - 1] * (ride - direct[i - 1]))
        out.append(row)
    return out


def table_problems(shares, rows, order, alphas, alpha_op, expect_sir: bool) -> str | None:
    """Budget balance at every stage and, if asked, nonincreasing disutility."""
    d = stage_lengths(rows, order)
    for j, row in enumerate(shares, start=1):
        if len(row) != j:
            return f"stage {j} row has {len(row)} shares"
        if not close(math.fsum(row), alpha_op * d[j]):
            return f"stage {j} shares sum to {math.fsum(row)!r}, operator cost {alpha_op * d[j]!r}"
    if expect_sir:
        for i, row in enumerate(disutility_rows(shares, rows, order, alphas, alpha_op), 1):
            for a, b in zip(row, row[1:]):
                if not leq(b, a):
                    return f"rider {i} disutility rises from {a!r} to {b!r}"
    return None


@functools.lru_cache(maxsize=None)
def permutations(n: int) -> np.ndarray:
    """All orders of 1..n, one per row, in lexicographic order (read-only)."""
    perms = np.array(list(itertools.permutations(range(1, n + 1))), dtype=np.intp)
    perms.setflags(write=False)
    return perms


def brute_force(rows, alphas, alpha_op, regime) -> tuple[bytes, float, float]:
    """Every boarding order by enumeration: the feasible ones in
    lexicographic order (one byte per label, orders concatenated), the
    shortest length and the least starvation. Each stage test does the
    same arithmetic as ``feasible``, one order per array row."""
    n = len(rows) - 1
    d = np.asarray(rows, dtype=float)
    perms = permutations(n)
    a, b = perms[:, :-1] - 1, perms[:, 1:] - 1
    sd = d[b, n]
    detour = d[a, b] + sd - d[a, n]
    weight = np.cumsum(alphas)[:n - 1]
    if regime == "zero":
        budget = sd
    elif regime == "infinite":
        budget = np.zeros_like(sd)
    else:
        budget = sd / (1.0 + weight / alpha_op)
    tol = np.maximum(REL * np.maximum(np.abs(detour), np.abs(budget)), FLOOR)
    ok = np.all(detour <= budget + tol, axis=1)
    if not ok.any():
        return b"", math.inf, math.inf
    perms, hops = perms[ok], d[a, b][ok]
    last = d[perms[:, -1] - 1, n]
    # ride of the i-th boarder: the hops after it plus the last leg to the dropoff
    rides = last[:, None] + np.cumsum(hops[:, ::-1], axis=1)[:, ::-1]
    rides = np.concatenate([rides, last[:, None]], axis=1)
    gamma = (rides / d[perms - 1, n]).max(axis=1)
    return perms.astype(np.uint8).tobytes(), float(rides[:, 0].min()), float(gamma.min())


# ---------------------------------------------------------------------------
# Routes with a dropoff per rider (``drop_of[p]`` is pickup p's dropoff row).
# ---------------------------------------------------------------------------

def general_stage_lengths(rows, events, drop_of) -> list[float]:
    """d[j]: length of the event sequence with riders boarding after j removed."""
    order = [idx for kind, idx in events if kind == "P"]
    n = len(order)
    d = [0.0]
    for j in range(1, n + 1):
        points = []
        rank = 0
        for kind, idx in events:
            if kind == "P":
                rank += 1
                if rank <= j:
                    points.append(idx - 1)
            elif idx <= j:
                points.append(drop_of[order[idx - 1]])
        d.append(sum(rows[a][b] for a, b in zip(points, points[1:])))
    return d


# ---------------------------------------------------------------------------
# Allocation: riders board in index order, vehicles ride increasing subsequences.
# ---------------------------------------------------------------------------

def allocation_problems(rows, vehicles, m_prime=None) -> str | None:
    n = len(rows) - 1
    seen = sorted(u for v in vehicles for u in v)
    if seen != list(range(1, n + 1)):
        return f"vehicles cover {seen}, expected 1..{n} once each"
    for v in vehicles:
        if list(v) != sorted(v):
            return f"vehicle {v} does not ride in boarding order"
    if m_prime is not None and len(vehicles) != m_prime:
        return f"{len(vehicles)} vehicles, asked for {m_prime}"
    return None


def allocation_miles(rows, vehicles) -> float:
    drop = len(rows) - 1
    total = 0.0
    for v in vehicles:
        for a, b in zip(v, v[1:]):
            total += rows[a - 1][b - 1]
        total += rows[v[-1] - 1][drop]
    return total


def allocation_optimum(rows) -> float:
    """Least vehicle-miles over any number of vehicles.

    Each rider picks a successor: a later rider nobody else picked, or the
    dropoff. Every such choice is a set of vehicles and back, so the optimum
    is a min-cost assignment of riders to later riders or dropoff copies.
    """
    n = len(rows) - 1
    d = np.asarray(rows, dtype=float)
    big = 1e6 * (1.0 + float(d.max()))
    cost = np.full((n, 2 * n), big)
    for u in range(n):
        cost[u, u + 1:n] = d[u, u + 1:n]
        cost[u, n:] = d[u, n]
    return float(sum(cost[u, c] for u, c in enumerate(assignment(cost))))


def assignment(cost: np.ndarray) -> list[int]:
    """Column for each row of a min-cost assignment (rows <= columns).

    Shortest augmenting paths with potentials (Kuhn-Munkres in the
    Jonker-Volgenant form), one row at a time, vectorised over columns.
    """
    n, m = cost.shape
    u = np.zeros(n + 1)
    v = np.zeros(m + 1)
    owner = np.zeros(m + 1, dtype=int)  # row (1-based) matched to column j; 0 is free
    way = np.zeros(m + 1, dtype=int)
    a = np.zeros((n + 1, m + 1))
    a[1:, 1:] = cost
    for i in range(1, n + 1):
        owner[0] = i
        j0 = 0
        minv = np.full(m + 1, np.inf)
        used = np.zeros(m + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = owner[j0]
            cur = a[i0] - u[i0] - v
            better = ~used & (cur < minv)
            minv[better] = cur[better]
            way[better] = j0
            free = np.where(used, np.inf, minv)
            free[0] = np.inf
            j1 = int(np.argmin(free))
            delta = free[j1]
            u[owner[used]] += delta
            v[used] -= delta
            minv[~used] -= delta
            j0 = j1
            if owner[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            owner[j0] = owner[j1]
            j0 = j1
    cols = [0] * n
    for j in range(1, m + 1):
        if owner[j]:
            cols[owner[j] - 1] = j - 1
    return cols
