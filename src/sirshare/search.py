"""Exact search over feasible single-dropoff routes.

Each stage constraint involves only the two pickups it connects and the
stage number, so every search request first tabulates all stage verdicts
once, in one array comparison of the instance's ``detour`` and ``budget``
tables under the stage test that ``sir_feasible`` applies:
``passes[j, a, b-1]`` (``_stage_verdicts``) says whether pickup b may board
j-th right after pickup a.
The problem is NP-hard in general (``reduce_hampath``), so the searches are
exponential; the line metric with equal rates is the polynomial special case.

- ``_subset_dp`` is the one dynamic program over (set of riders, end
  rider), the recursion of Bellman (1962) and Held & Karp (1962). Each of
  its two clients brings its masks, seeds and label rule: ``opt_sir_route``
  runs it forward over (set of boarded pickups, last pickup) on bitmasks,
  bit b-1 of ``ok[j][a]`` being ``passes[j, a, b-1]``, and
  ``starvation.min_route_starvation`` backward over (set of riders boarding
  last, first of them) on the transposed bitmasks.
- ``enumerate_sir_routes`` must list every feasible order. Every feasible
  order extends feasible prefixes, so ``_search`` walks the prefixes level
  by level in blocks of up to ``_BLOCK``, depth first and in lexicographic
  pickup order, and cuts a prefix as soon as its last stage fails. It
  keeps the listed orders as one ``RouteListing`` array of the smallest
  unsigned type, so memory is O(_BLOCK * n**2) during the walk plus
  count * n bytes for the listing (one byte per label up to 255 riders).

The optimum and the listing fold a route's distance the same way (hops left
to right, then the last rider's direct distance), and all three break exact
ties towards the lexicographically smallest pickup sequence.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import MalformedInputError, SizeError
from .instances import Instance, Route, _check_integer
from .numeric import DEFAULT_REL_TOL, check_tolerance, comparison_tolerances

DEFAULT_CAP = 10


@dataclass(frozen=True)
class SearchStats:
    nodes_expanded: int
    prunes: int


_ITER_ROWS = 1024  # rows that iterating a listing turns into Python lists at once


class RouteListing(Sequence[Route]):
    """Listed boarding orders, one row of ``orders`` per route.

    ``orders`` is a read-only (count, n) array of pickup labels. An int
    index gives ``Route.single_dropoff`` of that row, built on demand, and a
    slice gives a listing of the sliced rows; equality and hash follow the
    orders.
    """

    __slots__ = ("orders",)

    def __init__(self, orders: np.ndarray) -> None:
        orders = orders.view()  # read-only without freezing the caller's array
        orders.flags.writeable = False
        self.orders = orders

    def __len__(self) -> int:
        return len(self.orders)

    def __getitem__(self, k: int | slice) -> "Route | RouteListing":
        if isinstance(k, slice):
            return RouteListing(self.orders[k])
        return Route._of_order(tuple(self.orders[operator.index(k)].tolist()))

    def __iter__(self) -> Iterator[Route]:
        for lo in range(0, len(self.orders), _ITER_ROWS):
            yield from map(Route._of_order, map(tuple, self.orders[lo:lo + _ITER_ROWS].tolist()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RouteListing):
            return NotImplemented
        return np.array_equal(self.orders, other.orders)

    def __hash__(self) -> int:
        return hash((self.orders.shape, self.orders.astype(np.int64).tobytes()))

    def __reduce__(self):
        return RouteListing, (self.orders,)

    def __repr__(self) -> str:
        return f"RouteListing({self.orders!r})"


@dataclass(frozen=True)
class SearchResult:
    routes: RouteListing
    optimal: tuple[Route, float] | None
    stats: SearchStats
    truncated: bool


_BLOCK = 1 << 14  # prefixes that the walk extends in one array step


def _check_searchable(instance: Instance, cap: int, rel: float) -> None:
    check_tolerance(rel)
    _check_integer("the exact-search cap", cap)
    instance.require_single_dropoff("route search")
    if instance.n > cap:
        raise SizeError(
            f"n={instance.n} exceeds the exact-search cap {cap}; "
            "raise the cap explicitly to search anyway"
        )


def _stage_verdicts(instance: Instance, rel: float) -> np.ndarray:
    """``passes[j, a, b-1]``: may pickup b board j-th right after pickup a?

    For j >= 2 and a >= 1 a cell is ``approx_leq(detour[a][b], budget[j][b],
    rel)``, with ``comparison_tolerances`` as its slack. Stage 1 passes
    only from a = 0, because anyone may board first; every other cell of
    stage 0, stage 1 and row a = 0 fails.
    """
    n = instance.n
    detour = np.array(instance.detour)[1:, 1:]  # [a-1, b-1]
    budget = np.array(instance.budget)[2:, None, 1:]  # [j-2, -, b-1]
    slack = comparison_tolerances(np.maximum(np.abs(detour), np.abs(budget)), rel)
    with np.errstate(over="ignore"):  # a budget plus a huge slack is inf, as in approx_leq
        fits = detour <= budget + slack
    passes = np.zeros((n + 1, n + 1, n), dtype=bool)
    passes[1, 0] = True
    passes[2:, 1:] = fits
    return passes


def _masks(bits: np.ndarray) -> list[list[int]]:
    """A 3-d bool array as nested lists of ints: bit i of ``masks[x][y]`` is
    ``bits[x, y, i]``."""
    packed = np.packbits(bits, axis=-1, bitorder="little")
    width, per_row = packed.shape[-1], packed.shape[-2]
    data = packed.tobytes()
    flat = [int.from_bytes(data[k:k + width], "little") for k in range(0, len(data), width)]
    return [flat[k:k + per_row] for k in range(0, len(flat), per_row)]


def _search(instance: Instance, rel: float, cap: int,
            visit: Callable[[np.ndarray, np.ndarray], object]) -> SearchStats:
    """Walk the feasible boarding orders in lexicographic pickup order.

    The walk extends blocks of up to ``_BLOCK`` prefixes of one length at a
    time: one ``np.nonzero`` over the free pickups that pass the next stage
    lists a block's children in lexicographic order, and blocks are taken
    depth first. ``visit(orders, distances)`` sees each non-empty block of
    feasible complete orders, in lexicographic order: ``orders`` is an
    (m, n) array of pickup labels and ``distances`` their totals (hops left
    to right, then the last rider's direct trip). Memory is O(_BLOCK * n**2)
    beyond what ``visit`` keeps.
    """
    _check_searchable(instance, cap, rel)
    n = instance.n
    passes = _stage_verdicts(instance, rel)
    hops = np.zeros((n + 1, n))  # hops[a, b-1]; the first boarding adds no hop
    hops[1:] = instance.dist.entries[:n, :n]
    direct = np.array(instance.direct)
    nodes = prunes = 0

    def extend(orders: np.ndarray, last: np.ndarray, free: np.ndarray,
               dist: np.ndarray) -> None:
        nonlocal nodes, prunes
        nodes += len(dist)
        stage = orders.shape[1] + 1
        if stage > n:
            visit(orders, dist + direct[last])
            return
        allowed = free & passes[stage, last]
        prunes += int(np.count_nonzero(free) - np.count_nonzero(allowed))
        parents, picks = np.nonzero(allowed)
        for lo in range(0, len(parents), _BLOCK):
            parent, pick = parents[lo:lo + _BLOCK], picks[lo:lo + _BLOCK]
            child_free = free[parent]
            child_free[np.arange(len(parent)), pick] = False
            extend(np.column_stack((orders[parent], pick + 1)), pick + 1, child_free,
                   dist[parent] + hops[last[parent], pick])

    try:
        extend(np.empty((1, 0), dtype=np.intp), np.zeros(1, dtype=np.intp),
               np.ones((1, n), dtype=bool), np.zeros(1))
    finally:
        extend = None  # ``extend`` holds itself through its closure cell: free the cycle now
    return SearchStats(nodes_expanded=nodes, prunes=prunes)


def _subset_dp(n: int, moves: list[list[int]], seeds: dict[int, list],
               grow: Callable[[list, list, int, int], None]) -> dict[int, list] | None:
    """The Bellman (1962) / Held & Karp (1962) recursion over (set of riders,
    end rider), behind ``opt_sir_route`` and ``starvation.min_route_starvation``.

    ``seeds[r]`` holds the labels of the set {r}. Sets are expanded in
    ascending mask order, each once complete, then freed. Rider b may join a
    state of k riders ending at r when bit b-1 of ``moves[k-1][r]`` is set;
    ``grow(into, labels, r, b)`` then extends the labels by b into ``into``,
    the labels of (set | b, b), under the caller's dominance rule. Returns
    the full set's labels by end rider, or None when no order reaches it.
    Raises SizeError when Python cannot allocate the 2**n states.
    """
    try:
        states: list[dict[int, list] | None] = [None] * (1 << n)
    except (OverflowError, MemoryError):
        raise SizeError(f"n={n} needs a table of 2**{n} states, more than can be allocated") from None
    for r, labels in seeds.items():
        states[1 << (r - 1)] = {r: labels}
    full = (1 << n) - 1
    for mask in range(1, full):
        here = states[mask]
        if here is None:
            continue
        states[mask] = None  # every successor is a larger mask
        layer = moves[mask.bit_count() - 1]
        for key, labels in here.items():
            succs = layer[key] & ~mask
            while succs:
                bit = succs & -succs
                succs ^= bit
                b = bit.bit_length()
                succ = states[mask | bit]
                if succ is None:
                    succ = states[mask | bit] = {}
                grow(succ.setdefault(b, []), labels, key, b)
    return states[full]


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

    ``limit`` truncates the returned listing (the minimum-distance route is
    still taken over everything enumerated; 0 lists none). The walk is
    ``_search``'s, in O(_BLOCK * n**2) memory; the listing adds count * n
    bytes, one ``RouteListing`` row per order in the smallest unsigned type
    that holds n, and builds no object per order. Exact distance ties keep
    the first order: ``argmin`` within a block, a strict ``<`` across blocks.
    """
    if limit is not None:
        _check_integer("route limit", limit)
        if limit < 0:
            raise MalformedInputError(f"route limit must be >= 0, got {limit}")
    dtype = np.min_scalar_type(instance.n)
    blocks = [np.empty((0, instance.n), dtype)]
    found = kept = 0
    best: tuple[tuple[int, ...], float] | None = None

    def visit(block: np.ndarray, dists: np.ndarray) -> None:
        nonlocal found, kept, best
        found += len(dists)
        room = len(dists) if limit is None else limit - kept
        if room > 0:
            blocks.append(block[:room].astype(dtype))
            kept += len(blocks[-1])
        i = int(dists.argmin())
        if best is None or dists[i] < best[1]:
            best = (tuple(block[i].tolist()), float(dists[i]))

    stats = _search(instance, rel, cap, visit)
    return SearchResult(
        routes=RouteListing(np.concatenate(blocks)),
        optimal=None if best is None else (Route.single_dropoff(best[0]), best[1]),
        stats=stats,
        truncated=limit is not None and found > kept,
    )


def opt_sir_route(instance: Instance, cap: int = DEFAULT_CAP,
                  rel: float = DEFAULT_REL_TOL):
    """Minimum-total-distance feasible route, or None if none exists.

    Forward ``_subset_dp`` over (set of boarded pickups, last pickup): the
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
    ok = _masks(_stage_verdicts(instance, rel))
    slack = _rounding_slack(instance)

    def grow(into: list, labels: list, last: int, b: int) -> None:
        hop = rows[last - 1][b - 1]
        for dist, order in labels:
            dist += hop
            order += (b,)
            # a prefix beats another when it is no longer and has the smaller
            # order, or is shorter by more than ``slack``
            for d, o in into:
                if d + slack < dist or (d <= dist and o < order):
                    break
            else:
                if into:
                    into[:] = [(d, o) for d, o in into
                               if not (dist + slack < d or (dist <= d and order < o))]
                into.append((dist, order))

    # a state of k boarded pickups takes its next pickup at stage k + 1
    ends = _subset_dp(n, ok[2:], {p: [(0.0, (p,))] for p in range(1, n + 1)}, grow)
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
