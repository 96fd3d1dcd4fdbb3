"""Exact search over feasible single-dropoff routes.

Each stage constraint involves only the two pickups it connects and the
stage number, so every search request first tabulates all stage verdicts
once, ``passes[j, a, b-1]`` (``Instance._stage_verdicts``, under the stage
test ``instances._stage_fits`` that ``sir_feasible`` applies to its route):
may pickup b board j-th right after pickup a?
The problem is NP-hard in general (``reduce_hampath``), so the searches are
exponential; the line metric with equal rates is the polynomial special case.

- ``opt_sir_route`` runs the recursion of Bellman (1962) and Held & Karp
  (1962) over (set of boarded pickups, last pickup) in three steps. Two
  float64 value passes over the popcount layers of an (n, 2**n) table give
  each state its least prefix distance (forward) and its least suffix
  distance (backward). A state survives when the two add up to within
  ``_rounding_slack`` of the optimum; every state of every optimal order
  does. The exact label DP then picks the lexicographically smallest
  optimum over the survivors alone. Memory is O(2**n * n) per call, and a
  table that cannot fit in memory is refused before it is allocated.
- ``_subset_dp`` is the one label DP over (set of riders, end rider). Each
  of its two clients brings its moves, seeds and label rule:
  ``opt_sir_route`` runs it forward over the surviving states, and
  ``starvation.min_route_starvation`` backward over (set of riders boarding
  last, first of them) on the transposed stage bitmasks.
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

import functools
import operator
import os
import sys
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import MalformedInputError, SizeError
from .instances import Instance, Route, _check_integer, _line_coords
from .numeric import DEFAULT_REL_TOL, check_tolerance, rounding_slack

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


_BLOCK = 1 << 14  # prefixes the walk extends, or sums a value pass holds, in one array step


def _check_searchable(instance: Instance, cap: int, rel: float) -> None:
    check_tolerance(rel)
    _check_integer("the exact-search cap", cap)
    instance.require_single_dropoff("route search")
    if instance.n > cap:
        raise SizeError(
            f"n={instance.n} exceeds the exact-search cap {cap}; "
            "raise the cap explicitly to search anyway"
        )


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
    passes = instance._stage_verdicts(rel)
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


def _state_table_error(n: int) -> SizeError:
    return SizeError(f"n={n} needs a table of 2**{n} states, more than can be allocated")


def _subset_dp(n: int, moves: Callable[[int], Sequence[int]], seeds: dict[int, list],
               grow: Callable[[list, list, int, int], None]) -> dict[int, list] | None:
    """The label DP over (set of riders, end rider), behind ``opt_sir_route``
    and ``starvation.min_route_starvation``.

    ``seeds[r]`` holds the labels of the set {r}. Sets are expanded in
    ascending mask order, each once complete, then freed. Rider b may join
    the state (mask, r) when bit b-1 of ``moves(mask)[r]`` is set, b not in
    mask; ``grow(into, labels, r, b)`` then extends the labels by b into
    ``into``, the labels of (mask | b, b), under the caller's dominance rule.
    Returns the full set's labels by end rider, or None when no order
    reaches it. Raises SizeError when Python cannot allocate the 2**n states.
    """
    try:
        states: list[dict[int, list] | None] = [None] * (1 << n)
    except (OverflowError, MemoryError):
        raise _state_table_error(n) from None
    for r, labels in seeds.items():
        states[1 << (r - 1)] = {r: labels}
    full = (1 << n) - 1
    for mask in range(1, full):
        here = states[mask]
        if here is None:
            continue
        states[mask] = None  # every successor is a larger mask
        out = moves(mask)
        for key, labels in here.items():
            succs = out[key] & ~mask
            while succs:
                bit = succs & -succs
                succs ^= bit
                b = bit.bit_length()
                succ = states[mask | bit]
                if succ is None:
                    succ = states[mask | bit] = {}
                grow(succ.setdefault(b, []), labels, key, b)
    return states[full]


_STATE_BYTES = 32  # per (set, last) state: two float64 tables, the survivor flag, a layer index


def _layers(n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The moves out of each popcount layer k = 1..n-1 of n bits, as
    ``(masks, dst)``.

    ``masks`` lists the masks of k bits in ascending order. ``dst[b, m]`` is
    the flat index in an (n, 2**n) table of the state that rider b + 1
    joining ``masks[m]`` reaches, (b, masks[m] | 1 << b). Where rider b + 1
    is already in the mask it is 0, the cell of (rider 1, empty set), which
    is no state: the forward pass may write there, and the backward pass
    reads the inf it keeps there.
    """
    masks = np.arange(1 << n)
    pop = np.zeros(1 << n, dtype=np.intp)
    for b in range(n):
        pop += (masks >> b) & 1
    bits = 1 << np.arange(n)[:, None]
    layers = []
    for k in range(1, n):
        layer = np.flatnonzero(pop == k)
        dst = np.where(bits & layer, 0, (np.arange(n)[:, None] << n) + (layer | bits))
        layers.append((layer, dst))
    return layers


_cached_layers = functools.lru_cache(maxsize=None)(_layers)  # called for n <= DEFAULT_CAP only


def _min_plus(x: np.ndarray, h: np.ndarray) -> np.ndarray:
    """``out[c, m]`` = min over j of ``h[j, c] + x[j, m]``, a block of
    columns at a time so that at most about ``_BLOCK`` sums are held at once."""
    out = np.empty((h.shape[1], x.shape[1]))
    step = max(1, _BLOCK // h.size)
    h = h[:, :, None]
    for lo in range(0, x.shape[1], step):
        np.minimum.reduce(x[:, None, lo:lo + step] + h, axis=0, out=out[:, lo:lo + step])
    return out


def _near_optimal(instance: Instance, passes: np.ndarray) -> np.ndarray | None:
    """``keep[r-1, mask]``: does the state (boarded set ``mask``, last
    pickup r) lie within ``_rounding_slack`` of an optimal order? None when
    no order is feasible.

    The forward pass gives ``f[r-1, mask]``, the least distance of a
    feasible prefix reaching the state, folding hops left to right as the
    walk does; the backward pass gives ``g[r-1, mask]``, the least distance
    of a feasible way on, folding from the last rider's direct distance
    backwards. Each pass is one min-plus product per popcount layer.
    Rounding is monotone, so ``f`` and the optimum
    ``best = min(f[r-1, full] + direct[r])`` are exactly the floats of the
    best prefix fold and the best route fold.

    A state survives when ``f + g <= best + _rounding_slack``. Take an order
    whose fold is exactly ``best`` and one of its states. Its prefix and
    suffix folds bound ``f`` and ``g`` from above, and each differs from its
    exact sum by at most one rounding of 2**-53 * T per addition, T being n
    times the largest table entry; ``best`` differs from the order's exact
    sum by at most n - 1 such roundings. So ``f + g`` exceeds ``best`` by
    less than 2n * 2**-53 * T, and the slack is 32(n+1) * 2**-53 * T: every
    state of every optimal order survives.
    Raises SizeError, before allocating, when the tables cannot fit in the
    machine's memory.
    """
    n = instance.n
    try:
        memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):  # no sysconf: the allocation decides
        memory = sys.maxsize
    if (n << n) * _STATE_BYTES > memory:
        raise _state_table_error(n)
    layers = _cached_layers(n) if n <= DEFAULT_CAP else _layers(n)
    # hops[k-1][a-1, b-1]: the hop from a to b where b may board (k+1)-th right after a
    hops = np.where(passes[2:, 1:], instance.dist.entries[:n, :n], np.inf)
    direct = np.array(instance.direct[1:])
    try:
        f = np.full((n, 1 << n), np.inf)
        g = np.full((n, 1 << n), np.inf)
    except MemoryError:
        raise _state_table_error(n) from None
    f[np.arange(n), 1 << np.arange(n)] = 0.0
    f_flat, g_flat = f.reshape(-1), g.reshape(-1)
    for (masks, dst), hop in zip(layers, hops):
        f_flat[dst] = _min_plus(f[:, masks], hop)
    best = (f[:, -1] + direct).min()
    if best == np.inf:
        return None
    g[:, -1] = direct
    for (masks, dst), hop in zip(layers[::-1], hops[::-1]):
        g[:, masks] = _min_plus(g_flat[dst], hop.T)
    return np.add(f, g, out=g) <= best + _rounding_slack(instance)


def _surviving_moves(passes: np.ndarray, keep: np.ndarray) -> dict[int, list[int]]:
    """``moves[mask][r]``: bit b-1 is set when pickup b may board right after
    the surviving state (mask, r) and (mask | b, b) survives too."""
    n = len(keep)
    bits = 1 << np.arange(n)
    masks, lasts = np.nonzero(keep[:, :-1].T)  # ascending masks; the full set moves no further
    free = (masks[:, None] & bits) == 0
    stage = n + 1 - np.count_nonzero(free, axis=1)  # the next boarding's stage
    onward = (free & passes[stage, lasts + 1] & keep[np.arange(n), masks[:, None] | bits]) @ bits
    first = np.ones(len(masks), dtype=bool)  # the first survivor of each set
    first[1:] = masks[1:] != masks[:-1]
    table = np.zeros((np.count_nonzero(first), n + 1), dtype=np.int64)
    table[np.cumsum(first) - 1, lasts + 1] = onward
    return dict(zip(masks[first].tolist(), table.tolist()))


def _rounding_slack(instance: Instance) -> float:
    """A distance gap that no n further roundings can close.

    Every partial sum of a route is below T = n * (largest table entry), and
    each addition or division rounds by at most 2**-53 of its result, so
    after n more steps two values that started more than 2(n+1)·2**-53·T
    apart still compare the same way. This returns 16 times that bound,
    ``numeric.rounding_slack`` of the largest entry.
    """
    return rounding_slack(instance.n, max(map(max, instance.rows)))


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

    The Bellman--Held--Karp recursion over (set of boarded pickups, last
    pickup), in three steps over the ``Instance._stage_verdicts`` table:

    1. a forward value pass over the popcount layers gives each state its
       least prefix distance, folding hops left to right as the walk does;
       its best full state plus the last rider's direct distance is the
       optimum, bit for bit;
    2. a backward pass over the same layers gives each state its least
       suffix distance, and a state survives when the two add up to within
       ``_rounding_slack`` of the optimum, which keeps every state of every
       optimal order (``_near_optimal`` gives the rounding bound);
    3. the label DP (``_subset_dp``) runs forward over the surviving states
       alone, each holding its best prefixes as (partial distance, order).

    Exact ties keep the lexicographically smallest pickup sequence, even
    where rounding makes two different partial distances end in the same
    total: a state keeps a longer prefix beside a shorter one while its
    order is smaller and the gap is within ``_rounding_slack``, which no
    later rounding can close. When the optimum is unique up to such
    near-ties, about n states survive; where many orders tie exactly, as on
    ``reduce_hampath`` tables, most reachable states do.

    The passes take O(2**n * n**2) time and O(2**n * n) memory; SizeError
    refuses, before allocating, tables that cannot fit in the machine's
    memory.
    """
    _check_searchable(instance, cap, rel)
    n = instance.n
    passes = instance._stage_verdicts(rel)
    keep = _near_optimal(instance, passes)
    if keep is None:
        return None
    rows = instance.rows
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

    seeds = {p: [(0.0, (p,))] for p in range(1, n + 1) if keep[p - 1, 1 << (p - 1)]}
    ends = _subset_dp(n, _surviving_moves(passes, keep).__getitem__, seeds, grow)
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
    *positions, d = _line_coords(positions, dropoff)
    lo, hi = min(positions), max(positions)
    if lo < d < hi:
        return None
    labels = sorted(range(1, len(positions) + 1),
                    key=lambda k: (-abs(positions[k - 1] - d), k))
    return Route.single_dropoff(labels)
