"""Optimal assignment of order-constrained riders to uncapacitated vehicles.

Riders share one dropoff and a fixed global boarding order (rider u is the
u-th pickup); each vehicle serves an increasing subsequence. An allocation
is a set of chaining legs u -> v (u < v: rider v is the next to board
after rider u) in which no rider leaves or is boarded after twice, that is
a matching in the chaining matrix whose rows are riders leaving and whose
columns are riders boarding next. A matching of t legs is n - t vehicles,
and its vehicle-miles are sum_u d(u, D) plus the legs' costs
c(u, v) = d(u, v) - d(u, D).

Successive shortest paths on that matrix hold, after t augmentations, the
cheapest matching of t legs, and the path lengths never decrease. So one
pass serves every vehicle count: a sweep stops at the first path that would
add miles, a fixed count m' after n - m' augmentations. The pass is itself
min-cost flow, solved by successive shortest paths with potentials
(Tomizawa 1971; Edmonds & Karp 1972), on the bipartite form of the paper's
network. The paper's own formulation, min-cost max-flow for a guessed m' on
a DAG of 2n + 3 nodes, lives in ``tests/flow_oracle.py`` as the independent
check of this pass; the set-partition brute force below is the desk-scale
oracle that ``sirshare allocate --oracle`` runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FlowExtractionError, MalformedInputError, SizeError
from .instances import Instance, _check_integer
from .numeric import DEFAULT_REL_TOL, check_tolerance, comparison_tolerance

BRUTE_FORCE_CAP = 9
# Relative rounding slack of the matching pass's own sums; the certificate
# and the sweep's tie window never go below it, so rel=0 works on float tables.
_ROUNDING = 2.0 ** -40


@dataclass(frozen=True)
class Allocation:
    """Vehicles as increasing rider subsequences covering 1..n."""

    vehicles: tuple[tuple[int, ...], ...]
    total_miles: float

    @property
    def m_prime(self) -> int:
        return len(self.vehicles)


class _Matching:
    """Cheapest matchings of growing size in a chaining matrix.

    ``cost[i, j]`` is the leg from rider i + 1 to rider j + 2 (+inf where
    j < i). Augmenting paths run on the residual graph: source -> free row,
    row -> column, matched column -> its row, free column -> sink. The
    potentials (``pot_row``, ``pot_col``, ``pot_sink``; the source's is 0)
    keep every reduced cost ``cost + pot[tail] - pot[head]`` nonnegative,
    and ``pot_sink`` is the length of the last path found.
    """

    def __init__(self, cost: np.ndarray):
        m = cost.shape[0]
        self.cost = cost
        self.row_match = np.full(m, -1)
        self.col_match = np.full(m, -1)
        self.pot_row = np.zeros(m)
        self.pot_col = cost.min(axis=0) if m else np.zeros(0)
        self.pot_sink = float(self.pot_col.min()) if m else 0.0

    def shortest_path(self):
        """Dijkstra from every free row; returns (end column, predecessor rows) or None.

        Columns are settled cheapest first, and the search ends once the
        cheapest unsettled column is no shorter than the best path found to
        the sink. ``key`` holds each unsettled column's distance and ``+inf``
        once it is settled, so its argmin is the next column to settle.
        Potentials then rise by ``min(dist, dist_sink)``, so the path's real
        length is the new ``pot_sink``. Ties go to the lowest index.
        """
        cost, row_match, pot_col = self.cost, self.row_match, self.pot_col
        free_rows = np.flatnonzero(row_match < 0)
        if not free_rows.size:
            return None
        # a free row r sits at -pot_row[r], so its legs reach columns at cost - pot_col
        reach = cost[free_rows] - pot_col
        pick = reach.argmin(axis=0)
        dist = reach[pick, np.arange(len(pick))]
        pred = free_rows[pick]
        # the edge to the sink: pot_col - pot_sink from a free column, none from a matched one
        sink_col = np.where(self.col_match < 0, pot_col - self.pot_sink, np.inf)
        via_sink = dist + sink_col
        end = int(via_sink.argmin())
        dist_sink = via_sink[end]
        key = dist.copy()
        open_ = np.ones(len(dist), dtype=bool)
        col_match, pot_row = self.col_match.tolist(), self.pot_row.tolist()
        while True:
            v = int(key.argmin())
            dist_v = key[v]
            if not dist_v < dist_sink:
                break
            key[v] = np.inf
            open_[v] = False
            r = col_match[v]
            if r < 0:  # a free column leads only to the sink
                continue
            via = cost[r] + (dist_v + pot_row[r]) - pot_col
            better = via < dist
            better &= open_
            np.copyto(dist, via, where=better)
            np.copyto(key, via, where=better)
            np.copyto(pred, r, where=better)
            via += sink_col
            via[~better] = np.inf
            k = int(via.argmin())
            if via[k] < dist_sink:
                end, dist_sink = k, via[k]
        if dist_sink == np.inf:
            return None
        step = np.minimum(dist, dist_sink)
        matched = row_match >= 0
        self.pot_row[matched] += step[row_match[matched]]
        self.pot_row[~matched] += np.minimum(-self.pot_row[~matched], dist_sink)
        self.pot_col += step
        self.pot_sink += float(dist_sink)
        return end, pred

    def augment(self, path) -> None:
        v, pred = path
        while True:
            r = pred[v]
            left = self.row_match[r]
            self.row_match[r], self.col_match[v] = v, r
            if left < 0:
                return
            v = left

    def certify(self, tol: float) -> None:
        """Raise FlowExtractionError unless the potentials prove the matching cheapest.

        No residual edge may have reduced cost below ``-tol``: every leg's
        is at least ``-tol``, and a matched leg's, whose reverse edge is in
        the residual graph too, at most ``tol``. Then the residual graph has
        no negative cycle, so no matching of the same size costs less.
        O(n^2) numpy work.
        """
        row_match, col_match = self.row_match, self.col_match
        pot_row, pot_col, pot_sink = self.pot_row, self.pot_col, self.pot_sink
        rows = np.flatnonzero(row_match >= 0)
        cols = row_match[rows]
        reduced = self.cost + pot_row[:, None] - pot_col
        conditions = (
            ("a matching", np.array_equal(col_match[cols], rows)
             and np.count_nonzero(col_match >= 0) == len(rows)),
            ("nonnegative reduced leg costs", np.all(reduced >= -tol)),
            ("tight matched legs", np.all(reduced[rows, cols] <= tol)),
            ("nonnegative source edges",
             np.all(np.where(row_match >= 0, pot_row, -pot_row) >= -tol)),
            ("nonnegative sink edges",
             np.all(np.where(col_match >= 0, pot_sink - pot_col, pot_col - pot_sink) >= -tol)),
        )
        for name, holds in conditions:
            if not holds:
                raise FlowExtractionError(f"matching fails its optimality certificate: {name}")

    def vehicles(self) -> tuple[tuple[int, ...], ...]:
        """Chains of riders, ordered by their first rider."""
        after = {i + 1: j + 2 for i, j in enumerate(self.row_match.tolist()) if j >= 0}
        boarded_after = set(after.values())
        chains = []
        for u in range(1, len(self.row_match) + 2):
            if u not in boarded_after:
                chain = [u]
                while chain[-1] in after:
                    chain.append(after[chain[-1]])
                chains.append(tuple(chain))
        return tuple(chains)


def _chaining_matrix(instance: Instance) -> np.ndarray:
    """``cost[i, j] = d(i+1, j+2) - d(i+1, D)``: rider j + 2 boards next after rider i + 1."""
    n = instance.n
    d = instance.dist.entries
    cost = d[:n - 1, 1:n] - d[:n - 1, n:]
    cost[np.tril_indices(n - 1, -1)] = np.inf  # a rider only boards after earlier ones
    return cost


def _fold_miles(rows, big_l: float, vehicles) -> float:
    """Vehicle-miles folded as the flow's legs: chaining legs (d - L) + L, in chain order."""
    n = len(rows) - 1
    total = 0.0
    for chain in vehicles:
        for a, b in zip(chain, chain[1:]):
            total += (rows[a - 1][b - 1] - big_l) + big_l
        total += rows[chain[-1] - 1][n]
    return total


def optimal_allocation(instance: Instance, m_prime: int | None = None,
                       rel: float = DEFAULT_REL_TOL) -> Allocation:
    """Cheapest allocation over all vehicle counts 1..n, or with exactly ``m_prime`` vehicles.

    One successive-shortest-paths pass over the chaining matrix (see
    ``_Matching``) serves both. The sweep stops at the first augmenting path
    longer than the tolerance, since later counts only cost more; exact ties
    keep fewer vehicles. A fixed count stops after n - m' augmentations.
    ``total_miles`` folds each chaining leg as (d - L) + L, as the paper's
    flow network costs it, so where the cheapest allocation of a count is
    unique the result is ``==`` to that flow's on the m' network; among
    allocations that tie exactly, the two may pick different ones. Every
    result is checked by the potentials' dual certificate
    (``_Matching.certify``); ``rel`` sets its slack and the sweep's tie
    window, relative to n * L.

    Cost: O(n) augmentations of O(n^2) numpy work each, O(n^2) memory.
    """
    check_tolerance(rel)
    instance.require_single_dropoff("allocation")
    n = instance.n
    if m_prime is not None:
        _check_integer("vehicle guess m_prime", m_prime)
        if not 1 <= m_prime <= n:
            raise MalformedInputError(f"vehicle guess {m_prime} out of range 1..{n}")
    rows = instance.rows
    # L as the paper's flow network sets it: 3x the largest entry (margin over
    # the 2x it needs), or 1.0 for an all-zero table; the miles fold with it
    big_l = 3.0 * max(max(r) for r in rows) or 1.0
    tol = max(comparison_tolerance(n * big_l, rel), n * big_l * _ROUNDING)
    matching = _Matching(_chaining_matrix(instance))

    if m_prime is not None:
        for _ in range(n - m_prime):
            matching.augment(matching.shortest_path())
        matching.certify(tol)
        vehicles = matching.vehicles()
        return Allocation(vehicles=vehicles, total_miles=_fold_miles(rows, big_l, vehicles))

    # Counts whose next path is shorter than -tol are beaten by the next
    # count; the rest are certified and compared on their folded miles,
    # fewer vehicles winning exact ties.
    best = None
    while True:
        path = matching.shortest_path()
        length = matching.pot_sink if path is not None else math.inf
        if length >= -tol:
            matching.certify(tol)
            vehicles = matching.vehicles()
            miles = _fold_miles(rows, big_l, vehicles)
            if best is None or miles <= best.total_miles:
                best = Allocation(vehicles=vehicles, total_miles=miles)
        if length > tol:
            return best
        matching.augment(path)


def brute_force_allocation(instance: Instance) -> Allocation:
    """Exhaustive oracle over all partitions into increasing subsequences.

    Any subset ridden in index order is increasing, so this is a sweep over
    set partitions. Ties prefer fewer vehicles, then the lexicographically
    smallest partition.
    """
    instance.require_single_dropoff("allocation")
    n = instance.n
    if n > BRUTE_FORCE_CAP:
        raise SizeError(f"brute force capped at n={BRUTE_FORCE_CAP}, got {n}")
    rows = instance.rows

    def block_cost(block: list[int]) -> float:
        total = 0.0
        for a, b in zip(block, block[1:]):
            total += rows[a - 1][b - 1]
        return total + rows[block[-1] - 1][n]

    best_key: tuple | None = None
    best: Allocation | None = None
    blocks: list[list[int]] = []

    def rec(u: int) -> None:
        nonlocal best, best_key
        if u > n:
            cost = sum(block_cost(b) for b in blocks)
            shape = tuple(tuple(b) for b in blocks)
            key = (len(blocks), shape)
            if best is None or cost < best.total_miles or \
                    (cost == best.total_miles and key < best_key):
                best = Allocation(vehicles=shape, total_miles=cost)
                best_key = key
            return
        for b in blocks:
            b.append(u)
            rec(u + 1)
            b.pop()
        blocks.append([u])
        rec(u + 1)
        blocks.pop()

    rec(1)
    return best
