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
add miles, a fixed count m' after n - m' augmentations. The paper's
formulation, min-cost max-flow for a guessed m' on a DAG of 2n + 3 nodes
(``build_network``, ``min_cost_max_flow``, ``extract_allocation``), stays
public as an independent check, and a set-partition brute force serves as
the desk-scale oracle.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import FlowExtractionError, MalformedInputError, SizeError, UnsupportedModeError
from .instances import SINGLE, Instance
from .numeric import DEFAULT_REL_TOL, check_tolerance, comparison_tolerance

BRUTE_FORCE_CAP = 9
# Relative rounding slack of the matching pass's own sums; the certificate
# and the sweep's tie window never go below it, so rel=0 works on float tables.
_ROUNDING = 2.0 ** -40


@dataclass(frozen=True)
class FlowNetwork:
    """DAG flow network for one vehicle-count guess.

    Node ids: source 0, rider u's entry 2u-1 and exit 2u, dropoff 2n+1,
    sink 2n+2. ``edges`` are (tail, head, cost, capacity) in construction
    order. Chaining rider u before v costs d(u, v) - ``big_L``, where
    ``big_L`` is three times the largest table entry, or 1.0 when every
    entry is 0; either way it exceeds twice every distance, so covering
    every rider is always cheapest.
    """

    n: int
    m_prime: int
    big_L: float
    edges: tuple[tuple[int, int, float, int], ...]

    @property
    def num_nodes(self) -> int:
        return 2 * self.n + 3

    @property
    def source(self) -> int:
        return 0

    @property
    def sink(self) -> int:
        return 2 * self.n + 2

    @property
    def dropoff(self) -> int:
        return 2 * self.n + 1

    def entry(self, u: int) -> int:
        return 2 * u - 1

    def exit(self, u: int) -> int:
        return 2 * u


@dataclass(frozen=True)
class FlowResult:
    value: int
    cost: float
    flows: tuple[int, ...]  # aligned with FlowNetwork.edges
    disconnected: bool = False


@dataclass(frozen=True)
class Allocation:
    """Vehicles as increasing rider subsequences covering 1..n."""

    vehicles: tuple[tuple[int, ...], ...]
    total_miles: float

    @property
    def m_prime(self) -> int:
        return len(self.vehicles)


def _check_allocatable(instance: Instance, m_prime: int | None) -> None:
    if instance.dropoff_mode != SINGLE:
        raise UnsupportedModeError("allocation is defined for the single-dropoff setting")
    if m_prime is not None and not 1 <= m_prime <= instance.n:
        raise MalformedInputError(f"vehicle guess {m_prime} out of range 1..{instance.n}")


def _big_l(rows) -> float:
    # max over pickups and the dropoff; 3x leaves margin over the required 2x,
    # and an all-zero table still needs a positive reward for chaining
    return 3.0 * max(max(r) for r in rows) or 1.0


def build_network(instance: Instance, m_prime: int) -> FlowNetwork:
    _check_allocatable(instance, m_prime)
    n = instance.n
    rows = instance.rows
    big_l = _big_l(rows)

    net = FlowNetwork(n=n, m_prime=m_prime, big_L=big_l, edges=())
    edges: list[tuple[int, int, float, int]] = []
    for u in range(1, n + 1):
        edges.append((net.entry(u), net.exit(u), 0.0, 1))
    for u in range(1, n + 1):
        edges.append((net.source, net.entry(u), 0.0, 1))
    for u in range(1, n + 1):
        edges.append((net.exit(u), net.dropoff, rows[u - 1][n], 1))
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            edges.append((net.exit(u), net.entry(v), rows[u - 1][v - 1] - big_l, 1))
    edges.append((net.dropoff, net.sink, 0.0, m_prime))
    return FlowNetwork(n=n, m_prime=m_prime, big_L=big_l, edges=tuple(edges))


def min_cost_max_flow(network: FlowNetwork) -> FlowResult:
    """Integral min-cost max-flow by successive shortest paths.

    Node ids ascend along every edge, so one relaxation pass in id order
    yields exact shortest distances despite the negative chaining costs;
    those seed the potentials, after which every Dijkstra runs on
    nonnegative reduced costs. Augmenting paths are chosen smallest-node
    first among equals, making the flow deterministic. The run stops at
    value m' or when the sink becomes unreachable.
    """
    num = network.num_nodes
    s, t = network.source, network.sink

    # residual graph: per edge store [head, remaining_cap, cost, index_of_twin]
    graph: list[list[list]] = [[] for _ in range(num)]
    forward_ref: list[tuple[int, int]] = []
    for tail, head, cost, cap in network.edges:
        graph[tail].append([head, cap, cost, len(graph[head])])
        graph[head].append([tail, 0, -cost, len(graph[tail]) - 1])
        forward_ref.append((tail, len(graph[tail]) - 1))

    inf = math.inf
    pot = [inf] * num
    pot[s] = 0.0
    for u in range(num):  # ids are topologically ordered by construction
        if pot[u] == inf:
            continue
        for head, cap, cost, _ in graph[u]:
            if cap > 0 and pot[u] + cost < pot[head]:
                pot[head] = pot[u] + cost

    flow_value = 0
    while flow_value < network.m_prime:
        dist = [inf] * num
        dist[s] = 0.0
        prev: list[tuple[int, int] | None] = [None] * num
        settled = [False] * num
        heap = [(0.0, s)]
        while heap:
            d_u, u = heapq.heappop(heap)
            if settled[u]:
                continue
            # a settled node is final: rounding can leave a reduced cost a
            # hair below 0, and reopening nodes could close a loop in prev
            settled[u] = True
            for ei, (head, cap, cost, _) in enumerate(graph[u]):
                if cap <= 0 or pot[head] == inf or settled[head]:
                    continue
                nd = d_u + cost + pot[u] - pot[head]
                if nd < dist[head]:
                    dist[head] = nd
                    prev[head] = (u, ei)
                    heapq.heappush(heap, (nd, head))
        if dist[t] == inf:
            break
        for v in range(num):
            if dist[v] < inf:
                pot[v] += dist[v]
        # bottleneck along the augmenting path
        push = math.inf
        v = t
        while v != s:
            u, ei = prev[v]
            push = min(push, graph[u][ei][1])
            v = u
        push = int(push)
        v = t
        while v != s:
            u, ei = prev[v]
            edge = graph[u][ei]
            edge[1] -= push
            graph[edge[0]][edge[3]][1] += push
            v = u
        flow_value += push

    flows = tuple(
        network.edges[k][3] - graph[u][ei][1] for k, (u, ei) in enumerate(forward_ref)
    )
    cost = sum(f * e[2] for f, e in zip(flows, network.edges))
    return FlowResult(value=flow_value, cost=cost, flows=flows,
                      disconnected=flow_value < network.m_prime)


def extract_allocation(network: FlowNetwork, flow: FlowResult,
                       rel: float = DEFAULT_REL_TOL) -> Allocation:
    """Contract the unit flow paths into vehicle subsequences.

    Asserts the structure an optimal flow must have rather than assuming
    it: exactly m' vertex-disjoint source-to-dropoff paths that jointly
    cover every rider, and a flow cost that differs from the allocation's
    vehicle-miles by exactly (n - m') * L. The miles are read off the edge
    costs (chaining legs plus ``big_L``), so the check shares no arithmetic
    with the solver.
    """
    check_tolerance(rel)
    if flow.disconnected:
        raise FlowExtractionError("flow did not reach the sink; network is malformed")
    n = network.n
    starts: list[int] = []
    next_of: dict[int, int | None] = {}
    entry_units = [0] * (n + 1)
    cost_to_drop = {}
    cost_between = {}
    for (tail, head, cost, _), f in zip(network.edges, flow.flows):
        if tail == network.source:
            if f:
                starts.append((head + 1) // 2)
                entry_units[(head + 1) // 2] += f
        elif head == network.dropoff:
            cost_to_drop[tail // 2] = cost
            if f:
                next_of[tail // 2] = None
        elif tail % 2 == 0 and head % 2 == 1:
            u, v = tail // 2, (head + 1) // 2
            cost_between[(u, v)] = cost + network.big_L
            if f:
                next_of[u] = v
                entry_units[v] += f
    for u in range(1, n + 1):
        if entry_units[u] != 1:
            raise FlowExtractionError(
                f"rider {u} receives {entry_units[u]} units of flow; an optimal "
                "flow routes exactly one unit through every rider"
            )
    if len(starts) != flow.value:
        raise FlowExtractionError(
            f"{len(starts)} paths leave the source but flow value is {flow.value}"
        )

    vehicles = []
    covered = 0
    total = 0.0
    for u in sorted(starts):
        chain = [u]
        while next_of.get(chain[-1]) is not None:
            total += cost_between[(chain[-1], next_of[chain[-1]])]
            chain.append(next_of[chain[-1]])
        total += cost_to_drop[chain[-1]]
        covered += len(chain)
        vehicles.append(tuple(chain))
    if covered != n:
        raise FlowExtractionError(f"paths cover {covered} riders, expected {n}")

    implied = flow.cost + (n - network.m_prime) * network.big_L
    if abs(total - implied) > comparison_tolerance(max(abs(total), abs(implied)), rel):
        raise FlowExtractionError(
            f"vehicle-miles {total:.12g} disagree with flow cost identity {implied:.12g}"
        )
    return Allocation(vehicles=tuple(vehicles), total_miles=total)


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
        the sink. Potentials then rise by ``min(dist, dist_sink)``, so the
        path's real length is the new ``pot_sink``. Ties go to the lowest
        index.
        """
        cost, row_match, col_match = self.cost, self.row_match, self.col_match
        free_rows = np.flatnonzero(row_match < 0)
        if not free_rows.size:
            return None
        # a free row r sits at -pot_row[r], so its legs reach columns at cost - pot_col
        reach = cost[free_rows] - self.pot_col
        pick = reach.argmin(axis=0)
        dist = reach[pick, np.arange(len(pick))]
        pred = free_rows[pick]
        free_col = col_match < 0
        to_sink = self.pot_col - self.pot_sink
        via_sink = np.where(free_col, dist + to_sink, np.inf)
        end = int(via_sink.argmin())
        dist_sink = via_sink[end]
        settled = np.zeros(len(dist), dtype=bool)
        while True:
            v = int(np.where(settled, np.inf, dist).argmin())
            if settled[v] or dist[v] >= dist_sink:
                break
            settled[v] = True
            r = col_match[v]
            if r < 0:  # a free column leads only to the sink
                continue
            via = cost[r] + (dist[v] + self.pot_row[r]) - self.pot_col
            better = (via < dist) & ~settled
            dist[better] = via[better]
            pred[better] = r
            via_sink = np.where(better & free_col, via + to_sink, np.inf)
            k = int(via_sink.argmin())
            if via_sink[k] < dist_sink:
                end, dist_sink = k, via_sink[k]
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
    ``total_miles`` folds the legs as ``extract_allocation`` does, so where
    the cheapest allocation of a count is unique the result is ``==`` to the
    flow's on the m' network; among allocations that tie exactly, the two
    may pick different ones. Every result is checked by the potentials' dual
    certificate (``_Matching.certify``); ``rel`` sets its slack and the
    sweep's tie window, relative to n * L.

    Cost: O(n) augmentations of O(n^2) numpy work each, O(n^2) memory.
    """
    check_tolerance(rel)
    _check_allocatable(instance, m_prime)
    n = instance.n
    rows = instance.rows
    big_l = _big_l(rows)
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
    if instance.dropoff_mode != SINGLE:
        raise UnsupportedModeError("allocation is defined for the single-dropoff setting")
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
