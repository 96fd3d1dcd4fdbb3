"""Optimal assignment of order-constrained riders to uncapacitated vehicles.

Riders share one dropoff and a fixed global boarding order (rider u is the
u-th pickup); each vehicle serves an increasing subsequence. For a guessed
vehicle count m' the problem reduces to min-cost max-flow on a DAG: each
rider becomes a unit-capacity entry/exit pair, chaining rider u before v
costs their separation minus a large constant L (so covering everyone is
always worth it), and exiting to the dropoff costs the direct distance.
Sweeping m' and keeping the cheapest allocation is exact and polynomial, and
one successive-shortest-paths run serves the whole sweep; a set-partition
brute force serves as the desk-scale oracle.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace

from .errors import FlowExtractionError, MalformedInputError, SizeError, UnsupportedModeError
from .instances import SINGLE, Instance
from .numeric import DEFAULT_REL_TOL, comparison_tolerance

BRUTE_FORCE_CAP = 9


@dataclass(frozen=True)
class FlowNetwork:
    """DAG flow network for one vehicle-count guess.

    Node ids: source 0, rider u's entry 2u-1 and exit 2u, dropoff 2n+1,
    sink 2n+2. ``edges`` are (tail, head, cost, capacity) in construction
    order. ``big_L`` strictly exceeds twice the largest pairwise distance.
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


def build_network(instance: Instance, m_prime: int) -> FlowNetwork:
    if instance.dropoff_mode != SINGLE:
        raise UnsupportedModeError("allocation is defined for the single-dropoff setting")
    n = instance.n
    if not 1 <= m_prime <= n:
        raise MalformedInputError(f"vehicle guess {m_prime} out of range 1..{n}")
    rows = instance.rows
    # max over pickups and the dropoff; 3x leaves margin over the required 2x,
    # and an all-zero table still needs a positive reward for chaining
    big_l = 3.0 * max(max(r) for r in rows) or 1.0

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
    first among equals, making the flow deterministic.
    """
    for flow_value, snapshot in _augmentations(network):
        pass
    flows = snapshot()
    return FlowResult(value=flow_value, cost=_flow_cost(network, flows), flows=flows,
                      disconnected=flow_value < network.m_prime)


def _augmentations(network: FlowNetwork):
    """Run successive shortest paths, yielding after the start and each augmentation.

    Each yield is (flow value, snapshot) where ``snapshot()`` returns the
    current edge flows aligned with ``network.edges``. The run stops at
    value m' or when the sink becomes unreachable. Every edge but the
    dropoff-to-sink one has unit capacity, so each augmentation pushes one
    unit and m' only decides when the run stops: the first k augmentations
    are the same for every m' >= k.
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

    def snapshot() -> tuple[int, ...]:
        return tuple(
            network.edges[k][3] - graph[u][ei][1]
            for k, (u, ei) in enumerate(forward_ref)
        )

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
    yield flow_value, snapshot
    while flow_value < network.m_prime:
        dist = [inf] * num
        dist[s] = 0.0
        prev: list[tuple[int, int] | None] = [None] * num
        heap = [(0.0, s)]
        while heap:
            d_u, u = heapq.heappop(heap)
            if d_u > dist[u]:
                continue
            for ei, (head, cap, cost, _) in enumerate(graph[u]):
                if cap <= 0 or pot[head] == inf:
                    continue
                nd = d_u + cost + pot[u] - pot[head]
                if nd < dist[head]:
                    dist[head] = nd
                    prev[head] = (u, ei)
                    heapq.heappush(heap, (nd, head))
        if dist[t] == inf:
            return
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
        yield flow_value, snapshot


def _flow_cost(network: FlowNetwork, flows: tuple[int, ...]) -> float:
    return sum(f * e[2] for f, e in zip(flows, network.edges))


def extract_allocation(network: FlowNetwork, flow: FlowResult,
                       rel: float = DEFAULT_REL_TOL) -> Allocation:
    """Contract the unit flow paths into vehicle subsequences.

    Asserts the structure an optimal flow must have rather than assuming
    it: exactly m' vertex-disjoint source-to-dropoff paths that jointly
    cover every rider, and a flow cost that differs from the allocation's
    vehicle-miles by exactly (n - m') * L.
    """
    return _extract(network, flow, rel, _mile_costs(network))


def _extract(network: FlowNetwork, flow: FlowResult, rel: float,
             miles: tuple[dict, dict]) -> Allocation:
    """``extract_allocation`` with the network's ``_mile_costs`` supplied."""
    if flow.disconnected:
        raise FlowExtractionError("flow did not reach the sink; network is malformed")
    n = network.n
    starts: list[int] = []
    next_of: dict[int, int | None] = {}
    entry_units = [0] * (n + 1)
    for (tail, head, _, _), f in zip(network.edges, flow.flows):
        if f == 0:
            continue
        if tail == network.source:
            u = (head + 1) // 2
            starts.append(u)
            entry_units[u] += f
        elif head == network.dropoff and tail != network.source:
            next_of[tail // 2] = None
        elif tail != network.dropoff and tail % 2 == 0 and head % 2 == 1:
            u, v = tail // 2, (head + 1) // 2
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
    for u in sorted(starts):
        chain = [u]
        while next_of.get(chain[-1]) is not None:
            chain.append(next_of[chain[-1]])
        covered += len(chain)
        vehicles.append(tuple(chain))
    if covered != n:
        raise FlowExtractionError(f"paths cover {covered} riders, expected {n}")

    total = _allocation_miles(miles, vehicles)
    implied = flow.cost + (n - network.m_prime) * network.big_L
    if abs(total - implied) > comparison_tolerance(max(abs(total), abs(implied)), rel):
        raise FlowExtractionError(
            f"vehicle-miles {total:.12g} disagree with flow cost identity {implied:.12g}"
        )
    return Allocation(vehicles=tuple(vehicles), total_miles=total)


def _mile_costs(network: FlowNetwork) -> tuple[dict, dict]:
    """Per-rider dropoff legs and per-pair chaining legs, read off the edges.

    Rebuilt from the edge costs (chaining legs plus ``big_L``) so the miles
    check shares no arithmetic with the solver. Only the dropoff-to-sink
    capacity depends on m', so one lookup serves every vehicle count.
    """
    cost_to_drop = {}
    cost_between = {}
    for tail, head, cost, _ in network.edges:
        if tail == network.source:
            continue
        if head == network.dropoff:
            cost_to_drop[tail // 2] = cost
        elif tail % 2 == 0 and head % 2 == 1:
            cost_between[(tail // 2, (head + 1) // 2)] = cost + network.big_L
    return cost_to_drop, cost_between


def _allocation_miles(miles: tuple[dict, dict], vehicles) -> float:
    cost_to_drop, cost_between = miles
    total = 0.0
    for chain in vehicles:
        for a, b in zip(chain, chain[1:]):
            total += cost_between[(a, b)]
        total += cost_to_drop[chain[-1]]
    return total


def optimal_allocation(instance: Instance) -> Allocation:
    """Cheapest allocation over all vehicle counts 1..n.

    One successive-shortest-paths run on the m'=n network serves every
    count: after k units its flow is the min-cost flow of the m'=k network
    (see ``_augmentations``), and is extracted against that network.
    Exact ties keep the smaller vehicle count (k ascends).
    """
    full = build_network(instance, instance.n)
    *chain, (drop, sink, cost, _) = full.edges
    miles = _mile_costs(full)
    best: Allocation | None = None
    for k, snapshot in _augmentations(full):
        if k == 0:
            continue
        network = replace(full, m_prime=k, edges=(*chain, (drop, sink, cost, k)))
        flows = snapshot()
        alloc = _extract(
            network, FlowResult(value=k, cost=_flow_cost(network, flows), flows=flows),
            DEFAULT_REL_TOL, miles)
        if best is None or alloc.total_miles < best.total_miles:
            best = alloc
    return best


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
