"""The paper's allocation formulation: min-cost max-flow on a DAG, as a test oracle.

For a guessed vehicle count m' the paper builds a DAG of 2n + 3 nodes
(source, an entry and an exit node per rider, the dropoff, the sink) and
solves min-cost max-flow on it. ``sirshare.optimal_allocation`` reaches the
same optimum by successive shortest paths over the chaining matrix; this
module keeps the flow formulation apart from it, sharing only public names,
so the tests can compare the two with ``==``.

``reference_shortest_path`` is the matching pass's earlier Dijkstra loop,
which builds fresh arrays at every step, kept as the reference that the
leaner loop in ``sirshare.allocation`` must match bit for bit.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from sirshare import Allocation, FlowExtractionError, Instance, MalformedInputError
from sirshare.numeric import DEFAULT_REL_TOL, check_tolerance, comparison_tolerance


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


def build_network(instance: Instance, m_prime: int) -> FlowNetwork:
    instance.require_single_dropoff("allocation")
    if not 1 <= m_prime <= instance.n:
        raise MalformedInputError(f"vehicle guess {m_prime} out of range 1..{instance.n}")
    n = instance.n
    rows = instance.rows
    # the same rule as optimal_allocation's, so the folded miles compare with ==
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


def flow_allocation(inst: Instance, m_prime: int) -> Allocation:
    net = build_network(inst, m_prime)
    return extract_allocation(net, min_cost_max_flow(net))


def per_count_reference(inst: Instance) -> Allocation:
    # one flow per vehicle count, cheapest kept, first count winning ties
    best = None
    for m_prime in range(1, inst.n + 1):
        alloc = flow_allocation(inst, m_prime)
        if best is None or alloc.total_miles < best.total_miles:
            best = alloc
    return best


def reference_shortest_path(matching):
    """``_Matching.shortest_path`` as a loop over fresh arrays: same folds, same ties.

    Takes a ``sirshare.allocation._Matching`` and updates its potentials
    exactly as the library's loop does; returns (end column, predecessor
    rows) or None.
    """
    cost, row_match, col_match = matching.cost, matching.row_match, matching.col_match
    free_rows = np.flatnonzero(row_match < 0)
    if not free_rows.size:
        return None
    reach = cost[free_rows] - matching.pot_col
    pick = reach.argmin(axis=0)
    dist = reach[pick, np.arange(len(pick))]
    pred = free_rows[pick]
    free_col = col_match < 0
    to_sink = matching.pot_col - matching.pot_sink
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
        if r < 0:
            continue
        via = cost[r] + (dist[v] + matching.pot_row[r]) - matching.pot_col
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
    matching.pot_row[matched] += step[row_match[matched]]
    matching.pot_row[~matched] += np.minimum(-matching.pot_row[~matched], dist_sink)
    matching.pot_col += step
    matching.pot_sink += float(dist_sink)
    return end, pred
