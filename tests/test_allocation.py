import itertools

import numpy as np
import pytest

import sirshare as ss
from sirshare import allocation
from sirshare.errors import FlowExtractionError, MalformedInputError, SizeError

from corpus import random_euclidean_instance
from flow_oracle import (
    FlowResult,
    build_network,
    extract_allocation,
    flow_allocation,
    min_cost_max_flow,
    per_count_reference,
    reference_shortest_path,
)


def line_example():
    # boarding order 1, 2, 3 at positions -5, 5, -4; dropoff at 0
    return ss.line_instance([-5.0, 5.0, -4.0], 0.0)


# ---------------------------------------------------------------------------
# network construction
# ---------------------------------------------------------------------------

def test_network_n1_shape():
    inst = ss.line_instance([4.0], 0.0)
    net = build_network(inst, 1)
    assert net.num_nodes == 5
    assert len(net.edges) == 4
    tails_heads = [(t, h) for t, h, _, _ in net.edges]
    assert (net.source, net.entry(1)) in tails_heads
    assert (net.entry(1), net.exit(1)) in tails_heads
    assert (net.exit(1), net.dropoff) in tails_heads
    assert (net.dropoff, net.sink) in tails_heads
    drop_edge = next(e for e in net.edges if e[1] == net.dropoff)
    assert drop_edge[2] == pytest.approx(4.0)


def test_network_n3_ordered_pair_edges():
    inst = line_example()
    net = build_network(inst, 2)
    chain_edges = [
        (t, h, c) for t, h, c, _ in net.edges
        if t % 2 == 0 and t != net.source and h % 2 == 1 and h != net.dropoff
    ]
    pairs = {((t // 2), (h + 1) // 2) for t, h, _ in chain_edges}
    assert pairs == {(1, 2), (1, 3), (2, 3)}
    assert all(c < 0 for _, _, c in chain_edges)  # separation minus L


def test_network_big_l_dominates():
    for inst in (line_example(), ss.line_instance([0.0, 0.0], 0.0)):
        net = build_network(inst, 1)
        maxdist = float(inst.dist.entries.max())
        assert net.big_L > 2.0 * maxdist


def test_network_m_prime_out_of_range():
    inst = line_example()
    with pytest.raises(MalformedInputError):
        build_network(inst, 0)
    with pytest.raises(MalformedInputError):
        build_network(inst, 4)


# ---------------------------------------------------------------------------
# flow solving and extraction
# ---------------------------------------------------------------------------

def test_flow_n1_cost():
    inst = ss.line_instance([4.0], 0.0)
    net = build_network(inst, 1)
    result = min_cost_max_flow(net)
    assert result.value == 1
    assert result.cost == pytest.approx(4.0)


def test_flow_line_example_cost_identity():
    inst = line_example()
    net = build_network(inst, 2)
    result = min_cost_max_flow(net)
    assert result.value == 2
    assert result.cost == pytest.approx(10.0 - net.big_L)


def test_extract_line_example():
    inst = line_example()
    net = build_network(inst, 2)
    alloc = extract_allocation(net, min_cost_max_flow(net))
    assert alloc.vehicles == ((1, 3), (2,))
    assert alloc.total_miles == pytest.approx(10.0)


def test_extract_n1():
    inst = ss.line_instance([4.0], 0.0)
    net = build_network(inst, 1)
    alloc = extract_allocation(net, min_cost_max_flow(net))
    assert alloc.vehicles == ((1,),)
    assert alloc.total_miles == pytest.approx(4.0)


def test_extract_n2_two_vehicles_forced():
    inst = ss.line_instance([3.0, 7.0], 0.0)
    net = build_network(inst, 2)
    alloc = extract_allocation(net, min_cost_max_flow(net))
    assert alloc.vehicles == ((1,), (2,))
    assert alloc.total_miles == pytest.approx(10.0)


def test_extract_rejects_tampered_flow():
    inst = line_example()
    net = build_network(inst, 2)
    result = min_cost_max_flow(net)
    zeroed = FlowResult(
        value=result.value, cost=result.cost,
        flows=tuple(0 for _ in result.flows),
    )
    with pytest.raises(FlowExtractionError):
        extract_allocation(net, zeroed)


def test_flow_paths_vertex_disjoint_cover():
    # extraction itself asserts disjoint unit paths covering all riders;
    # run it across the full sweep of several random instances
    rng = np.random.default_rng(31)
    for _ in range(10):
        n = int(rng.integers(2, 8))
        inst = random_euclidean_instance(rng, n)
        for m_prime in range(1, n + 1):
            net = build_network(inst, m_prime)
            flow = min_cost_max_flow(net)
            assert flow.value == m_prime
            alloc = extract_allocation(net, flow)
            assert alloc.m_prime == m_prime
            assert sorted(u for veh in alloc.vehicles for u in veh) == \
                list(range(1, n + 1))
            # cost identity, recomputed here as well
            assert alloc.total_miles == pytest.approx(
                flow.cost + (n - m_prime) * net.big_L, rel=1e-9, abs=1e-9
            )


# ---------------------------------------------------------------------------
# optimal allocation vs brute force
# ---------------------------------------------------------------------------

def test_optimal_line_example():
    alloc = ss.optimal_allocation(line_example())
    assert alloc.vehicles == ((1, 3), (2,))
    assert alloc.total_miles == pytest.approx(10.0)


def test_optimal_colinear_sweep_consolidates():
    inst = ss.line_instance([10.0, 8.0, 5.0, 2.0], 0.0)
    alloc = ss.optimal_allocation(inst)
    assert alloc.vehicles == ((1, 2, 3, 4),)
    assert alloc.total_miles == pytest.approx(10.0)


def test_optimal_single_rider():
    alloc = ss.optimal_allocation(ss.line_instance([4.0], 0.0))
    assert alloc.vehicles == ((1,),)


def test_brute_force_line_example():
    oracle = ss.brute_force_allocation(line_example())
    assert oracle.total_miles == pytest.approx(10.0)
    assert oracle.vehicles == ((1, 3), (2,))


def test_brute_force_coincident_pickups_free():
    inst = ss.line_instance([0.0, 0.0], 0.0)
    oracle = ss.brute_force_allocation(inst)
    assert oracle.total_miles == pytest.approx(0.0)
    assert oracle.m_prime == 1  # ties prefer fewer vehicles


def test_brute_force_size_cap():
    inst = ss.line_instance(list(range(1, 11)), 0.0)
    with pytest.raises(SizeError):
        ss.brute_force_allocation(inst)


def test_optimal_matches_brute_force_small():
    rng = np.random.default_rng(33)
    instances = [random_euclidean_instance(rng, int(rng.integers(1, 7))) for _ in range(40)]
    # every pickup on the dropoff: all distances, and so 3x their max, are 0
    for inst in instances + [ss.line_instance([0.0, 0.0], 0.0)]:
        fast = ss.optimal_allocation(inst)
        oracle = ss.brute_force_allocation(inst)
        assert fast.total_miles == pytest.approx(oracle.total_miles, rel=1e-9)
        assert fast.vehicles == oracle.vehicles


def test_optimal_matches_per_count_flows():
    rng = np.random.default_rng(37)
    for n in list(range(1, 21)) + [int(k) for k in rng.integers(10, 21, size=10)]:
        inst = random_euclidean_instance(rng, n)
        assert ss.optimal_allocation(inst) == per_count_reference(inst)


def test_optimal_exact_tie_keeps_fewer_vehicles():
    # riders 1 and 2 coincide and rider 3 waits at the dropoff, so one
    # vehicle and two vehicles both cost exactly 2.0
    inst = ss.line_instance([2.0, 2.0, 0.0], 0.0)
    net = build_network(inst, 2)
    two = extract_allocation(net, min_cost_max_flow(net))
    alloc = ss.optimal_allocation(inst)
    assert two.total_miles == alloc.total_miles == 2.0
    assert alloc.vehicles == ((1, 2, 3),)
    assert alloc == per_count_reference(inst)


# ---------------------------------------------------------------------------
# fixed vehicle counts and the matching pass's certificate
# ---------------------------------------------------------------------------

def best_with_count(inst, m_prime):
    # cheapest miles over every partition of the riders into m_prime vehicles
    rows = inst.rows
    n = inst.n
    best = None
    for labels in itertools.product(range(m_prime), repeat=n):
        if len(set(labels)) != m_prime:
            continue
        miles = 0.0
        for k in range(m_prime):
            chain = [u for u in range(1, n + 1) if labels[u - 1] == k]
            miles += sum(rows[a - 1][b - 1] for a, b in zip(chain, chain[1:]))
            miles += rows[chain[-1] - 1][n]
        best = miles if best is None else min(best, miles)
    return best


def test_fixed_count_matches_flow():
    rng = np.random.default_rng(41)
    for n in range(1, 21):
        inst = random_euclidean_instance(rng, n)
        for m_prime in range(1, n + 1):
            assert ss.optimal_allocation(inst, m_prime=m_prime) == \
                flow_allocation(inst, m_prime)


@pytest.mark.parametrize("positions", [[1.0, 1.0, 1.0], [2.0, 2.0, 1.0, 1.0]])
def test_fixed_count_exact_tie(positions):
    # at two vehicles several splits cost exactly the same; which one is
    # returned is the solver's choice, its miles are not
    inst = ss.line_instance(positions, 0.0)
    alloc = ss.optimal_allocation(inst, m_prime=2)
    assert alloc.m_prime == 2
    assert sorted(u for veh in alloc.vehicles for u in veh) == list(range(1, inst.n + 1))
    assert all(list(veh) == sorted(veh) for veh in alloc.vehicles)
    assert alloc.total_miles == flow_allocation(inst, 2).total_miles == \
        best_with_count(inst, 2)


def test_fixed_count_rejects_bad_count():
    inst = line_example()
    for m_prime in (0, 4):
        with pytest.raises(MalformedInputError, match="out of range 1..3"):
            ss.optimal_allocation(inst, m_prime=m_prime)
        with pytest.raises(MalformedInputError, match="out of range 1..3"):
            ss.brute_force_allocation(inst, m_prime=m_prime)
    with pytest.raises(MalformedInputError, match="m_prime must be an integer"):
        ss.brute_force_allocation(inst, m_prime=2.0)


def test_brute_force_fixed_count_matches_flow():
    rng = np.random.default_rng(53)
    instances = [random_euclidean_instance(rng, n) for n in range(1, 8)]
    for inst in instances + [ss.line_instance([3.0, 2.0, 1.0], 0.0)]:
        for m_prime in range(1, inst.n + 1):
            oracle = ss.brute_force_allocation(inst, m_prime=m_prime)
            fast = ss.optimal_allocation(inst, m_prime=m_prime)
            assert oracle.m_prime == m_prime
            assert oracle.total_miles == pytest.approx(fast.total_miles, rel=1e-9)
            assert oracle.total_miles == pytest.approx(best_with_count(inst, m_prime), rel=1e-12)
        assert ss.brute_force_allocation(inst) == ss.brute_force_allocation(inst, m_prime=None)


@pytest.mark.parametrize("m_prime", [True, 2.5, "2", 2.0], ids=["bool", "float", "str", "whole-float"])
def test_fixed_count_must_be_an_integer(m_prime):
    inst = line_example()
    assert ss.optimal_allocation(inst, m_prime=np.int64(2)) == ss.optimal_allocation(inst, m_prime=2)
    with pytest.raises(MalformedInputError, match="m_prime must be an integer"):
        ss.optimal_allocation(inst, m_prime=m_prime)


def solved_matching(legs):
    # eight riders, three legs: matched and free rows and columns all occur
    inst = random_euclidean_instance(np.random.default_rng(43), 8)
    matching = allocation._Matching(allocation._chaining_matrix(inst))
    for _ in range(legs):
        matching.augment(matching.shortest_path())
    return matching


def test_shortest_path_matches_reference_loop_bit_for_bit():
    # two matchings driven in lockstep until no path is left, so every
    # vehicle count is passed; decimal line positions give rounding ties
    rng = np.random.default_rng(59)
    instances = [random_euclidean_instance(rng, n) for n in range(1, 31) for _ in range(3)]
    instances += [
        ss.line_instance((rng.integers(-9, 10, size=int(rng.integers(1, 12))) / 10).tolist(), 0.0)
        for _ in range(150)
    ]
    for inst in instances:
        fast = allocation._Matching(allocation._chaining_matrix(inst))
        slow = allocation._Matching(allocation._chaining_matrix(inst))
        while True:
            path, reference = fast.shortest_path(), reference_shortest_path(slow)
            assert (path is None) == (reference is None)
            assert np.array_equal(fast.pot_row, slow.pot_row)
            assert np.array_equal(fast.pot_col, slow.pot_col)
            assert fast.pot_sink == slow.pot_sink
            if path is None:
                break
            assert path[0] == reference[0]
            assert np.array_equal(path[1], reference[1])
            fast.augment(path)
            slow.augment(reference)
        assert np.array_equal(fast.row_match, slow.row_match)


def _raise_free_column(matching):
    matching.pot_col[np.flatnonzero(matching.col_match < 0)[-1]] += 100.0


def _raise_matched_row(matching):
    matching.pot_row[np.flatnonzero(matching.row_match >= 0)[0]] += 100.0


def _raise_free_row(matching):
    matching.pot_row[np.flatnonzero(matching.row_match < 0)[0]] += 100.0


def _raise_sink(matching):
    matching.pot_sink += 100.0


def _lower_sink(matching):
    matching.pot_sink -= 100.0


def _drop_column_match(matching):
    row_match = matching.row_match
    matching.col_match[row_match[np.flatnonzero(row_match >= 0)[0]]] = -1


def _swap_legs(matching):
    row_match, col_match = matching.row_match, matching.col_match
    a, b = np.flatnonzero(row_match >= 0)[:2]
    row_match[a], row_match[b] = row_match[b], row_match[a]
    col_match[row_match[a]], col_match[row_match[b]] = a, b


@pytest.mark.parametrize("tamper, condition", [
    (_raise_free_column, "nonnegative reduced leg costs"),
    (_raise_matched_row, "tight matched legs"),
    (_swap_legs, "tight matched legs"),
    (_raise_free_row, "nonnegative source edges"),
    (_raise_sink, "nonnegative sink edges"),
    (_lower_sink, "nonnegative sink edges"),
    (_drop_column_match, "a matching"),
])
def test_certificate_rejects_tampering(tamper, condition):
    matching = solved_matching(3)
    matching.certify(1e-9)
    tamper(matching)
    with pytest.raises(FlowExtractionError, match=condition):
        matching.certify(1e-9)


def test_certificate_runs_on_every_result(monkeypatch):
    def refuse(self, tol):
        raise FlowExtractionError("certificate consulted")

    monkeypatch.setattr(allocation._Matching, "certify", refuse)
    inst = line_example()
    for m_prime in (None, 1, 2, 3):
        with pytest.raises(FlowExtractionError, match="consulted"):
            ss.optimal_allocation(inst, m_prime=m_prime)


def test_sweep_is_cheapest_fixed_count_on_rounding_ties():
    # decimal positions on a line: many vehicle counts tie on paper, and
    # their folded miles differ in the last bits, so paths of length about
    # 0 decide the count; the sweep must still pick the cheapest fold,
    # fewer vehicles winning exact ties
    rng = np.random.default_rng(53)
    cases = [[0.9, 0.6, 0.9]] + [
        (rng.integers(-9, 10, size=int(rng.integers(2, 7))) / 10).tolist() for _ in range(300)
    ]
    for positions in cases:
        inst = ss.line_instance(positions, 0.0)
        reference = None
        for m_prime in range(1, inst.n + 1):
            alloc = ss.optimal_allocation(inst, m_prime=m_prime)
            if reference is None or alloc.total_miles < reference.total_miles:
                reference = alloc
        assert ss.optimal_allocation(inst) == reference


def test_flow_finishes_on_rounding_ties():
    # rounding leaves some reduced costs a hair below 0 here; reopening
    # settled nodes once closed a loop in the flow's path pointers at m'=5
    inst = ss.line_instance([-0.6, 0.0, -0.5, -0.9, 0.5, -0.8, -0.4], 0.0)
    assert ss.optimal_allocation(inst).total_miles == pytest.approx(
        ss.brute_force_allocation(inst).total_miles, rel=1e-12)
    for m_prime in range(1, inst.n + 1):
        flow = flow_allocation(inst, m_prime)
        fast = ss.optimal_allocation(inst, m_prime=m_prime)
        assert flow.m_prime == fast.m_prime == m_prime
        assert flow.total_miles == pytest.approx(fast.total_miles, rel=1e-12)
