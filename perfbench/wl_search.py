"""Workload ``search``: exact route-search requests as library calls.

Three kinds of instance, each asked all three questions (``opt_sir_route``,
``enumerate_sir_routes``, ``min_route_starvation``):

- dense: ``reduce_path_tsp`` of random planar points, n = 6..8. Every order
  is feasible, so nothing is pruned;
- sparse: ``reduce_hampath`` of a random graph with a planted Hamiltonian
  path, n = 8..10, where most orders are cut early;
- lower-bound: ``generate_lower_bound_instance`` with random weights,
  n = 6..9, whose only feasible order is the identity.

The requests come in blocks with a fixed mix of kinds and sizes; the seed
draws the geometry, the graphs, the weights and the order within a block.
"""

from __future__ import annotations

import numpy as np

import oracles as orc
from harness import Op, Workload, histogram, shares

import sirshare
from sirshare import search, starvation

# (kind, n, instances per block)
BLOCK = (("dense", 6, 3), ("dense", 7, 3), ("dense", 8, 1),
         ("sparse", 8, 3), ("sparse", 9, 2), ("sparse", 10, 1),
         ("lower-bound", 6, 1), ("lower-bound", 7, 1), ("lower-bound", 8, 1),
         ("lower-bound", 9, 1))
BLOCKS = 4
EDGES = {8: 12, 9: 15, 10: 18}  # sparse graphs: edge count per vertex count
BRUTE_FORCE_MAX_N = 8
REQUESTS = ("opt", "enumerate", "min-starvation")


def planted_graph(rng, n):
    """A random path through every vertex plus random edges up to EDGES[n]."""
    path = [int(v) for v in rng.permutation(np.arange(1, n + 1))]
    edges = {frozenset(e) for e in zip(path, path[1:])}
    while len(edges) < EDGES[n]:
        u, v = (int(x) for x in rng.choice(np.arange(1, n + 1), size=2, replace=False))
        edges.add(frozenset((u, v)))
    return sorted(tuple(sorted(e)) for e in edges), tuple(path)


def pack(orders) -> bytes:
    return b"".join(bytes(order) for order in orders)


class Case:
    """One instance, what is known about it, and its brute-force answers
    (computed on first use, outside the timed interval)."""

    def __init__(self, kind, inst, known_route):
        self.kind = kind
        self.inst = inst
        self.rows = inst.dist.entries.tolist()
        self.known = known_route  # a route known feasible by construction
        self._truth = None

    def feasible(self, order) -> bool:
        i = self.inst
        return orc.feasible(self.rows, order, i.alphas, i.alpha_op, i.regime)

    def truth(self):
        """(feasible orders packed as bytes, shortest length, least starvation),
        or None above the brute-force size. Packed orders give the garbage
        collector nothing to scan."""
        if self._truth is None and self.inst.n <= BRUTE_FORCE_MAX_N:
            i = self.inst
            self._truth = orc.brute_force(self.rows, i.alphas, i.alpha_op, i.regime)
        return self._truth

    def route_problem(self, order, distance=None) -> str | None:
        if not self.feasible(order):
            return f"returned route {order} is infeasible"
        if distance is not None and not orc.close(orc.route_length(self.rows, order), distance):
            return f"route {order} has length {orc.route_length(self.rows, order)!r}, " \
                   f"reported {distance!r}"
        return None


def check_opt(case: Case, out) -> str | None:
    truth = case.truth()
    if out is None:
        return None if truth is not None and not truth[0] else "no route found, one is known"
    route, distance = out
    problem = case.route_problem(route.pickup_order, distance)
    if problem:
        return problem
    best = truth[1] if truth else orc.route_length(case.rows, case.known)
    if not orc.leq(distance, best) or (truth and not orc.close(distance, best)):
        return f"optimum {distance!r}, brute force {best!r}"
    return None


def check_enumerate(case: Case, out) -> str | None:
    orders = [r.pickup_order for r in out.routes]
    if out.truncated or not orders or out.optimal is None:
        return "routes are truncated or missing"
    truth = case.truth()
    if truth is not None:  # the brute force lists exactly the feasible orders, in order
        if pack(orders) != truth[0]:
            return f"{len(orders)} routes listed, brute force finds {len(truth[0]) // case.inst.n}"
        best = truth[1]
    else:
        if orders != sorted(set(orders)):
            return "routes are repeated or out of lexicographic order"
        if case.kind == "lower-bound" and orders != [case.known]:
            return f"lower-bound instance lists {len(orders)} routes, only the identity is feasible"
        if case.known not in set(orders):
            return "a route feasible by construction is missing"
        for order in orders:
            if not case.feasible(order):
                return f"listed route {order} is infeasible"
        best = min(orc.route_length(case.rows, o) for o in orders)
    return case.route_problem(out.optimal[0].pickup_order, out.optimal[1]) or (
        None if orc.close(out.optimal[1], best) else f"optimum {out.optimal[1]!r}, best {best!r}")


def check_min_starvation(case: Case, out) -> str | None:
    truth = case.truth()
    if out is None:
        return None if truth is not None and not truth[0] else "no route found, one is known"
    route, gamma = out
    order = route.pickup_order
    problem = case.route_problem(order)
    if problem:
        return problem
    own = orc.starvation_factor(case.rows, order)
    if not orc.close(own, gamma):
        return f"route {order} starves by {own!r}, reported {gamma!r}"
    best = truth[2] if truth else orc.starvation_factor(case.rows, case.known)
    if not orc.leq(gamma, best) or (truth and not orc.close(gamma, best)):
        return f"least starvation {gamma!r}, brute force {best!r}"
    return None


def request(case: Case, kind: str) -> Op:
    inst = case.inst
    if kind == "opt":
        run, check = (lambda: search.opt_sir_route(inst)), check_opt
    elif kind == "enumerate":
        run, check = (lambda: search.enumerate_sir_routes(inst)), check_enumerate
    else:
        run, check = (lambda: starvation.min_route_starvation(inst)), check_min_starvation
    return Op(f"{case.kind}:{kind}", inst.n, run, lambda out: check(case, out))


def make_case(rng, kind, n) -> Case:
    if kind == "dense":
        table = sirshare.from_euclidean(rng.uniform(0.0, 10.0, size=(n, 2)).tolist())
        return Case(kind, sirshare.reduce_path_tsp(table), tuple(range(1, n + 1)))
    if kind == "sparse":
        edges, path = planted_graph(rng, n)
        return Case(kind, sirshare.reduce_hampath(n, edges), path)
    alpha_op = float(rng.uniform(0.5, 2.0))
    alphas = [alpha_op * float(rng.uniform(0.5, 2.0)) for _ in range(n)]
    inst = sirshare.generate_lower_bound_instance(n, alpha_op=alpha_op, alphas=alphas)
    return Case(kind, inst, tuple(range(1, n + 1)))


def build(seed: int, workdir) -> Workload:
    rng = np.random.default_rng([seed, 2])
    ops: list[Op] = []
    cases = []
    for _ in range(BLOCKS):
        block = []
        for kind, n, count in BLOCK:
            for _ in range(count):
                cases.append(make_case(rng, kind, n))
                block += [request(cases[-1], req) for req in REQUESTS]
        ops += [block[k] for k in rng.permutation(len(block))]
    kinds = [op.kind.split(":") for op in ops]
    return Workload(ops=ops, block=len(ops) // BLOCKS, inputs=[c.rows for c in cases], properties={
        "requests": len(ops),
        "instance_share": shares(k for k, _ in kinds),
        "request_share": shares(r for _, r in kinds),
        "n_histogram": histogram(op.n for op in ops),
        "brute_force_share": round(sum(op.n <= BRUTE_FORCE_MAX_N for op in ops) / len(ops), 4),
    })

