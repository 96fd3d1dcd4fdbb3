"""Seeded random-instance builders and independent oracles shared by tests."""

import itertools
import math

import numpy as np

import sirshare as ss


def random_euclidean_instance(rng, n, alpha_low=1.0, alpha_high=3.0,
                              regime="finite"):
    """Random 2-D single-dropoff instance; sensitivities are alpha_op times
    a draw from [alpha_low, alpha_high]."""
    pts = rng.uniform(0.0, 10.0, size=(n + 1, 2))
    table = ss.from_euclidean(pts)
    alpha_op = float(rng.uniform(0.5, 2.0))
    alphas = tuple(float(alpha_op * rng.uniform(alpha_low, alpha_high))
                   for _ in range(n))
    return ss.Instance(dist=table, n=n, dropoff_mode="single",
                       alpha_op=alpha_op, alphas=alphas, regime=regime)


def with_regime(instance, regime, alphas=None):
    if alphas is None:
        alphas = (0.0,) * instance.n if regime == "zero" else instance.alphas
    return ss.Instance(dist=instance.dist, n=instance.n,
                       dropoff_mode=instance.dropoff_mode,
                       alpha_op=instance.alpha_op, alphas=alphas, regime=regime)


def random_feasible_instance(rng, n, equal_rates=False, alpha_low=0.2,
                             alpha_high=3.0):
    """Instance whose identity boarding order (1, 2, ..., n) is feasible
    with strictly positive slack at every stage.

    Built sequentially: each next pickup is sampled near the segment from
    the previous pickup to the dropoff and accepted only when its detour
    stays inside 90% of the stage budget.
    """
    dropoff = rng.uniform(0.0, 10.0, size=2)
    first = rng.uniform(0.0, 10.0, size=2)
    while np.linalg.norm(first - dropoff) < 0.5:
        first = rng.uniform(0.0, 10.0, size=2)
    alpha_op = float(rng.uniform(0.5, 2.0))
    if equal_rates:
        alphas = [alpha_op] * n
    else:
        alphas = [float(alpha_op * rng.uniform(alpha_low, alpha_high)) for _ in range(n)]

    points = [first]
    prefix = 0.0
    for j in range(2, n + 1):
        prefix += alphas[j - 2]
        z = 1.0 / (1.0 + prefix / alpha_op)
        prev = points[-1]
        span = np.linalg.norm(dropoff - prev)
        for _ in range(200):
            t = rng.uniform(0.15, 0.85)
            base = prev + t * (dropoff - prev)
            cand = base + rng.normal(0.0, 0.04 * span, size=2)
            sd = np.linalg.norm(cand - dropoff)
            if sd < 0.05:
                continue
            detour = np.linalg.norm(cand - prev) + sd - span
            if detour <= 0.9 * z * sd:
                points.append(cand)
                break
        else:
            points.append(prev + 0.5 * (dropoff - prev))  # zero detour fallback
    table = ss.from_euclidean([p.tolist() for p in points] + [dropoff.tolist()])
    return ss.Instance(dist=table, n=n, dropoff_mode="single",
                       alpha_op=alpha_op, alphas=tuple(alphas), regime="finite")


def random_line_positions(rng, n, interior):
    """Pickup positions plus a dropoff either strictly inside or outside."""
    positions = sorted(float(x) for x in rng.uniform(-10.0, 10.0, size=n))
    if interior and n >= 2:
        dropoff = float(rng.uniform(positions[0] + 1e-6, positions[-1] - 1e-6))
    else:
        side = rng.integers(0, 2)
        off = float(rng.uniform(0.0, 5.0))
        dropoff = positions[0] - off if side == 0 else positions[-1] + off
    rng.shuffle(positions)
    return positions, dropoff


def random_multi_instance(rng, n):
    pts = rng.uniform(0.0, 10.0, size=(2 * n, 2))
    table = ss.from_euclidean(pts)
    alpha_op = float(rng.uniform(0.5, 2.0))
    alphas = tuple(float(rng.uniform(0.2, 3.0)) for _ in range(n))
    return ss.Instance(dist=table, n=n, dropoff_mode="multi",
                       alpha_op=alpha_op, alphas=alphas, regime="finite")


def random_multi_route(rng, n):
    """Random pickup permutation with dropoffs interleaved after boardings."""
    perm = [int(p) for p in rng.permutation(np.arange(1, n + 1))]
    events = [("P", p) for p in perm]
    for rank in range(1, n + 1):
        p_index = next(i for i, ev in enumerate(events) if ev == ("P", perm[rank - 1]))
        pos = int(rng.integers(p_index + 1, len(events) + 1))
        events.insert(pos, ("D", rank))
    return ss.Route(events=tuple(events))


def line_multi_case(rng, n, regime="finite", jitter=0.05, scale=1.0):
    """Riders on a line, each dropoff between the origin and its own pickup,
    with a little jitter off the line (normal, of deviation ``jitter``); the
    route visits every stop in decreasing coordinate, so riders often leave
    before a later boarding. Coordinates are multiplied by ``scale``. Every
    ``jitter`` and ``scale`` takes the same draws."""
    x = rng.uniform(1.0, 10.0, size=n)
    y = rng.uniform(0.0, 1.0, size=n) * x
    pts = [(scale * float(a), scale * float(rng.normal(0.0, jitter)))
           for a in np.concatenate([x, y])]
    stops = sorted([(pts[p - 1][0], "P", p) for p in range(1, n + 1)]
                   + [(pts[n + p - 1][0], "D", p) for p in range(1, n + 1)], reverse=True)
    rank = {}
    events = []
    for _, kind, p in stops:
        if kind == "P":
            rank[p] = len(rank) + 1
            events.append(("P", p))
        else:
            events.append(("D", rank[p]))
    inst = ss.Instance(dist=ss.from_euclidean(pts), n=n, dropoff_mode="multi",
                       alpha_op=float(rng.uniform(0.5, 2.0)),
                       alphas=tuple(float(a) for a in rng.uniform(0.2, 3.0, size=n)),
                       regime=regime)
    return inst, ss.Route(events=tuple(events))


def criterion_one_instances(seed, count):
    """The criterion-1 sweep corpus: half uniform in a square, half
    corridor-structured; n between 2 and 7, every sensitivity at least the
    operator rate."""
    rng = np.random.default_rng(seed)
    instances = []
    for k in range(count):
        n = int(rng.integers(2, 8))
        if k % 2 == 0:
            instances.append(random_euclidean_instance(rng, n, alpha_low=1.0))
        else:
            instances.append(
                random_feasible_instance(rng, n, alpha_low=1.0, alpha_high=3.0)
            )
    return instances


def random_graph(rng, n_vertices, p=None):
    if p is None:
        p = float(rng.uniform(0.15, 0.9))
    edges = []
    for u in range(1, n_vertices + 1):
        for v in range(u + 1, n_vertices + 1):
            if rng.uniform() < p:
                edges.append((u, v))
    return n_vertices, edges


def count_directed_hamiltonian_paths(n_vertices, edges):
    """Independent DFS count of directed Hamiltonian paths."""
    adj = {v: set() for v in range(1, n_vertices + 1)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    count = 0

    def dfs(v, visited):
        nonlocal count
        if len(visited) == n_vertices:
            count += 1
            return
        for w in adj[v]:
            if w not in visited:
                visited.add(w)
                dfs(w, visited)
                visited.remove(w)

    for start in range(1, n_vertices + 1):
        dfs(start, {start})
    return count


def brute_force_path_tsp(entries):
    """Minimum open-path weight over all vertex orders, by enumeration."""
    n = len(entries)
    best = math.inf
    for perm in itertools.permutations(range(n)):
        w = 0.0
        for a, b in zip(perm, perm[1:]):
            w += entries[a][b]
        if w < best:
            best = w
    return best


def central_product(n):
    """Product over k <= n of 2k/(2k-1)."""
    out = 1.0
    for k in range(1, n + 1):
        out *= (2.0 * k) / (2.0 * k - 1.0)
    return out


def harmonic(n):
    return sum(1.0 / j for j in range(1, n + 1))
