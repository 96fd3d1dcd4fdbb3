"""The dict-of-labels optimum DP, kept as the reference for ``opt_sir_route``.

``opt_sir_route`` runs its exact label DP only over the states that two
array value passes leave within ``search._rounding_slack`` of the optimum.
``reference_opt_route`` is the label DP alone over every reachable state, as
``opt_sir_route`` ran it before those passes: a forward recursion of Bellman
(1962) and Held & Karp (1962) over (set of boarded pickups, last pickup), in
ascending mask order. It shares the instance's stage verdicts and the
rounding slack with the library, and nothing of the passes or the label
driver. Tests compare the two on the same instance and tolerance, route and
distance alike.
"""

from __future__ import annotations

from sirshare import Route
from sirshare.search import _rounding_slack


def _bitmasks(passes):
    """``ok[j][a]``: bit b-1 set when pickup b may board j-th right after a."""
    return [[sum(1 << b for b, ok in enumerate(row) if ok) for row in stage]
            for stage in passes.tolist()]


def reference_opt_route(instance, rel):
    """(shortest feasible route, its distance), or None when none is feasible.

    Each state keeps its best prefixes as (partial distance, order). A prefix
    beats another when it is no longer and has the smaller order, or is
    shorter by more than ``_rounding_slack``, so the lexicographically
    smallest of the exactly shortest orders survives every rounding near-tie.
    """
    n = instance.n
    rows = instance.rows
    ok = _bitmasks(instance._stage_verdicts(rel))
    slack = _rounding_slack(instance)
    states = [None] * (1 << n)
    for p in range(1, n + 1):
        states[1 << (p - 1)] = {p: [(0.0, (p,))]}
    full = (1 << n) - 1
    for mask in range(1, full):
        here = states[mask]
        if here is None:
            continue
        states[mask] = None
        stage = mask.bit_count() + 1  # the next pickup boards at this stage
        for last, labels in here.items():
            succs = ok[stage][last] & ~mask
            while succs:
                bit = succs & -succs
                succs ^= bit
                b = bit.bit_length()
                if states[mask | bit] is None:
                    states[mask | bit] = {}
                into = states[mask | bit].setdefault(b, [])
                hop = rows[last - 1][b - 1]
                for dist, order in labels:
                    dist += hop
                    order += (b,)
                    for d, o in into:
                        if d + slack < dist or (d <= dist and o < order):
                            break
                    else:
                        if into:
                            into[:] = [(d, o) for d, o in into
                                       if not (dist + slack < d or (dist <= d and order < o))]
                        into.append((dist, order))
    ends = states[full]
    if not ends:
        return None
    dist, order = min((d + instance.direct_distance(last), o)
                      for last, labels in ends.items() for d, o in labels)
    return Route.single_dropoff(order), dist
