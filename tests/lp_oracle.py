"""SIR feasibility posed as a linear program and solved by HiGHS: a test oracle.

A route is SIR-feasible when some budget-balanced table of cost shares keeps
every rider's disutility (share plus inconvenience) nonincreasing at each
boarding. ``sirshare.sir_feasible`` decides this by per-stage inequalities on
its own stage costs. This module poses the definition itself as a linear
program and solves it with ``scipy.optimize.linprog(method="highs")``
(Huangfu & Hall, 2018). It walks each conditional route over the raw
distance table and imports nothing from ``sirshare``, so the two share no
code.

The program's variables are the shares ``s[i][j]`` (riders by boarding rank,
i <= j) and one margin ``t``. Each stage's shares sum to the operator cost.
At every stage j >= 2, each rider aboard or already dropped off must see
their disutility fall by at least ``t``: from the private fare to
``s[j][j] + ic[j][j]`` for the newcomer, and from ``s[i][j-1] + ic[i][j-1]``
to ``s[i][j] + ic[i][j]`` for everyone who boarded before. Stage 1 needs no
row: its only rider pays exactly their private fare. The largest ``t``,
capped at the largest private fare, is nonnegative exactly when the route is
feasible, and its size says how far the verdict is from a tie.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog


@dataclass(frozen=True)
class LpVerdict:
    """``margin`` is the largest uniform drop ``t``; ``shares[j-1][i-1]`` is
    rider i's share at stage j in the table that attains it."""

    margin: float
    shares: tuple[tuple[float, ...], ...]


def walk_stages(table, events, dropoff_point):
    """Per stage j = 1..n: the conditional route's length and each rider's
    traveled distance on it (riders by boarding rank).

    ``events`` are ("P", pickup label) and ("D", boarding rank) pairs;
    ``dropoff_point(label)`` is the 0-based table index of that pickup's
    dropoff.
    """
    order = [idx for kind, idx in events if kind == "P"]
    lengths, traveled = [], []
    for j in range(1, len(order) + 1):
        aboard: dict[int, float] = {}
        done: dict[int, float] = {}
        total, prev, rank = 0.0, None, 0
        for kind, idx in events:
            if kind == "P":
                rank += 1
                if rank > j:
                    continue
                point = idx - 1
            else:
                if idx > j:
                    continue
                point = dropoff_point(order[idx - 1])
            if prev is not None:
                leg = float(table[prev][point])
                total += leg
                for r in aboard:
                    aboard[r] += leg
            if kind == "P":
                aboard[rank] = 0.0
            else:
                done[idx] = aboard.pop(idx)
            prev = point
        lengths.append(total)
        traveled.append(done)
    return order, lengths, traveled


def sir_margin(table, events, dropoff_point, alpha_op: float, alphas,
               departed: bool = True) -> LpVerdict:
    """Solve the program for one route; ``alphas[r-1]`` prices the detour of
    whoever boards r-th. ``inf`` for a single rider, who has no later stage.

    ``departed=False`` poses a weaker program that drops each rider's rows
    for the boardings after their dropoff, leaving their share there free.
    """
    order, lengths, traveled = walk_stages(table, events, dropoff_point)
    n = len(order)
    # exits[r-1]: the boardings that precede rider r's dropoff
    exits, boarded = [0] * n, 0
    for kind, idx in events:
        if kind == "P":
            boarded += 1
        else:
            exits[idx - 1] = boarded
    if n == 1:
        return LpVerdict(math.inf, ((alpha_op * lengths[0],),))
    direct = [float(table[p - 1][dropoff_point(p)]) for p in order]
    fare = [alpha_op * d for d in direct]
    # ic[j-1][i-1]: rider i's inconvenience on the stage-j conditional route
    ic = [[alphas[i] * (traveled[j][i + 1] - direct[i]) for i in range(j + 1)] for j in range(n)]

    column = {}
    for j in range(1, n + 1):
        for i in range(1, j + 1):
            column[i, j] = len(column)
    t = len(column)

    a_eq = np.zeros((n, t + 1))
    b_eq = np.array([alpha_op * length for length in lengths])
    for (i, j), k in column.items():
        a_eq[j - 1, k] = 1.0

    a_ub, b_ub = [], []
    for j in range(2, n + 1):
        for i in range(1, j + 1):
            if not departed and j > exits[i - 1]:
                continue
            row = np.zeros(t + 1)
            row[column[i, j]] = 1.0
            row[t] = 1.0
            if i == j:  # s[j][j] + ic[j][j] + t <= fare[j]
                bound = fare[j - 1] - ic[j - 1][j - 1]
            else:  # s[i][j] + ic[i][j] + t <= s[i][j-1] + ic[i][j-1]
                row[column[i, j - 1]] = -1.0
                bound = ic[j - 2][i - 1] - ic[j - 1][i - 1]
            a_ub.append(row)
            b_ub.append(bound)

    cost = np.zeros(t + 1)
    cost[t] = -1.0  # maximise t; the cap keeps a program with free shares bounded
    result = linprog(cost, A_ub=np.array(a_ub), b_ub=np.array(b_ub), A_eq=a_eq, b_eq=b_eq,
                     bounds=[(None, None)] * t + [(None, max(fare))], method="highs")
    if result.status != 0:
        raise RuntimeError(f"linprog did not solve the program: {result.message}")
    x = result.x
    shares = tuple(tuple(float(x[column[i, j]]) for i in range(1, j + 1)) for j in range(1, n + 1))
    return LpVerdict(float(x[t]), shares)
