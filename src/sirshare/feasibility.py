"""Stage costs, disutility traces, rationality checks, and the witness scheme.

The conditional route at stage j is the given route with every event of
riders who board after j deleted, order otherwise preserved; costs at stage
j are computed on that route. A route is *feasible* when some budget-balanced
cost-share table keeps every rider's disutility (share plus inconvenience)
nonincreasing at each boarding; the per-stage characterization below decides
this without searching over tables, and ``witness_scheme`` constructs a
table realizing it whenever one exists.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    BudgetBalanceError,
    InfeasibleRouteError,
    MalformedInputError,
)
from .instances import PICKUP, REGIME_INFINITE, REGIME_ZERO, SINGLE, Instance, Route
from .numeric import DEFAULT_REL_TOL, approx_leq, check_tolerance, comparison_tolerance


def conditional_route(route: Route, j: int) -> Route:
    """The route as it stands once rider j has boarded and no one else will.

    Deletes every event of riders with boarding rank above j, preserving the
    relative order of what remains. For single-dropoff routes this is the
    first j pickups followed by the shared dropoff.
    """
    n = route.n
    if not 1 <= j <= n:
        raise MalformedInputError(f"stage {j} out of range 1..{n}")
    kept = []
    rank = 0
    for kind, idx in route.events:
        if kind == PICKUP:
            rank += 1
            if rank <= j:
                kept.append((kind, idx))
        elif idx <= j:
            kept.append((kind, idx))
    return Route(events=tuple(kept))


# ---------------------------------------------------------------------------
# Stage costs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StageCosts:
    """Distances and costs per stage, 1-based in both rider and stage.

    ``d[j]`` is the length of the stage-j conditional route, ``d_i[i][j]``
    the distance rider i travels on it, ``direct[i]`` the rider's private
    pickup-to-dropoff distance, ``oc[j]`` the operator cost, and ``ic[i][j]``
    the rider's inconvenience cost. Index 0 entries are padding.
    """

    n: int
    d: tuple[float, ...]
    d_i: tuple[tuple[float, ...], ...]
    direct: tuple[float, ...]
    oc: tuple[float, ...]
    ic: tuple[tuple[float, ...], ...]


def _walk(instance: Instance, route: Route, events) -> tuple[float, dict[int, float]]:
    """Total length of an event sequence and per-rider traveled distance."""
    order = route.pickup_order
    total = 0.0
    traveled: dict[int, float] = {}
    aboard: dict[int, float] = {}
    prev_point = None
    rank = 0
    for kind, idx in events:
        if kind == PICKUP:
            rank += 1
            point = idx - 1
        else:
            point = instance.dropoff_index(order[idx - 1])
        if prev_point is not None:
            leg = instance.rows[prev_point][point]
            total += leg
            for r in aboard:
                aboard[r] += leg
        if kind == PICKUP:
            aboard[rank] = 0.0
        else:
            traveled[idx] = aboard.pop(idx)
        prev_point = point
    return total, traveled


def stage_costs(instance: Instance, route: Route) -> StageCosts:
    """Stage distances and costs of a route; validates it (cached per route)."""
    route.validate(instance)
    n = instance.n
    order = route.pickup_order
    alphas = instance.alphas
    aop = instance.alpha_op

    d = [0.0] * (n + 1)
    d_i = [[0.0] * (n + 1) for _ in range(n + 1)]
    direct = [0.0] + [instance.direct[p] for p in order]  # by boarding rank

    if instance.dropoff_mode == SINGLE:
        rows = instance.rows
        seg_prefix = [0.0] * (n + 1)  # seg_prefix[k] = distance over the first k hops
        for k in range(1, n):
            seg_prefix[k] = seg_prefix[k - 1] + rows[order[k - 1] - 1][order[k] - 1]
        for j in range(1, n + 1):
            d[j] = seg_prefix[j - 1] + direct[j]
            for i in range(1, j + 1):
                d_i[i][j] = seg_prefix[j - 1] - seg_prefix[i - 1] + direct[j]
    else:
        for j in range(1, n + 1):
            events = conditional_route(route, j).events
            total, traveled = _walk(instance, route, events)
            d[j] = total
            for i in range(1, j + 1):
                d_i[i][j] = traveled[i]

    oc = [0.0] * (n + 1)
    ic = [[0.0] * (n + 1) for _ in range(n + 1)]
    for j in range(1, n + 1):
        oc[j] = aop * d[j]
        for i in range(1, j + 1):
            ic[i][j] = alphas[i - 1] * (d_i[i][j] - direct[i])

    return StageCosts(
        n=n,
        d=tuple(d),
        d_i=tuple(tuple(row) for row in d_i),
        direct=tuple(direct),
        oc=tuple(oc),
        ic=tuple(tuple(row) for row in ic),
    )


# ---------------------------------------------------------------------------
# Cost-share tables and disutility traces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CostShareTable:
    """Lower-triangular shares: ``shares[j-1][i-1]`` is rider i's share once
    j riders have boarded (defined for i <= j)."""

    shares: tuple[tuple[float, ...], ...]

    @property
    def n(self) -> int:
        return len(self.shares)

    def value(self, i: int, j: int) -> float:
        return self.shares[j - 1][i - 1]

    def to_rows(self) -> list[list[float]]:
        return [list(row) for row in self.shares]


@dataclass(frozen=True)
class DisutilityTrace:
    """``du[i-1][j]`` is rider i's disutility once j riders have boarded,
    j running from 0 (private-ride reference) to n."""

    du: tuple[tuple[float, ...], ...]

    @property
    def n(self) -> int:
        return len(self.du)

    def row(self, i: int) -> tuple[float, ...]:
        return self.du[i - 1]

    def to_rows(self) -> list[list[float]]:
        return [list(row) for row in self.du]


def budget_balance_residuals(table: CostShareTable, costs: StageCosts) -> list[float]:
    """Per-stage difference between the summed shares and the operator cost."""
    return [
        sum(table.shares[j - 1]) - costs.oc[j]
        for j in range(1, costs.n + 1)
    ]


def _balanced_costs(instance: Instance, route: Route, table: CostShareTable,
                    rel: float) -> StageCosts:
    """Stage costs of the route, once the table is checked to balance them."""
    check_tolerance(rel)
    costs = stage_costs(instance, route)
    for j, res in enumerate(budget_balance_residuals(table, costs), start=1):
        if abs(res) > comparison_tolerance(costs.oc[j], rel):
            raise BudgetBalanceError(
                f"shares sum to {costs.oc[j] + res:.12g} at stage {j}, "
                f"operator cost is {costs.oc[j]:.12g}",
                stage=j,
            )
    return costs


def last_boarding_before_exit(route: Route) -> tuple[int, ...]:
    """For each rider, the rank of the last boarding before their dropoff."""
    n = route.n
    out = [0] * (n + 1)
    seen = 0
    for kind, idx in route.events:
        if kind == PICKUP:
            seen += 1
        else:
            out[idx] = seen
    return tuple(out[1:])


def disutility_trace(instance: Instance, route: Route, table: CostShareTable,
                     costs: StageCosts | None = None) -> DisutilityTrace:
    if costs is None:
        costs = stage_costs(instance, route)
    n = costs.n
    aop = instance.alpha_op
    freeze = last_boarding_before_exit(route)
    shares = table.shares
    rows = []
    for i in range(1, n + 1):
        base = aop * costs.direct[i]
        row = [base] * (n + 1)
        ic = costs.ic[i]
        for j in range(i, n + 1):
            # a boarding rank always precedes the rider's own dropoff, so
            # freeze[i-1] >= i and row[freeze] is set before it is needed
            if j <= freeze[i - 1]:
                row[j] = shares[j - 1][i - 1] + ic[j]
            else:
                row[j] = row[freeze[i - 1]]
        rows.append(tuple(row))
    return DisutilityTrace(du=tuple(rows))


def is_ir(instance: Instance, route: Route, table: CostShareTable,
          rel: float = DEFAULT_REL_TOL) -> tuple[bool, list[tuple[int, float]]]:
    """Whether no rider ends worse off than riding alone.

    Returns the verdict plus (rider, excess) for each violation. The table
    must be budget balanced; otherwise a :class:`BudgetBalanceError` names
    the offending stage.
    """
    costs = _balanced_costs(instance, route, table, rel)
    trace = disutility_trace(instance, route, table, costs)
    violations = []
    for i in range(1, costs.n + 1):
        row = trace.row(i)
        excess = row[costs.n] - row[0]
        if excess > comparison_tolerance(max(abs(row[costs.n]), abs(row[0])), rel):
            violations.append((i, excess))
    return (not violations, violations)


def is_sir(instance: Instance, route: Route, table: CostShareTable,
           rel: float = DEFAULT_REL_TOL) -> tuple[bool, list[tuple[int, int, float]]]:
    """Whether every rider's disutility is nonincreasing at each boarding.

    Returns the verdict plus (rider, stage, excess) violations.
    """
    costs = _balanced_costs(instance, route, table, rel)
    trace = disutility_trace(instance, route, table, costs)
    violations = []
    for i in range(1, costs.n + 1):
        row = trace.row(i)
        for j in range(1, costs.n + 1):
            excess = row[j] - row[j - 1]
            if excess > comparison_tolerance(max(abs(row[j]), abs(row[j - 1])), rel):
                violations.append((i, j, excess))
    return (not violations, violations)


# ---------------------------------------------------------------------------
# Feasibility
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class StageSlack:
    stage: int
    lhs: float
    rhs: float

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    stages: tuple[StageSlack, ...]
    first_violation: int | None = None

    @property
    def slacks(self) -> tuple[float, ...]:
        return tuple(s.slack for s in self.stages)


def single_dropoff_detours(instance: Instance, route: Route) -> tuple[float, ...]:
    """Extra distance each boarding adds for everyone aboard, stages 2..n."""
    instance.require_single_dropoff("the detour sequence")
    order = route.pickup_order
    detour = instance.detour
    return tuple(detour[a][b] for a, b in zip(order, order[1:]))


def sir_feasible(instance: Instance, route: Route,
                 rel: float = DEFAULT_REL_TOL) -> FeasibilityResult:
    """Decide whether some budget-balanced table is SIR on this route.

    For single-dropoff routes each stage's incremental detour is compared
    against its shrinking budget (``Instance.detour`` and ``Instance.budget``);
    per-rider dropoffs take the stage-cost form. Stage slacks within
    tolerance of zero count as feasible. The tolerance and route are
    validated first; the route check is cached per route.
    """
    check_tolerance(rel)
    route.validate(instance)
    n = instance.n
    stages: list[StageSlack] = []

    if instance.dropoff_mode == SINGLE:
        order = route.pickup_order
        detour, budget = instance.detour, instance.budget
        for j in range(2, n + 1):
            a, b = order[j - 2], order[j - 1]
            stages.append(StageSlack(stage=j, lhs=detour[a][b], rhs=budget[j][b]))
    else:
        costs = stage_costs(instance, route)
        for j in range(2, n + 1):
            delta_d = costs.d[j] - costs.d[j - 1]
            if instance.regime == REGIME_ZERO:
                lhs = delta_d
                rhs = costs.direct[j]
            elif instance.regime == REGIME_INFINITE:
                lhs = sum(costs.d_i[i][j] - costs.d_i[i][j - 1] for i in range(1, j))
                lhs += costs.d_i[j][j] - costs.direct[j]
                rhs = 0.0
            else:
                lhs = instance.alpha_op * delta_d
                lhs += sum(
                    instance.alphas[i - 1] * (costs.d_i[i][j] - costs.d_i[i][j - 1])
                    for i in range(1, j)
                )
                rhs = instance.alpha_op * costs.direct[j]
                rhs -= instance.alphas[j - 1] * (costs.d_i[j][j] - costs.direct[j])
            stages.append(StageSlack(stage=j, lhs=lhs, rhs=rhs))

    first_violation = next((s.stage for s in stages if not approx_leq(s.lhs, s.rhs, rel)), None)
    return FeasibilityResult(
        feasible=first_violation is None,
        stages=tuple(stages),
        first_violation=first_violation,
    )


def witness_scheme(instance: Instance, route: Route,
                   rel: float = DEFAULT_REL_TOL) -> CostShareTable:
    """Budget-balanced table that is SIR whenever the route is feasible.

    Built recursively: the first rider pays the full private fare; at each
    boarding every existing rider's share drops by exactly their incremental
    inconvenience, and the newcomer absorbs the rest of the operator cost.
    The newcomer's share is checked against their private fare less their
    own inconvenience at every stage; a failure identifies the stage at
    which no budget-balanced SIR table can exist.
    """
    verdict = sir_feasible(instance, route, rel=rel)
    if not verdict.feasible:
        raise InfeasibleRouteError(
            f"route is not SIR-feasible at stage {verdict.first_violation}",
            stage=verdict.first_violation,
        )
    costs = stage_costs(instance, route)
    n = costs.n
    aop = instance.alpha_op
    rows: list[list[float]] = [[aop * costs.direct[1]]]
    for j in range(2, n + 1):
        prev = rows[-1]
        row = [
            prev[i - 1] - (costs.ic[i][j] - costs.ic[i][j - 1])
            for i in range(1, j)
        ]
        incoming = costs.oc[j] - sum(row)
        cap = aop * costs.direct[j] - costs.ic[j][j]
        if not approx_leq(incoming, cap, rel):
            raise InfeasibleRouteError(
                f"newcomer share {incoming:.12g} exceeds cap {cap:.12g} at stage {j}",
                stage=j,
            )
        row.append(incoming)
        rows.append(row)
    return CostShareTable(shares=tuple(tuple(r) for r in rows))
