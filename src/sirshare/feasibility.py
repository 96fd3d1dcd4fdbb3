"""Stage costs, disutility traces, rationality checks, and the witness scheme.

The conditional route at stage j is the given route with every event of
riders who board after j deleted, order otherwise preserved; costs at stage
j are computed on that route. A route is *feasible* when some budget-balanced
cost-share table keeps every rider's disutility (share plus inconvenience)
nonincreasing at each boarding; the per-stage characterization below decides
this without searching over tables, and ``witness_scheme`` constructs a
table realizing it whenever one exists.

Table invariant: every :class:`CostShareTable` holds a tuple of rows, row j a
tuple of j real numbers (no bool, Python's or numpy's), every entry and row sum
finite. The check runs when the table is built, whoever builds it, and raises
:class:`MalformedInputError`, so a checker tests only that there is a row per rider.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    BudgetBalanceError,
    InfeasibleRouteError,
    MalformedInputError,
)
from .instances import (
    PICKUP,
    REGIME_INFINITE,
    REGIME_ZERO,
    SINGLE,
    Instance,
    Route,
    _check_integer,
)
from .numeric import (DEFAULT_REL_TOL, approx_leq, check_tolerance, comparison_tolerance,
                      rounding_slack)


def conditional_route(route: Route, j: int) -> Route:
    """The route as it stands once rider j has boarded and no one else will.

    Deletes every event of riders with boarding rank above j, preserving the
    relative order of what remains. For single-dropoff routes this is the
    first j pickups followed by the shared dropoff.
    """
    _check_integer("stage j", j)
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
    """Stage distances and costs of a route; validates it (cached per route).

    Computed once per (instance, route): the route keeps the result as its
    ledger, keyed by the instance's identity, so every checker on the same
    pair reads the very same object. A route used with another instance
    gets that instance's costs, and keeps them in turn.
    """
    route.validate(instance)
    kept = vars(route).get("_ledger")
    if kept is not None and kept[0] is instance:
        return kept[1]
    n = instance.n
    order = route.pickup_order
    alphas = instance._priced_alphas
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

    costs = StageCosts(
        n=n,
        d=tuple(d),
        d_i=tuple(tuple(row) for row in d_i),
        direct=tuple(direct),
        oc=tuple(oc),
        ic=tuple(tuple(row) for row in ic),
    )
    vars(route)["_ledger"] = (instance, costs)
    return costs


# ---------------------------------------------------------------------------
# Cost-share tables and disutility traces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CostShareTable:
    """Lower-triangular shares: ``shares[j-1][i-1]`` is rider i's share once j riders
    have boarded (defined for i <= j); checked when built, copied or unpickled."""

    shares: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        try:
            rows = tuple(map(tuple, self.shares))
            if [*map(len, rows)] != [*range(1, len(rows) + 1)]:
                raise MalformedInputError("share table row j must hold j shares")
            entries = itertools.chain.from_iterable
            kinds = set(map(type, entries(rows)))
            kinds.discard(float)
            for kind in kinds:
                if issubclass(kind, (bool, np.bool_)) or not issubclass(kind, numbers.Real):
                    raise MalformedInputError(
                        f"share table entries must be real numbers, not {kind.__name__}")
            # a float row with a finite sum holds finite floats; other numbers are checked apart
            finite = all(map(math.isfinite, map(sum, rows))) and (
                not kinds or all(map(math.isfinite, entries(rows))))
        except (TypeError, OverflowError):  # no rows of numbers, or a number beyond float range
            finite = False
        if not finite:
            raise MalformedInputError("a share table holds rows of finite real numbers")
        object.__setattr__(self, "shares", rows)

    def __reduce__(self):
        return CostShareTable, (self.shares,)

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
    j running from 0 (private-ride reference) to n: the private fare before
    the rider boards, and their share plus inconvenience from then on, also
    after their dropoff."""

    du: tuple[tuple[float, ...], ...]

    @property
    def n(self) -> int:
        return len(self.du)

    def row(self, i: int) -> tuple[float, ...]:
        return self.du[i - 1]

    def to_rows(self) -> list[list[float]]:
        return [list(row) for row in self.du]


def _rows_for(table: CostShareTable, n: int) -> tuple[tuple[float, ...], ...]:
    """A checker's one test of a built (so checked) table: its rows, once there is one per rider."""
    if table.n != n:
        raise MalformedInputError(
            f"a share table for {n} riders needs {n} rows, row j holding j shares")
    return table.shares


def budget_balance_residuals(table: CostShareTable, costs: StageCosts) -> list[float]:
    """Per-stage summed shares less the operator cost, once there is a row per stage."""
    return [sum(row) - oc for row, oc in zip(_rows_for(table, costs.n), costs.oc[1:])]


def _balanced_costs(instance: Instance, route: Route, table: CostShareTable,
                    rel: float) -> StageCosts:
    """Stage costs of the route, once the table is checked to balance them."""
    check_tolerance(rel)
    costs = stage_costs(instance, route)
    for j, res in enumerate(budget_balance_residuals(table, costs), start=1):
        if not abs(res) <= comparison_tolerance(costs.oc[j], rel):
            raise BudgetBalanceError(f"shares sum to {costs.oc[j] + res:.12g} at stage {j}, "
                                     f"operator cost is {costs.oc[j]:.12g}", stage=j)
    return costs


def _trace(costs: StageCosts, aop: float, shares) -> DisutilityTrace:
    """``disutility_trace`` of a table already checked against these costs."""
    n = costs.n
    rows = []
    for i in range(1, n + 1):
        row = [aop * costs.direct[i]] * (n + 1)
        ic = costs.ic[i]
        for j in range(i, n + 1):
            row[j] = shares[j - 1][i - 1] + ic[j]
        rows.append(tuple(row))
    return DisutilityTrace(du=tuple(rows))


def disutility_trace(instance: Instance, route: Route, table: CostShareTable) -> DisutilityTrace:
    """Each rider's disutility under the table, before and after every boarding.

    Rider i's row holds the private fare ``alpha_op * direct[i]`` at stages
    0..i-1 and ``share[i][j] + ic[i][j]`` at every stage j >= i. One rule
    serves every rider, including one already dropped off: no leg is added
    to a rider after their dropoff, so their inconvenience stays put and
    only their share can still move the row; the row count is checked first.
    """
    costs = stage_costs(instance, route)
    return _trace(costs, instance.alpha_op, _rows_for(table, costs.n))


def _balanced_trace(instance: Instance, route: Route, table: CostShareTable,
                    rel: float) -> DisutilityTrace:
    """The table's disutility trace, once the table is checked to balance the route."""
    return _trace(_balanced_costs(instance, route, table, rel), instance.alpha_op, table.shares)


def _rises(before, after, rel: float) -> list[tuple[int, float]]:
    """The rise test of ``is_sir`` and ``is_ir``: (k, excess) wherever ``after[k-1]`` exceeds
    ``before[k-1]`` by more than their comparison slack (never negative: computed for a rise)."""
    return [(k, excess) for k, (b, a) in enumerate(zip(before, after), start=1)
            if (excess := a - b) > 0 and excess > comparison_tolerance(max(abs(a), abs(b)), rel)]


def is_ir(instance: Instance, route: Route, table: CostShareTable,
          rel: float = DEFAULT_REL_TOL) -> tuple[bool, list[tuple[int, float]]]:
    """Whether no rider ends worse off than riding alone.

    Compares each rider's final disutility, share plus inconvenience at
    stage n (whether or not they were dropped off earlier), with their
    private fare. Returns the verdict plus (rider, excess) for each
    violation. The table must be budget balanced; otherwise a
    :class:`BudgetBalanceError` names the offending stage.
    """
    du = _balanced_trace(instance, route, table, rel).du
    violations = _rises([row[0] for row in du], [row[-1] for row in du], rel)
    return (not violations, violations)


def is_sir(instance: Instance, route: Route, table: CostShareTable,
           rel: float = DEFAULT_REL_TOL) -> tuple[bool, list[tuple[int, int, float]]]:
    """Whether every rider's disutility is nonincreasing at each boarding.

    Reads the rows of :func:`disutility_trace`: a rider's disutility is the
    private fare until they board and share plus inconvenience from then on,
    so a rider already dropped off may not be charged more at a later
    boarding. Returns the verdict plus (rider, stage, excess) violations.
    """
    du = _balanced_trace(instance, route, table, rel).du
    violations = [(i, j, excess) for i, row in enumerate(du, start=1)
                  for j, excess in _rises(row, row[1:], rel)]
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
    """A route's verdict: ``stages`` holds stages 2..n and ``first_violation``
    the first of them that fails, or None when the route is feasible.

    ``sir_feasible`` builds ``stages`` on first read, from the stage values
    its check already had; a result built by the constructor holds the
    stages it was given. ``==``, ``hash``, ``repr`` and pickling read
    ``stages`` either way.
    """

    feasible: bool
    stages: tuple[StageSlack, ...]
    first_violation: int | None = None

    @property
    def slacks(self) -> tuple[float, ...]:
        return tuple(s.slack for s in self.stages)

    def __reduce__(self):
        return FeasibilityResult, (self.feasible, self.stages, self.first_violation)


def _lazy_result(first_violation: int | None, source) -> FeasibilityResult:
    """A ``sir_feasible`` result whose stages wait in ``source``: a list of
    the (lhs, rhs) pairs of stages 2..n, or the (instance, order) of a
    single-dropoff route."""
    result = object.__new__(FeasibilityResult)
    fields = vars(result)
    fields["feasible"] = first_violation is None
    fields["first_violation"] = first_violation
    fields["_source"] = source
    return result


def _stored_stages(result: FeasibilityResult) -> tuple[StageSlack, ...]:
    source = vars(result)["_source"]
    if isinstance(source, list):
        pairs = source
    else:
        instance, order = source
        detour, budget = instance.detour, instance.budget
        pairs = [(detour[a][b], budget[j][b])
                 for j, a, b in zip(range(2, len(order) + 1), order, order[1:])]
    return tuple(StageSlack(j, lhs, rhs) for j, (lhs, rhs) in enumerate(pairs, start=2))


# a ``sir_feasible`` result builds its stages here on first read; the constructor sets them
FeasibilityResult.stages = cached_property(_stored_stages)
FeasibilityResult.stages.__set_name__(FeasibilityResult, "stages")


def single_dropoff_detours(instance: Instance, route: Route) -> tuple[float, ...]:
    """Extra distance each boarding adds for everyone aboard, stages 2..n;
    validates the route first."""
    instance.require_single_dropoff("the detour sequence")
    route.validate(instance)
    order = route.pickup_order
    detour = instance.detour
    return tuple(detour[a][b] for a, b in zip(order, order[1:]))


def sir_feasible(instance: Instance, route: Route,
                 rel: float = DEFAULT_REL_TOL) -> FeasibilityResult:
    """Decide whether some budget-balanced table is SIR on this route.

    Single-dropoff stages test each detour against its shrinking budget
    (``Instance.detour`` and ``Instance.budget``) under ``_stage_fits``, the
    test the searches tabulate, reading the route's columns of it from the
    instance's kept grid (``Instance._stage_grid``).
    Per-rider dropoffs take the stage-cost form, where in ``infinite`` the
    riders' side decides and, on a tie, the operator's side does
    (``_limit_pair``). Stage slacks within tolerance of zero count as
    feasible. The tolerance and route are validated first. The check stops
    at the first failing stage and builds no per-stage object: the result's
    ``stages`` is built on first read.

    Decided once per (instance, route, ``rel``): the route keeps its verdict
    for the last instance and tolerance it served, keyed by the instance's
    identity, so a repeat call (``witness_scheme`` and ``beta_fair_table``
    make one for the route their caller just checked) neither validates nor
    walks the stages again. Each call returns a fresh result.
    """
    check_tolerance(rel)
    kept = vars(route).get("_verdict")
    if kept is None or kept[0] is not instance or kept[1] != rel:
        kept = (instance, rel, *_stage_check(instance, route, rel))
        vars(route)["_verdict"] = kept
    return _lazy_result(kept[2], kept[3])


def _stage_check(instance: Instance, route: Route, rel: float) -> tuple[int | None, object]:
    """The first stage at which the route fails, or None, and the source of
    its stage values (see ``_lazy_result``); validates the route first."""
    route.validate(instance)
    n = instance.n

    if instance.dropoff_mode == SINGLE:
        order = route.pickup_order
        grid = instance._stage_grid(rel)
        for j, a, b in zip(range(2, n + 1), order, order[1:]):
            fits = grid[j][b]
            if fits is None:  # build the rest of the route's columns at once
                instance._build_stage_columns(rel, grid, zip(range(j, n + 1), order[j - 1:]))
                fits = grid[j][b]
            if not fits[a]:
                return j, (instance, order)
        return None, (instance, order)

    costs = stage_costs(instance, route)
    pairs = []
    for j in range(2, n + 1):
        if instance.regime == REGIME_ZERO:
            pairs.append((costs.d[j] - costs.d[j - 1], costs.direct[j]))
        elif instance.regime == REGIME_INFINITE:
            pairs.append(_limit_pair(costs, j, rel))
        else:
            pairs.append(_finite_pair(instance, costs, j))
    return _first_violation(pairs, rel), pairs


def _first_violation(pairs: list[tuple[float, float]], rel: float) -> int | None:
    """The first stage whose (lhs, rhs) pair, stages 2..n, fails lhs <= rhs."""
    return next((j for j, (lhs, rhs) in enumerate(pairs, start=2)
                 if not approx_leq(lhs, rhs, rel)), None)


def _finite_pair(instance: Instance, costs: StageCosts, j: int) -> tuple[float, float]:
    """Stage j in cost form at the stored sensitivities: what the boarding
    adds to the operator's and the earlier riders' costs, against the
    newcomer's private fare less their own inconvenience."""
    alphas = instance.alphas
    lhs = instance.alpha_op * (costs.d[j] - costs.d[j - 1])
    lhs += sum(alphas[i - 1] * (costs.d_i[i][j] - costs.d_i[i][j - 1]) for i in range(1, j))
    rhs = instance.alpha_op * costs.direct[j]
    rhs -= alphas[j - 1] * (costs.d_i[j][j] - costs.direct[j])
    return lhs, rhs


def _limit_pair(costs: StageCosts, j: int, rel: float) -> tuple[float, float]:
    """Stage j as every sensitivity grows: the riders' side (the distance the
    boarding adds for everyone aboard, the newcomer's own detour included)
    against 0, and on a tie the operator's side, added distance against the
    newcomer's direct trip. The riders' side is a cancelling sum, so a tie is
    a value within tolerance of the scale of its operands, or within the
    rounding such a sum can carry (``rounding_slack`` of that scale), which
    ``rel = 0`` sees too."""
    riders = sum(costs.d_i[i][j] - costs.d_i[i][j - 1] for i in range(1, j))
    riders += costs.d_i[j][j] - costs.direct[j]
    scale = max(costs.d[j - 1], costs.d[j], costs.direct[j])
    if abs(riders) > max(comparison_tolerance(scale, rel), rounding_slack(costs.n, scale)):
        return riders, 0.0
    return costs.d[j] - costs.d[j - 1], costs.direct[j]


def _require_feasible(instance: Instance, route: Route, rel: float) -> None:
    """Raise InfeasibleRouteError at the first stage that ``sir_feasible`` rejects."""
    stage = sir_feasible(instance, route, rel=rel).first_violation
    if stage is not None:
        raise InfeasibleRouteError(f"route is not SIR-feasible at stage {stage}", stage=stage)


def witness_scheme(instance: Instance, route: Route,
                   rel: float = DEFAULT_REL_TOL) -> CostShareTable:
    """Budget-balanced table that is SIR whenever the route is feasible.

    Built recursively: the first rider pays the full private fare; at each
    boarding every existing rider's share drops by exactly their incremental
    inconvenience, and the newcomer absorbs the rest of the operator cost.
    Raises InfeasibleRouteError at the first stage that ``sir_feasible``
    rejects. In ``infinite`` that verdict is the limit of growing
    sensitivities, while the shares are priced at the stored ones, so there
    the stages must also pass at the stored sensitivities (the ``finite``
    verdict), or the error names the first that does not. The shares fold
    the stage costs, so a stage exactly on its budget can leave the table
    an ulp or two from SIR under ``is_sir(rel=0)``.
    """
    _require_feasible(instance, route, rel)
    costs = stage_costs(instance, route)
    n = costs.n
    if instance.regime == REGIME_INFINITE:
        stage = _first_violation([_finite_pair(instance, costs, j) for j in range(2, n + 1)], rel)
        if stage is not None:
            raise InfeasibleRouteError(
                f"route is SIR-feasible only as the sensitivities grow; at the stored "
                f"sensitivities it fails at stage {stage}", stage=stage)
    rows: list[list[float]] = [[instance.alpha_op * costs.direct[1]]]
    for j in range(2, n + 1):
        prev = rows[-1]
        row = [prev[i - 1] - (costs.ic[i][j] - costs.ic[i][j - 1]) for i in range(1, j)]
        row.append(costs.oc[j] - sum(row))
        rows.append(row)
    return CostShareTable(shares=rows)
