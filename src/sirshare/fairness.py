"""Incremental-benefit accounting and proportionally fair share tables.

Under any budget-balanced table, the total drop in disutility caused by a
boarding (the total incremental benefit) does not depend on the table. A
table is beta-fair when, at each boarding j, the newcomer keeps fraction
1 - beta_j of that benefit and the rest is split among existing riders in
proportion to their sensitivities. The closed forms below construct and
verify such tables for single-dropoff routes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import (
    DegenerateWeightsError,
    IndeterminateRatioError,
    InfeasibleRouteError,
    MalformedInputError,
    UnsupportedAssumptionError,
)
from .feasibility import (
    CostShareTable,
    DisutilityTrace,
    _balanced_costs,
    disutility_trace,
    sir_feasible,
    stage_costs,
)
from .instances import Instance, Route
from .numeric import DEFAULT_REL_TOL, approx_eq, check_tolerance, comparison_tolerance


@dataclass(frozen=True)
class BetaVector:
    """Benefit split fractions for stages 2..n, each in [0, 1]."""

    betas: tuple[float, ...]

    def __post_init__(self):
        for b in self.betas:
            if not 0.0 <= b <= 1.0:
                raise MalformedInputError(f"beta value {b} outside [0, 1]")
        object.__setattr__(self, "betas", tuple(float(b) for b in self.betas))

    @classmethod
    def of(cls, values: Sequence[float] | "BetaVector") -> "BetaVector":
        if isinstance(values, BetaVector):
            return values
        return cls(betas=tuple(values))

    def for_stage(self, j: int) -> float:
        return self.betas[j - 2]

    def __len__(self) -> int:
        return len(self.betas)


@dataclass(frozen=True)
class BenefitBreakdown:
    """Per-rider and total incremental benefits for stages 2..n.

    ``ib[j-2][i-1]`` is rider i's benefit from the j-th boarding;
    ``tib[j-2]`` is the stage total.
    """

    ib: tuple[tuple[float, ...], ...]
    tib: tuple[float, ...]

    def tib_value(self, j: int) -> float:
        return self.tib[j - 2]


def benefit_breakdown(instance: Instance, route: Route, table: CostShareTable,
                      rel: float = DEFAULT_REL_TOL) -> BenefitBreakdown:
    """Benefit each rider draws from each boarding under the given table.

    Existing riders gain their share discount net of the extra inconvenience;
    the newcomer gains the private fare less what they are charged. The
    stage totals come out independent of the table (budget balance cancels
    the shares), equal to the newcomer's fare minus the detour priced at the
    pooled sensitivity.
    """
    instance.require_single_dropoff("benefit accounting")
    _balanced_costs(instance, route, table, rel)
    order = route.pickup_order
    aop = instance.alpha_op
    alphas = instance.alphas
    detour = instance.detour
    shares = table.shares
    ibs = []
    tibs = []
    for j in range(2, instance.n + 1):
        det = detour[order[j - 2]][order[j - 1]]
        fare = aop * instance.direct_distance(order[j - 1])
        before, after = shares[j - 2], shares[j - 1]
        row = [before[i] - after[i] - alphas[i] * det for i in range(j - 1)]
        row.append(fare - after[j - 1])
        ibs.append(tuple(row))
        tibs.append(fare - (aop + instance.alpha_prefix[j - 1]) * det)
    return BenefitBreakdown(ib=tuple(ibs), tib=tuple(tibs))


def beta_fair_table(instance: Instance, route: Route,
                    betas: Sequence[float] | BetaVector,
                    rel: float = DEFAULT_REL_TOL) -> CostShareTable:
    """The unique budget-balanced beta-fair table for a feasible route.

    At each boarding the newcomer pays a convex combination (weight beta_j)
    of the private fare and the detour priced at the pooled sensitivity;
    each existing rider's discount blends their proportional cut of the
    operator-side surplus with direct compensation for their inconvenience.
    """
    instance.require_single_dropoff("fair-share construction")
    betas = BetaVector.of(betas)
    n = instance.n
    if len(betas) != max(n - 1, 0):
        raise MalformedInputError(f"need {n - 1} beta values, got {len(betas)}")
    verdict = sir_feasible(instance, route, rel=rel)
    if not verdict.feasible:
        raise InfeasibleRouteError(
            f"route is not SIR-feasible at stage {verdict.first_violation}",
            stage=verdict.first_violation,
        )
    order = route.pickup_order
    aop = instance.alpha_op
    alphas = instance.alphas
    detour = instance.detour
    rows: list[list[float]] = [[aop * instance.direct_distance(order[0])]]
    for j in range(2, n + 1):
        weight_sum = instance.alpha_prefix[j - 1]
        if weight_sum <= 0.0:
            raise DegenerateWeightsError(
                f"existing riders carry zero total sensitivity at stage {j}"
            )
        b = betas.for_stage(j)
        det = detour[order[j - 2]][order[j - 1]]
        sd_j = instance.direct_distance(order[j - 1])
        operator_surplus = aop * sd_j - aop * det
        keep = 1.0 - b
        row = [
            share - (b * (alpha_i / weight_sum) * operator_surplus + keep * alpha_i * det)
            for share, alpha_i in zip(rows[-1], alphas)
        ]
        incoming = b * aop * sd_j + keep * (aop + weight_sum) * det
        row.append(incoming)
        rows.append(row)
    return CostShareTable(shares=tuple(tuple(r) for r in rows))


def xc_table(instance: Instance, route: Route,
             rel: float = DEFAULT_REL_TOL) -> CostShareTable:
    """Equal-segment-split table with mutual detour compensation.

    Each route segment's operator cost is split evenly among the riders on
    it; every rider compensates those who boarded earlier for the detour
    their own pickup caused, and is compensated by later arrivals in turn.
    Requires every sensitivity to equal the operator rate (any common scale).

    O(n**2): rider i's segment and compensation sums over the boardings
    i+1..j are running sums carried from stage j-1 to stage j, each started
    at int 0 and folded left to right, as ``sum`` folds them on CPython
    before 3.12.
    """
    check_tolerance(rel)
    instance.require_single_dropoff("segment-split table")
    route.validate(instance)
    aop = instance.alpha_op
    for i, a in enumerate(instance.alphas, start=1):
        if not approx_eq(a, aop, rel):
            raise UnsupportedAssumptionError(
                f"rider {i} sensitivity {a} differs from operator rate {aop}; "
                "the segment-split table assumes equal rates"
            )
    order = route.pickup_order
    n = instance.n
    rows, detour = instance.rows, instance.detour
    det = [0.0, 0.0] + [detour[a][b] for a, b in zip(order, order[1:])]
    sd = [0.0] + [instance.direct_distance(p) for p in order]
    paid_to_earlier = [(i - 1) * det[i] for i in range(n + 1)]

    # segments[i] = seg(i+1)/i + ... + seg(j)/(j-1) and received[i] = det(i+1)
    # + ... + det(j) at stage j, where seg(k) is the hop from pickup k-1 to k
    segments = [0] * (n + 1)
    received = [0] * (n + 1)
    shares = []
    for j in range(1, n + 1):
        if j > 1:
            split = rows[order[j - 2] - 1][order[j - 1] - 1] / (j - 1)
            for i in range(1, j):
                segments[i] += split
                received[i] += det[j]
        tail = sd[j] / j
        shares.append(tuple([
            aop * (segments[i] + tail + paid_to_earlier[i] - received[i])
            for i in range(1, j + 1)
        ]))
    return CostShareTable(shares=tuple(shares))


def verify_fairness_ratios(instance: Instance, route: Route, table: CostShareTable,
                           betas: Sequence[float] | BetaVector,
                           rel: float = DEFAULT_REL_TOL):
    """Check the benefit split of a table against a target beta vector.

    Returns (ok, residuals) where residuals mirror the benefit layout: the
    realized benefit fraction minus the target fraction per (rider, stage).
    Raises if some stage's total benefit is zero, where ratios are undefined.
    """
    instance.require_single_dropoff("fairness verification")
    betas = BetaVector.of(betas)
    breakdown = benefit_breakdown(instance, route, table, rel=rel)
    alphas = instance.alphas
    residuals = []
    ok = True
    for j in range(2, instance.n + 1):
        tib = breakdown.tib_value(j)
        fare_scale = instance.alpha_op * instance.direct_distance(route.pickup_order[j - 1])
        if abs(tib) <= comparison_tolerance(fare_scale, rel):
            raise IndeterminateRatioError(
                f"total incremental benefit is zero at stage {j}; ratios undefined"
            )
        b = betas.for_stage(j)
        weight_sum = instance.alpha_prefix[j - 1]
        ib = breakdown.ib[j - 2]
        row = []
        for i in range(1, j + 1):
            realized = ib[i - 1] / tib
            if i < j:
                target = b * alphas[i - 1] / weight_sum if weight_sum > 0 else 0.0
            else:
                target = 1.0 - b
            res = realized - target
            row.append(res)
            if abs(res) > comparison_tolerance(max(abs(realized), abs(target), 1.0), rel):
                ok = False
        residuals.append(tuple(row))
    return ok, residuals


def neutral_beta_from_increments(increments: Sequence[float], incoming: float) -> float:
    """Stage split that treats the newcomer like everyone else.

    ``increments`` are the existing riders' inconvenience increases and
    ``incoming`` the newcomer's own inconvenience at boarding; the newcomer's
    fraction is their proportional share of the combined increase.
    """
    denom = sum(increments) + incoming
    if denom <= 0.0:
        raise IndeterminateRatioError(
            "no rider is inconvenienced at this stage; the neutral split is undefined"
        )
    return 1.0 - incoming / denom


def neutral_beta(instance: Instance, route: Route, j: int) -> float:
    if not 2 <= j <= instance.n:
        raise MalformedInputError(f"stage {j} out of range 2..{instance.n}")
    costs = stage_costs(instance, route)
    increments = [costs.ic[i][j] - costs.ic[i][j - 1] for i in range(1, j)]
    return neutral_beta_from_increments(increments, costs.ic[j][j])


def reverse_meter(instance: Instance, route: Route,
                  table: CostShareTable, rel: float = DEFAULT_REL_TOL) -> DisutilityTrace:
    """Running final-payment estimate per rider as boardings happen.

    This is the disutility trace of the table: it starts at the private
    fare and, under any SIR table, only ever decreases as riders join.
    """
    costs = _balanced_costs(instance, route, table, rel)
    return disutility_trace(instance, route, table, costs)
