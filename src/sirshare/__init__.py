"""Detour-aware cost sharing for shared rides.

Feasibility of boarding orders under nonincreasing-disutility cost sharing,
construction of witness and proportionally fair share tables, starvation
factor bounds, exact route search at desk scale, and polynomial allocation
of order-constrained riders to vehicles by min-cost flow: one
successive-shortest-paths pass over the chaining matrix, checked by a dual
certificate.
"""

from .allocation import (
    Allocation,
    brute_force_allocation,
    optimal_allocation,
)
from .errors import (
    BudgetBalanceError,
    ConstructionError,
    DegenerateDistanceError,
    DegenerateWeightsError,
    FlowExtractionError,
    IndeterminateRatioError,
    InfeasibleRouteError,
    MalformedInputError,
    SirshareError,
    SizeError,
    UnsupportedAssumptionError,
    UnsupportedModeError,
)
from .fairness import (
    BenefitBreakdown,
    BetaVector,
    benefit_breakdown,
    beta_fair_table,
    neutral_beta,
    reverse_meter,
    verify_fairness_ratios,
    xc_table,
)
from .feasibility import (
    CostShareTable,
    DisutilityTrace,
    FeasibilityResult,
    StageCosts,
    budget_balance_residuals,
    conditional_route,
    disutility_trace,
    is_ir,
    is_sir,
    sir_feasible,
    single_dropoff_detours,
    stage_costs,
    witness_scheme,
)
from .instances import (
    DistanceTable,
    Instance,
    MetricReport,
    MetricViolation,
    Route,
    from_euclidean,
    generate_exp_tight_instance,
    generate_lower_bound_instance,
    generate_sqrt_tight_instance,
    line_instance,
    reduce_hampath,
    reduce_path_tsp,
    validate_metric,
)
from .search import (
    RouteListing,
    SearchResult,
    SearchStats,
    enumerate_sir_routes,
    line_metric_verdict,
    opt_sir_route,
)
from .starvation import (
    BoundCheck,
    StarvationReport,
    lower_bound_value,
    min_route_starvation,
    starvation_report,
)

__version__ = "0.1.0"
