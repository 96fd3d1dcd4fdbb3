import itertools
import math
import time

import pytest

import sirshare as ss
from sirshare.errors import InfeasibleRouteError

from corpus import criterion_one_instances, with_regime

SWEEP_SEED = 20260810
SWEEP_INSTANCES = 500


@pytest.fixture(scope="session")
def theorem_sweep():
    """Shared full-permutation sweep over the random metric corpus.

    Half the corpus is uniform in a square (feasible routes are rare there
    under tight budgets); the other half is corridor-structured so that
    feasible routes are plentiful and the constructive side of the
    equivalence gets exercised. All instances are Euclidean with every
    sensitivity at least the operator rate, n between 2 and 7.

    Per instance and per boarding order, records
      - disagreements between the closed-form feasibility verdict and the
        constructive one (witness builds and passes the disutility check),
      - violations of the sqrt starvation ceiling among feasible routes,
      - violations of the exponential ceiling with the same geometry in the
        vanishing-weight regime.
    """
    instances = criterion_one_instances(SWEEP_SEED, SWEEP_INSTANCES)
    disagreements = []
    sqrt_violations = []
    exp_violations = []
    routes_checked = 0
    feasible_routes = 0

    start = time.perf_counter()
    for idx, inst in enumerate(instances):
        n = inst.n
        zero_inst = with_regime(inst, "zero")
        sqrt_bound = 2.0 * math.sqrt(n)
        exp_bound = float(2 ** n)
        for perm in itertools.permutations(range(1, n + 1)):
            routes_checked += 1
            route = ss.Route.single_dropoff(perm)
            verdict = ss.sir_feasible(inst, route).feasible
            try:
                table = ss.witness_scheme(inst, route)
                constructive = ss.is_sir(inst, route, table)[0]
            except InfeasibleRouteError:
                constructive = False
            if verdict != constructive:
                disagreements.append((idx, perm, verdict, constructive))
            if verdict:
                feasible_routes += 1
                gamma = ss.starvation_report(inst, route).route_factor
                if gamma > sqrt_bound + 1e-9:
                    sqrt_violations.append((idx, perm, gamma, sqrt_bound))
            if ss.sir_feasible(zero_inst, route).feasible:
                gamma = ss.starvation_report(zero_inst, route).route_factor
                if gamma > exp_bound + 1e-9 * exp_bound:
                    exp_violations.append((idx, perm, gamma, exp_bound))
    elapsed = time.perf_counter() - start

    return {
        "elapsed": elapsed,
        "routes_checked": routes_checked,
        "feasible_routes": feasible_routes,
        "disagreements": disagreements,
        "sqrt_violations": sqrt_violations,
        "exp_violations": exp_violations,
    }
