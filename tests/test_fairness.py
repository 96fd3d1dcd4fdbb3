import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sirshare as ss
from sirshare.errors import (
    DegenerateWeightsError,
    IndeterminateRatioError,
    InfeasibleRouteError,
    MalformedInputError,
    UnsupportedAssumptionError,
    UnsupportedModeError,
)
from sirshare.fairness import neutral_beta_from_increments

from corpus import (
    random_euclidean_instance,
    random_feasible_instance,
    random_multi_instance,
    random_multi_route,
)


def n2_instance():
    mat = np.array([[0.0, 5.0, 10.0], [5.0, 0.0, 6.0], [10.0, 6.0, 0.0]])
    return ss.Instance(dist=ss.DistanceTable.from_matrix(mat), n=2,
                       dropoff_mode="single", alpha_op=1.0, alphas=(1.0, 1.0))


ROUTE2 = ss.Route.single_dropoff([1, 2])


# ---------------------------------------------------------------------------
# benefit accounting
# ---------------------------------------------------------------------------

def test_tib_n2_closed_form():
    inst = n2_instance()
    table = ss.witness_scheme(inst, ROUTE2)
    breakdown = ss.benefit_breakdown(inst, ROUTE2, table)
    assert breakdown.tib_value(2) == pytest.approx(4.0)


def test_tib_zero_detour_equals_private_fare():
    inst = ss.line_instance([5.0, 3.0], 0.0)  # boarding 1 then 2 sweeps inward
    table = ss.witness_scheme(inst, ROUTE2)
    breakdown = ss.benefit_breakdown(inst, ROUTE2, table)
    assert breakdown.tib_value(2) == pytest.approx(inst.direct_distance(2))


def test_tib_matches_summed_benefits():
    rng = np.random.default_rng(5)
    for _ in range(15):
        inst = random_feasible_instance(rng, int(rng.integers(2, 6)))
        route = ss.Route.single_dropoff(range(1, inst.n + 1))
        table = ss.witness_scheme(inst, route)
        breakdown = ss.benefit_breakdown(inst, route, table)
        for j in range(2, inst.n + 1):
            assert sum(breakdown.ib[j - 2]) == pytest.approx(
                breakdown.tib_value(j), rel=1e-9, abs=1e-9
            )


def test_benefit_breakdown_rejects_multi_dropoff():
    rng = np.random.default_rng(6)
    inst = random_multi_instance(rng, 2)
    route = random_multi_route(rng, 2)
    table = ss.CostShareTable(shares=((1.0,), (1.0, 1.0)))
    with pytest.raises(UnsupportedModeError):
        ss.benefit_breakdown(inst, route, table)


# ---------------------------------------------------------------------------
# beta-fair tables
# ---------------------------------------------------------------------------

def test_beta_extremes_and_midpoint_n2():
    inst = n2_instance()
    assert ss.beta_fair_table(inst, ROUTE2, [0.0]).to_rows() == [[10.0], [9.0, 2.0]]
    assert ss.beta_fair_table(inst, ROUTE2, [1.0]).to_rows() == [[10.0], [5.0, 6.0]]
    assert ss.beta_fair_table(inst, ROUTE2, [0.5]).to_rows() == [[10.0], [7.0, 4.0]]


def test_beta_zero_transfer_identity_exact():
    rng = np.random.default_rng(9)
    for _ in range(10):
        inst = random_feasible_instance(rng, int(rng.integers(2, 6)))
        route = ss.Route.single_dropoff(range(1, inst.n + 1))
        table = ss.beta_fair_table(inst, route, [0.0] * (inst.n - 1))
        detours = ss.single_dropoff_detours(inst, route)
        for j in range(2, inst.n + 1):
            for i in range(1, j):
                expected = table.value(i, j - 1) - inst.alphas[i - 1] * detours[j - 2]
                assert table.value(i, j) == expected


def test_beta_one_incoming_pays_private_fare_exact():
    rng = np.random.default_rng(10)
    for _ in range(10):
        inst = random_feasible_instance(rng, int(rng.integers(2, 6)))
        route = ss.Route.single_dropoff(range(1, inst.n + 1))
        table = ss.beta_fair_table(inst, route, [1.0] * (inst.n - 1))
        for j in range(2, inst.n + 1):
            assert table.value(j, j) == inst.alpha_op * inst.direct_distance(j)


def test_beta_table_budget_balanced_and_sir():
    rng = np.random.default_rng(12)
    for _ in range(20):
        inst = random_feasible_instance(rng, int(rng.integers(2, 7)))
        route = ss.Route.single_dropoff(range(1, inst.n + 1))
        betas = [float(b) for b in rng.uniform(0.0, 1.0, size=inst.n - 1)]
        table = ss.beta_fair_table(inst, route, betas)
        costs = ss.stage_costs(inst, route)
        for res, oc in zip(ss.budget_balance_residuals(table, costs), costs.oc[1:]):
            assert abs(res) <= 1e-9 * max(1.0, abs(oc))
        assert ss.is_sir(inst, route, table)[0]


def test_beta_incoming_fare_monotone_in_beta():
    rng = np.random.default_rng(14)
    for _ in range(10):
        inst = random_feasible_instance(rng, 4)
        route = ss.Route.single_dropoff([1, 2, 3, 4])
        lo = sorted(rng.uniform(0.0, 1.0, size=3))
        hi = [min(1.0, b + float(rng.uniform(0.0, 1.0 - b))) for b in lo]
        t_lo = ss.beta_fair_table(inst, route, lo)
        t_hi = ss.beta_fair_table(inst, route, hi)
        for j in range(2, 5):
            assert t_lo.value(j, j) <= t_hi.value(j, j) + 1e-12


def test_beta_table_is_stagewise_convex_combination():
    rng = np.random.default_rng(15)
    inst = random_feasible_instance(rng, 5)
    route = ss.Route.single_dropoff(range(1, 6))
    betas = [float(b) for b in rng.uniform(0.0, 1.0, size=4)]
    t = ss.beta_fair_table(inst, route, betas)
    t0 = ss.beta_fair_table(inst, route, [0.0] * 4)
    t1 = ss.beta_fair_table(inst, route, [1.0] * 4)
    for j in range(2, 6):
        b = betas[j - 2]
        # newcomer fares blend directly
        assert t.value(j, j) == pytest.approx(
            b * t1.value(j, j) + (1 - b) * t0.value(j, j), rel=1e-9, abs=1e-9
        )
        # per-stage discounts blend as well
        for i in range(1, j):
            d = t.value(i, j - 1) - t.value(i, j)
            d0 = t0.value(i, j - 1) - t0.value(i, j)
            d1 = t1.value(i, j - 1) - t1.value(i, j)
            assert d == pytest.approx(b * d1 + (1 - b) * d0, rel=1e-9, abs=1e-9)


def test_beta_table_requires_feasible_route():
    inst = n2_instance()
    with pytest.raises(InfeasibleRouteError):
        ss.beta_fair_table(inst, ss.Route.single_dropoff([2, 1]), [0.5])


def test_beta_table_degenerate_weights():
    mat = np.array([[0.0, 1.0, 10.0], [1.0, 0.0, 9.5], [10.0, 9.5, 0.0]])
    inst = ss.Instance(dist=ss.DistanceTable.from_matrix(mat), n=2,
                       dropoff_mode="single", alpha_op=1.0, alphas=(0.0, 1.0))
    route = ss.Route.single_dropoff([1, 2])
    assert ss.sir_feasible(inst, route).feasible
    with pytest.raises(DegenerateWeightsError):
        ss.beta_fair_table(inst, route, [0.5])


def test_beta_vector_validation():
    with pytest.raises(MalformedInputError):
        ss.BetaVector(betas=(1.5,))
    inst = n2_instance()
    with pytest.raises(MalformedInputError):
        ss.beta_fair_table(inst, ROUTE2, [0.5, 0.5])  # wrong length


@pytest.mark.parametrize("bad", ["0.5", None, True, np.True_], ids=["str", "none", "bool", "numpy-bool"])
def test_beta_vector_rejects_entries_that_are_not_real_numbers(bad):
    with pytest.raises(MalformedInputError, match="real numbers"):
        ss.BetaVector(betas=(0.5, bad))
    with pytest.raises(MalformedInputError, match="real numbers"):
        ss.beta_fair_table(ss.generate_sqrt_tight_instance(3), ss.Route.single_dropoff([3, 2, 1]),
                           [bad, 0.5])


@pytest.mark.parametrize("betas", [[], [0.5], [0.5, 0.5, 0.5]], ids=["none", "too-few", "too-many"])
def test_verify_fairness_ratios_needs_one_beta_per_stage(betas):
    inst = random_feasible_instance(np.random.default_rng(8), 3)
    route = ss.Route.single_dropoff([1, 2, 3])
    table = ss.beta_fair_table(inst, route, [0.5, 0.5])
    assert ss.verify_fairness_ratios(inst, route, table, [0.5, 0.5])[0]
    with pytest.raises(MalformedInputError, match="need 2 beta values, got"):
        ss.verify_fairness_ratios(inst, route, table, betas)


@pytest.mark.parametrize("j", [2.0, "2", None, True], ids=["float", "str", "none", "bool"])
def test_neutral_beta_rejects_a_stage_that_is_not_an_integer(j):
    inst = random_feasible_instance(np.random.default_rng(8), 3)
    route = ss.Route.single_dropoff([1, 2, 3])
    ss.neutral_beta(inst, route, 2)
    with pytest.raises(MalformedInputError, match="stage j must be an integer"):
        ss.neutral_beta(inst, route, j)


def test_witness_equals_beta_zero_table():
    rng = np.random.default_rng(16)
    for _ in range(10):
        inst = random_feasible_instance(rng, int(rng.integers(2, 6)))
        route = ss.Route.single_dropoff(range(1, inst.n + 1))
        w = ss.witness_scheme(inst, route)
        t0 = ss.beta_fair_table(inst, route, [0.0] * (inst.n - 1))
        for j in range(1, inst.n + 1):
            for i in range(1, j + 1):
                assert w.value(i, j) == pytest.approx(t0.value(i, j), rel=1e-9, abs=1e-9)


# ---------------------------------------------------------------------------
# equal-segment-split table
# ---------------------------------------------------------------------------

def test_xc_n2_values():
    inst = n2_instance()
    table = ss.xc_table(inst, ROUTE2)
    assert table.value(1, 2) == pytest.approx(7.0)
    assert table.value(2, 2) == pytest.approx(4.0)
    assert sum(table.shares[1]) == pytest.approx(11.0)


def test_xc_single_rider():
    inst = ss.generate_sqrt_tight_instance(1, ell=6.0)
    assert ss.xc_table(inst, ss.Route.single_dropoff([1])).to_rows() == [[6.0]]


def test_xc_equals_harmonic_beta_table():
    rng = np.random.default_rng(17)
    for _ in range(15):
        inst = random_feasible_instance(rng, int(rng.integers(2, 7)), equal_rates=True)
        route = ss.Route.single_dropoff(range(1, inst.n + 1))
        xc = ss.xc_table(inst, route)
        betas = [1.0 / j for j in range(2, inst.n + 1)]
        bt = ss.beta_fair_table(inst, route, betas)
        for j in range(1, inst.n + 1):
            for i in range(1, j + 1):
                assert xc.value(i, j) == pytest.approx(bt.value(i, j), rel=1e-9, abs=1e-9)


def test_xc_scales_with_common_rate():
    rng = np.random.default_rng(18)
    inst = random_feasible_instance(rng, 3, equal_rates=True)
    scaled = ss.Instance(dist=inst.dist, n=3, dropoff_mode="single",
                         alpha_op=2.0 * inst.alpha_op,
                         alphas=tuple(2.0 * a for a in inst.alphas))
    route = ss.Route.single_dropoff([1, 2, 3])
    base = ss.xc_table(inst, route)
    doubled = ss.xc_table(scaled, route)
    for j in range(1, 4):
        for i in range(1, j + 1):
            assert doubled.value(i, j) == pytest.approx(2.0 * base.value(i, j), rel=1e-12)


def test_xc_rejects_unequal_rates():
    mat = np.array([[0.0, 5.0, 10.0], [5.0, 0.0, 6.0], [10.0, 6.0, 0.0]])
    inst = ss.Instance(dist=ss.DistanceTable.from_matrix(mat), n=2,
                       dropoff_mode="single", alpha_op=1.0, alphas=(2.0, 1.0))
    with pytest.raises(UnsupportedAssumptionError):
        ss.xc_table(inst, ROUTE2)


def test_xc_names_a_bad_route_before_unequal_rates():
    mat = np.array([[0.0, 5.0, 10.0], [5.0, 0.0, 6.0], [10.0, 6.0, 0.0]])
    inst = ss.Instance(dist=ss.DistanceTable.from_matrix(mat), n=2,
                       dropoff_mode="single", alpha_op=1.0, alphas=(2.0, 1.0))
    with pytest.raises(MalformedInputError, match="exactly once"):
        ss.xc_table(inst, ss.Route.single_dropoff([1, 2, 3]))


def test_xc_rejects_the_zero_regime_whatever_the_stored_sensitivities():
    # the zero regime prices no detour, so rates equal to alpha_op are not the rates priced
    inst = n2_instance()
    zero = ss.Instance(dist=inst.dist, n=2, dropoff_mode="single", alpha_op=1.0,
                       alphas=(1.0, 1.0), regime="zero")
    ss.xc_table(inst, ROUTE2)
    with pytest.raises(UnsupportedAssumptionError, match="rider 1 priced sensitivity 0.0"):
        ss.xc_table(zero, ROUTE2)


def test_zero_regime_fair_tables_price_no_inconvenience():
    # stored sensitivities set the split of the surplus; no one pays for a detour
    rng = np.random.default_rng(3)
    tables = 0
    for _ in range(100):
        inst = random_euclidean_instance(rng, 4, regime="zero")
        for perm in itertools.permutations(range(1, 5)):
            route = ss.Route.single_dropoff(perm)
            if not ss.sir_feasible(inst, route).feasible:
                continue
            tables += 1
            table = ss.beta_fair_table(inst, route, [0.5] * 3)
            assert ss.is_sir(inst, route, table)[0] and ss.is_ir(inst, route, table)[0]
            assert ss.verify_fairness_ratios(inst, route, table, [0.5] * 3)[0]
            breakdown = ss.benefit_breakdown(inst, route, table)
            detour = ss.single_dropoff_detours(inst, route)
            for j, det in enumerate(detour, start=2):
                fare = inst.alpha_op * inst.direct_distance(perm[j - 1])
                assert breakdown.tib_value(j) == fare - inst.alpha_op * det
    assert tables == 436


# ---------------------------------------------------------------------------
# ratio verification
# ---------------------------------------------------------------------------

def test_verify_ratios_beta_table_own_beta():
    rng = np.random.default_rng(19)
    for _ in range(10):
        inst = random_feasible_instance(rng, int(rng.integers(2, 6)))
        route = ss.Route.single_dropoff(range(1, inst.n + 1))
        betas = [float(b) for b in rng.uniform(0.0, 1.0, size=inst.n - 1)]
        table = ss.beta_fair_table(inst, route, betas)
        ok, _ = ss.verify_fairness_ratios(inst, route, table, betas)
        assert ok


def test_verify_ratios_witness_is_beta_zero_only():
    rng = np.random.default_rng(20)
    inst = random_feasible_instance(rng, 4)
    route = ss.Route.single_dropoff([1, 2, 3, 4])
    table = ss.witness_scheme(inst, route)
    ok_zero, _ = ss.verify_fairness_ratios(inst, route, table, [0.0, 0.0, 0.0])
    assert ok_zero
    ok_half, residuals = ss.verify_fairness_ratios(inst, route, table, [0.5, 0.5, 0.5])
    assert not ok_half
    assert any(abs(r) > 1e-6 for row in residuals for r in row)


def test_verify_ratios_xc_harmonic():
    rng = np.random.default_rng(21)
    inst = random_feasible_instance(rng, 4, equal_rates=True)
    route = ss.Route.single_dropoff([1, 2, 3, 4])
    table = ss.xc_table(inst, route)
    ok, _ = ss.verify_fairness_ratios(inst, route, table, [1.0 / 2, 1.0 / 3, 1.0 / 4])
    assert ok


def test_verify_ratios_indeterminate_on_tight_stage():
    inst = ss.generate_sqrt_tight_instance(3)  # every stage budget is exactly met
    route = ss.Route.single_dropoff([1, 2, 3])
    table = ss.beta_fair_table(inst, route, [0.5, 0.5])
    with pytest.raises(IndeterminateRatioError):
        ss.verify_fairness_ratios(inst, route, table, [0.5, 0.5])


def test_verify_ratios_strict_tolerance_rejects_only_exact_zero_benefit():
    route = ss.Route.single_dropoff([1, 2])
    tight = ss.generate_sqrt_tight_instance(2)  # total benefit is a 2.2e-16 residue
    zero = ss.generate_lower_bound_instance(2)  # total benefit is exactly 0.0
    tight_table, zero_table = (ss.beta_fair_table(inst, route, [0.5], rel=0.0)
                               for inst in (tight, zero))
    assert ss.benefit_breakdown(zero, route, zero_table, rel=0.0).tib == (0.0,)
    for inst, table in ((tight, tight_table), (zero, zero_table)):
        with pytest.raises(IndeterminateRatioError):
            ss.verify_fairness_ratios(inst, route, table, [0.5])
    ok, residuals = ss.verify_fairness_ratios(tight, route, tight_table, [0.5], rel=0.0)
    assert isinstance(ok, bool) and len(residuals) == 1 and len(residuals[0]) == 2
    with pytest.raises(IndeterminateRatioError):
        ss.verify_fairness_ratios(zero, route, zero_table, [0.5], rel=0.0)


@pytest.mark.parametrize("gap, indeterminate", [(1e-7, False), (1e-11, True)])
def test_verify_ratios_judges_zero_benefit_at_the_newcomers_fare(gap, indeterminate):
    # rider 1's fare is 1000 and the newcomer's is 1; the stage's total benefit,
    # 1 - 2 * detour, is about ``gap``: zero only at the newcomer's scale
    detour = (1.0 - gap) / 2
    mat = [[0.0, 999.0 + detour, 1000.0], [999.0 + detour, 0.0, 1.0], [1000.0, 1.0, 0.0]]
    inst = ss.Instance(dist=ss.DistanceTable.from_matrix(mat), n=2,
                       dropoff_mode="single", alpha_op=1.0, alphas=(1.0, 1.0))
    table = ss.witness_scheme(inst, ROUTE2)
    assert ss.benefit_breakdown(inst, ROUTE2, table).tib[0] == pytest.approx(gap, rel=1e-3)
    if indeterminate:
        with pytest.raises(IndeterminateRatioError):
            ss.verify_fairness_ratios(inst, ROUTE2, table, [0.0])
    else:
        assert ss.verify_fairness_ratios(inst, ROUTE2, table, [0.0])[0]


def test_beta_table_still_defined_on_tight_stage():
    inst = ss.generate_sqrt_tight_instance(4)
    route = ss.Route.single_dropoff([1, 2, 3, 4])
    table = ss.beta_fair_table(inst, route, [0.3, 0.6, 0.9])
    costs = ss.stage_costs(inst, route)
    for res, oc in zip(ss.budget_balance_residuals(table, costs), costs.oc[1:]):
        assert abs(res) <= 1e-9 * max(1.0, abs(oc))
    assert ss.is_sir(inst, route, table)[0]


# ---------------------------------------------------------------------------
# neutral beta and the reverse meter
# ---------------------------------------------------------------------------

def test_neutral_beta_single_dropoff_is_one():
    inst = n2_instance()
    assert ss.neutral_beta(inst, ROUTE2, 2) == pytest.approx(1.0)


@given(st.integers(min_value=2, max_value=9),
       st.floats(min_value=0.01, max_value=10.0, allow_nan=False))
def test_neutral_beta_equal_increments(j, inc):
    # j riders all inconvenienced equally, newcomer included
    beta = neutral_beta_from_increments([inc] * (j - 1), inc)
    assert beta == pytest.approx((j - 1) / j)


@pytest.mark.parametrize("j", [1, 4, -2])
def test_neutral_beta_rejects_a_stage_out_of_range(j):
    inst = random_feasible_instance(np.random.default_rng(8), 3)
    with pytest.raises(MalformedInputError, match=f"stage {j} out of range 2..3"):
        ss.neutral_beta(inst, ss.Route.single_dropoff([1, 2, 3]), j)


def test_neutral_beta_zero_denominator():
    inst = ss.line_instance([5.0, 3.0], 0.0)  # second boarding causes no detour
    with pytest.raises(IndeterminateRatioError):
        ss.neutral_beta(inst, ROUTE2, 2)


def test_reverse_meter_n2_midpoint():
    inst = n2_instance()
    table = ss.beta_fair_table(inst, ROUTE2, [0.5])
    trace = ss.reverse_meter(inst, ROUTE2, table)
    assert trace.row(1) == (10.0, 10.0, 8.0)


def test_reverse_meter_single_rider_constant():
    inst = ss.generate_sqrt_tight_instance(1, ell=4.0)
    route = ss.Route.single_dropoff([1])
    table = ss.CostShareTable(shares=((4.0,),))
    trace = ss.reverse_meter(inst, route, table)
    assert trace.row(1) == (4.0, 4.0)


def test_reverse_meter_nonincreasing_for_any_beta():
    rng = np.random.default_rng(22)
    for _ in range(10):
        inst = random_feasible_instance(rng, int(rng.integers(2, 6)))
        route = ss.Route.single_dropoff(range(1, inst.n + 1))
        betas = [float(b) for b in rng.uniform(0.0, 1.0, size=inst.n - 1)]
        trace = ss.reverse_meter(inst, route, ss.beta_fair_table(inst, route, betas))
        for i in range(1, inst.n + 1):
            row = trace.row(i)
            for j in range(1, inst.n + 1):
                assert row[j] <= row[j - 1] + 1e-9
