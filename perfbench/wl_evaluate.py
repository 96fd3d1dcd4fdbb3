"""Workload ``evaluate``: one (instance, route) evaluation per op.

Most ops take one boarding order of a small seeded instance (n = 2..7,
every order of every instance): uniform-random or corridor-shaped points,
each also in the vanishing-weight (``zero``) regime. Such an op runs
``sir_feasible``, then ``witness_scheme`` + ``is_sir``, then
``starvation_report`` when the route is feasible. About one op in seven is
a ledger op on a known-feasible route at n = 10..30, which builds the share
tables. About one in twenty is a route with a dropoff per rider, which
takes the general stage-cost path. Search and allocation are never called.
"""

from __future__ import annotations

import itertools

import numpy as np

import oracles as orc
from harness import Op, Workload, shares, histogram

import sirshare
from sirshare import fairness, feasibility, starvation
from sirshare.errors import InfeasibleRouteError
from sirshare.instances import Instance, Route

SMALL_N = range(2, 8)
LEDGER_N = (10, 14, 18, 22, 26, 30)
LEDGER_EVERY = 6
MULTI_EVERY = 20
MULTI_N = (3, 4, 5, 6)
WINDOW = 1000  # ops per throughput window of a timed run


# -- instance generators -----------------------------------------------------

def _instance(points, alpha_op, alphas, regime="finite", mode="single") -> Instance:
    return Instance(dist=sirshare.from_euclidean(points), n=len(alphas), dropoff_mode=mode,
                    alpha_op=alpha_op, alphas=tuple(alphas), regime=regime)


def uniform_points(rng, n):
    return rng.uniform(0.0, 10.0, size=(n + 1, 2)).tolist()


def corridor_points(rng, n):
    """Pickups spread along a corridor that ends at the dropoff (the last point)."""
    xs = rng.uniform(1.0, 10.0, size=n)
    ys = rng.normal(0.0, 0.25, size=n)
    return [[float(x), float(y)] for x, y in zip(xs, ys)] + [[0.0, 0.0]]


def heavy_weights(rng, n):
    """Operator rate and sensitivities at least that rate (so the 2*sqrt(n)
    ceiling applies)."""
    alpha_op = float(rng.uniform(0.5, 2.0))
    return alpha_op, [alpha_op * float(rng.uniform(1.0, 3.0)) for _ in range(n)]


def feasible_chain_points(rng, n, alpha_op, alphas):
    """Points whose identity boarding order is feasible with slack.

    Each next pickup lies near the segment from the previous pickup to the
    dropoff; a draw whose detour exceeds 90% of the stage budget is
    replaced (the oracle decides, not the library).
    """
    drop = np.zeros(2)
    angle = rng.uniform(0.0, 2 * np.pi)
    pts = [np.array([np.cos(angle), np.sin(angle)]) * rng.uniform(6.0, 10.0)]
    weight = 0.0
    for j in range(2, n + 1):
        weight += alphas[j - 2]
        prev = pts[-1]
        span = float(np.linalg.norm(prev - drop))
        for _ in range(100):
            cand = prev + rng.uniform(0.03, 0.2) * (drop - prev) + rng.normal(0.0, 0.02 * span, 2)
            sd = float(np.linalg.norm(cand - drop))
            detour = float(np.linalg.norm(cand - prev)) + sd - span
            if detour <= 0.9 * orc.stage_budget(sd, weight, alpha_op, "finite"):
                break
        else:
            cand = prev + 0.1 * (drop - prev)  # on the segment: zero detour
        pts.append(cand)
    return [p.tolist() for p in pts] + [drop.tolist()]


def multi_events(rng, n):
    """A random boarding order with each dropoff somewhere after its pickup."""
    perm = [int(p) for p in rng.permutation(np.arange(1, n + 1))]
    events = [("P", p) for p in perm]
    for rank, p in enumerate(perm, start=1):
        start = events.index(("P", p)) + 1
        events.insert(int(rng.integers(start, len(events) + 1)), ("D", rank))
    return tuple(events)


# -- ops -----------------------------------------------------------------------

# shared event tuples keep tens of thousands of routes small
_PICK = [("P", p) for p in range(max(LEDGER_N) + 1)]
_DROP = [("D", r) for r in range(max(LEDGER_N) + 1)]


def single_events(order) -> tuple:
    return tuple(_PICK[p] for p in order) + tuple(_DROP[1:len(order) + 1])


def small_op(wl: Workload, kind: str, inst: Instance, rows, order) -> Op:
    events = single_events(order)
    ceiling = orc.starvation_ceiling(inst.n, inst.alphas, inst.alpha_op, inst.regime)

    def run():
        route = Route(events=events)
        verdict = feasibility.sir_feasible(inst, route).feasible
        try:
            table = feasibility.witness_scheme(inst, route)
            constructive = feasibility.is_sir(inst, route, table)[0]
        except InfeasibleRouteError:
            constructive = False
        report = starvation.starvation_report(inst, route) if verdict else None
        return verdict, constructive, report

    def check(out):
        verdict, constructive, report = out
        if verdict != constructive:
            return f"closed-form verdict {verdict} but constructive verdict {constructive}"
        if verdict != orc.feasible(rows, order, inst.alphas, inst.alpha_op, inst.regime):
            return f"closed-form verdict {verdict} disagrees with the stage oracle"
        wl.count("feasible" if verdict else "infeasible")
        if not verdict:
            return None
        gamma = orc.starvation_factor(rows, order)
        if not report.feasible or not orc.close(report.route_factor, gamma):
            return f"starvation report {report.route_factor!r}, oracle {gamma!r}"
        if ceiling is not None and not orc.leq(gamma, ceiling):
            return f"feasible route starves by {gamma!r}, above the ceiling {ceiling!r}"
        return None

    return Op(kind, inst.n, run, check)


def ledger_op(kind: str, inst: Instance, rows, order, betas, verify: bool, verified: dict) -> Op:
    """Share tables on a known-feasible single-dropoff route.

    Only the beta-fair table depends on the op's betas. The other outputs are
    checked in full the first time; ``verified`` (shared by the instance's
    ops) keeps them, and a later op passes that part by returning equal ones."""
    events = single_events(order)
    weighted = all(a > 0 for a in inst.alphas)
    equal = all(a == inst.alpha_op for a in inst.alphas)
    ceiling = orc.starvation_ceiling(inst.n, inst.alphas, inst.alpha_op, inst.regime)

    def run():
        route = Route(events=events)
        out = {"witness": feasibility.witness_scheme(inst, route)}
        if weighted:
            out["beta"] = fairness.beta_fair_table(inst, route, betas)
            if verify:
                out["ratios_ok"] = fairness.verify_fairness_ratios(inst, route, out["beta"], betas)[0]
        if equal:
            out["xc"] = fairness.xc_table(inst, route)
        out["meter"] = fairness.reverse_meter(inst, route, out["witness"])
        out["report"] = starvation.starvation_report(inst, route)
        return out

    def check(out):
        if "beta" in out:
            problem = orc.table_problems(out["beta"].shares, rows, order, inst.alphas,
                                         inst.alpha_op, expect_sir=True)
            if problem:
                return f"beta table: {problem}"
        if out.get("ratios_ok") is False:
            return "beta-fair table fails its own ratio check"
        fixed = (out["witness"], out.get("xc"), out["meter"], out["report"])
        if verified.get("fixed") != fixed:
            problem = check_fixed(out)
            if problem:
                return problem
            verified["fixed"] = fixed
        return None

    def check_fixed(out):
        for name in ("witness", "xc"):
            if name in out:
                problem = orc.table_problems(out[name].shares, rows, order, inst.alphas,
                                             inst.alpha_op, expect_sir=True)
                if problem:
                    return f"{name} table: {problem}"
        own = orc.disutility_rows(out["witness"].shares, rows, order, inst.alphas, inst.alpha_op)
        for i, row in enumerate(own, start=1):
            meter = out["meter"].du[i - 1]
            if len(meter) != inst.n + 1 or not all(
                    orc.close(a, b) for a, b in zip(meter[i - 1:], row)):
                return f"reverse meter row {i} differs from the disutility oracle"
        gamma = orc.starvation_factor(rows, order)
        report = out["report"]
        if not report.feasible or not orc.close(report.route_factor, gamma):
            return f"starvation report {report.route_factor!r}, oracle {gamma!r}"
        if ceiling is not None and not orc.leq(gamma, ceiling):
            return f"starvation {gamma!r} above the ceiling {ceiling!r}"
        return None

    return Op(kind, inst.n, run, check)


def multi_op(wl: Workload, inst: Instance, events) -> Op:
    rows = inst.dist.entries.tolist()
    drop_of = {p: inst.n + p - 1 for p in range(1, inst.n + 1)}
    d = orc.general_stage_lengths(rows, events, drop_of)

    def run():
        route = Route(events=events)
        verdict = feasibility.sir_feasible(inst, route).feasible
        try:
            table = feasibility.witness_scheme(inst, route)
            constructive = feasibility.is_sir(inst, route, table)[0]
        except InfeasibleRouteError:
            table, constructive = None, False
        return verdict, constructive, table

    def check(out):
        verdict, constructive, table = out
        if verdict != constructive:
            return f"closed-form verdict {verdict} but constructive verdict {constructive}"
        wl.count("feasible" if verdict else "infeasible")
        if table is not None:
            for j, row in enumerate(table.shares, start=1):
                if not orc.close(sum(row), inst.alpha_op * d[j]):
                    return f"witness stage {j} is not budget balanced"
        return None

    return Op("multi-dropoff", inst.n, run, check)


def build(seed: int, workdir) -> Workload:
    rng = np.random.default_rng([seed, 1])
    wl = Workload(ops=[], block=WINDOW)
    small: list[Op] = []
    for n in SMALL_N:
        for kind, make in (("uniform", uniform_points), ("corridor", corridor_points)):
            alpha_op, alphas = heavy_weights(rng, n)
            pts = make(rng, n)
            base = _instance(pts, alpha_op, alphas)
            zero = _instance(pts, alpha_op, [0.0] * n, regime="zero")
            rows = base.dist.entries.tolist()
            wl.inputs.append((rows, alphas))
            for label, inst in ((kind, base), (f"{kind}-zero", zero)):
                for order in itertools.permutations(range(1, n + 1)):
                    small.append(small_op(wl, label, inst, rows, order))

    ledger: list[Op] = []
    for n in LEDGER_N:
        ident = tuple(range(1, n + 1))
        for equal in (True, False):
            alpha_op = float(rng.uniform(0.5, 2.0))
            alphas = [alpha_op if equal else alpha_op * float(rng.uniform(0.3, 2.0))
                      for _ in range(n)]
            tag = "equal" if equal else "mixed"
            lb = sirshare.generate_lower_bound_instance(n, alpha_op=alpha_op, alphas=alphas)
            chain = _instance(feasible_chain_points(rng, n, alpha_op, alphas), alpha_op, alphas)
            # tight generators: every stage's benefit is zero, so ratios are undefined
            ledger.append(("ledger-lower-bound-" + tag, lb, ident, False))
            ledger.append(("ledger-corridor-" + tag, chain, ident, True))
        ledger.append(("ledger-sqrt-tight", sirshare.generate_sqrt_tight_instance(n), ident, False))
        ledger.append(("ledger-exp-tight", sirshare.generate_exp_tight_instance(n), ident, False))

    multi = []
    for n in MULTI_N:
        for _ in range(5):
            inst = _instance(rng.uniform(0.0, 10.0, size=(2 * n, 2)).tolist(),
                             float(rng.uniform(0.5, 2.0)), rng.uniform(0.2, 3.0, size=n).tolist(),
                             mode="multi")
            multi += [(inst, multi_events(rng, n)) for _ in range(2)]

    ledger_rows = {id(inst): inst.dist.entries.tolist() for _, inst, _, _ in ledger}
    verified = {id(inst): {} for _, inst, _, _ in ledger}
    order = rng.permutation(len(small))
    wl.inputs += [list(ledger_rows.values()), [e for _, e in multi], order.tolist()]
    for k, idx in enumerate(order):
        if k % LEDGER_EVERY == 0:
            kind, inst, ident, verify = ledger[(k // LEDGER_EVERY) % len(ledger)]
            betas = rng.uniform(0.0, 1.0, size=inst.n - 1).tolist()
            wl.inputs.append(betas)
            wl.ops.append(ledger_op(kind, inst, ledger_rows[id(inst)], ident, betas, verify,
                                    verified[id(inst)]))
        if k % MULTI_EVERY == 0:
            inst, events = multi[(k // MULTI_EVERY) % len(multi)]
            wl.ops.append(multi_op(wl, inst, events))
        wl.ops.append(small[idx])

    wl.properties = {
        "ops": len(wl.ops),
        "multi_dropoff_share": round(sum(op.kind == "multi-dropoff" for op in wl.ops) / len(wl.ops), 4),
        "kind_share": shares(op.kind for op in wl.ops),
        "n_histogram": histogram(op.n for op in wl.ops),
    }
    return wl
