"""Command-line front end.

Subcommands: validate, check-route, witness, share, routes, opt-route,
starvation, allocate, generate. Exit code 0 means success, 2 means the math
said no (infeasible route, no feasible routes, failed validation), 1 means
the tool itself failed (bad flags, unreadable files, schema violations).
Floating output is printed with 12 significant digits; ``--json`` switches
every subcommand to a stable JSON report. The SIRSHARE_TOLERANCE environment
variable overrides the default relative tolerance of 1e-9; it is read on each
call of :func:`main`, so a process that runs many requests sees changes to it.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import allocation as alloc_mod
from . import fairness, feasibility, instances, search, starvation
from .errors import InfeasibleRouteError, MalformedInputError, SirshareError
from .instances import DROPOFF, PICKUP, Instance, Route
from .numeric import DEFAULT_REL_TOL, check_tolerance

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NEGATIVE = 2


def fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _round_floats(obj):
    if isinstance(obj, float):
        return float(fmt(obj))
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def emit_json(payload: dict) -> None:
    print(json.dumps(_round_floats(payload), indent=2, sort_keys=True))


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; keep 2 reserved for negative verdicts
    def error(self, message):
        self.exit(EXIT_ERROR, f"error: {message}\n")


def parse_route(tokens: str) -> Route:
    """Parse ``1,2,3`` (single dropoff, implicit) or ``1,2,d2,3,d1,d3``."""
    events = []
    explicit_drops = False
    for raw in tokens.split(","):
        tok = raw.strip()
        if not tok:
            raise MalformedInputError("empty token in route")
        if tok.lower().startswith("d"):
            explicit_drops = True
            try:
                events.append((DROPOFF, int(tok[1:])))
            except ValueError:
                raise MalformedInputError(f"bad dropoff token {tok!r}; expected d<rank>")
        else:
            try:
                events.append((PICKUP, int(tok)))
            except ValueError:
                raise MalformedInputError(f"bad pickup token {tok!r}; expected an integer")
    if not explicit_drops:
        return Route.single_dropoff([idx for _, idx in events])
    return Route(events=tuple(events))


def _parse_tokens(text: str, sep: str, kind, what: str) -> list:
    """Split ``text`` on ``sep`` and convert each token with ``kind``."""
    try:
        return [kind(tok) for tok in text.split(sep)]
    except ValueError:
        raise MalformedInputError(f"bad {what} value {text!r}") from None


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def cmd_validate(args) -> int:
    inst = Instance.load(args.instance)
    report = inst.dist.metric_report(args.tolerance)
    declared = inst.dist.metric_flag
    consistent = report.ok == declared or (not declared)
    payload = {
        "n": inst.n,
        "metric_flag_declared": declared,
        "metric_ok": report.ok,
        "consistent": consistent,
        "violations": [
            {"kind": v.kind, "indices": list(v.indices), "excess": v.excess}
            for v in report.violations
        ],
    }
    if args.json:
        emit_json(payload)
    else:
        print(f"points: {inst.dist.size}  riders: {inst.n}  mode: {inst.dropoff_mode}")
        print(f"declared metric_flag: {declared}  validation: "
              f"{'clean' if report.ok else f'{len(report.violations)} violation(s)'}")
        for v in report.violations[:20]:
            print(f"  {v.kind} at {v.indices}: excess {fmt(v.excess)}")
        if len(report.violations) > 20:
            print(f"  ... {len(report.violations) - 20} more")
    return EXIT_OK if consistent else EXIT_NEGATIVE


def cmd_check_route(args) -> int:
    inst = Instance.load(args.instance)
    route = parse_route(args.route)
    result = feasibility.sir_feasible(inst, route, rel=args.tolerance)
    payload = {
        "feasible": result.feasible,
        "route": route.to_tokens(),
        "stages": [
            {"stage": s.stage, "lhs": s.lhs, "rhs": s.rhs, "slack": s.slack}
            for s in result.stages
        ],
    }
    if args.json:
        emit_json(payload)
    else:
        print(f"route {route.to_tokens()}: "
              f"{'feasible' if result.feasible else 'INFEASIBLE'}")
        for s in result.stages:
            mark = "" if s.slack >= 0 else "  <-- violated"
            print(f"  stage {s.stage}: lhs {fmt(s.lhs)}  rhs {fmt(s.rhs)}  "
                  f"slack {fmt(s.slack)}{mark}")
    return EXIT_OK if result.feasible else EXIT_NEGATIVE


def _print_table(table: feasibility.CostShareTable) -> None:
    for j, row in enumerate(table.shares, start=1):
        cells = "  ".join(f"{fmt(v):>14}" for v in row)
        print(f"  stage {j}: {cells}")


def cmd_witness(args) -> int:
    inst = Instance.load(args.instance)
    route = parse_route(args.route)
    try:
        table = feasibility.witness_scheme(inst, route, rel=args.tolerance)
    except InfeasibleRouteError as exc:
        if args.json:
            emit_json({"feasible": False, "failing_stage": exc.stage})
        else:
            print(f"route infeasible at stage {exc.stage}; no SIR table exists")
        return EXIT_NEGATIVE
    if args.json:
        emit_json({"feasible": True, "shares": table.to_rows()})
    else:
        print(f"witness shares for route {route.to_tokens()} (rows are stages):")
        _print_table(table)
    return EXIT_OK


def cmd_share(args) -> int:
    inst = Instance.load(args.instance)
    route = parse_route(args.route)
    if args.xc:
        table = fairness.xc_table(inst, route, rel=args.tolerance)
        betas = [1.0 / j for j in range(2, inst.n + 1)]
        scheme = "xc"
    else:
        if args.beta is None:
            raise MalformedInputError("share needs --beta v2,v3,... or --xc")
        betas = _parse_tokens(args.beta, ",", float, "--beta") if args.beta else []
        table = fairness.beta_fair_table(inst, route, betas, rel=args.tolerance)
        scheme = "beta"
    trace = fairness.reverse_meter(inst, route, table, rel=args.tolerance)
    breakdown = (
        fairness.benefit_breakdown(inst, route, table, rel=args.tolerance)
        if inst.n >= 2 else None
    )
    stages = []
    for j in range(2, inst.n + 1):
        discounts = [
            table.value(i, j - 1) - table.value(i, j) for i in range(1, j)
        ]
        stages.append({
            "stage": j,
            "incoming_fare": table.value(j, j),
            "discounts": discounts,
            "ib": list(breakdown.ib[j - 2]),
            "tib": breakdown.tib_value(j),
        })
    payload = {
        "scheme": scheme,
        "betas": list(betas),
        "shares": table.to_rows(),
        "stages": stages,
        "du": trace.to_rows(),
    }
    if args.json:
        emit_json(payload)
    else:
        print(f"{scheme} share ledger for route {route.to_tokens()}:")
        print(f"  rider 1 boards paying {fmt(table.value(1, 1))}")
        for st in stages:
            disc = ", ".join(
                f"rider {i + 1} -{fmt(d)}" for i, d in enumerate(st["discounts"])
            )
            print(f"  stage {st['stage']}: incoming pays {fmt(st['incoming_fare'])}"
                  f"  discounts [{disc}]  TIB {fmt(st['tib'])}")
        print("  running disutility (rows riders, cols stages 0..n):")
        for i, row in enumerate(trace.to_rows(), start=1):
            print(f"    rider {i}: " + "  ".join(fmt(v) for v in row))
    return EXIT_OK


def cmd_routes(args) -> int:
    if args.limit is not None and args.limit < 1:
        raise MalformedInputError(f"--limit must be at least 1, got {args.limit}")
    inst = Instance.load(args.instance)
    result = search.enumerate_sir_routes(
        inst, limit=args.limit, cap=args.cap_override,
        rel=args.tolerance,
    )
    orders = result.routes.orders.tolist()
    if args.json:
        emit_json({
            "count": len(orders),
            "truncated": result.truncated,
            "routes": orders,
            "optimal": (
                {"route": list(result.optimal[0].pickup_order), "distance": result.optimal[1]}
                if result.optimal else None
            ),
            "stats": {"nodes_expanded": result.stats.nodes_expanded,
                      "prunes": result.stats.prunes},
        })
    else:
        print(f"{len(orders)} feasible routes"
              + (" (truncated)" if result.truncated else ""))
        for order in orders:
            print("  " + ",".join(map(str, order)))
        if result.optimal:
            print(f"optimal: {result.optimal[0].to_tokens()} "
                  f"distance {fmt(result.optimal[1])}")
    return EXIT_OK if orders else EXIT_NEGATIVE


def cmd_opt_route(args) -> int:
    inst = Instance.load(args.instance)
    best = search.opt_sir_route(
        inst, cap=args.cap_override, rel=args.tolerance
    )
    if best is None:
        if args.json:
            emit_json({"feasible": False})
        else:
            print("no feasible route")
        return EXIT_NEGATIVE
    route, dist = best
    if args.json:
        emit_json({"feasible": True, "route": list(route.pickup_order), "distance": dist})
    else:
        print(f"optimal feasible route {route.to_tokens()} distance {fmt(dist)}")
    return EXIT_OK


def cmd_starvation(args) -> int:
    inst = Instance.load(args.instance)
    if args.route:
        route = parse_route(args.route)
        gamma = None
    else:
        found = starvation.min_route_starvation(
            inst, cap=args.cap_override, rel=args.tolerance
        )
        if found is None:
            if args.json:
                emit_json({"feasible": False})
            else:
                print("no feasible route")
            return EXIT_NEGATIVE
        route, gamma = found
    report = starvation.starvation_report(inst, route, rel=args.tolerance)
    payload = {
        "route": list(route.pickup_order),
        "per_passenger": list(report.per_passenger),
        "route_factor": report.route_factor,
        "feasible": report.feasible,
    }
    if args.check_bounds:
        payload["bound_checks"] = [
            {"name": c.name, "bound": c.bound, "holds": c.holds}
            for c in report.bound_checks
        ]
    if args.json:
        emit_json(payload)
    else:
        label = "minimizing route" if gamma is not None else "route"
        print(f"{label} {route.to_tokens()}  "
              f"({'feasible' if report.feasible else 'infeasible'})")
        for i, g in enumerate(report.per_passenger, start=1):
            print(f"  rider {i}: factor {fmt(g)}")
        print(f"  route factor: {fmt(report.route_factor)}")
        if args.check_bounds:
            for c in report.bound_checks:
                print(f"  bound {c.name} = {fmt(c.bound)}: "
                      f"{'holds' if c.holds else 'VIOLATED'}")
    return EXIT_OK


def cmd_allocate(args) -> int:
    inst = Instance.load(args.instance)
    allocation = alloc_mod.optimal_allocation(inst, m_prime=args.m_prime, rel=args.tolerance)
    payload = {
        "vehicles": [list(v) for v in allocation.vehicles],
        "m_prime": allocation.m_prime,
        "total_miles": allocation.total_miles,
    }
    status = EXIT_OK
    if args.oracle:
        oracle = alloc_mod.brute_force_allocation(inst, m_prime=args.m_prime)
        match = abs(oracle.total_miles - allocation.total_miles) <= \
            1e-9 * max(1.0, abs(oracle.total_miles))
        payload["oracle"] = {
            "vehicles": [list(v) for v in oracle.vehicles],
            "total_miles": oracle.total_miles,
        }
        payload["match"] = match
        if not match:
            status = EXIT_ERROR
    if args.json:
        emit_json(payload)
    else:
        print(f"allocation uses {allocation.m_prime} vehicle(s), "
              f"{fmt(allocation.total_miles)} miles")
        for k, veh in enumerate(allocation.vehicles, start=1):
            print(f"  vehicle {k}: riders {list(veh)}")
        if args.oracle:
            print(f"oracle: {fmt(payload['oracle']['total_miles'])} miles  "
                  f"match: {payload['match']}")
    return status


def cmd_generate(args) -> int:
    kind = args.kind
    if kind == "lower-bound":
        alphas = _parse_tokens(args.alphas, ",", float, "--alphas") if args.alphas else None
        inst = instances.generate_lower_bound_instance(
            args.n, alpha_op=args.alpha_op, alphas=alphas, ell=args.ell,
            slack=args.slack,
        )
    elif kind == "sqrt-tight":
        inst = instances.generate_sqrt_tight_instance(args.n, ell=args.ell)
    elif kind == "exp-tight":
        inst = instances.generate_exp_tight_instance(args.n, ell=args.ell)
    elif kind == "hampath":
        edges = []
        if args.edges:
            for tok in args.edges.split(","):
                edge = _parse_tokens(tok, "-", int, "--edges")
                if len(edge) != 2:
                    raise MalformedInputError(f"bad --edges value {tok!r}; expected u-v")
                edges.append(tuple(edge))
        inst = instances.reduce_hampath(args.vertices, edges, ell=args.ell)
    elif kind == "path-tsp":
        if not args.coords:
            raise MalformedInputError("path-tsp generation needs --coords")
        pts = []
        for group in args.coords.split(";"):
            pts.append(_parse_tokens(group, ",", float, "--coords"))
        table = instances.from_euclidean(pts)
        inst = instances.reduce_path_tsp(table, margin=args.margin)
    else:  # unreachable; argparse restricts choices
        raise MalformedInputError(f"unknown generator {kind!r}")

    text = json.dumps(inst.to_dict(), indent=2, sort_keys=True)  # exact floats, as Instance.save
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser wiring
# ---------------------------------------------------------------------------

@functools.cache
def _parser() -> _Parser:
    parser = _Parser(prog="sirshare",
                     description="Detour-aware cost sharing for shared rides")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, instance=True):
        if instance:
            p.add_argument("instance", help="instance JSON file")
        p.add_argument("--json", action="store_true", help="emit JSON output")
        # None stands for SIRSHARE_TOLERANCE or the default; main resolves it per call
        p.add_argument("--tolerance", type=float,
                       help="relative tolerance (0 for strict)")

    p = sub.add_parser("validate", help="check the distance table against its metric flag")
    common(p)

    p = sub.add_parser("check-route", help="per-stage feasibility slacks for a route")
    common(p)
    p.add_argument("--route", required=True,
                   help="comma-separated pickup labels; d<rank> tokens for multi-dropoff")

    p = sub.add_parser("witness", help="construct the recursive SIR share table")
    common(p)
    p.add_argument("--route", required=True)

    p = sub.add_parser("share", help="fair-share ledger for a route")
    common(p)
    p.add_argument("--route", required=True)
    p.add_argument("--beta", help="comma-separated split fractions for stages 2..n")
    p.add_argument("--xc", action="store_true",
                   help="use the equal-segment-split scheme instead of --beta")

    p = sub.add_parser("routes", help="enumerate feasible routes")
    common(p)
    p.add_argument("--limit", type=int, help="truncate the returned route list")
    p.add_argument("--cap-override", type=int, default=search.DEFAULT_CAP,
                   help="raise the exact-search size cap")

    p = sub.add_parser("opt-route", help="minimum-distance feasible route")
    common(p)
    p.add_argument("--cap-override", type=int, default=search.DEFAULT_CAP)

    p = sub.add_parser("starvation", help="starvation factor report")
    common(p)
    p.add_argument("--route", help="route to report on; omit to minimize over routes")
    p.add_argument("--check-bounds", action="store_true",
                   help="include regime bound verdicts")
    p.add_argument("--cap-override", type=int, default=search.DEFAULT_CAP)

    p = sub.add_parser("allocate", help="assign riders to vehicles at minimum miles")
    common(p)
    p.add_argument("--m-prime", type=int, help="fix the vehicle count")
    p.add_argument("--oracle", action="store_true",
                   help="also run the brute-force oracle, at the same vehicle count, and compare")

    p = sub.add_parser("generate", help="emit a generated instance as JSON")
    common(p, instance=False)
    p.add_argument("kind", choices=["lower-bound", "sqrt-tight", "exp-tight",
                                    "hampath", "path-tsp"])
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--ell", type=float, default=1.0)
    p.add_argument("--alpha-op", type=float, default=1.0)
    p.add_argument("--alphas", help="comma-separated sensitivities (lower-bound)")
    p.add_argument("--slack", type=float, default=0.01)
    p.add_argument("--vertices", type=int, default=3, help="vertex count (hampath)")
    p.add_argument("--edges", help="edge list like 1-2,2-3 (hampath)")
    p.add_argument("--coords", help="points like 0;1;3 or 0,0;3,4 (path-tsp)")
    p.add_argument("--margin", type=float, default=0.01)
    p.add_argument("-o", "--output", help="write to a file instead of stdout")

    return parser


def build_parser() -> _Parser:
    """The argument parser, built once per process: every default is a
    constant and ``parse_args`` keeps no state between calls."""
    # a plain function around the cached one, so perfbench's tracer (which wraps
    # plain functions only) still counts the calls
    return _parser()


def _resolve_tolerance(parser: _Parser, args) -> None:
    if args.tolerance is None:
        raw = os.environ.get("SIRSHARE_TOLERANCE")
        if raw is None:
            args.tolerance = DEFAULT_REL_TOL
        else:
            try:
                args.tolerance = float(raw)
            except ValueError:
                parser.error(f"argument --tolerance: invalid float value: {raw!r}")
    try:
        check_tolerance(args.tolerance)
    except MalformedInputError as exc:
        parser.error(f"argument --tolerance: {exc}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _resolve_tolerance(parser, args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_ERROR
    # looked up on each call, not bound into the long-lived parser, so a wrapped
    # or patched handler is the one that runs
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        code = handler(args)
        sys.stdout.flush()  # a reader that closed the pipe shows here, not at exit
        return code
    except SirshareError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except BrokenPipeError:
        # the reader (``| head``, say) has gone: point stdout at devnull so that
        # the flush at exit does not fail again, as the Python signal docs advise
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
