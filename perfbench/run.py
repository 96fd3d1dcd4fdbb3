"""Benchmark of the sirshare library: three seeded workloads, one per process.

Run from the root of a checkout:

    python3 perfbench/run.py --workload evaluate --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

``--trace 0`` times a closed loop with one client and reports the end-to-end
metrics. Their times are in reference units: each op's wall time is rescaled
by a calibration loop timed every 0.1 s (``harness.Speed``), because on a
shared host the interpreter's speed drifts by tens of percent from minute to
minute; the wall-clock figures are kept in the details line. ``--trace 1``
runs the workload's op list once untraced and once with spans around the
library's public functions, and reports per-function calls and self time,
the search and flow counters, and the tracing overhead. The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds
the run's details (sample counts, input properties, failures). ``--workload
all`` runs each workload in its own process and prints every metric by name.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
WORKLOADS = {"evaluate": "wl_evaluate", "search": "wl_search", "allocate": "wl_allocate"}
SETUP_REPEATS = 5
MIN_OPS = 100
WALL_LIMIT_S = 150.0
WORK_DIR = ".perfbench_work"

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

# Layer -> the functions traced for it, and the end-to-end metric each should move.
LAYERS = {
    "instances": (("instances.Route.validate", "evaluate.ops_per_s"),
                  ("instances.validate_metric", "allocate.latency_p50_ms, allocate.peak_rss_mb"),
                  ("instances.Instance.load", "allocate.latency_p50_ms, allocate.peak_rss_mb")),
    "feasibility": (("feasibility.sir_feasible", "evaluate.ops_per_s, evaluate.latency_p50_ms"),
                    ("feasibility.stage_costs", "evaluate.ops_per_s, evaluate.latency_p50_ms"),
                    ("feasibility.witness_scheme", "evaluate.ops_per_s, evaluate.latency_p50_ms"),
                    ("feasibility.is_sir", "evaluate.ops_per_s, evaluate.latency_p50_ms")),
    "fairness": (("fairness.beta_fair_table", "evaluate.latency_p90_ms"),
                 ("fairness.xc_table", "evaluate.latency_p90_ms"),
                 ("fairness.verify_fairness_ratios", "evaluate.latency_p90_ms"),
                 ("fairness.benefit_breakdown", "evaluate.latency_p90_ms"),
                 ("fairness.reverse_meter", "evaluate.latency_p90_ms")),
    "starvation": (("starvation.starvation_report", "evaluate.ops_per_s"),
                   ("starvation.min_route_starvation", "search.latency_p90_ms")),
    "search": (("search.opt_sir_route", "search.ops_per_s, search.latency_p90_ms"),
               ("search.enumerate_sir_routes", "search.ops_per_s, search.latency_p90_ms")),
    "allocation": (("allocation.optimal_allocation", "allocate.latency_p90_ms, allocate.ops_per_s"),
                   ("allocation.build_network", "allocate.latency_p90_ms, allocate.ops_per_s"),
                   ("allocation.min_cost_max_flow", "allocate.latency_p90_ms, allocate.ops_per_s"),
                   ("allocation.extract_allocation", "allocate.latency_p90_ms, allocate.ops_per_s")),
    "cli": (("cli.main", "allocate.latency_p50_ms"),
            ("cli.build_parser", "allocate.latency_p50_ms"),
            ("cli.emit_json", "allocate.latency_p50_ms")),
}
COUNTERS = (
    ("search.nodes_expanded", "count", "search.ops_per_s, search.latency_p90_ms"),
    ("search.prunes", "count", "search.ops_per_s, search.latency_p90_ms"),
    ("search.yield", "ratio", "search.ops_per_s (routes listed per node expanded)"),
    ("allocation.flow_calls_per_sweep_rider", "ratio", "allocate.latency_p90_ms (1 while the "
     "sweep solves one flow per vehicle count)"),
    ("trace.overhead", "ratio", "none: traced op time over untraced op time, minus 1"),
)


def per_layer_names() -> list[tuple[str, str]]:
    out = []
    for funcs in LAYERS.values():
        for fn, _ in funcs:
            out += [(f"{fn}.calls", "count"), (f"{fn}.self_ms", "ms")]
    return out + [(name, unit) for name, unit, _ in COUNTERS]


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# One workload in this process
# ---------------------------------------------------------------------------

def import_library(root: Path):
    src = root / "src"
    if not (src / "sirshare" / "__init__.py").is_file():
        raise SystemExit(f"error: {src / 'sirshare'} not found; run from the root of a "
                         "sirshare checkout")
    sys.path.insert(0, str(src))
    import numpy  # noqa: F401
    import sirshare

    if Path(sirshare.__file__).resolve().parent != (src / "sirshare").resolve():
        raise SystemExit(f"error: imported sirshare from {sirshare.__file__}, not {src}")


def run_workload(args) -> int:
    root = Path.cwd()
    import_library(root)
    import harness
    module = importlib.import_module(WORKLOADS[args.workload])
    import_s = time.perf_counter() - STARTED
    speed = harness.Speed()
    import_s *= speed.factor()

    work = root / WORK_DIR / f"{args.workload}-{os.getpid()}"
    try:
        builds = []
        wl = None
        for _ in range(SETUP_REPEATS):
            wl = None  # let the previous build go before timing the next
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            t = time.perf_counter()
            wl = module.build(args.seed, work)
            builds.append((time.perf_counter() - t) * speed.factor())
        setup_s = import_s + statistics.median(builds)
        gc.collect()
        gc.freeze()  # the op list stays put: keep it out of the collector's scans
        if args.trace:
            result, details = traced_run(harness, wl)
        else:
            result, details = timed_run(harness, wl, args.seconds, setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (root / WORK_DIR).rmdir()
        except OSError:
            pass

    details = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "machine": harness.machine_info(), "inputs": wl.properties,
               "outcomes": harness.shares_of(wl.outcomes), **details}
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result))
    return 0


def _result(attempted: int, failures: list, values: dict, names) -> dict:
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": {name: {"value": values[name], "unit": unit} for name, unit in names}}


def timed_run(harness, wl, seconds: float, setup_s: float):
    p = harness.timed_loop(wl.ops, seconds, MIN_OPS, WALL_LIMIT_S, wl.block)
    ms = [x / 1e6 for x in p.scaled_ns]
    wall_ms = [x / 1e6 for x in p.latencies_ns]
    q_tail, tail = harness.tail_percentile(ms)
    rates = p.block_rates(wl.block)
    completed = p.attempted - len(p.failures)
    values = {
        "ops_per_s": statistics.median(rates),
        "latency_p50_ms": harness.percentile(ms, 50),
        "latency_p90_ms": harness.percentile(ms, 90),
        "peak_rss_mb": harness.peak_rss_mb(),
        "setup_s": setup_s,
    }
    details = {
        "samples": p.attempted,
        "failed_ratio": len(p.failures) / p.attempted,
        "tail_latency_ms": {"percentile": q_tail, "value": tail, "samples": p.attempted},
        "blocks": {"count": len(rates), "ops_each": wl.block,
                   "ops_per_s_quartiles": statistics.quantiles(rates, n=4) if len(rates) > 1 else rates},
        "wall_clock": {"op_seconds": p.busy_ns / 1e9,
                       "ops_per_s": completed / (p.busy_ns / 1e9),
                       "latency_p50_ms": harness.percentile(wall_ms, 50),
                       "latency_p90_ms": harness.percentile(wall_ms, 90)},
        "speed_factor_quartiles": statistics.quantiles(p.speed.factors, n=4),
        "failures": p.failures[:5],
    }
    return _result(p.attempted, p.failures, values, END_TO_END), details


def traced_run(harness, wl):
    from tracing import Tracer, not_wrappable

    counters = {"nodes": 0, "prunes": 0, "routes": 0}

    def on_enumerate(result):
        counters["nodes"] += result.stats.nodes_expanded
        counters["prunes"] += result.stats.prunes
        counters["routes"] += len(result.routes)

    sweeps = {"requests": 0, "riders": 0, "flow_calls": 0, "calls_equal_n": 0}

    def on_op(op, spans):
        if op.kind == "allocate-sweep":
            calls = sum(s.name == "allocation.min_cost_max_flow" for s in spans)
            sweeps["requests"] += 1
            sweeps["riders"] += op.n
            sweeps["flow_calls"] += calls
            sweeps["calls_equal_n"] += calls == op.n

    plain = harness.single_pass(wl.ops)
    tracer = Tracer(observers={"search.enumerate_sir_routes": on_enumerate})
    tracer.install()
    try:
        traced = harness.single_pass(wl.ops, tracer, on_op)
    finally:
        tracer.uninstall()

    values = {}
    for funcs in LAYERS.values():
        for fn, _ in funcs:
            calls, ns = tracer.totals.get(fn, (0, 0))
            values[f"{fn}.calls"] = calls
            values[f"{fn}.self_ms"] = ns / 1e6
    values["search.nodes_expanded"] = counters["nodes"]
    values["search.prunes"] = counters["prunes"]
    values["search.yield"] = counters["routes"] / counters["nodes"] if counters["nodes"] else 0.0
    values["allocation.flow_calls_per_sweep_rider"] = (
        sweeps["flow_calls"] / sweeps["riders"] if sweeps["riders"] else 0.0)
    values["trace.overhead"] = sum(traced.scaled_ns) / sum(plain.scaled_ns) - 1.0
    failures = plain.failures + traced.failures
    details = {
        "samples": traced.attempted,
        "untraced_op_seconds": plain.busy_ns / 1e9,
        "traced_op_seconds": traced.busy_ns / 1e9,
        "sweep_requests": sweeps,
        "other_traced_functions": {
            name: {"calls": c, "self_ms": ns / 1e6}
            for name, (c, ns) in sorted(tracer.totals.items())
            if f"{name}.calls" not in values
        },
        "not_wrapped": not_wrappable(),
        "failures": failures[:5],
    }
    return _result(plain.attempted + traced.attempted, failures, values, per_layer_names()), details


# ---------------------------------------------------------------------------
# Every workload, each in its own process
# ---------------------------------------------------------------------------

def run_all(args) -> int:
    sys.path.insert(0, str(HERE))
    import harness

    record = {"seed": args.seed, "seconds": args.seconds, "machine": harness.machine_info(True),
              "layers": {layer: dict(funcs) for layer, funcs in LAYERS.items()},
              "counters": {name: moves for name, _, moves in COUNTERS}, "workloads": {}}
    status = 0
    for name in WORKLOADS:
        entry = {}
        for trace in ((0, 1) if args.trace else (0,)):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
                   str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                log(f"{name} (trace {trace}) exited {proc.returncode}:\n{proc.stderr}")
                status = 1
                continue
            details, result = json.loads(lines[-2]), json.loads(lines[-1])
            entry["trace" if trace else "timed"] = {"result": result, "details": details}
            print(f"\n== {name}  (trace {trace}, seed {args.seed}) ==")
            if not trace:
                print(f"  {'failed_ratio':<44}{details['failed_ratio']:>14.6g}  ratio"
                      f"  ({result['failed']} of {result['attempted']} ops)")
                tail = details["tail_latency_ms"]
                print(f"  {'latency_p' + format(tail['percentile'], 'g') + '_ms (tail)':<44}"
                      f"{tail['value']:>14.6g}  ms  ({tail['samples']} samples)")
                print(f"  wall clock: {json.dumps(details['wall_clock'], sort_keys=True)}")
            for metric, m in result["metrics"].items():
                extra = f"  ({details['samples']} samples)" if metric.startswith("latency") else ""
                print(f"  {metric:<44}{m['value']:>14.6g}  {m['unit']}{extra}")
            print(f"  inputs: {json.dumps(details['inputs'], sort_keys=True)}")
            if details.get("outcomes"):
                print(f"  outcomes: {json.dumps(details['outcomes'], sort_keys=True)}")
        record["workloads"][name] = entry
    if args.record:
        Path(args.record).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="with --workload all: write the results as JSON here")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
