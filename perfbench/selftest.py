"""Self-tests of the benchmark (not of the library).

Run from the root of a checkout:

    python3 perfbench/selftest.py

They check the self-time arithmetic on nested spans, the percentile rule at
its ten-sample edge, the rescaling of op times to reference speed, that
each workload's output check catches a wrong answer patched into the
library at run time (the package files are not touched), that the same
seed builds the same inputs, that ``BENCHMARK.json`` names what the runner
reports, and that the runner refuses to report outside a checkout.
"""

from __future__ import annotations

import hashlib
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(Path.cwd() / "src")]

import harness  # noqa: E402
import wl_allocate  # noqa: E402
import wl_evaluate  # noqa: E402
import wl_search  # noqa: E402
from tracing import Span, Tracer, self_times  # noqa: E402

import sirshare  # noqa: E402
from sirshare import allocation, feasibility, search, starvation  # noqa: E402


# -- spans ---------------------------------------------------------------------

def test_self_time_of_nested_spans():
    spans = [
        Span("a", 0, 100, -1),
        Span("b", 10, 40, 0),
        Span("c", 20, 30, 1),
        Span("d", 50, 70, 0),
        Span("b", 110, 120, -1),
    ]
    assert self_times(spans) == {"a": (1, 50), "b": (2, 30), "c": (1, 10), "d": (1, 20)}


def test_self_time_clips_overlapping_and_escaping_children():
    spans = [Span("p", 0, 100, -1), Span("x", 10, 60, 0), Span("y", 40, 130, 0)]
    assert self_times(spans)["p"] == (1, 10)


def test_tracer_nests_spans_and_restores_the_library():
    inst = sirshare.generate_sqrt_tight_instance(4)
    route = sirshare.Route.single_dropoff([1, 2, 3, 4])
    originals = (feasibility.sir_feasible, sirshare.stage_costs, sirshare.fairness.stage_costs)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.active = True
        feasibility.witness_scheme(inst, route)
        tracer.active = False
        spans = tracer.finish_op()
    finally:
        tracer.uninstall()
    names = [s.name for s in spans]
    assert names[0] == "feasibility.witness_scheme"
    assert "feasibility.sir_feasible" in names and "instances.Route.validate" in names
    assert all(s.parent == 0 for s in spans[1:] if s.name == "feasibility.sir_feasible")
    assert tracer.totals["feasibility.witness_scheme"][0] == 1
    assert (feasibility.sir_feasible, sirshare.stage_costs, sirshare.fairness.stage_costs) == originals
    assert "__wrapped__" not in vars(sirshare.Route.validate)


# -- percentiles ---------------------------------------------------------------

def test_percentile_needs_ten_samples_beyond():
    assert harness.percentile(range(1, 101), 90) == 90
    try:
        harness.percentile(range(1, 100), 90)
    except harness.TooFewSamples:
        pass
    else:
        raise AssertionError("p90 of 99 samples has only 9 beyond it")


def test_tail_percentile_is_the_highest_supported():
    assert harness.tail_percentile(range(1, 21)) == (50.0, 10)
    assert harness.tail_percentile(range(1, 101)) == (90.0, 90)
    assert harness.tail_percentile(range(1, 1001)) == (99.0, 990)
    try:
        harness.tail_percentile(range(1, 20))
    except harness.TooFewSamples:
        pass
    else:
        raise AssertionError("19 samples support no percentile")


def test_op_times_are_rescaled_by_the_samples_around_them():
    samples = iter([2 * harness.REFERENCE_NS, 2 * harness.REFERENCE_NS, harness.REFERENCE_NS,
                    harness.REFERENCE_NS])
    with mock.patch.object(harness, "reference_work", lambda: next(samples)):
        p = harness.Pass()  # first sample: the loop runs at half speed
        op = harness.Op("k", 1, None, None)
        p.record(op, 1000, None)
        p.rescale()  # second sample, also half speed: factor 1/2
        p.record(op, 1000, "wrong")
        p.rescale()  # samples 2x and 1x reference time: factor 2/3
        p.record(op, 600, None)
        p.rescale()
    assert p.scaled_ns == [500.0, 1000 * 2 / 3, 600.0]
    assert p.block_rates(3) == [2 / ((500 + 2000 / 3 + 600) / 1e9)]


# -- oracles catch wrong answers -----------------------------------------------

def _first(wl, kind):
    return next(op for op in wl.ops if op.kind == kind)


def _fails(op) -> bool:
    _, err, _ = harness.run_op(op)
    return err is not None


def test_evaluate_check_catches_a_flipped_verdict():
    wl = wl_evaluate.build(3, None)
    op = _first(wl, "uniform")
    assert not _fails(op)
    real = feasibility.sir_feasible

    def flipped(*args, **kwargs):
        r = real(*args, **kwargs)
        return feasibility.FeasibilityResult(not r.feasible, r.stages, r.first_violation)

    with mock.patch.object(feasibility, "sir_feasible", flipped):
        assert _fails(op)


def test_evaluate_check_catches_a_wrong_starvation_factor():
    wl = wl_evaluate.build(3, None)
    op = _first(wl, "ledger-sqrt-tight")
    assert not _fails(op)
    real = starvation.starvation_report

    def inflated(*args, **kwargs):
        r = real(*args, **kwargs)
        return starvation.StarvationReport(r.per_passenger, r.route_factor * 1.01,
                                           r.bound_checks, r.feasible)

    with mock.patch.object(starvation, "starvation_report", inflated):
        assert _fails(op)


def test_search_check_catches_a_suboptimal_route():
    wl = wl_search.build(3, None)
    op = _first(wl, "dense:opt")
    assert not _fails(op)
    real = search.opt_sir_route

    def worse(inst, *args, **kwargs):
        _, best = real(inst, *args, **kwargs)
        rows = inst.dist.entries.tolist()
        for k in range(inst.n):  # a rotation of the identity that is strictly longer
            order = [(i + k) % inst.n + 1 for i in range(inst.n)]
            length = sum(rows[a - 1][b - 1] for a, b in zip(order, order[1:])) + rows[order[-1] - 1][-1]
            if length > best * (1 + 1e-6):
                return sirshare.Route.single_dropoff(order), length
        raise AssertionError("every rotation is optimal")

    with mock.patch.object(search, "opt_sir_route", worse):
        assert _fails(op)


def test_search_check_catches_a_missing_route():
    wl = wl_search.build(3, None)
    op = _first(wl, "sparse:enumerate")
    assert not _fails(op)
    real = search.enumerate_sir_routes

    def short(*args, **kwargs):
        r = real(*args, **kwargs)
        return search.SearchResult(r.routes[:-1], r.optimal, r.stats, r.truncated)

    with mock.patch.object(search, "enumerate_sir_routes", short):
        assert _fails(op)


def test_allocate_check_catches_a_suboptimal_allocation():
    with tempfile.TemporaryDirectory() as tmp:
        wl = wl_allocate.build(3, Path(tmp))
        op = next(op for op in wl.ops if op.kind == "allocate-sweep" and op.n == 8)
        assert not _fails(op)

        def alone(inst):
            vehicles = tuple((u,) for u in range(1, inst.n + 1))
            rows = inst.dist.entries
            return allocation.Allocation(vehicles, float(sum(rows[u - 1, inst.n] for u in range(1, inst.n + 1))))

        with mock.patch.object(allocation, "optimal_allocation", alone):
            assert _fails(op)


def test_allocate_check_catches_a_missed_violation():
    with tempfile.TemporaryDirectory() as tmp:
        wl = wl_allocate.build(3, Path(tmp))
        op = _first(wl, "validate-planted")
        assert not _fails(op)
        clean = sirshare.MetricReport(ok=True, violations=())
        with mock.patch.object(sirshare.instances, "validate_metric", lambda *a, **k: clean):
            assert _fails(op)


# -- inputs ----------------------------------------------------------------------

def _digest(module, seed) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        wl = module.build(seed, Path(tmp))
        h = hashlib.sha256(repr(wl.inputs).encode())
        for path in sorted(Path(tmp).iterdir()):
            h.update(path.name.encode() + path.read_bytes())
    return h.hexdigest()


def test_same_seed_builds_the_same_inputs():
    for module in (wl_evaluate, wl_search, wl_allocate):
        assert _digest(module, 5) == _digest(module, 5), module.__name__
        assert _digest(module, 5) != _digest(module, 6), module.__name__


# -- the runner ----------------------------------------------------------------------

def test_benchmark_json_names_what_the_runner_reports():
    import json

    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_names()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_runner_refuses_outside_a_checkout():
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(HERE, Path(tmp) / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "search", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout == "", (proc.returncode, proc.stdout)


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
        except Exception as exc:  # report every test, then fail the run
            failed += 1
            print(f"FAIL {name}: {type(exc).__name__}: {exc}")
        else:
            print(f"ok   {name}")
    print(f"{len(tests) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
