"""Workload ``allocate``: in-process ``sirshare.cli.main`` requests.

Set-up writes instance JSON files; each op is one command line run through
``cli.main`` with standard output captured, so every request crosses the
argument parser, ``Instance.load`` (which validates the table) and the JSON
report. Per block of requests:

- ``allocate --json`` sweeps at n = 7..50 (the small ones checked by
  ``brute_force_allocation`` as well);
- ``allocate --json --m-prime k`` at n = 50..100, k a quarter to all of n;
- ``validate --json`` on tables of m = 40..200 points: clean, with a planted
  triangle violation, or with the violation declared metric (exit 2).
"""

from __future__ import annotations

import contextlib
import io
import json

import numpy as np

import oracles as orc
from harness import Op, Workload, histogram, shares

from sirshare import allocation, cli
from sirshare.instances import Instance

SWEEP_N = (7, 8, 10, 12, 14, 16, 18, 20, 23, 26, 30, 35, 50)
M_PRIME_N = (50, 60, 70, 80, 85, 90, 95, 100)
M_PRIME_SHARE = (0.25, 0.5, 0.75, 1.0)  # k as a share of n, cycled over M_PRIME_N
VALIDATE_M = (40, 60, 80, 100, 120, 140, 170, 200)
VALIDATE_FLAVOURS = ("clean", "planted", "declared")
BLOCKS = 3
BRUTE_FORCE_MAX_N = 8


def distances(rng, points: int) -> np.ndarray:
    pts = rng.uniform(0.0, 10.0, size=(points, 2))
    diff = pts[:, None, :] - pts[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


def write(path, d: np.ndarray, metric_flag=None) -> None:
    n = d.shape[0] - 1
    data = {"n": n, "dropoff_mode": "single", "distance_matrix": d.tolist(), "alpha_op": 1.0,
            "alphas": [1.0] * n, "regime": "finite"}
    if metric_flag is not None:
        data["metric_flag"] = metric_flag
    path.write_text(json.dumps(data))


def cli_call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _reply(out):
    code, text, err = out
    if code != 0:
        return None, f"exit {code}: {err.strip()[:200]}"
    return json.loads(text), None


def sweep_op(path, d: np.ndarray) -> Op:
    rows = d.tolist()
    n = len(rows) - 1
    truth = {}  # filled on first check, outside the timed interval

    def check(out):
        reply, problem = _reply(out)
        if problem:
            return problem
        vehicles = reply["vehicles"]
        problem = orc.allocation_problems(rows, vehicles)
        if problem:
            return problem
        miles = orc.allocation_miles(rows, vehicles)
        if not orc.close(miles, reply["total_miles"]) or reply["m_prime"] != len(vehicles):
            return f"reply claims {reply['total_miles']!r} miles, its vehicles ride {miles!r}"
        if not truth:
            truth["best"] = orc.allocation_optimum(rows)
            if n <= BRUTE_FORCE_MAX_N:
                truth["brute"] = allocation.brute_force_allocation(Instance.load(path)).total_miles
        for name, best in truth.items():
            if not orc.close(best, reply["total_miles"]):
                return f"sweep found {reply['total_miles']!r} miles, {name} optimum {best!r}"
        return None

    argv = ["allocate", str(path), "--json"]
    return Op("allocate-sweep", n, lambda: cli_call(argv), check)


def m_prime_op(path, d: np.ndarray, k: int) -> Op:
    rows = d.tolist()
    truth = {}

    def check(out):
        reply, problem = _reply(out)
        if problem:
            return problem
        vehicles = reply["vehicles"]
        problem = orc.allocation_problems(rows, vehicles, m_prime=k)
        if problem:
            return problem
        miles = orc.allocation_miles(rows, vehicles)
        if not orc.close(miles, reply["total_miles"]):
            return f"reply claims {reply['total_miles']!r} miles, its vehicles ride {miles!r}"
        if not truth:
            truth["best"] = orc.allocation_optimum(rows)
        if not orc.leq(truth["best"], reply["total_miles"]):
            return f"{k} vehicles ride {reply['total_miles']!r}, below the optimum {truth['best']!r}"
        return None

    argv = ["allocate", str(path), "--json", "--m-prime", str(k)]
    return Op("allocate-m-prime", len(rows) - 1, lambda: cli_call(argv), check)


def validate_op(path, m: int, flavour: str, triple) -> Op:
    def check(out):
        code, text, err = out
        expected = 2 if flavour == "declared" else 0
        if code != expected:
            return f"exit {code}, expected {expected}: {err.strip()[:200]}"
        reply = json.loads(text)
        if reply["metric_ok"] != (flavour == "clean"):
            return f"metric_ok is {reply['metric_ok']} on a {flavour} table"
        found = {tuple(v["indices"]) for v in reply["violations"] if v["kind"] == "triangle"}
        if triple is not None and triple not in found:
            return f"planted violation {triple} not reported"
        return None

    argv = ["validate", str(path), "--json"]
    return Op(f"validate-{flavour}", m, lambda: cli_call(argv), check)


def build(seed: int, workdir) -> Workload:
    rng = np.random.default_rng([seed, 3])
    ops: list[Op] = []
    for b in range(BLOCKS):
        block = []
        for n in SWEEP_N:
            path = workdir / f"b{b}-sweep-{n}.json"
            d = distances(rng, n + 1)
            write(path, d, metric_flag=True)
            block.append(sweep_op(path, d))
        for k, n in enumerate(M_PRIME_N):
            path = workdir / f"b{b}-mprime-{n}.json"
            d = distances(rng, n + 1)
            write(path, d, metric_flag=True)
            share = M_PRIME_SHARE[(k + b) % len(M_PRIME_SHARE)]
            block.append(m_prime_op(path, d, max(1, round(share * n))))
        for k, m in enumerate(VALIDATE_M):
            flavour = VALIDATE_FLAVOURS[(k + b) % len(VALIDATE_FLAVOURS)]
            path = workdir / f"b{b}-validate-{m}.json"
            d = distances(rng, m)
            triple = None
            if flavour != "clean":
                a, mid, c = (int(x) for x in rng.choice(m, size=3, replace=False))
                a, c = min(a, c), max(a, c)
                d[a, c] = d[c, a] = d[a, mid] + d[mid, c] + 1.0
                triple = (a, mid, c)
            write(path, d, metric_flag=None if flavour == "planted" else True)
            block.append(validate_op(path, m, flavour, triple))
        ops += [block[i] for i in rng.permutation(len(block))]
    return Workload(ops=ops, block=len(ops) // BLOCKS, properties={
        "requests": len(ops),
        "request_share": shares(op.kind for op in ops),
        "n_or_m_histogram": histogram(op.n for op in ops),
        "brute_force_share": round(sum(op.kind == "allocate-sweep" and op.n <= BRUTE_FORCE_MAX_N
                                       for op in ops) / len(ops), 4),
    })
