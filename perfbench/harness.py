"""The closed loop that times ops, and the statistics it reports.

One client, one thread: each op starts when the previous op and its output
check have finished. Only the op itself is timed; the check runs outside
the timed interval. Op times are kept both as measured and rescaled to a
reference interpreter speed (see ``Speed``).
"""

from __future__ import annotations

import math
import os
import platform
import resource
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable

BEYOND = 10  # samples a reported percentile must have above it
LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)


class TooFewSamples(ValueError):
    pass


def percentile(samples, q: float) -> float:
    """Nearest-rank q-th percentile, refused without ten samples beyond it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    if len(ordered) - rank < BEYOND:
        raise TooFewSamples(
            f"p{q:g} of {len(ordered)} samples has {len(ordered) - rank} above it; "
            f"need {BEYOND}"
        )
    return ordered[rank - 1]


def tail_percentile(samples) -> tuple[float, float]:
    """(q, value) for the highest ladder percentile that still has ten
    samples beyond it."""
    best = None
    for q in LADDER:
        try:
            best = (q, percentile(samples, q))
        except TooFewSamples:
            break
    if best is None:
        raise TooFewSamples(f"{len(samples)} samples support no percentile")
    return best


@dataclass(slots=True)
class Op:
    """One request: ``run`` is timed, ``check`` judges its output outside the
    timed interval and returns a failure message or None."""

    kind: str
    n: int
    run: Callable[[], Any]
    check: Callable[[Any], str | None]


@dataclass
class Workload:
    """The op list; ``block`` ops at a time carry the workload's full mix, so a
    timed run stops only between blocks. ``inputs`` references what the seed
    generated (for the self-tests' reproducibility check)."""

    ops: list[Op]
    block: int = 1
    properties: dict = field(default_factory=dict)
    outcomes: dict = field(default_factory=dict)
    inputs: list = field(default_factory=list)

    def count(self, label: str) -> None:
        self.outcomes[label] = self.outcomes.get(label, 0) + 1


REFERENCE_NS = 1_000_000  # what one reference_work() call takes at reference speed
REFERENCE_REPS = 6000
CALIBRATE_EVERY_S = 0.1


def reference_work() -> int:
    """Nanoseconds one fixed, interpreter-bound loop takes right now.

    The loop does the kind of work the library does (list indexing, float
    arithmetic, dict stores, small tuples), so its time tracks the speed the
    library sees. On a shared host that speed drifts by tens of percent over
    seconds as other tenants load the CPU."""
    rows = [[float(i + j) for j in range(8)] for i in range(8)]
    seen = {}
    acc = 0.0
    t0 = time.perf_counter_ns()
    for k in range(REFERENCE_REPS):
        a, b = k & 7, (k >> 3) & 7
        acc += rows[a][b] * 1.0000001 - acc * 1e-9
        seen[a] = (b, acc)
    return time.perf_counter_ns() - t0


class Speed:
    """Turns wall-clock nanoseconds into reference nanoseconds.

    ``reference_work`` is timed again every CALIBRATE_EVERY_S of wall clock;
    the times recorded between two samples are scaled by REFERENCE_NS over
    the samples' mean. A reference millisecond is the time a millisecond of
    work takes when the loop runs in exactly REFERENCE_NS."""

    def __init__(self):
        self.sample = reference_work()
        self.stamp = time.monotonic()
        self.factors: list[float] = []

    def due(self) -> bool:
        return time.monotonic() - self.stamp >= CALIBRATE_EVERY_S

    def factor(self) -> float:
        """Scale for the times recorded since the last sample; takes a new one."""
        now = reference_work()
        f = 2.0 * REFERENCE_NS / (self.sample + now)
        self.sample, self.stamp = now, time.monotonic()
        self.factors.append(f)
        return f


@dataclass
class Pass:
    """Per-op wall time, the same at reference speed, and failures."""

    latencies_ns: list[int] = field(default_factory=list)
    scaled_ns: list[float] = field(default_factory=list)
    failed: list[bool] = field(default_factory=list)
    failures: list[tuple[str, str]] = field(default_factory=list)
    busy_ns: int = 0
    speed: Speed = field(default_factory=Speed)

    @property
    def attempted(self) -> int:
        return len(self.latencies_ns)

    def record(self, op: Op, elapsed: int, err: str | None) -> None:
        self.latencies_ns.append(elapsed)
        self.busy_ns += elapsed
        self.failed.append(err is not None)
        if err is not None:
            self.failures.append((op.kind, err))
        if self.speed.due():
            self.rescale()

    def rescale(self) -> None:
        f = self.speed.factor()
        self.scaled_ns += [x * f for x in self.latencies_ns[len(self.scaled_ns):]]

    def block_rates(self, block: int) -> list[float]:
        """Completed ops per reference second, per whole block."""
        out = []
        for k in range(0, self.attempted - block + 1, block):
            done = block - sum(self.failed[k:k + block])
            out.append(done / (sum(self.scaled_ns[k:k + block]) / 1e9))
        return out


def run_op(op: Op, tracer=None) -> tuple[int, str | None, Any]:
    clock = time.perf_counter_ns
    if tracer is not None:
        tracer.active = True
    t0 = clock()
    try:
        out, err = op.run(), None
    except Exception as exc:  # an op that raises counts as failed, the loop goes on
        out, err = None, f"{type(exc).__name__}: {exc}"
    elapsed = clock() - t0
    if tracer is not None:
        tracer.active = False
    if err is None:
        try:
            err = op.check(out)
        except Exception as exc:  # a check that cannot read the output fails the op
            err = f"check raised {type(exc).__name__}: {exc}"
    return elapsed, err, out


def timed_loop(ops: list[Op], seconds: float, min_ops: int, wall_limit: float,
               block: int = 1) -> Pass:
    """Cycle through the ops until ``seconds`` of op time and ``min_ops`` ops,
    ending on a block boundary (or at ``wall_limit`` seconds of wall clock)."""
    p = Pass()
    deadline = time.monotonic() + wall_limit
    i = 0
    while ((p.busy_ns < seconds * 1e9 or p.attempted < min_ops or i % block)
           and time.monotonic() < deadline):
        op = ops[i % len(ops)]
        i += 1
        elapsed, err, _ = run_op(op)
        p.record(op, elapsed, err)
    p.rescale()
    return p


def single_pass(ops: list[Op], tracer=None, on_op=None) -> Pass:
    """Every op once, in order; ``on_op(op, spans)`` sees each op's spans."""
    p = Pass()
    for op in ops:
        elapsed, err, _ = run_op(op, tracer)
        p.record(op, elapsed, err)
        if tracer is not None:
            spans = tracer.finish_op()
            if on_op is not None:
                on_op(op, spans)
    p.rescale()
    return p


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def shares(labels) -> dict[str, float]:
    return shares_of(Counter(labels))


def shares_of(counts: dict) -> dict[str, float]:
    total = sum(counts.values())
    return {k: round(v / total, 4) for k, v in sorted(counts.items())} if total else {}


def histogram(values) -> dict[str, int]:
    return {str(k): v for k, v in sorted(Counter(values).items())}


def machine_info(cpu_model: bool = False) -> dict:
    import numpy

    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }
    if cpu_model:
        try:
            with open("/proc/cpuinfo") as fh:
                info["cpu_model"] = next(
                    (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                    platform.processor() or "unknown",
                )
        except OSError:
            info["cpu_model"] = platform.processor() or "unknown"
    return info
