"""Instances, routes, metric validation, and instance generators.

An instance is a set of pickup points plus dropoff point(s) with a pairwise
distance table, an operator rate (price per unit distance), and per-rider
detour sensitivities. Rider indices follow boarding order: whoever boards
j-th is rider j and carries the j-th sensitivity. A route fixes which pickup
point is visited at each position.

Distances are stored as an explicit table; Euclidean input is a convenience
constructor. Non-metric tables are first class (``metric_flag=False``):
some generators intentionally produce them, and consumers that require a
metric must check the flag.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import ConstructionError, MalformedInputError
from .numeric import ABS_FLOOR, DEFAULT_REL_TOL, check_tolerance

SINGLE = "single"
MULTI = "multi"
REGIME_FINITE = "finite"
REGIME_ZERO = "zero"
REGIME_INFINITE = "infinite"
REGIMES = (REGIME_FINITE, REGIME_ZERO, REGIME_INFINITE)

PICKUP = "P"
DROPOFF = "D"

# Sums held at once by the triangle check (float64 elements per row block).
_TRIANGLE_BLOCK = 2 ** 16


# ---------------------------------------------------------------------------
# Metric validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MetricViolation:
    kind: str  # "negative" | "diagonal" | "asymmetric" | "triangle"
    indices: tuple[int, ...]
    excess: float


@dataclass(frozen=True)
class MetricReport:
    ok: bool
    violations: tuple[MetricViolation, ...]

    def by_kind(self, kind: str) -> list[MetricViolation]:
        return [v for v in self.violations if v.kind == kind]


def _as_square_matrix(entries) -> np.ndarray:
    arr = np.asarray(entries, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise MalformedInputError(f"distance table must be square, got shape {arr.shape}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise MalformedInputError("distance table contains NaN or infinite entries")
    return arr


def _tolerances(scale: np.ndarray, rel_tol: float):
    """Elementwise ``comparison_tolerance`` for a nonnegative scale array."""
    if rel_tol == 0.0:
        return 0  # an int keeps integer tables in integer arithmetic
    return np.maximum(rel_tol * scale, ABS_FLOOR)


def validate_metric(table, rel_tol: float = DEFAULT_REL_TOL) -> MetricReport:
    """Report every symmetry, nonnegativity, diagonal, and triangle violation.

    ``table`` may be a raw matrix or a :class:`DistanceTable`. A relative
    tolerance of 0 makes every check exact. Violations come out diagonal
    first, then per pair (a < b) its asymmetry before its negativity, then
    triangles in lexicographic (a, b, c) order with a < c.

    Cost: O(m^3) time and O(m^2) memory for m points. The triangle check
    walks the endpoint rows ``a`` in blocks of about ``_TRIANGLE_BLOCK``
    sums, so no m^3 array is ever held.
    """
    check_tolerance(rel_tol)
    if isinstance(table, DistanceTable):
        d = table.entries
    else:
        d = _as_square_matrix(table)
    m = d.shape[0]
    violations: list[MetricViolation] = []

    diag = np.abs(np.diagonal(d))
    for a in np.flatnonzero(diag > _tolerances(diag, rel_tol)):
        violations.append(MetricViolation("diagonal", (int(a),), float(diag[a])))

    gap = np.abs(d - d.T)
    asym = gap > _tolerances(np.maximum(np.abs(d), np.abs(d.T)), rel_tol)
    neg = d < -_tolerances(np.abs(d), rel_tol)
    for a, b in zip(*np.nonzero(asym | neg)):
        if a < b:  # the upper triangle, in row-major order
            pair = (int(a), int(b))
            if asym[a, b]:
                violations.append(MetricViolation("asymmetric", pair, float(gap[a, b])))
            if neg[a, b]:
                violations.append(MetricViolation("negative", pair, -float(d[a, b])))

    # Triangle check: d(a,c) <= d(a,b) + d(b,c) for every b distinct from a, c.
    # The tolerance is never negative, so only entries with d(a,c) above the
    # bare sum can fail; the tolerance is computed for those alone.
    rows_per_block = max(1, _TRIANGLE_BLOCK // max(m * m, 1))
    for a0 in range(0, m - 1, rows_per_block):
        a1 = min(a0 + rows_per_block, m - 1)
        sums = d[a0:a1, :, None] + d[None, :, a0 + 1:]  # sums[a, b, c] = d(a,b) + d(b,c)
        over = d[a0:a1, None, a0 + 1:] > sums
        if not over.any():
            continue
        found = np.nonzero(over)
        via = sums[found]
        a, b, c = found[0] + a0, found[1], found[2] + a0 + 1
        keep = (a < c) & (b != a) & (b != c)  # one report per endpoint pair and witness
        a, b, c, via = a[keep], b[keep], c[keep], via[keep]
        direct = d[a, c]
        bad = direct > via + _tolerances(np.maximum(np.abs(direct), np.abs(via)), rel_tol)
        for a_, b_, c_, excess in zip(a[bad], b[bad], c[bad], (direct - via)[bad]):
            violations.append(
                MetricViolation("triangle", (int(a_), int(b_), int(c_)), float(excess))
            )

    return MetricReport(ok=not violations, violations=tuple(violations))


@dataclass(frozen=True, eq=False)
class DistanceTable:
    """Symmetric nonnegative distance matrix with a metric flag.

    ``metric_flag`` asserts the triangle inequality holds; it is computed at
    construction unless explicitly supplied (generators that prove it by
    construction pass it directly).
    """

    entries: np.ndarray
    metric_flag: bool

    def __post_init__(self):
        self.entries.setflags(write=False)

    @property
    def size(self) -> int:
        return self.entries.shape[0]

    @cached_property
    def rows(self) -> list[list[float]]:
        # Plain-list view for hot loops.
        return self.entries.tolist()

    @classmethod
    def from_matrix(cls, entries, metric_flag: bool | None = None,
                    rel_tol: float = DEFAULT_REL_TOL) -> "DistanceTable":
        arr = _as_square_matrix(entries).copy()
        report = validate_metric(arr, rel_tol)
        hard = [v for v in report.violations if v.kind != "triangle"]
        if hard:
            first = hard[0]
            raise MalformedInputError(
                f"distance table is not a valid table: {first.kind} violation at {first.indices}"
            )
        if metric_flag is None:
            metric_flag = report.ok
        return cls(entries=arr, metric_flag=bool(metric_flag))


def from_euclidean(coords: Sequence) -> DistanceTable:
    """Distance table of pairwise Euclidean distances.

    Accepts scalars (line metric) or same-dimension coordinate vectors.
    """
    rows = []
    dim = None
    for c in coords:
        vec = [float(c)] if np.isscalar(c) else [float(x) for x in c]
        if dim is None:
            dim = len(vec)
        elif len(vec) != dim:
            raise MalformedInputError(
                f"mixed coordinate dimensions: expected {dim}, got {len(vec)}"
            )
        rows.append(vec)
    pts = np.asarray(rows, dtype=float)
    if pts.size and not np.all(np.isfinite(pts)):
        raise MalformedInputError("coordinates contain NaN or infinite values")
    diff = pts[:, None, :] - pts[None, :, :]
    entries = np.sqrt((diff * diff).sum(axis=2))
    np.fill_diagonal(entries, 0.0)
    return DistanceTable(entries=entries, metric_flag=True)


# ---------------------------------------------------------------------------
# Instance
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Instance:
    """Pickup/dropoff geometry plus pricing and sensitivity parameters.

    ``dist`` covers the pickups (indices 0..n-1, rider-visible labels 1..n)
    followed by the dropoff point(s): one shared point in ``single`` mode,
    or one per pickup point in ``multi`` mode. ``alphas[j-1]`` is the detour
    sensitivity of whoever boards j-th. ``regime`` selects how feasibility
    bounds treat the sensitivities: as given (``finite``), or in the limits
    where they vanish (``zero``) or dominate (``infinite``) relative to the
    operator rate; in the limit regimes the stored values are ignored by
    feasibility checks.
    """

    dist: DistanceTable
    n: int
    dropoff_mode: str
    alpha_op: float
    alphas: tuple[float, ...]
    regime: str = REGIME_FINITE

    def __post_init__(self):
        if self.n < 1:
            raise MalformedInputError("instance needs at least one rider")
        if self.dropoff_mode not in (SINGLE, MULTI):
            raise MalformedInputError(f"unknown dropoff mode {self.dropoff_mode!r}")
        if self.regime not in REGIMES:
            raise MalformedInputError(f"unknown regime {self.regime!r}")
        expected = self.n + 1 if self.dropoff_mode == SINGLE else 2 * self.n
        if self.dist.size != expected:
            raise MalformedInputError(
                f"distance table has {self.dist.size} points, expected {expected} "
                f"for n={self.n} in {self.dropoff_mode} mode"
            )
        if not (0 < self.alpha_op < math.inf):
            raise MalformedInputError("operator rate must be positive and finite")
        if len(self.alphas) != self.n:
            raise MalformedInputError(f"need {self.n} sensitivities, got {len(self.alphas)}")
        if not all(0 <= a < math.inf for a in self.alphas):
            raise MalformedInputError("detour sensitivities must be nonnegative and finite")
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))

    # -- geometry helpers (labels are 1-based) --

    @cached_property
    def rows(self) -> list[list[float]]:
        return self.dist.rows

    def pickup_distance(self, a: int, b: int) -> float:
        return self.rows[a - 1][b - 1]

    def dropoff_index(self, point_label: int) -> int:
        """0-based table index of the dropoff serving the given pickup point."""
        if self.dropoff_mode == SINGLE:
            return self.n
        return self.n + point_label - 1

    @cached_property
    def _direct(self) -> tuple[float, ...]:
        """Pickup-to-own-dropoff distance by point label (index 0 is padding)."""
        labels = range(1, self.n + 1)
        return (0.0,) + tuple(self.rows[p - 1][self.dropoff_index(p)] for p in labels)

    def direct_distance(self, point_label: int) -> float:
        return self._direct[point_label]

    @cached_property
    def alpha_prefix(self) -> tuple[float, ...]:
        """alpha_prefix[j] = sum of the first j sensitivities."""
        sums = [0.0]
        for a in self.alphas:
            sums.append(sums[-1] + a)
        return tuple(sums)

    # -- serialization --

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "dropoff_mode": self.dropoff_mode,
            "distance_matrix": [[float(x) for x in row] for row in self.rows],
            "alpha_op": float(self.alpha_op),
            "alphas": [float(a) for a in self.alphas],
            "regime": self.regime,
            "metric_flag": bool(self.dist.metric_flag),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Instance":
        if not isinstance(data, dict):
            raise MalformedInputError("instance JSON root must be an object")
        for key in ("n", "dropoff_mode", "alpha_op", "alphas", "regime"):
            if key not in data:
                raise MalformedInputError(f"instance JSON missing required key {key!r}")
        has_matrix = data.get("distance_matrix") is not None
        has_coords = data.get("coords") is not None
        if has_matrix == has_coords:
            raise MalformedInputError(
                "instance JSON must supply exactly one of 'distance_matrix' or 'coords'"
            )
        if has_coords:
            table = from_euclidean(data["coords"])
        else:
            table = DistanceTable.from_matrix(
                data["distance_matrix"], metric_flag=data.get("metric_flag")
            )
        try:
            n = int(data["n"])
            alpha_op = float(data["alpha_op"])
            alphas = tuple(float(a) for a in data["alphas"])
        except (TypeError, ValueError) as exc:
            raise MalformedInputError(f"instance JSON has a non-numeric field: {exc}") from exc
        return cls(
            dist=table,
            n=n,
            dropoff_mode=str(data["dropoff_mode"]),
            alpha_op=alpha_op,
            alphas=alphas,
            regime=str(data["regime"]),
        )

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path) -> "Instance":
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise MalformedInputError(f"cannot read instance file {path}: {exc}") from exc
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise MalformedInputError(f"instance file {path} is not valid JSON: {exc}") from exc
        return cls.from_dict(data)


# ---------------------------------------------------------------------------
# Routes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Route:
    """Ordered pickup/dropoff event sequence.

    Pickup events are tagged with the pickup point label being visited;
    dropoff events are tagged with the rider's boarding rank (rider j is
    whoever boarded j-th). Single-dropoff routes are a permutation of the
    pickups followed by the shared dropoff.
    """

    events: tuple[tuple[str, int], ...]

    @classmethod
    def single_dropoff(cls, order: Iterable[int]) -> "Route":
        order = tuple(int(x) for x in order)
        events = tuple((PICKUP, p) for p in order)
        events += tuple((DROPOFF, r) for r in range(1, len(order) + 1))
        return cls(events=events)

    @cached_property
    def pickup_order(self) -> tuple[int, ...]:
        return tuple(idx for kind, idx in self.events if kind == PICKUP)

    @property
    def n(self) -> int:
        return len(self.pickup_order)

    @cached_property
    def _shape(self) -> tuple[int, str | None, bool]:
        """Instance-free checks: (rider count, or -1 unless the pickups are a
        permutation of 1..n; first other defect or None; whether a dropoff
        precedes a pickup)."""
        n = self.n
        if sorted(self.pickup_order) != list(range(1, n + 1)):
            return -1, None, False
        drop_ranks = [idx for kind, idx in self.events if kind == DROPOFF]
        if sorted(drop_ranks) != list(range(1, n + 1)):
            return n, "route must drop off each rider exactly once", False
        seen_pickups = 0
        for kind, idx in self.events:
            if kind == PICKUP:
                seen_pickups += 1
            elif kind != DROPOFF:
                return n, f"unknown event kind {kind!r}", False
            elif idx > seen_pickups:
                return n, f"rider {idx} dropped off before boarding", False
        # n pickups and n dropoffs remain, so the pickups come first iff they fill events[:n]
        return n, None, any(kind != PICKUP for kind, _ in self.events[:n])

    def validate(self, instance: Instance) -> None:
        """Raise MalformedInputError unless the route serves this instance.

        The instance-free checks are cached per route, so repeat calls are O(1).
        """
        riders, defect, interleaved = self._shape
        if riders != instance.n:
            defect = (f"route must pick up each of the {instance.n} points exactly once, "
                      f"got {self.pickup_order}")
        elif defect is None and interleaved and instance.dropoff_mode == SINGLE:
            defect = "single-dropoff routes finish all pickups before the shared dropoff"
        if defect is not None:
            raise MalformedInputError(defect)

    def event_points(self, instance: Instance) -> list[int]:
        """0-based table index visited by each event, in order."""
        order = self.pickup_order
        points = []
        for kind, idx in self.events:
            if kind == PICKUP:
                points.append(idx - 1)
            else:
                points.append(instance.dropoff_index(order[idx - 1]))
        return points

    def to_tokens(self) -> str:
        parts = []
        pending_drops = set(range(1, self.n + 1))
        if all(kind == PICKUP for kind, _ in self.events[: self.n]):
            # canonical single-dropoff shape prints as the pickup order only
            if [idx for kind, idx in self.events if kind == DROPOFF] == sorted(pending_drops):
                return ",".join(str(p) for p in self.pickup_order)
        for kind, idx in self.events:
            parts.append(str(idx) if kind == PICKUP else f"d{idx}")
        return ",".join(parts)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def _check_positive(name: str, value: float) -> None:
    if not (value > 0):
        raise ConstructionError(f"{name} must be positive, got {value}")


def generate_lower_bound_instance(
    n: int,
    alpha_op: float = 1.0,
    alphas: Sequence[float] | None = None,
    ell: float = 1.0,
    slack: float = 0.01,
) -> Instance:
    """Instance whose only feasible route has the worst-case detour ratio.

    All pickups sit at distance ``ell`` from the dropoff. Consecutive pickups
    j-1 and j are exactly the stage-j detour budget apart, so the route
    (1, 2, ..., n, D) is feasible with every constraint tight; every other
    pair is strictly farther apart (by a slack factor, clamped so the table
    stays metric), which rules out every other boarding order for n >= 3.
    At n=2 with equal weights no metric can force the order: the table is
    symmetric in the two pickups, so (1, 2) and (2, 1) mirror each other
    and both are feasible with every stage tight.

    Requires strictly positive sensitivities: with a zero weight two stage
    budgets coincide and the boarding order is no longer forced.
    """
    if n < 1:
        raise ConstructionError("need n >= 1")
    _check_positive("ell", ell)
    _check_positive("slack", slack)
    _check_positive("alpha_op", alpha_op)
    if alphas is None:
        alphas = [alpha_op] * n
    alphas = [float(a) for a in alphas]
    if len(alphas) != n:
        raise ConstructionError(f"need {n} sensitivities, got {len(alphas)}")
    for a in alphas:
        if not (a > 0):
            raise ConstructionError(
                "lower-bound construction requires strictly positive sensitivities"
            )

    # z[j] is the stage-j detour budget as a fraction of the direct distance.
    z = [0.0] * (n + 1)
    acc = 0.0
    for j in range(1, n + 1):
        z[j] = 1.0 / (1.0 + acc / alpha_op)
        acc += alphas[j - 1]

    # Triangle constraint for pickups a, a+1, a+2 binds the slack factor:
    # the separation of the non-adjacent pair may exceed z[a+1]*ell by at
    # most z[a+2]*ell.
    s_eff = slack
    for a in range(1, n - 1):
        s_eff = min(s_eff, z[a + 2] / z[a + 1])
    if not (s_eff > 0):
        raise ConstructionError(
            f"slack clamped to {s_eff}; cannot keep non-adjacent pairs strictly separated"
        )

    size = n + 1
    mat = np.zeros((size, size), dtype=float)
    for a in range(1, n + 1):
        mat[a - 1, n] = mat[n, a - 1] = ell
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            dab = z[a + 1] * ell if b == a + 1 else z[a + 1] * ell * (1.0 + s_eff)
            mat[a - 1, b - 1] = mat[b - 1, a - 1] = dab

    report = validate_metric(mat)
    if not report.ok:
        first = report.by_kind("triangle")[0]
        raise ConstructionError(
            f"constructed table violates the triangle inequality at points {first.indices}"
        )
    table = DistanceTable(entries=mat, metric_flag=True)
    return Instance(dist=table, n=n, dropoff_mode=SINGLE, alpha_op=float(alpha_op),
                    alphas=tuple(alphas), regime=REGIME_FINITE)


def generate_sqrt_tight_instance(n: int, ell: float = 1.0) -> Instance:
    """Colinear instance where the ascending route meets every bound exactly.

    Dropoff at the origin, pickups on one ray with the j-th at
    (2j/(2j-1)) times the previous distance; sensitivities equal the
    operator rate, so the stage-j detour budget is exactly met along
    (1, 2, ..., n, D). The descending route has zero detour throughout.
    """
    if n < 1:
        raise ConstructionError("need n >= 1")
    _check_positive("ell", ell)
    positions = [float(ell)]
    for j in range(2, n + 1):
        positions.append(positions[-1] * (2 * j) / (2 * j - 1))
    table = from_euclidean(positions + [0.0])
    return Instance(dist=table, n=n, dropoff_mode=SINGLE, alpha_op=1.0,
                    alphas=(1.0,) * n, regime=REGIME_FINITE)


def generate_exp_tight_instance(n: int, ell: float = 1.0) -> Instance:
    """Colinear instance with doubling distances, for the vanishing-weight regime.

    Pickup i sits at distance 2**(i-1) * ell; with sensitivities that vanish
    relative to the operator rate the ascending route is feasible with every
    stage bound tight.
    """
    if n < 1:
        raise ConstructionError("need n >= 1")
    _check_positive("ell", ell)
    positions = [float(2 ** (i - 1)) * ell for i in range(1, n + 1)]
    table = from_euclidean(positions + [0.0])
    return Instance(dist=table, n=n, dropoff_mode=SINGLE, alpha_op=1.0,
                    alphas=(0.0,) * n, regime=REGIME_ZERO)


def reduce_hampath(n_vertices: int, edges: Iterable[tuple[int, int]],
                   ell: float = 1.0) -> Instance:
    """Encode an undirected graph so feasible routes are its Hamiltonian paths.

    Pickup points mirror the vertices: adjacent vertices are ell/n apart,
    non-adjacent ones ell apart, and everyone is ell from the dropoff, with
    all rates equal. The stage-j budget is ell/j, so a boarding order is
    feasible exactly when every consecutive pair is a graph edge. The table
    is generally non-metric; the flag records what validation finds.
    """
    if n_vertices < 2:
        raise ConstructionError("need at least 2 vertices")
    _check_positive("ell", ell)
    edge_set: set[frozenset[int]] = set()
    for u, v in edges:
        u, v = int(u), int(v)
        if u == v:
            raise ConstructionError(f"self-loop at vertex {u}; graph must be simple")
        if not (1 <= u <= n_vertices and 1 <= v <= n_vertices):
            raise ConstructionError(f"edge ({u},{v}) out of range 1..{n_vertices}")
        edge_set.add(frozenset((u, v)))

    n = n_vertices
    size = n + 1
    mat = np.full((size, size), float(ell))
    np.fill_diagonal(mat, 0.0)
    for pair in edge_set:
        u, v = tuple(pair)
        mat[u - 1, v - 1] = mat[v - 1, u - 1] = ell / n

    flag = validate_metric(mat).ok
    table = DistanceTable(entries=mat, metric_flag=flag)
    return Instance(dist=table, n=n, dropoff_mode=SINGLE, alpha_op=1.0,
                    alphas=(1.0,) * n, regime=REGIME_FINITE)


def reduce_path_tsp(metric, margin: float = 0.01) -> Instance:
    """Embed a metric so the best feasible route solves its open-path tour.

    Pickup distances are copied; every pickup is a common distance L from
    the dropoff with L exceeding n times the largest pickup separation (by a
    configurable margin, so the comparison survives floating point). All
    rates equal. Every boarding order is then feasible and its length is the
    corresponding vertex path weight plus L.
    """
    if isinstance(metric, DistanceTable):
        if not metric.metric_flag:
            raise MalformedInputError("input table must be metric")
        entries = metric.entries
    else:
        entries = _as_square_matrix(metric)
        if not validate_metric(entries).ok:
            raise MalformedInputError("input table must be metric")
    n = entries.shape[0]
    if n < 2:
        raise ConstructionError("need at least 2 pickup points")
    _check_positive("margin", margin)
    maxdist = float(entries.max())
    if maxdist <= 0:
        raise ConstructionError("degenerate all-zero metric")
    big_l = n * maxdist * (1.0 + margin)

    size = n + 1
    mat = np.zeros((size, size), dtype=float)
    mat[:n, :n] = entries
    mat[:n, n] = big_l
    mat[n, :n] = big_l
    table = DistanceTable(entries=mat, metric_flag=True)
    return Instance(dist=table, n=n, dropoff_mode=SINGLE, alpha_op=1.0,
                    alphas=(1.0,) * n, regime=REGIME_FINITE)


def line_instance(positions: Sequence[float], dropoff: float,
                  alpha_op: float = 1.0) -> Instance:
    """Single-dropoff instance on the line with all rates equal."""
    coords = [float(p) for p in positions] + [float(dropoff)]
    table = from_euclidean(coords)
    n = len(positions)
    return Instance(dist=table, n=n, dropoff_mode=SINGLE, alpha_op=float(alpha_op),
                    alphas=(float(alpha_op),) * n, regime=REGIME_FINITE)
